#include "layers.hpp"

#include <map>
#include <set>

#include "compiler/multi_criteria.hpp"
#include "contracts/certificate.hpp"
#include "contracts/system.hpp"
#include "coordination/glue.hpp"
#include "coordination/scheduler.hpp"
#include "csl/csl.hpp"
#include "energy/analyser.hpp"
#include "ir/fingerprint.hpp"
#include "ir/validate.hpp"
#include "profiler/pow_profiler.hpp"
#include "security/taint.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"
#include "wcet/analyser.hpp"

namespace perfbench {

using namespace teamplay;

namespace {

// The helpers below restate, from the engine's documented behaviour, how
// its stages feed each layer (core/stages.cpp); the comparisons after each
// call prove the restatement right on every traced run.

std::vector<std::string> allowed_classes(
    const csl::TaskSpec& spec, const std::map<std::string, std::size_t>& reps) {
    std::vector<std::string> classes;
    for (const auto& [cls, index] : reps)
        if (spec.core_class.empty() || spec.core_class == cls)
            classes.push_back(cls);
    return classes;
}

coordination::GlueStyle default_glue_style(const platform::Platform& platform) {
    if (platform.name == "gr712rc") return coordination::GlueStyle::kRtems;
    if (platform.predictable() && platform.cores.size() == 1)
        return coordination::GlueStyle::kSequential;
    return coordination::GlueStyle::kPosix;
}

std::vector<compiler::TaskVersion> compile_front(
    const compiler::MultiCriteriaCompiler& mcc, const csl::TaskSpec& spec,
    compiler::MultiCriteriaCompiler::Options options) {
    options.explore_security = spec.security_hint == "auto";
    auto front = mcc.optimise(spec.entry, options);
    if (spec.security_hint == "balance" || spec.security_hint == "ladder") {
        const auto forced = spec.security_hint == "balance"
                                ? compiler::SecurityLevel::kBalance
                                : compiler::SecurityLevel::kLadder;
        for (auto& version : front) {
            auto config = version.config;
            config.security = forced;
            version = mcc.compile(spec.entry, config);
        }
    }
    return front;
}

bool same_version(const compiler::TaskVersion& a,
                  const compiler::TaskVersion& b) {
    return a.config.label() == b.config.label() &&
           a.config.opp_index == b.config.opp_index && a.wcet_s == b.wcet_s &&
           a.wcec_j == b.wcec_j && a.energy_dynamic_j == b.energy_dynamic_j &&
           a.leakage == b.leakage && a.static_instrs == b.static_instrs;
}

bool same_schedule(const coordination::Schedule& a,
                   const coordination::Schedule& b) {
    if (a.entries.size() != b.entries.size() || a.makespan_s != b.makespan_s ||
        a.feasible != b.feasible)
        return false;
    for (std::size_t i = 0; i < a.entries.size(); ++i) {
        const auto& x = a.entries[i];
        const auto& y = b.entries[i];
        if (x.task != y.task || x.core != y.core || x.version != y.version ||
            x.core_class != y.core_class || x.start_s != y.start_s ||
            x.finish_s != y.finish_s || x.opp_index != y.opp_index ||
            x.dynamic_energy_j != y.dynamic_energy_j)
            return false;
    }
    return true;
}

std::vector<contracts::ContractInput> contract_inputs(
    const platform::Platform& platform, const core::ToolchainReport& report) {
    std::vector<contracts::ContractInput> inputs;
    for (const auto& entry : report.schedule.entries) {
        const auto* spec = report.spec.find(entry.task);
        if (spec == nullptr) continue;
        contracts::ContractInput input;
        input.poi = entry.task;
        input.function = spec->entry;
        input.time_budget_s = spec->time_budget_s;
        input.energy_budget_j = spec->energy_budget_j;
        input.leakage_budget = spec->leakage_budget;
        if (platform.predictable()) {
            const auto* version = report.chosen_version(entry.task);
            if (version == nullptr) continue;
            input.program = version->program.get();
            input.core = &platform.cores[entry.core];
            input.opp_index = version->config.opp_index;
            input.leakage_proxy = version->leakage;
        } else {
            const auto* task = report.graph.find(entry.task);
            const auto& cls = platform.cores[entry.core].core_class;
            const auto* versions =
                task == nullptr ? nullptr : task->versions_for(cls);
            if (versions == nullptr || entry.version >= versions->size())
                continue;
            const auto& choice = (*versions)[entry.version];
            input.measured_only = true;
            input.measured_time_s = choice.time_s;
            input.measured_energy_j = choice.energy_j;
            input.leakage_proxy = choice.leakage;
        }
        inputs.push_back(std::move(input));
    }
    return inputs;
}

class Tracer {
public:
    Tracer(const Workload& workload, Recorder& recorder)
        : workload_(workload),
          recorder_(recorder),
          sim_{sim::SimBackend::kTrace, std::make_shared<sim::TraceCache>()} {}

    void scenario(std::uint32_t request, const core::ToolchainReport& report) {
        const Scenario& scenario = workload_.distinct[request];
        request_ = request;
        const auto& platform = *scenario.platform;

        csl::AppSpec spec;
        {
            ScopedSpan span(recorder_, "csl.parse", request_);
            spec = csl::parse(scenario.csl_source);
        }
        if (spec.tasks.size() != report.spec.tasks.size())
            mismatch(scenario, "csl::parse");

        if (validated_.insert(scenario.program).second) {
            std::vector<std::string> errors;
            {
                ScopedSpan span(recorder_, "ir.validate", request_);
                errors = ir::validate(*scenario.program);
            }
            if (!errors.empty()) mismatch(scenario, "ir::validate");
        }

        std::map<std::string, std::uint64_t> fingerprints;
        for (const auto& task : spec.tasks) {
            ScopedSpan span(recorder_, "ir.fingerprint", request_);
            fingerprints[task.entry] =
                ir::structural_fingerprint(*scenario.program, task.entry);
        }
        for (const auto& task : spec.tasks) {
            const auto* fn = scenario.program->find(task.entry);
            if (fn == nullptr ||
                !tainted_.insert({scenario.program, task.entry}).second)
                continue;
            ScopedSpan span(recorder_, "security.taint", request_);
            (void)security::analyze_taint(*scenario.program, *fn);
        }

        if (platform.predictable())
            fronts(scenario, spec, fingerprints, report);
        else
            profiles(scenario, spec, fingerprints, report);
        deployed_runs(scenario, report);
        coordinate(scenario, report);
        contract(scenario, report);
    }

    std::vector<std::string> take_mismatches() {
        return std::move(mismatches_);
    }

private:
    void mismatch(const Scenario& scenario, const std::string& call) {
        mismatches_.push_back(scenario.label + ": " + call +
                              " does not reproduce the engine's output");
    }

    void fronts(const Scenario& scenario, const csl::AppSpec& spec,
                const std::map<std::string, std::uint64_t>& fingerprints,
                const core::ToolchainReport& report) {
        const auto& platform = *scenario.platform;
        const auto reps = class_representatives(platform);
        const auto& options = scenario.options.compiler;
        for (const auto& task : spec.tasks) {
            for (const auto& cls : allowed_classes(task, reps)) {
                const auto& core = platform.cores[reps.at(cls)];
                // One search per engine cache key: kernel, class, board,
                // search options and security hint.
                const std::string key =
                    std::to_string(fingerprints.at(task.entry)) + "/" +
                    task.entry + "/" + platform.name + "/" + cls + "/" +
                    std::to_string(options.seed) + "/" +
                    std::to_string(options.population) + "/" +
                    std::to_string(options.iterations) + "/" +
                    task.security_hint;
                if (!searched_.insert(key).second) continue;

                const compiler::MultiCriteriaCompiler mcc(*scenario.program,
                                                          core, sim_);
                std::vector<compiler::TaskVersion> front;
                {
                    ScopedSpan span(recorder_, "compiler.optimise", request_);
                    front = compile_front(mcc, task, options);
                }
                recorder_.count("compiler.fronts", 1);

                const core::TaskFront* engine_front = nullptr;
                for (const auto& candidate : report.fronts)
                    if (candidate.task == task.name &&
                        candidate.core_class == cls)
                        engine_front = &candidate;
                bool same = engine_front != nullptr &&
                            engine_front->versions.size() == front.size();
                for (std::size_t v = 0; same && v < front.size(); ++v)
                    same = same_version(front[v], engine_front->versions[v]);
                if (!same)
                    mismatch(scenario, "compiler optimise of " + task.name);

                std::vector<compiler::PassConfig> configs;
                for (const auto& version : front)
                    configs.push_back(version.config);
                configs.push_back(mcc.traditional_config());
                for (const auto& config : configs) {
                    ScopedSpan span(recorder_, "compiler.compile", request_);
                    (void)mcc.compile(task.entry, config);
                }
                for (const auto& version : front) {
                    const std::size_t opp = version.config.opp_index;
                    wcet::WcetResult wcet;
                    {
                        ScopedSpan span(recorder_, "wcet.analyse", request_);
                        wcet = wcet::Analyser(*version.program)
                                   .analyse(task.entry, core, opp);
                    }
                    energy::EnergyResult energy;
                    {
                        ScopedSpan span(recorder_, "energy.analyse", request_);
                        energy = energy::Analyser(*version.program)
                                     .analyse(task.entry, core, opp);
                    }
                    if (wcet.time_s != version.wcet_s ||
                        energy.wcec_j != version.wcec_j)
                        mismatch(scenario, "static analysis of " + task.name);
                }
            }
        }
    }

    void profiles(const Scenario& scenario, const csl::AppSpec& spec,
                  const std::map<std::string, std::uint64_t>& fingerprints,
                  const core::ToolchainReport& report) {
        const auto& platform = *scenario.platform;
        const auto reps = class_representatives(platform);
        for (const auto& task : spec.tasks) {
            const auto* fn = scenario.program->find(task.entry);
            const auto* graph_task = report.graph.find(task.name);
            if (fn == nullptr || graph_task == nullptr) {
                mismatch(scenario, "profile of " + task.name);
                continue;
            }
            for (const auto& cls : allowed_classes(task, reps)) {
                const auto& core = platform.cores[reps.at(cls)];
                const auto* versions = graph_task->versions_for(cls);
                for (std::size_t opp = 0; opp < core.opps.size(); ++opp) {
                    // One campaign per engine cache key: kernel, class,
                    // board, OPP and run count.
                    const std::string key =
                        std::to_string(fingerprints.at(task.entry)) + "/" +
                        task.entry + "/" + platform.name + "/" + cls + "/" +
                        std::to_string(opp) + "/" +
                        std::to_string(scenario.options.profile_runs);
                    if (!profiled_.insert(key).second) continue;
                    profiler::TaskProfile profile;
                    {
                        ScopedSpan span(recorder_, "profiler.profile",
                                        request_);
                        profiler::PowProfiler prof(*scenario.program, core, opp,
                                                   opp * 131 + 7, sim_);
                        profile = prof.profile(
                            task.entry, profiler::zero_inputs(fn->param_count),
                            scenario.options.profile_runs);
                    }
                    recorder_.count("profiler.campaigns", 1);
                    if (versions == nullptr || opp >= versions->size() ||
                        (*versions)[opp].time_s !=
                            profile.time_s.high_water_mark() ||
                        (*versions)[opp].energy_j != profile.energy_j.mean)
                        mismatch(scenario, "profile of " + task.name);
                }
            }
        }
    }

    /// One zeroed-input run of each scheduled task's deployed program (the
    /// chosen compiled version, or the source on a profiled board) at its
    /// scheduled core and OPP, on the trace tier.
    void deployed_runs(const Scenario& scenario,
                       const core::ToolchainReport& report) {
        const auto& platform = *scenario.platform;
        for (const auto& entry : report.schedule.entries) {
            const auto* spec = report.spec.find(entry.task);
            if (spec == nullptr) continue;
            const ir::Program* program = scenario.program;
            if (const auto* version = report.chosen_version(entry.task))
                program = version->program.get();
            const auto* fn = program->find(spec->entry);
            if (fn == nullptr) continue;
            const auto& core = platform.cores[entry.core];
            sim::Machine machine(*program, core, entry.opp_index,
                                 entry.opp_index * 131 + 7, sim_);
            const std::vector<ir::Word> args(
                static_cast<std::size_t>(fn->param_count), 0);
            sim::RunResult result;
            const auto start = Clock::now();
            {
                ScopedSpan span(recorder_, "sim.run", request_);
                result = machine.run(spec->entry, args);
            }
            const double seconds = seconds_since(start);
            const auto instrs = static_cast<double>(result.instrs_executed);
            if (instrs > 0)
                recorder_.sample("sim.ns_per_instr", seconds * 1e9 / instrs);
            recorder_.count("sim.instrs",
                            static_cast<double>(result.instrs_executed));
        }
    }

    void coordinate(const Scenario& scenario,
                      const core::ToolchainReport& report) {
        const auto& platform = *scenario.platform;
        auto options = scenario.options.scheduler;
        options.deadline_s = effective_deadline(scenario, report.spec);
        coordination::Schedule schedule;
        {
            ScopedSpan span(recorder_, "coordination.schedule", request_);
            schedule = coordination::Scheduler(platform).schedule(report.graph,
                                                                  options);
        }
        if (!same_schedule(schedule, report.schedule))
            mismatch(scenario, "coordination::Scheduler::schedule");

        std::string glue;
        {
            ScopedSpan span(recorder_, "coordination.glue", request_);
            glue = coordination::generate_glue(
                report.graph, report.schedule, platform,
                scenario.options.glue_style.value_or(
                    default_glue_style(platform)));
        }
        if (glue != report.glue_code)
            mismatch(scenario, "coordination::generate_glue");

        for (std::size_t c = 0; c < platform.cores.size(); ++c) {
            std::vector<coordination::PeriodicTask> periodic;
            bool all_periodic = true;
            for (const auto& entry : report.schedule.entries) {
                if (entry.core != c) continue;
                const auto* spec = report.spec.find(entry.task);
                if (spec == nullptr || spec->period_s <= 0.0) {
                    all_periodic = false;
                    break;
                }
                periodic.push_back({entry.task, entry.finish_s - entry.start_s,
                                    spec->period_s, spec->deadline_s});
            }
            if (!all_periodic || periodic.size() <= 1) continue;
            coordination::RtaResult rta;
            {
                ScopedSpan span(recorder_, "coordination.rta", request_);
                rta = coordination::response_time_analysis(periodic);
            }
            const auto it = report.rta.find(c);
            if (it == report.rta.end() ||
                it->second.schedulable != rta.schedulable ||
                it->second.response_times != rta.response_times)
                mismatch(scenario, "coordination::response_time_analysis");
        }
    }

    void contract(const Scenario& scenario,
                  const core::ToolchainReport& report) {
        const auto inputs = contract_inputs(*scenario.platform, report);
        contracts::Certificate certificate;
        {
            ScopedSpan span(recorder_, "contracts.check", request_);
            certificate = contracts::check_contracts(
                report.spec.name, scenario.platform->name, inputs);
        }
        if (certificate.to_text() != report.certificate.to_text())
            mismatch(scenario, "contracts::check_contracts");
        bool verified = false;
        {
            ScopedSpan span(recorder_, "contracts.verify", request_);
            verified = contracts::verify_certificate(report.certificate);
        }
        if (!verified) mismatch(scenario, "contracts::verify_certificate");
    }

    const Workload& workload_;
    Recorder& recorder_;
    sim::SimOptions sim_;
    std::uint32_t request_ = 0;
    std::set<const ir::Program*> validated_;
    std::set<std::pair<const ir::Program*, std::string>> tainted_;
    std::set<std::string> searched_;
    std::set<std::string> profiled_;
    std::vector<std::string> mismatches_;
};

}  // namespace

std::vector<std::string> trace_layers(
    const Workload& workload,
    const std::vector<const core::ToolchainReport*>& reports,
    Recorder& recorder) {
    Tracer tracer(workload, recorder);
    for (std::size_t d = 0; d < reports.size(); ++d)
        if (reports[d] != nullptr)
            tracer.scenario(static_cast<std::uint32_t>(d), *reports[d]);
    return tracer.take_mismatches();
}

}  // namespace perfbench
