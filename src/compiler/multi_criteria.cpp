#include "compiler/multi_criteria.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "energy/analyser.hpp"
#include "ir/lowering.hpp"
#include "security/taint.hpp"
#include "security/transforms.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"
#include "wcet/analyser.hpp"

namespace teamplay::compiler {

std::string_view security_level_name(SecurityLevel level) {
    switch (level) {
        case SecurityLevel::kNone: return "none";
        case SecurityLevel::kBalance: return "balance";
        case SecurityLevel::kLadder: return "ladder";
    }
    return "?";
}

std::string PassConfig::label() const {
    std::ostringstream os;
    os << "u" << unroll_factor << (inline_calls_pass ? "+inl" : "")
       << (fold ? "+fold" : "") << (cse_pass ? "+cse" : "")
       << (strength ? "+sr" : "") << (licm ? "+licm" : "")
       << (dce_pass ? "+dce" : "") << "/sec="
       << security_level_name(security) << "/opp" << opp_index;
    return os.str();
}

MultiCriteriaCompiler::MultiCriteriaCompiler(const ir::Program& source,
                                             const platform::Core& core,
                                             sim::SimOptions sim)
    : source_(&source), core_(&core), sim_(std::move(sim)) {}

PassConfig MultiCriteriaCompiler::traditional_config() const {
    PassConfig config;
    // A solid -O2-style scalar baseline (folding, CSE, strength reduction,
    // LICM, DCE) without the WCET/energy-directed knobs (unrolling tuned by
    // the analysers, inlining, security level, DVFS selection) — the
    // "traditional toolchain" the paper compares against.
    config.fold = true;
    config.cse_pass = true;
    config.strength = true;
    config.licm = true;
    config.dce_pass = true;
    config.inline_calls_pass = false;
    // No unrolling or inlining: embedded baselines ship -Os-style builds
    // (code size and analysability first), which is exactly the flow the
    // paper's industrial partners used before TeamPlay.
    config.unroll_factor = 1;
    config.security = SecurityLevel::kNone;
    config.opp_index = core_->max_opp();  // race-to-idle default
    return config;
}

TaskVersion MultiCriteriaCompiler::transform(const std::string& function,
                                             const PassConfig& config) const {
    // Clone the entry's reachable sub-program and transform it.  Inlining,
    // the security transforms and the analysers only follow calls out of
    // the entry, so the rest of the application is never copied and every
    // version carries exactly the code its task can execute.  Passes run in
    // a fixed order: inline first (so later passes see the whole body),
    // scalar cleanups, unrolling, then the security countermeasure, and DCE
    // last to sweep dead values.
    std::vector<const ir::Function*> reachable;
    // An undefined callee is left to the analysers' error surface, exactly
    // as with a whole-program clone; only the entry must exist here.
    (void)ir::reachable_functions(*source_, function, reachable);
    if (reachable.empty())
        throw std::invalid_argument("compile: undefined function '" +
                                    function + "'");
    auto transformed = std::make_shared<ir::Program>();
    transformed->memory_words = source_->memory_words;
    for (const ir::Function* callee : reachable)
        transformed->functions.emplace(callee->name, *callee);
    ir::Function* fn = transformed->find(function);
    transforms_.fetch_add(1, std::memory_order_relaxed);

    if (config.inline_calls_pass) inline_calls(*transformed, *fn);
    // Scalar cleanups run over every reachable function (callees too), like
    // any real compiler; the analyser-driven knobs (inlining above,
    // unrolling below, security, DVFS) apply to the task entry.
    for (auto& [name, function] : transformed->functions) {
        if (config.fold) constant_fold(function);
        if (config.strength) strength_reduce(function, core_->model);
        if (config.cse_pass) cse(function);
        if (config.licm) hoist_loop_constants(function);
        if (config.dce_pass && name != fn->name) dce(function);
    }
    if (config.unroll_factor > 1) unroll_loops(*fn, config.unroll_factor);
    switch (config.security) {
        case SecurityLevel::kBalance:
            security::balance_secret_branches(*transformed, *fn);
            break;
        case SecurityLevel::kLadder:
            security::ladderise(*transformed, *fn);
            break;
        case SecurityLevel::kNone:
            break;
    }
    if (config.dce_pass) dce(*fn);

    TaskVersion version;
    version.config = config;
    version.program = transformed;
    ir::for_each_instr(*fn->body, [&version](const ir::Instr&) {
        ++version.static_instrs;
    });
    version.leakage =
        security::analyze_taint(*transformed, *fn).leakage_proxy();
    return version;
}

void MultiCriteriaCompiler::analyse(const std::string& function,
                                    std::size_t opp_index,
                                    TaskVersion& version) const {
    version.config.opp_index = opp_index;
    const ir::Program& program = *version.program;
    if (core_->model.predictable) {
        const auto wcet =
            wcet::Analyser(program).analyse(function, *core_, opp_index);
        const auto energy =
            energy::Analyser(program).analyse(function, *core_, opp_index);
        version.analysable = wcet.analysable && energy.analysable;
        version.wcet_s = wcet.time_s;
        version.wcec_j = energy.wcec_j;
        version.time_s = wcet.time_s;
        version.energy_j = energy.wcec_j;
        version.energy_dynamic_j = energy.wce_dynamic_j;
        return;
    }
    // Complex core: representative cost measured over a few simulator runs
    // (the in-compiler equivalent of a quick profiling pass).
    constexpr int kRuns = 3;
    double time_acc = 0.0;
    double energy_acc = 0.0;
    double dynamic_acc = 0.0;
    const ir::Function* entry = program.find(function);
    const std::vector<ir::Word> args(
        static_cast<std::size_t>(entry->param_count), 0);
    // Candidate programs are throwaway, so compile the trace directly (no
    // shared-cache churn) and hand it to each per-run machine.
    std::shared_ptr<const sim::CompiledTrace> trace;
    if (sim_.backend == sim::SimBackend::kTrace)
        trace = sim::TraceCompiler::compile(program, function, core_->model);
    for (int r = 0; r < kRuns; ++r) {
        sim::Machine machine(program, *core_, opp_index,
                             /*seed=*/1000 + static_cast<unsigned>(r),
                             sim::SimOptions{sim_.backend, nullptr});
        machine.attach_trace(function, trace);
        const auto run = machine.run(function, args);
        time_acc += run.time_s;
        energy_acc += run.energy_j();
        dynamic_acc += run.dynamic_energy_j;
    }
    version.analysable = false;
    version.time_s = time_acc / kRuns;
    version.energy_j = energy_acc / kRuns;
    version.energy_dynamic_j = dynamic_acc / kRuns;
}

TaskVersion MultiCriteriaCompiler::compile(const std::string& function,
                                           const PassConfig& config) const {
    TaskVersion version = transform(function, config);
    analyse(function, config.opp_index, version);
    return version;
}

std::vector<TaskVersion> MultiCriteriaCompiler::compile_each(
    const std::string& function,
    const std::vector<PassConfig>& configs) const {
    std::map<PassConfig, TaskVersion> compiled;
    std::vector<TaskVersion> versions;
    versions.reserve(configs.size());
    for (const auto& config : configs) {
        auto it = compiled.find(config);
        if (it == compiled.end())
            it = compiled.emplace(config, compile(function, config)).first;
        versions.push_back(it->second);
    }
    return versions;
}

PassConfig MultiCriteriaCompiler::decode(const Genome& genome,
                                         bool explore_security) const {
    const auto pick = [&genome](std::size_t i, int buckets) {
        const double g = i < genome.size() ? std::clamp(genome[i], 0.0, 1.0)
                                           : 0.0;
        const int bucket = std::min(static_cast<int>(g * buckets),
                                    buckets - 1);
        return bucket;
    };
    PassConfig config;
    static constexpr int kUnrollChoices[] = {1, 2, 4, 8};
    config.unroll_factor = kUnrollChoices[pick(0, 4)];
    config.inline_calls_pass = pick(1, 2) == 1;
    config.cse_pass = pick(2, 2) == 1;
    config.strength = pick(3, 2) == 1;
    config.fold = pick(4, 2) == 1;
    config.security =
        explore_security ? static_cast<SecurityLevel>(pick(5, 3))
                         : SecurityLevel::kNone;
    config.opp_index = static_cast<std::size_t>(
        pick(6, static_cast<int>(core_->opps.size())));
    config.licm = pick(7, 2) == 1;
    config.dce_pass = true;
    return config;
}

std::vector<TaskVersion> MultiCriteriaCompiler::optimise(
    const std::string& function, const Options& options) const {
    support::Rng rng(options.seed);
    // A miss on a predictable core fills every OPP at once (the static
    // analysers take microseconds); on a complex core each OPP is a
    // simulator campaign, so only the configuration asked for is measured.
    std::map<PassConfig, Objectives> memo;
    const EvalFn eval = [&](const Genome& genome) {
        const PassConfig config = decode(genome, options.explore_security);
        if (const auto it = memo.find(config); it != memo.end())
            return it->second;
        TaskVersion version = transform(function, config);
        const auto remember = [&](std::size_t opp) {
            analyse(function, opp, version);
            memo.emplace(version.config,
                         Objectives{version.time_s, version.energy_j,
                                    version.leakage});
        };
        if (core_->model.predictable)
            for (std::size_t opp = 0; opp < core_->opps.size(); ++opp)
                remember(opp);
        else
            remember(config.opp_index);
        return memo.at(config);
    };

    MooRun run;
    switch (options.engine) {
        case Engine::kFpa: {
            FpaParams params;
            params.population = options.population;
            params.iterations = options.iterations;
            run = fpa_optimise(eval, kGenomeDims, params, rng);
            break;
        }
        case Engine::kNsga2: {
            Nsga2Params params;
            params.population = options.population;
            params.generations = options.iterations;
            run = nsga2_optimise(eval, kGenomeDims, params, rng);
            break;
        }
        case Engine::kWeightedSum: {
            WeightedSumParams params;
            params.restarts = std::max(1, options.population / 2);
            params.iterations = options.iterations * 4;
            run = weighted_sum_optimise(eval, kGenomeDims, params, rng);
            break;
        }
    }

    // Materialise versions from the front plus the traditional baseline.
    std::vector<PassConfig> configs;
    configs.reserve(run.front.size() + 1);
    for (const auto& solution : run.front)
        configs.push_back(decode(solution.genome, options.explore_security));
    configs.push_back(traditional_config());
    std::vector<TaskVersion> versions = compile_each(function, configs);

    // Non-dominated filter over the materialised set (the baseline may be
    // dominated; keep it only if it survives).
    std::vector<Solution> as_solutions;
    as_solutions.reserve(versions.size());
    for (const auto& version : versions)
        as_solutions.push_back(Solution{
            {}, {version.time_s, version.energy_j, version.leakage}});
    const auto keep = pareto_indices(as_solutions);
    std::vector<TaskVersion> front;
    front.reserve(keep.size());
    for (const auto i : keep) front.push_back(std::move(versions[i]));

    // Deduplicate identical objective vectors (different genomes can decode
    // to the same config) and cap the version count.
    std::sort(front.begin(), front.end(),
              [](const TaskVersion& a, const TaskVersion& b) {
                  return a.time_s < b.time_s;
              });
    front.erase(std::unique(front.begin(), front.end(),
                            [](const TaskVersion& a, const TaskVersion& b) {
                                return a.time_s == b.time_s &&
                                       a.energy_j == b.energy_j &&
                                       a.leakage == b.leakage;
                            }),
                front.end());
    if (front.size() > options.max_versions) {
        // Thin uniformly, always keeping the fastest and the most frugal.
        std::vector<TaskVersion> thinned;
        const double step = static_cast<double>(front.size() - 1) /
                            static_cast<double>(options.max_versions - 1);
        for (std::size_t k = 0; k < options.max_versions; ++k)
            thinned.push_back(
                front[static_cast<std::size_t>(std::round(step * k))]);
        front = std::move(thinned);
    }
    return front;
}

}  // namespace teamplay::compiler
