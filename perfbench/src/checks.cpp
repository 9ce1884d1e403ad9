#include "checks.hpp"

#include <algorithm>
#include <map>

#include "contracts/certificate.hpp"
#include "csl/csl.hpp"
#include "profiler/pow_profiler.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace teamplay;

namespace {

// Bounds are compared with a relative slack of 1e-9, the tolerance the
// contract checker itself allows (contracts::verify_proof).
bool within(double value, double bound) {
    return value <= bound * (1.0 + 1e-9);
}

std::string task_of(const coordination::ScheduleEntry& entry) {
    return "task '" + entry.task + "'";
}

bool same_estimate(const profiler::Estimate& a, const profiler::Estimate& b) {
    return a.mean == b.mean && a.stddev == b.stddev && a.p95 == b.p95 &&
           a.max == b.max;
}

bool same_profile(const profiler::TaskProfile& a,
                  const profiler::TaskProfile& b) {
    return a.function == b.function && a.runs == b.runs &&
           same_estimate(a.time_s, b.time_s) &&
           same_estimate(a.energy_j, b.energy_j) &&
           same_estimate(a.cycles, b.cycles);
}

struct Execution {
    sim::RunResult result;
    std::vector<ir::Word> memory;
};

Execution execute(const ir::Program& program, const platform::Core& core,
                  std::size_t opp, const std::string& function,
                  const std::vector<ir::Word>& args,
                  const std::vector<ir::Word>& image) {
    sim::Machine machine(program, core, opp, /*seed=*/1,
                         sim::SimOptions{sim::SimBackend::kInterp, nullptr});
    machine.poke_span(0, image);
    Execution out;
    out.result = machine.run(function, args);
    out.memory = machine.peek_span(0, program.memory_words);
    return out;
}

}  // namespace

Failures check_report(const Scenario& scenario,
                      const core::ToolchainReport& report) {
    Failures failures;
    if (!contracts::verify_certificate(report.certificate))
        failures.push_back("certificate does not verify");

    const auto& schedule = report.schedule;
    const auto& graph = report.graph;
    const auto& platform = *scenario.platform;

    std::map<std::string, const coordination::ScheduleEntry*> placed;
    for (const auto& entry : schedule.entries)
        if (!placed.try_emplace(entry.task, &entry).second)
            failures.push_back(task_of(entry) + " scheduled twice");
    if (placed.size() != graph.tasks.size())
        failures.push_back("schedule places " +
                           std::to_string(placed.size()) + " of " +
                           std::to_string(graph.tasks.size()) + " tasks");

    double last_finish = 0.0;
    bool deadlines_met = true;
    std::map<std::size_t, std::vector<const coordination::ScheduleEntry*>>
        by_core;
    for (const auto& entry : schedule.entries) {
        last_finish = std::max(last_finish, entry.finish_s);
        const auto* task = graph.find(entry.task);
        if (task == nullptr || entry.core >= platform.cores.size()) {
            failures.push_back(task_of(entry) + " unknown or on no core");
            continue;
        }
        by_core[entry.core].push_back(&entry);
        const auto& core = platform.cores[entry.core];
        if (!entry.core_class.empty() && entry.core_class != core.core_class)
            failures.push_back(task_of(entry) + " on a core of another class");
        const auto* versions = task->versions_for(core.core_class);
        if (versions == nullptr || entry.version >= versions->size()) {
            failures.push_back(task_of(entry) + " has no such version");
            continue;
        }
        const auto& version = (*versions)[entry.version];
        if (entry.finish_s != entry.start_s + version.time_s ||
            entry.opp_index != version.opp_index)
            failures.push_back(task_of(entry) +
                               " does not run its version's time at its OPP");
        for (const auto& dep : task->deps) {
            const auto it = placed.find(dep);
            if (it == placed.end() || it->second->finish_s > entry.start_s)
                failures.push_back(task_of(entry) + " starts before '" + dep +
                                   "' finishes");
        }
        if (task->deadline_s > 0.0 && entry.finish_s > task->deadline_s)
            deadlines_met = false;
    }
    for (auto& [core, entries] : by_core) {
        std::sort(entries.begin(), entries.end(),
                  [](const auto* a, const auto* b) {
                      return a->start_s < b->start_s;
                  });
        for (std::size_t i = 1; i < entries.size(); ++i)
            if (entries[i]->start_s < entries[i - 1]->finish_s)
                failures.push_back(task_of(*entries[i]) + " overlaps '" +
                                   entries[i - 1]->task + "' on core " +
                                   std::to_string(core));
    }
    if (schedule.makespan_s != last_finish)
        failures.push_back("makespan is not the last finish");
    const double deadline = effective_deadline(scenario, report.spec);
    if (deadline > 0.0 && schedule.makespan_s > deadline)
        deadlines_met = false;
    if (schedule.feasible != deadlines_met)
        failures.push_back(std::string("schedule claims feasible=") +
                           (schedule.feasible ? "true" : "false") +
                           " but deadlines are " +
                           (deadlines_met ? "met" : "missed"));
    return failures;
}

Failures check_execution(const Scenario& scenario,
                         const core::ToolchainReport& report) {
    Failures failures;
    const auto& source = *scenario.program;
    const auto& platform = *scenario.platform;

    // The tasks run in schedule order (which respects precedence), each on
    // fresh machines whose memory is the image the previous task left, so
    // every task sees the data its producers made.  Two initial images:
    // all zero, and the app's sensor inputs staged from the scenario's
    // input seed.
    std::vector<const coordination::ScheduleEntry*> order;
    for (const auto& entry : report.schedule.entries) order.push_back(&entry);
    std::stable_sort(order.begin(), order.end(),
                     [](const auto* a, const auto* b) {
                         return a->start_s < b->start_s;
                     });

    std::vector<std::pair<std::string, std::vector<ir::Word>>> images;
    images.emplace_back("zeroed",
                        std::vector<ir::Word>(source.memory_words, 0));
    if (scenario.stage_inputs) {
        sim::Machine stager(source, platform.cores.front(), 0);
        scenario.stage_inputs(stager, scenario.input_seed);
        images.emplace_back("seeded",
                            stager.peek_span(0, source.memory_words));
    }

    for (const auto& [input_name, initial] : images) {
        std::vector<ir::Word> compiled_memory = initial;
        std::vector<ir::Word> source_memory = initial;
        for (const auto* entry : order) {
            const auto* spec = report.spec.find(entry->task);
            const auto* version = report.chosen_version(entry->task);
            const auto* fn =
                spec == nullptr ? nullptr : source.find(spec->entry);
            if (version == nullptr || version->program == nullptr ||
                fn == nullptr || !version->analysable) {
                failures.push_back(task_of(*entry) +
                                   " has no analysable compiled version");
                continue;
            }
            const std::string where =
                task_of(*entry) + " on " + input_name + " inputs";
            const auto& core = platform.cores[entry->core];
            const std::size_t opp = version->config.opp_index;
            const std::vector<ir::Word> args(
                static_cast<std::size_t>(fn->param_count), 0);
            try {
                const auto compiled = execute(*version->program, core, opp,
                                              spec->entry, args,
                                              compiled_memory);
                const auto original = execute(source, core, opp, spec->entry,
                                              args, source_memory);
                if (compiled.result.ret_value != original.result.ret_value)
                    failures.push_back(where + ": return value differs");
                if (compiled.memory != original.memory)
                    failures.push_back(where + ": memory image differs");
                if (!within(compiled.result.time_s, version->wcet_s))
                    failures.push_back(where + ": simulated time exceeds WCET");
                if (!within(compiled.result.energy_j(), version->wcec_j))
                    failures.push_back(where +
                                       ": simulated energy exceeds WCEC");
                compiled_memory = compiled.memory;
                source_memory = original.memory;
            } catch (const std::exception& error) {
                failures.push_back(where + ": " + error.what());
            }
        }
    }
    return failures;
}

Failures check_profiles(const Scenario& scenario,
                        const core::ToolchainReport& report,
                        std::uint64_t sample_seed, int samples) {
    Failures failures;
    const auto& platform = *scenario.platform;
    const auto reps = class_representatives(platform);

    struct Campaign {
        const csl::TaskSpec* spec;
        std::string cls;
        std::size_t opp;
        const coordination::VersionChoice* choice;
    };
    std::vector<Campaign> campaigns;
    for (const auto& spec : report.spec.tasks) {
        const auto* task = report.graph.find(spec.name);
        if (task == nullptr) continue;
        for (const auto& [cls, versions] : task->versions)
            for (std::size_t v = 0; v < versions.size(); ++v)
                campaigns.push_back({&spec, cls, versions[v].opp_index,
                                     &versions[v]});
    }
    if (campaigns.empty()) {
        failures.push_back("report holds no profiled versions");
        return failures;
    }
    support::Rng rng(sample_seed);
    for (int k = 0; k < samples; ++k) {
        const auto& campaign = campaigns[rng.below(campaigns.size())];
        const auto rep = reps.find(campaign.cls);
        const auto* fn = scenario.program->find(campaign.spec->entry);
        if (rep == reps.end() || fn == nullptr) {
            failures.push_back("task '" + campaign.spec->name +
                               "' has versions for an unknown class");
            continue;
        }
        const auto& core = platform.cores[rep->second];
        // The engine seeds each (core, OPP) campaign with opp * 131 + 7.
        const auto profile_with = [&](sim::SimBackend backend) {
            sim::SimOptions sim{backend, nullptr};
            if (backend == sim::SimBackend::kTrace)
                sim.trace_cache = std::make_shared<sim::TraceCache>();
            profiler::PowProfiler profiler(*scenario.program, core,
                                           campaign.opp,
                                           campaign.opp * 131 + 7, sim);
            return profiler.profile(campaign.spec->entry,
                                    profiler::zero_inputs(fn->param_count),
                                    scenario.options.profile_runs);
        };
        const std::string where = "task '" + campaign.spec->name + "' on " +
                                  campaign.cls + "@opp" +
                                  std::to_string(campaign.opp);
        try {
            const auto interp = profile_with(sim::SimBackend::kInterp);
            const auto trace = profile_with(sim::SimBackend::kTrace);
            if (!same_profile(interp, trace))
                failures.push_back(where + ": profiles differ across tiers");
            if (campaign.choice->time_s != trace.time_s.high_water_mark() ||
                campaign.choice->energy_j != trace.energy_j.mean)
                failures.push_back(where +
                                   ": version does not match its campaign");
        } catch (const std::exception& error) {
            failures.push_back(where + ": " + error.what());
        }
    }
    return failures;
}

Failures check_same_certificate(const core::ToolchainReport& expected,
                                const core::ToolchainReport& actual,
                                const std::string& what) {
    if (expected.certificate.to_text() == actual.certificate.to_text())
        return {};
    return {"certificate differs from " + what};
}

Failures check_no_recompute(const core::EvaluationCache::Stats& warm_stats) {
    if (warm_stats.store_misses == 0) return {};
    return {"warm restart recomputed " +
            std::to_string(warm_stats.store_misses) + " analyses"};
}

}  // namespace perfbench
