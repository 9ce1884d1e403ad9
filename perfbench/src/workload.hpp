// The benchmark's workloads: seeded input sets for the toolchain.
//
// A workload owns every program and platform its scenarios point at, the
// list of distinct scenarios, and the order in which a cold pass submits
// them (the stream; it repeats scenarios on the fabric workload).  The
// inputs are a pure function of (workload name, seed); the generated
// programs among them do not depend on the seed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario_engine.hpp"
#include "fuzz/generator.hpp"
#include "usecases/apps.hpp"

namespace perfbench {

struct Scenario {
    std::string label;  ///< unique among the workload's distinct scenarios
    const teamplay::ir::Program* program = nullptr;
    const teamplay::platform::Platform* platform = nullptr;
    std::string csl_source;
    teamplay::core::WorkflowOptions options;
    /// Drawn by fuzz::ProgramGenerator rather than one of the paper's use
    /// cases; excluded from the deployed-outcome geometric means.
    bool generated = false;
    /// Seeds the sensor inputs of the seeded-input execution check.
    std::uint64_t input_seed = 0;
    /// Writes a use case's sensor inputs (state seed, key, weights) into a
    /// machine's memory, the way the app's host would.
    std::function<void(teamplay::sim::Machine&, std::uint64_t)> stage_inputs;

    [[nodiscard]] teamplay::core::ScenarioRequest request(
        teamplay::core::Priority priority =
            teamplay::core::Priority::kBatch) const;
    [[nodiscard]] bool predictable() const { return platform->predictable(); }
};

/// One submission of a cold pass.
struct Ask {
    std::size_t scenario = 0;  ///< index into Workload::distinct
    /// Service class; it changes no computed byte, so it is not part of
    /// what makes two asks the same scenario.
    teamplay::core::Priority priority = teamplay::core::Priority::kBatch;
};

struct Workload {
    bool fabric = false;  ///< served through a loopback ShardServer
    /// Rounds per block, chosen so that a block spans about 20 s.
    std::size_t rounds_per_block = 4;
    /// About how long one block, checks included, takes on a 4-core
    /// x86-64 VM; a run of --seconds s measures seconds / block_seconds
    /// blocks.
    double block_seconds = 10.0;

    std::vector<std::unique_ptr<teamplay::usecases::UseCaseApp>> apps;
    std::vector<std::unique_ptr<teamplay::fuzz::GeneratedScenario>> generated;

    std::vector<Scenario> distinct;
    std::vector<Ask> stream;  ///< cold-pass submissions, in order
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

/// Deadline the scheduler of `scenario` works to (the ScheduleStage rule:
/// the explicit scheduler deadline, else the app deadline, else the
/// largest task deadline).
[[nodiscard]] double effective_deadline(const Scenario& scenario,
                                        const teamplay::csl::AppSpec& spec);

/// First core of each class, by class name: the core the engine's analyse
/// stage costs each class on.
[[nodiscard]] std::map<std::string, std::size_t> class_representatives(
    const teamplay::platform::Platform& platform);

}  // namespace perfbench
