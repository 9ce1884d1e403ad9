// Output checks: every report of every pass is judged by properties that
// are recomputed here, never against a saved copy of earlier output.
//
// Each function returns the list of violated properties (empty = the
// operation passed); a non-empty list counts the operation as failed.
#pragma once

#include <string>
#include <vector>

#include "core/evaluation_cache.hpp"
#include "core/workflow.hpp"
#include "workload.hpp"

namespace perfbench {

using Failures = std::vector<std::string>;

/// The certificate verifies (contracts::verify_certificate) and the
/// schedule is sound: every task placed once, on a core of a class it has
/// versions for, for exactly its version's time; precedence holds; nothing
/// overlaps on a core; the makespan is the last finish; and `feasible`
/// holds exactly when every deadline is met.
[[nodiscard]] Failures check_report(
    const Scenario& scenario, const teamplay::core::ToolchainReport& report);

/// Predictable flow: each scheduled task's chosen version and the source
/// program run on fresh interpreter machines at the chosen core and OPP,
/// from zeroed memory and from the app's seeded sensor inputs, and must
/// return the same value and leave the same memory image; the version's
/// simulated time and energy must stay within its static WCET and WCEC
/// bounds.
[[nodiscard]] Failures check_execution(
    const Scenario& scenario, const teamplay::core::ToolchainReport& report);

/// Profiled flow: re-profile `samples` seeded campaigns of the report
/// under both simulator tiers; the two TaskProfiles must be identical and
/// must reproduce the version the engine costed from that campaign.
[[nodiscard]] Failures check_profiles(
    const Scenario& scenario, const teamplay::core::ToolchainReport& report,
    std::uint64_t sample_seed, int samples);

/// Warm restart: the certificate text equals the cold pass's.
[[nodiscard]] Failures check_same_certificate(
    const teamplay::core::ToolchainReport& expected,
    const teamplay::core::ToolchainReport& actual, const std::string& what);

/// Warm restart: the restarted service recomputed nothing the cold pass
/// had persisted.
[[nodiscard]] Failures check_no_recompute(
    const teamplay::core::EvaluationCache::Stats& warm_stats);

}  // namespace perfbench
