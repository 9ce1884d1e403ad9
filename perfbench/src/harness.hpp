// One benchmark run: set-up, then a fixed number of blocks, each of a
// fixed number of whole rounds of
//   cold pass  -> persist -> warm restart -> output checks
// then the metrics.  The number of blocks follows from --seconds and the
// workload alone, never from how fast the rounds ran.
//
// Cold pass: a fresh service (a ScenarioEngine, or a ShardServer behind a
// loopback RemoteShard client) over an empty result-store directory and its
// own sim::TraceCache, so no warmth leaks between rounds; the workload's
// stream is submitted one request at a time (a closed loop).  Persist:
// every cached analysis is flushed to the store.  Warm restart: a fresh
// store and service over the persisted directory re-answer every distinct
// scenario.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/evaluation_cache.hpp"
#include "core/scenario_engine.hpp"
#include "checks.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

/// The thing a pass talks to: an in-process engine or a loopback fabric.
class Service {
public:
    virtual ~Service() = default;
    [[nodiscard]] virtual teamplay::core::ScenarioTicket submit(
        teamplay::core::ScenarioRequest request) = 0;
    /// Flush every cached analysis to the result store.
    virtual void persist() = 0;
    [[nodiscard]] virtual teamplay::core::EvaluationCache::Stats cache_stats()
        const = 0;
};

/// Open a service over the store directory `dir`; the store's opening is
/// recorded as a `core.store.open` span.
[[nodiscard]] std::unique_ptr<Service> open_service(
    bool fabric, const std::filesystem::path& dir, Recorder& recorder);

/// Certificate text of each distinct scenario as an in-process engine
/// gives it: what the fabric's answers are held to.
[[nodiscard]] std::vector<std::string> reference_certificates(
    const Workload& workload);

/// Checks made on each answer as it arrives, so the pass keeps only the
/// first report of each distinct scenario.  A cold answer is checked by
/// property (check_report), against the pass's first answer for the same
/// scenario, and against `reference` when given; a warm answer by property
/// and against the cold pass's first answer.
[[nodiscard]] Failures check_cold_answer(
    const Scenario& scenario, const teamplay::core::ToolchainReport& report,
    const teamplay::core::ToolchainReport* first, const std::string* reference);
[[nodiscard]] Failures check_warm_answer(
    const Scenario& scenario, const teamplay::core::ToolchainReport& report,
    const teamplay::core::ToolchainReport& cold);

/// A warm restart: timing, the restarted cache's counters, and the
/// on-receipt failures of each distinct scenario.
struct WarmPass {
    double seconds = 0.0;  ///< store open to last answer, checks excluded
    teamplay::core::EvaluationCache::Stats stats;
    std::vector<Failures> failures;
};

struct Round {
    std::vector<double> latency_s;  ///< per stream position
    /// First submission to the end of the flush, minus the time spent
    /// checking answers.
    double pass_s = 0.0;
    std::vector<Failures> cold_failures;  ///< per stream position
    /// First cold-pass report of each distinct scenario (empty if failed).
    std::vector<std::optional<teamplay::core::ToolchainReport>> first;
    std::vector<std::size_t> first_position;  ///< its stream position
    teamplay::core::EvaluationCache::Stats cold_stats;
    std::vector<WarmPass> warm;
};

/// Run one round's cold pass, persist and `warm_restarts` warm restarts.
/// `reference` (fabric) holds reference_certificates.
[[nodiscard]] Round run_round(const Workload& workload,
                              const std::filesystem::path& dir,
                              int warm_restarts,
                              const std::vector<std::string>* reference,
                              Recorder& recorder);

/// Restart a service over `dir` and re-ask every distinct scenario.
[[nodiscard]] WarmPass run_warm_restart(const Workload& workload,
                                        const std::filesystem::path& dir,
                                        const Round& round,
                                        Recorder& recorder);

/// Operation accounting of one round: one operation per cold-pass
/// submission plus one per scenario of each warm restart.
struct Verdict {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::size_t> failed_ops;  ///< indices among the attempted
    std::vector<std::string> failures;  ///< first few, for the log
};

/// Finish the checks of a round — the execution or cross-tier check of
/// each distinct scenario's first report, and the warm restarts' recompute
/// check — and count its operations.  `round_seed` picks the campaigns
/// that are re-profiled.
[[nodiscard]] Verdict check_round(const Workload& workload, const Round& round,
                                  std::uint64_t round_seed);

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::filesystem::path work_dir;  ///< store directories and span dumps
};

struct Metric {
    double value = 0.0;
    std::string unit;
};

struct RunResult {
    /// False when the traced layer calls disagree with the engine's
    /// reports, or when the operations that fail differ between rounds;
    /// an operation that fails its checks in every round counts in
    /// `failed` only.
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t rounds = 0;
    std::map<std::string, Metric> end_to_end;
    std::map<std::string, Metric> per_layer;
    std::vector<std::string> problems;  ///< failures and mismatches, first few
};

[[nodiscard]] RunResult run_benchmark(const RunOptions& options);

/// Linear-interpolated quantile (q in [0, 1]) of unsorted values.
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace perfbench
