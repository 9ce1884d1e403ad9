#include "harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>

#include "checks.hpp"
#include "core/result_store.hpp"
#include "core/wire.hpp"
#include "layers.hpp"
#include "net/remote_shard.hpp"
#include "net/shard_server.hpp"
#include "sim/trace.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace teamplay;
namespace fs = std::filesystem;

namespace {

/// Set-ups and warm restarts measured per round.
constexpr int kSetupsPerRound = 9;
constexpr int kWarmRestartsPerRound = 3;
/// Every run pools at least this many cold-pass latency samples.
constexpr std::size_t kMinSamples = 100;
/// No new block starts after this much measuring time, so that a run of a
/// much slower build still ends within a few minutes.
constexpr double kMaxMeasureSeconds = 120.0;

core::ScenarioEngine::Options engine_options(
    std::shared_ptr<core::ResultStore> store, std::size_t workers) {
    core::ScenarioEngine::Options options;
    options.worker_threads = workers;
    options.result_store = std::move(store);
    options.sim = sim::SimOptions{sim::SimBackend::kTrace,
                                  std::make_shared<sim::TraceCache>()};
    return options;
}

class EngineService final : public Service {
public:
    explicit EngineService(std::shared_ptr<core::ResultStore> store)
        : engine_(engine_options(std::move(store), 0)) {}

    core::ScenarioTicket submit(core::ScenarioRequest request) override {
        return engine_.submit(std::move(request));
    }
    void persist() override { engine_.flush_result_store(); }
    core::EvaluationCache::Stats cache_stats() const override {
        return engine_.cache_stats();
    }

private:
    core::ScenarioEngine engine_;
};

/// A ShardServer on an ephemeral loopback port and one client connection.
/// The server's engine runs one worker (a server never computes on the
/// thread that reads its socket).
class FabricService final : public Service {
public:
    explicit FabricService(std::shared_ptr<core::ResultStore> store)
        : server_(net::ShardServer::Options{
              0, engine_options(std::move(store), 1)}),
          client_(client_options(server_.port())) {}

    core::ScenarioTicket submit(core::ScenarioRequest request) override {
        return client_.submit(std::move(request));
    }
    void persist() override { server_.engine().flush_result_store(); }
    core::EvaluationCache::Stats cache_stats() const override {
        return server_.engine().cache_stats();
    }

private:
    static net::RemoteShard::Options client_options(std::uint16_t port) {
        net::RemoteShard::Options options;
        options.port = port;
        return options;
    }

    mutable net::ShardServer server_;  // engine() is non-const
    net::RemoteShard client_;          // declared last: closed first
};

double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    return 0.0;
}

double geomean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    double log_sum = 0.0;
    for (const double value : values) log_sum += std::log(value);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

bool is_pipeline_stage(const std::string& stage) {
    return stage == "parse" || stage == "analyse" || stage == "schedule" ||
           stage == "contract" || stage == "certify";
}

/// Stage laps and net laps of one cold-pass report.
void record_laps(const core::ToolchainReport& report, double latency_s,
                 Recorder& recorder) {
    double pipeline_s = 0.0;
    double rtt_s = -1.0;
    for (const auto& lap : report.stage_laps) {
        if (is_pipeline_stage(lap.stage)) {
            pipeline_s += lap.seconds;
            recorder.sample("core." + lap.stage + "_ms", lap.seconds * 1e3);
        } else if (lap.stage.rfind("net/", 0) == 0) {
            recorder.sample("net." + lap.stage.substr(4) + "_ms",
                            lap.seconds * 1e3);
            if (lap.stage == "net/rtt") rtt_s = lap.seconds;
        }
    }
    recorder.sample("core.wait_ms", (latency_s - pipeline_s) * 1e3);
    if (rtt_s >= 0.0) recorder.sample("net.hop_ms", (rtt_s - pipeline_s) * 1e3);
}

/// Walk the persisted segments (layout in core/result_store.hpp), time the
/// wire codec on every stored result and the store's own load of every
/// key.  Returns the records that did not round-trip.
std::vector<std::string> trace_store(const fs::path& dir, Recorder& recorder) {
    std::vector<std::string> mismatches;
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.is_regular_file()) files.push_back(entry.path());
    std::sort(files.begin(), files.end());

    std::vector<core::EvaluationKey> keys;
    double bytes = 0.0;
    for (const auto& file : files) {
        std::ifstream in(file, std::ios::binary);
        const std::vector<std::uint8_t> data(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        bytes += static_cast<double>(data.size());
        if (data.size() < 6 || std::memcmp(data.data(), "TPSG", 4) != 0)
            continue;
        const std::span<const std::uint8_t> stream(data);
        std::size_t offset = 6;
        while (true) {
            const auto key_frame = core::wire::next_frame(stream, offset);
            if (!key_frame) break;
            const auto result_frame = core::wire::next_frame(stream, offset);
            if (!result_frame) break;
            keys.push_back(core::wire::decode_key(*key_frame));
            core::EvaluationResult result;
            {
                ScopedSpan span(recorder, "core.wire.decode_result");
                result = core::wire::decode_result(*result_frame);
            }
            core::wire::Buffer again;
            {
                ScopedSpan span(recorder, "core.wire.encode_result");
                again = core::wire::encode(result);
            }
            if (!std::equal(again.begin(), again.end(), result_frame->begin(),
                            result_frame->end()))
                mismatches.push_back("stored result does not re-encode");
        }
    }
    recorder.count("core.store.bytes", bytes);
    recorder.count("core.store.records", static_cast<double>(keys.size()));

    core::ResultStore store(dir);
    for (const auto& key : keys) {
        core::ResultStore::Loaded loaded;
        {
            ScopedSpan span(recorder, "core.store.load");
            loaded = store.load(key);
        }
        if (loaded.status != core::ResultStore::LoadStatus::kHit)
            mismatches.push_back("stored key does not load");
    }
    return mismatches;
}

/// Time the report codec on the first report of every distinct scenario.
std::vector<std::string> trace_reports(const Round& round,
                                       Recorder& recorder) {
    std::vector<std::string> mismatches;
    for (const auto& report : round.first) {
        if (!report) continue;
        core::wire::Buffer bytes;
        {
            ScopedSpan span(recorder, "core.wire.encode_report");
            bytes = core::wire::encode(*report);
        }
        core::ToolchainReport decoded;
        {
            ScopedSpan span(recorder, "core.wire.decode_report");
            decoded = core::wire::decode_report(bytes);
        }
        if (core::wire::encode(decoded) != bytes)
            mismatches.push_back("report does not round-trip the wire");
    }
    return mismatches;
}

void record_cache(const core::EvaluationCache::Stats& stats,
                  Recorder& recorder) {
    const double lookups = static_cast<double>(stats.hits + stats.misses);
    recorder.count("core.cache.lookups", lookups);
    recorder.count("core.cache.hits", static_cast<double>(stats.hits));
    recorder.count("core.cache.computed",
                   static_cast<double>(stats.misses - stats.store_hits -
                                       stats.remote_hits));
    recorder.count("core.cache.hit_ratio", stats.hit_ratio());
}

struct LayerMetric {
    const char* name;
    const char* unit;
    const char* source;  ///< span name; null = sample or counter `name`
    double scale;        ///< span seconds -> unit
    bool counter;
};

// The per-layer table: each metric is the median per call unless it is a
// counter (counted over one round, so it repeats exactly for a seed).
const std::vector<LayerMetric>& layer_metrics() {
    static const std::vector<LayerMetric> metrics = {
        {"compiler.optimise_ms", "ms", "compiler.optimise", 1e3, false},
        {"compiler.compile_ms", "ms", "compiler.compile", 1e3, false},
        {"compiler.fronts", "count", nullptr, 1, true},
        {"wcet.analyse_us", "us", "wcet.analyse", 1e6, false},
        {"energy.analyse_us", "us", "energy.analyse", 1e6, false},
        {"sim.run_ms", "ms", "sim.run", 1e3, false},
        {"sim.ns_per_instr", "ns", nullptr, 1, false},
        {"sim.instrs", "count", nullptr, 1, true},
        {"profiler.profile_ms", "ms", "profiler.profile", 1e3, false},
        {"profiler.campaigns", "count", nullptr, 1, true},
        {"security.taint_us", "us", "security.taint", 1e6, false},
        {"coordination.schedule_ms", "ms", "coordination.schedule", 1e3, false},
        {"coordination.glue_us", "us", "coordination.glue", 1e6, false},
        {"coordination.rta_us", "us", "coordination.rta", 1e6, false},
        {"contracts.check_us", "us", "contracts.check", 1e6, false},
        {"contracts.verify_us", "us", "contracts.verify", 1e6, false},
        {"csl.parse_us", "us", "csl.parse", 1e6, false},
        {"ir.validate_us", "us", "ir.validate", 1e6, false},
        {"ir.fingerprint_us", "us", "ir.fingerprint", 1e6, false},
        {"core.parse_ms", "ms", nullptr, 1, false},
        {"core.analyse_ms", "ms", nullptr, 1, false},
        {"core.schedule_ms", "ms", nullptr, 1, false},
        {"core.contract_ms", "ms", nullptr, 1, false},
        {"core.certify_ms", "ms", nullptr, 1, false},
        {"core.wait_ms", "ms", nullptr, 1, false},
        {"core.cache.lookups", "count", nullptr, 1, true},
        {"core.cache.hits", "count", nullptr, 1, true},
        {"core.cache.computed", "count", nullptr, 1, true},
        {"core.cache.hit_ratio", "ratio", nullptr, 1, true},
        {"core.store.open_ms", "ms", "core.store.open", 1e3, false},
        {"core.store.load_us", "us", "core.store.load", 1e6, false},
        {"core.store.flush_ms", "ms", "core.store.flush", 1e3, false},
        {"core.store.bytes", "bytes", nullptr, 1, true},
        {"core.store.records", "count", nullptr, 1, true},
        {"core.wire.encode_result_us", "us", "core.wire.encode_result", 1e6,
         false},
        {"core.wire.decode_result_us", "us", "core.wire.decode_result", 1e6,
         false},
        {"core.wire.encode_report_us", "us", "core.wire.encode_report", 1e6,
         false},
        {"core.wire.decode_report_us", "us", "core.wire.decode_report", 1e6,
         false},
        {"net.encode_ms", "ms", nullptr, 1, false},
        {"net.rtt_ms", "ms", nullptr, 1, false},
        {"net.decode_ms", "ms", nullptr, 1, false},
        {"net.hop_ms", "ms", nullptr, 1, false},
    };
    return metrics;
}

void add_problems(RunResult& result, const std::vector<std::string>& problems) {
    for (const auto& problem : problems)
        if (result.problems.size() < 16) result.problems.push_back(problem);
}

}  // namespace

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double position = q * static_cast<double>(values.size() - 1);
    const auto lower = static_cast<std::size_t>(std::floor(position));
    const auto upper = std::min(lower + 1, values.size() - 1);
    const double fraction = position - static_cast<double>(lower);
    return values[lower] + (values[upper] - values[lower]) * fraction;
}

std::unique_ptr<Service> open_service(bool fabric, const fs::path& dir,
                                      Recorder& recorder) {
    std::shared_ptr<core::ResultStore> store;
    {
        ScopedSpan span(recorder, "core.store.open");
        store = std::make_shared<core::ResultStore>(dir);
    }
    if (fabric) return std::make_unique<FabricService>(std::move(store));
    return std::make_unique<EngineService>(std::move(store));
}

std::vector<std::string> reference_certificates(const Workload& workload) {
    core::ScenarioEngine engine(engine_options(nullptr, 0));
    std::vector<std::string> texts;
    for (const auto& scenario : workload.distinct) {
        try {
            texts.push_back(
                engine.run(scenario.request()).certificate.to_text());
        } catch (const std::exception& error) {
            texts.push_back(std::string("error: ") + error.what());
        }
    }
    return texts;
}

Failures check_cold_answer(const Scenario& scenario,
                           const core::ToolchainReport& report,
                           const core::ToolchainReport* first,
                           const std::string* reference) {
    Failures failures = check_report(scenario, report);
    if (first != nullptr) {
        const auto same = check_same_certificate(*first, report,
                                                 "an earlier ask of the pass");
        failures.insert(failures.end(), same.begin(), same.end());
    }
    if (reference != nullptr && *reference != report.certificate.to_text())
        failures.push_back("certificate differs from an in-process engine's");
    return failures;
}

Failures check_warm_answer(const Scenario& scenario,
                           const core::ToolchainReport& report,
                           const core::ToolchainReport& cold) {
    Failures failures = check_report(scenario, report);
    const auto same = check_same_certificate(cold, report, "the cold pass");
    failures.insert(failures.end(), same.begin(), same.end());
    return failures;
}

Round run_round(const Workload& workload, const fs::path& dir,
                int warm_restarts, const std::vector<std::string>* reference,
                Recorder& recorder) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    Round round;
    const std::size_t n = workload.stream.size();
    round.latency_s.resize(n);
    round.cold_failures.resize(n);
    round.first.resize(workload.distinct.size());
    round.first_position.resize(workload.distinct.size(), n);
    {
        auto service = open_service(workload.fabric, dir, recorder);
        double checking_s = 0.0;
        const auto start = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t k = workload.stream[i].scenario;
            const Scenario& scenario = workload.distinct[k];
            std::optional<core::ToolchainReport> report;
            const auto submitted = Clock::now();
            {
                ScopedSpan span(recorder, "core.request",
                                static_cast<std::uint32_t>(k));
                try {
                    report = service
                                 ->submit(scenario.request(
                                     workload.stream[i].priority))
                                 .get();
                } catch (const std::exception& error) {
                    round.cold_failures[i].push_back(
                        std::string("cold pass failed: ") + error.what());
                }
            }
            round.latency_s[i] = seconds_since(submitted);
            if (!report) continue;
            const auto checking = Clock::now();
            if (recorder.enabled())
                record_laps(*report, round.latency_s[i], recorder);
            const auto* first = round.first[k] ? &*round.first[k] : nullptr;
            round.cold_failures[i] = check_cold_answer(
                scenario, *report, first,
                reference != nullptr ? &(*reference)[k] : nullptr);
            if (first == nullptr) {
                round.first[k] = std::move(report);
                round.first_position[k] = i;
            }
            report.reset();
            checking_s += seconds_since(checking);
        }
        {
            ScopedSpan span(recorder, "core.store.flush");
            service->persist();
        }
        round.pass_s = seconds_since(start) - checking_s;
        round.cold_stats = service->cache_stats();
    }
    for (int w = 0; w < warm_restarts; ++w)
        round.warm.push_back(run_warm_restart(workload, dir, round, recorder));
    return round;
}

WarmPass run_warm_restart(const Workload& workload, const fs::path& dir,
                          const Round& round, Recorder& recorder) {
    WarmPass warm;
    const std::size_t d = workload.distinct.size();
    warm.failures.resize(d);
    double checking_s = 0.0;
    const auto start = Clock::now();
    auto service = open_service(workload.fabric, dir, recorder);
    for (std::size_t k = 0; k < d; ++k) {
        std::optional<core::ToolchainReport> report;
        try {
            report = service->submit(workload.distinct[k].request()).get();
        } catch (const std::exception& error) {
            warm.failures[k].push_back(std::string("warm restart failed: ") +
                                       error.what());
            continue;
        }
        const auto checking = Clock::now();
        if (round.first[k])
            warm.failures[k] = check_warm_answer(workload.distinct[k], *report,
                                                 *round.first[k]);
        else
            warm.failures[k].push_back("no cold-pass report to compare with");
        report.reset();
        checking_s += seconds_since(checking);
    }
    warm.seconds = seconds_since(start) - checking_s;
    warm.stats = service->cache_stats();
    return warm;
}

Verdict check_round(const Workload& workload, const Round& round,
                    std::uint64_t round_seed) {
    Verdict verdict;
    const auto judge = [&verdict](const Scenario& scenario,
                                  const Failures& failures) {
        ++verdict.attempted;
        if (failures.empty()) return;
        ++verdict.failed;
        verdict.failed_ops.push_back(verdict.attempted - 1);
        if (verdict.failures.size() < 8)
            verdict.failures.push_back(scenario.label + ": " +
                                       failures.front());
    };

    // Execution (predictable) or cross-tier profile (profiled) checks on
    // the first report of each distinct scenario; repeats were held to the
    // same certificate on receipt.
    support::Rng rng(round_seed);
    std::vector<Failures> deep(workload.distinct.size());
    for (std::size_t k = 0; k < workload.distinct.size(); ++k) {
        if (!round.first[k]) continue;
        const Scenario& scenario = workload.distinct[k];
        const auto& report = *round.first[k];
        deep[k] = scenario.predictable()
                      ? check_execution(scenario, report)
                      : check_profiles(scenario, report, rng.next(), 1);
    }
    for (std::size_t i = 0; i < workload.stream.size(); ++i) {
        const std::size_t k = workload.stream[i].scenario;
        Failures failures = round.cold_failures[i];
        if (round.first_position[k] == i)
            failures.insert(failures.end(), deep[k].begin(), deep[k].end());
        judge(workload.distinct[k], failures);
    }
    for (const WarmPass& warm : round.warm) {
        const Failures recompute = check_no_recompute(warm.stats);
        for (std::size_t k = 0; k < workload.distinct.size(); ++k) {
            Failures failures = warm.failures[k];
            failures.insert(failures.end(), recompute.begin(), recompute.end());
            judge(workload.distinct[k], failures);
        }
    }
    return verdict;
}

RunResult run_benchmark(const RunOptions& options) {
    RunResult result;
    Recorder recorder(options.trace);
    Recorder untraced(false);
    const fs::path dir =
        options.work_dir / ("store-" + std::to_string(::getpid()));

    // Set-up: build the inputs, make a new empty store directory and open a
    // service over it.  Removing the directory afterwards is not timed.
    std::vector<double> setups;
    const auto set_up = [&] {
        const fs::path fresh = options.work_dir /
                               ("setup-" + std::to_string(::getpid()) + "-" +
                                std::to_string(setups.size()));
        const auto start = Clock::now();
        auto inputs = make_workload(options.workload, options.seed);
        fs::create_directories(fresh);
        {
            auto service = open_service(inputs->fabric, fresh, untraced);
            setups.push_back(seconds_since(start));
        }
        fs::remove_all(fresh);
        return inputs;
    };
    const std::unique_ptr<Workload> workload = set_up();

    const std::size_t n = workload->stream.size();
    const std::size_t blocks = std::max<std::size_t>(
        (kMinSamples + n - 1) / n,
        static_cast<std::size_t>(options.seconds / workload->block_seconds));
    std::vector<std::string> reference;
    if (workload->fabric) reference = reference_certificates(*workload);

    // Per block: each position's fastest latency, the fastest pass, the
    // fastest warm restart and the fastest set-up.  Each is the minimum of
    // a fixed number of interleaved measurements, which rides out host
    // phases that last seconds without making the statistic depend on the
    // run's length.  The run reports quantiles over the pooled latencies
    // and medians over the blocks of the rest.
    std::vector<double> latencies;
    std::vector<double> block_rates;
    std::vector<double> block_warm;
    std::vector<double> block_setup;
    double peak_mb = 0.0;
    std::vector<double> energies_uj;
    std::vector<double> makespans_us;
    std::vector<std::size_t> first_failed_ops;
    Round first_round;

    const auto measure_start = Clock::now();
    std::size_t r = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
        if (b > 0 && seconds_since(measure_start) > kMaxMeasureSeconds) break;
        std::vector<double> fastest(n, INFINITY);
        double fastest_pass = INFINITY;
        double fastest_warm = INFINITY;
        setups.clear();
        for (std::size_t j = 0; j < workload->rounds_per_block; ++j, ++r) {
            for (int k = 0; k < kSetupsPerRound; ++k) (void)set_up();
            Round round = run_round(*workload, dir, kWarmRestartsPerRound,
                                    workload->fabric ? &reference : nullptr,
                                    recorder);
            for (std::size_t i = 0; i < n; ++i)
                fastest[i] = std::min(fastest[i], round.latency_s[i]);
            fastest_pass = std::min(fastest_pass, round.pass_s);
            for (const WarmPass& warm : round.warm)
                fastest_warm = std::min(fastest_warm, warm.seconds);
            // The footprint of set-up plus one whole round; later rounds
            // redo the same work and could only add allocator fragmentation.
            if (r == 0) peak_mb = peak_rss_mb();

            const Verdict verdict = check_round(
                *workload, round, options.seed * 0x9E3779B97F4A7C15ULL + r);
            result.attempted += verdict.attempted;
            result.failed += verdict.failed;
            add_problems(result, verdict.failures);
            if (r == 0) {
                first_failed_ops = verdict.failed_ops;
            } else if (verdict.failed_ops != first_failed_ops) {
                result.correct = false;
                add_problems(result, {"round " + std::to_string(r) +
                                      " failed other operations than round 0"});
            }

            if (r == 0) {
                for (std::size_t k = 0; k < workload->distinct.size(); ++k) {
                    const Scenario& scenario = workload->distinct[k];
                    if (scenario.generated || !round.first[k]) continue;
                    const auto& schedule = round.first[k]->schedule;
                    energies_uj.push_back(
                        schedule.platform_energy_j(*scenario.platform,
                                                   schedule.makespan_s, true) *
                        1e6);
                    makespans_us.push_back(schedule.makespan_s * 1e6);
                }
                if (recorder.enabled()) {
                    record_cache(round.cold_stats, recorder);
                    add_problems(result, trace_store(dir, recorder));
                    add_problems(result, trace_reports(round, recorder));
                    first_round = std::move(round);
                }
            }
        }
        latencies.insert(latencies.end(), fastest.begin(), fastest.end());
        block_rates.push_back(static_cast<double>(n) / fastest_pass);
        block_warm.push_back(fastest_warm);
        block_setup.push_back(*std::min_element(setups.begin(), setups.end()));
    }
    result.rounds = r;

    if (recorder.enabled()) {
        std::vector<const core::ToolchainReport*> reports;
        for (const auto& report : first_round.first)
            reports.push_back(report ? &*report : nullptr);
        const auto mismatches = trace_layers(*workload, reports, recorder);
        if (!mismatches.empty()) result.correct = false;
        add_problems(result, mismatches);
        recorder.dump((options.work_dir / ("spans-" + options.workload + "-" +
                                           std::to_string(options.seed) +
                                           ".jsonl"))
                          .string());
        for (const auto& metric : layer_metrics()) {
            double value = 0.0;
            if (metric.counter) {
                value = recorder.counter(metric.name);
            } else if (metric.source != nullptr) {
                auto durations = recorder.durations(metric.source);
                for (auto& duration : durations) duration *= metric.scale;
                value = median(std::move(durations));
            } else {
                value = median(recorder.samples(metric.name));
            }
            result.per_layer[metric.name] = {value, metric.unit};
        }
    }
    fs::remove_all(dir);

    result.end_to_end["setup_s"] = {median(block_setup), "s"};
    result.end_to_end["scenarios_per_s"] = {median(block_rates), "1/s"};
    result.end_to_end["latency_p50_ms"] = {quantile(latencies, 0.5) * 1e3,
                                           "ms"};
    result.end_to_end["latency_p90_ms"] = {quantile(latencies, 0.9) * 1e3,
                                           "ms"};
    result.end_to_end["warm_restart_s"] = {median(block_warm), "s"};
    result.end_to_end["peak_rss_mb"] = {peak_mb, "MiB"};
    result.end_to_end["deployed_energy_uj"] = {geomean(energies_uj), "uJ"};
    result.end_to_end["deployed_time_us"] = {geomean(makespans_us), "us"};
    return result;
}

}  // namespace perfbench
