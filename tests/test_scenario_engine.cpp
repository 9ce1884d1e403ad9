// ScenarioEngine layer: thread pool semantics, evaluation-cache
// memoisation, engine-vs-legacy equivalence on the paper's use cases,
// determinism across worker counts and across the programs that share a
// cached front, and batch execution statistics.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <numeric>
#include <vector>

#include "core/result_store.hpp"
#include "core/scenario_engine.hpp"
#include "core/stages.hpp"
#include "core/wire.hpp"
#include "ir/builder.hpp"
#include "support/thread_pool.hpp"
#include "usecases/apps.hpp"

namespace {

using namespace teamplay;

// -- thread pool --------------------------------------------------------------

TEST(ThreadPool, CoversEveryIndexOnceCallerOnly) {
    support::ThreadPool pool(0);
    EXPECT_EQ(pool.concurrency(), 1u);
    std::vector<int> counts(64, 0);
    pool.parallel_for(counts.size(),
                      [&](std::size_t i) { counts[i] += 1; });
    for (const int count : counts) EXPECT_EQ(count, 1);
}

TEST(ThreadPool, CoversEveryIndexOnceWithWorkers) {
    support::ThreadPool pool(3);
    EXPECT_EQ(pool.concurrency(), 4u);
    std::vector<std::atomic<int>> counts(512);
    pool.parallel_for(counts.size(), [&](std::size_t i) {
        counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
    support::ThreadPool pool(2);
    std::vector<std::vector<int>> grid(8, std::vector<int>(8, 0));
    pool.parallel_for(grid.size(), [&](std::size_t row) {
        pool.parallel_for(grid[row].size(),
                          [&](std::size_t col) { grid[row][col] = 1; });
    });
    for (const auto& row : grid)
        EXPECT_EQ(std::accumulate(row.begin(), row.end(), 0), 8);
}

TEST(ThreadPool, RethrowsBodyException) {
    support::ThreadPool pool(2);
    EXPECT_THROW(pool.parallel_for(16,
                                   [](std::size_t i) {
                                       if (i == 7)
                                           throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
}

// -- evaluation cache ---------------------------------------------------------

core::EvaluationKey taint_key(std::uint64_t structural_fp, const char* entry) {
    core::EvaluationKey key;
    key.structural_fp = structural_fp;
    key.entry = entry;
    key.kind = core::AnalysisKind::kTaint;
    return key;
}

TEST(EvaluationCache, MissThenHit) {
    core::EvaluationCache cache;
    int computes = 0;
    const auto compute = [&computes] {
        ++computes;
        core::EvaluationResult result;
        result.leakage = 4.0;
        return result;
    };
    const std::uint64_t marker = 1;
    const auto key = taint_key(marker, "f");
    EXPECT_DOUBLE_EQ(cache.lookup(key, compute)->leakage, 4.0);
    EXPECT_DOUBLE_EQ(cache.lookup(key, compute)->leakage, 4.0);
    EXPECT_EQ(computes, 1);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(EvaluationCache, SingleFlightUnderConcurrency) {
    core::EvaluationCache cache;
    support::ThreadPool pool(3);
    std::atomic<int> computes{0};
    const std::uint64_t marker = 1;
    const auto key = taint_key(marker, "g");
    pool.parallel_for(32, [&](std::size_t) {
        (void)cache.lookup(key, [&] {
            computes.fetch_add(1);
            return core::EvaluationResult{};
        });
    });
    EXPECT_EQ(computes.load(), 1);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, 32u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(EvaluationCache, ThrowingComputePropagatesAndRetries) {
    core::EvaluationCache cache;
    const std::uint64_t marker = 1;
    const auto key = taint_key(marker, "h");
    EXPECT_THROW((void)cache.lookup(
                     key,
                     []() -> core::EvaluationResult {
                         throw std::runtime_error("analysis failed");
                     }),
                 std::runtime_error);
    // The failure is not cached: a later lookup recomputes successfully.
    const auto result = cache.lookup(key, [] {
        core::EvaluationResult r;
        r.leakage = 1.0;
        return r;
    });
    EXPECT_DOUBLE_EQ(result->leakage, 1.0);
}

TEST(EvaluationCache, ClearDropsEntries) {
    core::EvaluationCache cache;
    const std::uint64_t marker = 1;
    int computes = 0;
    const auto compute = [&computes] {
        ++computes;
        return core::EvaluationResult{};
    };
    (void)cache.lookup(taint_key(marker, "f"), compute);
    cache.clear();
    (void)cache.lookup(taint_key(marker, "f"), compute);
    EXPECT_EQ(computes, 2);
}

// -- engine vs legacy path ----------------------------------------------------

core::WorkflowOptions fast_options() {
    core::WorkflowOptions options;
    options.compiler.population = 4;
    options.compiler.iterations = 4;
    options.profile_runs = 5;
    options.scheduler.anneal_iterations = 60;
    return options;
}

core::ScenarioRequest request_for(const usecases::UseCaseApp& app,
                                  const csl::AppSpec& spec,
                                  const core::WorkflowOptions& options) {
    core::ScenarioRequest request;
    request.program = &app.program;
    request.platform = &app.platform;
    request.spec = spec;
    request.options = options;
    request.label = app.name;
    return request;
}

void expect_reports_identical(const core::ToolchainReport& a,
                              const core::ToolchainReport& b) {
    EXPECT_EQ(a.summary(), b.summary());
    EXPECT_EQ(a.certificate.to_text(), b.certificate.to_text());
    EXPECT_EQ(a.glue_code, b.glue_code);
    EXPECT_EQ(a.sequential_glue, b.sequential_glue);
    EXPECT_EQ(a.schedule.entries.size(), b.schedule.entries.size());
    EXPECT_DOUBLE_EQ(a.schedule.makespan_s, b.schedule.makespan_s);
    EXPECT_EQ(a.fronts.size(), b.fronts.size());
}

TEST(ScenarioEngine, MatchesLegacyPredictablePathOnCameraPill) {
    const auto app = usecases::make_camera_pill_app();
    const auto spec = csl::parse(app.csl_source);
    const auto options = fast_options();

    core::PredictableWorkflow legacy(app.program, app.platform);
    const auto legacy_report = legacy.run(spec, options);

    core::ScenarioEngine engine;
    const auto engine_report = engine.run(request_for(app, spec, options));

    expect_reports_identical(engine_report, legacy_report);
    EXPECT_TRUE(engine_report.certificate.fully_static());
    EXPECT_TRUE(contracts::verify_certificate(engine_report.certificate));
}

TEST(ScenarioEngine, MatchesLegacyComplexPathOnUav) {
    const auto app = usecases::make_uav_app("apalis-tk1");
    const auto spec = csl::parse(app.csl_source);
    const auto options = fast_options();

    core::ComplexWorkflow legacy(app.program, app.platform);
    const auto legacy_report = legacy.run(spec, options);

    core::ScenarioEngine engine;
    const auto engine_report = engine.run(request_for(app, spec, options));

    expect_reports_identical(engine_report, legacy_report);
    EXPECT_FALSE(engine_report.certificate.fully_static());
    EXPECT_FALSE(engine_report.sequential_glue.empty());
    EXPECT_TRUE(contracts::verify_certificate(engine_report.certificate));
}

TEST(ScenarioEngine, ParsesCslSourceWhenSpecAbsent) {
    const auto app = usecases::make_camera_pill_app();
    core::ScenarioRequest request;
    request.program = &app.program;
    request.platform = &app.platform;
    request.csl_source = app.csl_source;
    request.options = fast_options();
    core::ScenarioEngine engine;
    const auto report = engine.run(request);
    EXPECT_EQ(report.spec.name, csl::parse(app.csl_source).name);
    EXPECT_TRUE(report.schedule.feasible);
}

TEST(ScenarioEngine, RejectsRequestWithoutProgramOrPlatform) {
    core::ScenarioEngine engine;
    EXPECT_THROW((void)engine.run(core::ScenarioRequest{}),
                 std::invalid_argument);
}

// -- cache behaviour through the engine ---------------------------------------

TEST(ScenarioEngine, SecondIdenticalScenarioIsAllCacheHits) {
    const auto app = usecases::make_camera_pill_app();
    const auto spec = csl::parse(app.csl_source);
    const auto options = fast_options();
    core::ScenarioEngine engine;

    const auto first = engine.run(request_for(app, spec, options));
    const auto after_first = engine.cache_stats();
    // One front per (task, admissible core class): all misses, no hits.
    EXPECT_EQ(after_first.misses, first.fronts.size());
    EXPECT_EQ(after_first.hits, 0u);

    const auto second = engine.run(request_for(app, spec, options));
    const auto after_second = engine.cache_stats();
    EXPECT_EQ(after_second.misses, after_first.misses);  // nothing recomputed
    EXPECT_EQ(after_second.hits, first.fronts.size());
    expect_reports_identical(first, second);
}

TEST(ScenarioEngine, SchedulerOnlyVariantsShareAnalyses) {
    const auto app = usecases::make_uav_app("apalis-tk1");
    const auto spec = csl::parse(app.csl_source);
    core::ScenarioEngine engine;

    auto options = fast_options();
    (void)engine.run(request_for(app, spec, options));
    const auto after_first = engine.cache_stats();

    options.scheduler.objective =
        coordination::Scheduler::Objective::kMakespan;
    options.scheduler.seed = 99;
    (void)engine.run(request_for(app, spec, options));
    const auto after_second = engine.cache_stats();
    // Scheduling options do not key any analysis: zero new misses.
    EXPECT_EQ(after_second.misses, after_first.misses);
    EXPECT_GT(after_second.hits, after_first.hits);
}

// -- determinism and batches --------------------------------------------------

std::vector<core::ScenarioRequest> mixed_requests(
    const std::vector<usecases::UseCaseApp>& apps) {
    std::vector<core::ScenarioRequest> requests;
    for (const auto& app : apps) {
        auto options = fast_options();
        requests.push_back(
            request_for(app, csl::parse(app.csl_source), options));
        options.scheduler.objective =
            coordination::Scheduler::Objective::kMakespan;
        requests.push_back(
            request_for(app, csl::parse(app.csl_source), options));
    }
    return requests;
}

TEST(ScenarioEngine, DeterministicAcrossWorkerCounts) {
    std::vector<usecases::UseCaseApp> apps;
    apps.push_back(usecases::make_camera_pill_app());
    apps.push_back(usecases::make_uav_app("apalis-tk1"));
    const auto requests = mixed_requests(apps);

    core::ScenarioEngine single;  // caller-only
    core::ScenarioEngine pooled({.worker_threads = 4});
    const auto sequential = single.run_all(requests);
    const auto parallel = pooled.run_all(requests);

    ASSERT_EQ(sequential.size(), parallel.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
        SCOPED_TRACE(requests[i].label + " #" + std::to_string(i));
        expect_reports_identical(sequential[i], parallel[i]);
    }
}

/// A report's wire bytes without its wall-clock stage laps: everything a
/// fabric client receives that must be a pure function of the request.
core::wire::Buffer deterministic_bytes(core::ToolchainReport report) {
    report.stage_laps.clear();
    return core::wire::encode(report);
}

/// The camera pill plus one function no task reaches.  Its task entries
/// have the same structural fingerprints as the pill's, so the two
/// programs share every cached front.
usecases::UseCaseApp pill_with_unrelated_function() {
    auto app = usecases::make_camera_pill_app();
    ir::FunctionBuilder unrelated("unrelated", 1);
    unrelated.ret(unrelated.add(unrelated.param(0), unrelated.imm(1)));
    app.program.add(unrelated.build());
    return app;
}

TEST(ScenarioEngine, ReportBytesDoNotDependOnWhichProgramFilledTheCache) {
    const auto pill = usecases::make_camera_pill_app();
    const auto extended = pill_with_unrelated_function();
    const auto spec = csl::parse(pill.csl_source);
    const auto options = fast_options();

    core::ScenarioEngine fresh;
    const auto alone =
        deterministic_bytes(fresh.run(request_for(extended, spec, options)));

    // Same engine: the pill computes the fronts the extended program reuses.
    core::ScenarioEngine shared;
    (void)shared.run(request_for(pill, spec, options));
    const auto misses = shared.cache_stats().misses;
    const auto reused =
        deterministic_bytes(shared.run(request_for(extended, spec, options)));
    EXPECT_EQ(shared.cache_stats().misses, misses);  // every front reused
    EXPECT_EQ(reused.size(), alone.size());
    EXPECT_TRUE(reused == alone);

    // Warm restart: the pill's fronts come back from its result store.
    const auto dir = std::filesystem::temp_directory_path() /
                     "teamplay_engine_front_provenance";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto with_store = [&dir] {
        core::ScenarioEngine::Options engine_options;
        engine_options.result_store = std::make_shared<core::ResultStore>(dir);
        return engine_options;
    };
    {
        core::ScenarioEngine first(with_store());
        (void)first.run(request_for(pill, spec, options));
    }
    core::ScenarioEngine restarted(with_store());
    const auto warm = deterministic_bytes(
        restarted.run(request_for(extended, spec, options)));
    EXPECT_EQ(restarted.cache_stats().store_misses, 0u);  // none recomputed
    EXPECT_EQ(warm.size(), alone.size());
    EXPECT_TRUE(warm == alone);
    std::filesystem::remove_all(dir);
}

TEST(ScenarioEngine, RunAllReportsBatchStatsAndOrder) {
    std::vector<usecases::UseCaseApp> apps;
    apps.push_back(usecases::make_camera_pill_app());
    apps.push_back(usecases::make_space_app());
    apps.push_back(usecases::make_uav_app("apalis-tk1"));
    apps.push_back(usecases::make_parking_app(true));
    const auto requests = mixed_requests(apps);  // 8 mixed scenarios
    ASSERT_GE(requests.size(), 8u);

    core::ScenarioEngine engine({.worker_threads = 4});
    core::BatchStats stats;
    const auto reports = engine.run_all(requests, &stats);

    ASSERT_EQ(reports.size(), requests.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
        // Reports come back in request order.
        EXPECT_EQ(reports[i].spec.name, requests[i].spec->name) << i;
        EXPECT_TRUE(reports[i].schedule.feasible) << i;
        EXPECT_TRUE(contracts::verify_certificate(reports[i].certificate))
            << i;
    }
    EXPECT_EQ(stats.scenarios, requests.size());
    EXPECT_EQ(stats.workers, 5u);  // 4 workers + caller
    EXPECT_GT(stats.wall_s, 0.0);
    EXPECT_GT(stats.scenarios_per_s, 0.0);
    // Each app appears twice with scheduler-only variations: the second
    // occurrence's analyses must come from the cache.
    EXPECT_GT(stats.cache.hits, 0u);
    EXPECT_GT(stats.cache.misses, 0u);
    EXPECT_FALSE(stats.to_string().empty());
}

TEST(ScenarioEngine, StageConfigurationsMatchThePaper) {
    const auto predictable = core::predictable_stage_configuration();
    const auto complex = core::complex_stage_configuration();
    ASSERT_EQ(predictable.size(), 5u);
    ASSERT_EQ(complex.size(), 5u);
    const char* expected[] = {"parse", "analyse", "schedule", "contract",
                              "certify"};
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(predictable[i]->name(), expected[i]);
        EXPECT_EQ(complex[i]->name(), expected[i]);
    }
}

}  // namespace
