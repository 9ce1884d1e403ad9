// Wire codec (core/wire.hpp): exhaustive field round-trips for all six
// message types (including full IR programs inside compiled task versions
// and whole ScenarioRequest/ToolchainReport frames), property-style
// randomised keys/telemetry with a seeded RNG, strict rejection of
// truncated/corrupted/trailing-garbage buffers, and the version-mismatch
// error path.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "compiler/multi_criteria.hpp"
#include "coordination/glue.hpp"
#include "coordination/scheduler.hpp"
#include "core/scenario_engine.hpp"
#include "core/wire.hpp"
#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "usecases/apps.hpp"

namespace {

using namespace teamplay;
using core::wire::Buffer;

core::EvaluationKey sample_key() {
    core::EvaluationKey key;
    key.structural_fp = 0x0123456789ABCDEFULL;
    key.entry = "uav_detect";
    key.core_class = "big";
    key.opp_index = 3;
    key.kind = core::AnalysisKind::kProfile;
    key.params = 0xFEDCBA9876543210ULL;
    return key;
}

/// FNV-1a 64, mirrored from the codec so tests can re-seal patched frames.
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size) {
    std::uint64_t value = 14695981039346656037ULL;
    for (std::size_t i = 0; i < size; ++i) {
        value ^= data[i];
        value *= 1099511628211ULL;
    }
    return value;
}

void reseal(Buffer& buffer) {
    const std::uint64_t checksum =
        fnv1a(buffer.data(), buffer.size() - 8);
    for (int i = 0; i < 8; ++i)
        buffer[buffer.size() - 8 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(checksum >> (8 * i));
}

// -- EvaluationKey ------------------------------------------------------------

TEST(Wire, KeyRoundTripsEveryField) {
    const auto key = sample_key();
    const auto decoded = core::wire::decode_key(core::wire::encode(key));
    EXPECT_EQ(decoded.structural_fp, key.structural_fp);
    EXPECT_EQ(decoded.entry, key.entry);
    EXPECT_EQ(decoded.core_class, key.core_class);
    EXPECT_EQ(decoded.opp_index, key.opp_index);
    EXPECT_EQ(decoded.kind, key.kind);
    EXPECT_EQ(decoded.params, key.params);
    EXPECT_EQ(decoded, key);  // spaceship: full tuple equality
}

TEST(Wire, RandomisedKeysRoundTrip) {
    std::mt19937_64 rng(20260729);  // seeded: failures are reproducible
    std::uniform_int_distribution<std::uint64_t> word;
    std::uniform_int_distribution<int> kind(0, 2);
    std::uniform_int_distribution<int> length(0, 40);
    std::uniform_int_distribution<int> byte(0, 255);
    const auto random_text = [&] {
        std::string text(static_cast<std::size_t>(length(rng)), '\0');
        for (auto& c : text) c = static_cast<char>(byte(rng));
        return text;
    };
    for (int i = 0; i < 200; ++i) {
        core::EvaluationKey key;
        key.structural_fp = word(rng);
        key.entry = random_text();
        key.core_class = random_text();
        key.opp_index = word(rng);
        key.kind = static_cast<core::AnalysisKind>(kind(rng));
        key.params = word(rng);
        const auto buffer = core::wire::encode(key);
        EXPECT_EQ(core::wire::decode_key(buffer), key);
        // encode(decode(b)) == b, byte for byte.
        EXPECT_EQ(core::wire::encode(core::wire::decode_key(buffer)),
                  buffer);
    }
}

// -- EvaluationResult ---------------------------------------------------------

TEST(Wire, ResultWithCompiledFrontRoundTrips) {
    // A real compiled version, so the embedded transformed program is a
    // genuine pass-pipeline product, not a toy tree.
    const auto pill = usecases::make_camera_pill_app();
    const compiler::MultiCriteriaCompiler mcc(pill.program,
                                              pill.platform.cores[0]);
    compiler::PassConfig config;
    config.unroll_factor = 2;
    config.security = compiler::SecurityLevel::kBalance;
    auto version = mcc.compile("pill_compress", config);

    core::EvaluationResult result;
    result.front =
        std::make_shared<const std::vector<compiler::TaskVersion>>(
            std::vector<compiler::TaskVersion>{version});
    result.leakage = 0.25;

    const auto buffer = core::wire::encode(result);
    const auto decoded = core::wire::decode_result(buffer);
    ASSERT_NE(decoded.front, nullptr);
    ASSERT_EQ(decoded.front->size(), 1U);
    const auto& out = decoded.front->front();
    EXPECT_EQ(out.config.unroll_factor, version.config.unroll_factor);
    EXPECT_EQ(out.config.security, version.config.security);
    EXPECT_EQ(out.config.opp_index, version.config.opp_index);
    EXPECT_EQ(out.analysable, version.analysable);
    EXPECT_EQ(out.wcet_s, version.wcet_s);
    EXPECT_EQ(out.wcec_j, version.wcec_j);
    EXPECT_EQ(out.time_s, version.time_s);
    EXPECT_EQ(out.energy_j, version.energy_j);
    EXPECT_EQ(out.energy_dynamic_j, version.energy_dynamic_j);
    EXPECT_EQ(out.leakage, version.leakage);
    EXPECT_EQ(out.static_instrs, version.static_instrs);
    ASSERT_NE(out.program, nullptr);
    // The transformed program survives byte-for-byte (canonical dump).
    EXPECT_EQ(ir::to_string(*out.program), ir::to_string(*version.program));
    EXPECT_EQ(decoded.leakage, result.leakage);
    EXPECT_EQ(core::wire::encode(decoded), buffer);
}

TEST(Wire, ResultWithProfileRoundTrips) {
    core::EvaluationResult result;
    result.profile.function = "uav_detect";
    result.profile.runs = 25;
    result.profile.time_s = {1.5e-3, 2.5e-5, 1.9e-3, 2.0e-3};
    result.profile.energy_j = {3.0e-4, 1.0e-6, 3.2e-4, 3.3e-4};
    result.profile.cycles = {1.2e6, 3.4e3, 1.3e6, 1.31e6};
    result.leakage = 1.75;

    const auto buffer = core::wire::encode(result);
    const auto decoded = core::wire::decode_result(buffer);
    EXPECT_EQ(decoded.front, nullptr);
    EXPECT_EQ(decoded.profile.function, result.profile.function);
    EXPECT_EQ(decoded.profile.runs, result.profile.runs);
    EXPECT_EQ(decoded.profile.time_s.mean, result.profile.time_s.mean);
    EXPECT_EQ(decoded.profile.time_s.stddev, result.profile.time_s.stddev);
    EXPECT_EQ(decoded.profile.time_s.p95, result.profile.time_s.p95);
    EXPECT_EQ(decoded.profile.time_s.max, result.profile.time_s.max);
    EXPECT_EQ(decoded.profile.energy_j.mean, result.profile.energy_j.mean);
    EXPECT_EQ(decoded.profile.cycles.max, result.profile.cycles.max);
    EXPECT_EQ(decoded.leakage, result.leakage);
    EXPECT_EQ(core::wire::encode(decoded), buffer);
}

// -- StageTelemetry / BatchStats ---------------------------------------------

TEST(Wire, TelemetryRoundTrips) {
    core::StageTelemetry telemetry;
    telemetry.record("parse", 0.001);
    telemetry.record("parse", 0.003);
    telemetry.record("analyse", 0.25);
    telemetry.record("certify", 0.0005);

    const auto buffer = core::wire::encode(telemetry);
    const auto decoded = core::wire::decode_telemetry(buffer);
    ASSERT_EQ(decoded.stages().size(), telemetry.stages().size());
    for (const auto& [name, stage] : telemetry.stages()) {
        const auto& out = decoded.stages().at(name);
        EXPECT_EQ(out.count, stage.count);
        EXPECT_EQ(out.total_s, stage.total_s);
        EXPECT_EQ(out.max_s, stage.max_s);
    }
    EXPECT_EQ(core::wire::encode(decoded), buffer);

    const core::StageTelemetry empty;
    EXPECT_TRUE(core::wire::decode_telemetry(core::wire::encode(empty))
                    .empty());
}

TEST(Wire, RandomisedTelemetryRoundTrips) {
    std::mt19937_64 rng(42);
    std::uniform_real_distribution<double> seconds(0.0, 2.0);
    std::uniform_int_distribution<int> stages(0, 12);
    std::uniform_int_distribution<int> laps(1, 20);
    for (int i = 0; i < 50; ++i) {
        core::StageTelemetry telemetry;
        const int n = stages(rng);
        for (int s = 0; s < n; ++s) {
            const std::string name = "stage_" + std::to_string(s);
            const int k = laps(rng);
            for (int lap = 0; lap < k; ++lap)
                telemetry.record(name, seconds(rng));
        }
        const auto buffer = core::wire::encode(telemetry);
        EXPECT_EQ(core::wire::encode(core::wire::decode_telemetry(buffer)),
                  buffer);
    }
}

TEST(Wire, BatchStatsRoundTrip) {
    core::BatchStats stats;
    stats.scenarios = 12;
    stats.workers = 5;
    stats.wall_s = 1.25;
    stats.scenarios_per_s = 9.6;
    stats.cache.hits = 100;
    stats.cache.misses = 40;
    stats.cache.evictions = 7;
    stats.cache.store_hits = 21;
    stats.cache.store_misses = 19;
    stats.cache.spills = 9;
    stats.cache.store_rejects = 2;
    stats.cache.remote_hits = 14;
    stats.cache.remote_misses = 3;
    stats.cache.entries = 33;
    stats.cache.resident_cost = 112.5;
    stats.stage_telemetry.record("schedule", 0.125);
    stats.admission.classes[0] = {.submitted = 9,
                                  .admitted = 8,
                                  .rejected = 1,
                                  .shed = 2,
                                  .completed = 5,
                                  .cancelled = 1,
                                  .failed = 0,
                                  .queue_peak = 4};
    stats.admission.classes[2].submitted = 3;
    stats.admission.classes[2].shed = 3;
    stats.admission.remote_failures = {0, 7, 1};

    const auto buffer = core::wire::encode(stats);
    const auto decoded = core::wire::decode_batch_stats(buffer);
    EXPECT_EQ(decoded.scenarios, stats.scenarios);
    EXPECT_EQ(decoded.workers, stats.workers);
    EXPECT_EQ(decoded.wall_s, stats.wall_s);
    EXPECT_EQ(decoded.scenarios_per_s, stats.scenarios_per_s);
    EXPECT_EQ(decoded.cache.hits, stats.cache.hits);
    EXPECT_EQ(decoded.cache.misses, stats.cache.misses);
    EXPECT_EQ(decoded.cache.evictions, stats.cache.evictions);
    EXPECT_EQ(decoded.cache.store_hits, stats.cache.store_hits);
    EXPECT_EQ(decoded.cache.store_misses, stats.cache.store_misses);
    EXPECT_EQ(decoded.cache.spills, stats.cache.spills);
    EXPECT_EQ(decoded.cache.store_rejects, stats.cache.store_rejects);
    EXPECT_EQ(decoded.cache.remote_hits, stats.cache.remote_hits);
    EXPECT_EQ(decoded.cache.remote_misses, stats.cache.remote_misses);
    EXPECT_EQ(decoded.cache.entries, stats.cache.entries);
    EXPECT_EQ(decoded.cache.resident_cost, stats.cache.resident_cost);
    EXPECT_EQ(decoded.stage_telemetry.stages().at("schedule").count, 1U);
    EXPECT_EQ(decoded.admission.classes[0].submitted, 9U);
    EXPECT_EQ(decoded.admission.classes[0].rejected, 1U);
    EXPECT_EQ(decoded.admission.classes[0].shed, 2U);
    EXPECT_EQ(decoded.admission.classes[0].queue_peak, 4U);
    EXPECT_EQ(decoded.admission.classes[2].shed, 3U);
    EXPECT_EQ(decoded.admission.remote_failures,
              (std::vector<std::uint64_t>{0, 7, 1}));
    EXPECT_EQ(core::wire::encode(decoded), buffer);
}

// -- strictness ---------------------------------------------------------------

TEST(Wire, EveryTruncationIsRejected) {
    const auto buffer = core::wire::encode(sample_key());
    for (std::size_t length = 0; length < buffer.size(); ++length) {
        const std::span<const std::uint8_t> prefix(buffer.data(), length);
        EXPECT_THROW((void)core::wire::decode_key(prefix),
                     core::wire::WireFormatError)
            << "prefix length " << length;
    }
}

TEST(Wire, EveryByteFlipIsRejected) {
    const auto pristine = core::wire::encode(sample_key());
    for (std::size_t index = 0; index < pristine.size(); ++index) {
        Buffer corrupted = pristine;
        corrupted[index] ^= 0x5A;
        // Always a format error (magic or checksum), never a bogus decode
        // and never a misreported version skew.
        EXPECT_THROW((void)core::wire::decode_key(corrupted),
                     core::wire::WireFormatError)
            << "flipped byte " << index;
    }
}

TEST(Wire, VersionMismatchIsItsOwnError) {
    Buffer future = core::wire::encode(sample_key());
    future[4] = static_cast<std::uint8_t>(core::wire::kVersion + 1);
    future[5] = 0;
    reseal(future);  // structurally intact, just from a newer generation
    try {
        (void)core::wire::decode_key(future);
        FAIL() << "expected WireVersionError";
    } catch (const core::wire::WireVersionError& error) {
        EXPECT_EQ(error.found(), core::wire::kVersion + 1);
    }
}

TEST(Wire, MessageKindMismatchIsRejected) {
    const core::StageTelemetry telemetry;
    const auto buffer = core::wire::encode(telemetry);
    EXPECT_THROW((void)core::wire::decode_key(buffer),
                 core::wire::WireFormatError);
    EXPECT_THROW(
        (void)core::wire::decode_batch_stats(core::wire::encode(
            sample_key())),
        core::wire::WireFormatError);
}

TEST(Wire, TrailingGarbageIsRejected) {
    Buffer padded = core::wire::encode(sample_key());
    padded.insert(padded.end() - 8, 0x00);  // extra payload byte
    reseal(padded);
    EXPECT_THROW((void)core::wire::decode_key(padded),
                 core::wire::WireFormatError);
}

TEST(Wire, ForgedSequenceCountIsRejected) {
    // Patch the front-count field of a result message to a huge value: the
    // decoder must reject it from the remaining-bytes bound, not allocate.
    core::EvaluationResult result;
    result.front =
        std::make_shared<const std::vector<compiler::TaskVersion>>();
    Buffer forged = core::wire::encode(result);
    // Payload starts after the 7-byte header: flags byte, then the count.
    for (std::size_t i = 8; i < 12; ++i) forged[i] = 0xFF;
    reseal(forged);
    EXPECT_THROW((void)core::wire::decode_result(forged),
                 core::wire::WireFormatError);
}

TEST(Wire, NonCanonicalFunctionOrderIsRejected) {
    // The encoder emits program functions in sorted name order; a
    // checksum-valid buffer with names out of order (or duplicated) must
    // be rejected, or encode(decode(b)) == b would silently fail.
    ir::Program program;
    program.memory_words = 64;
    for (const char* name : {"fa", "fb"}) {
        ir::FunctionBuilder b(name, 0);
        b.ret(b.imm(7));
        program.add(b.build());
    }
    compiler::TaskVersion version;
    version.program = std::make_shared<const ir::Program>(program);
    core::EvaluationResult result;
    result.front =
        std::make_shared<const std::vector<compiler::TaskVersion>>(
            std::vector<compiler::TaskVersion>{version});

    Buffer swapped = core::wire::encode(result);
    // The two bodies are identical, so swapping just the 2-byte names
    // yields a structurally valid payload whose names are unsorted.
    bool patched = false;
    for (std::size_t i = 0; i + 1 < swapped.size() - 8; ++i) {
        if (swapped[i] == 'f' && swapped[i + 1] == 'a') {
            swapped[i + 1] = 'b';
            patched = true;
        } else if (patched && swapped[i] == 'f' && swapped[i + 1] == 'b') {
            swapped[i + 1] = 'a';
            break;
        }
    }
    ASSERT_TRUE(patched);
    reseal(swapped);
    EXPECT_THROW((void)core::wire::decode_result(swapped),
                 core::wire::WireFormatError);
}

TEST(Wire, InvalidEnumBytesAreRejected) {
    Buffer bad_kind = core::wire::encode(sample_key());
    // The key's AnalysisKind byte sits 8 bytes before the params u64 and
    // checksum u64 trailer.
    bad_kind[bad_kind.size() - 17] = 0x7F;
    reseal(bad_kind);
    EXPECT_THROW((void)core::wire::decode_key(bad_kind),
                 core::wire::WireFormatError);
}

// -- ScenarioRequest / ToolchainReport frames ---------------------------------

const usecases::UseCaseApp& pill_app() {
    static const usecases::UseCaseApp app =
        usecases::make_camera_pill_app();
    return app;
}

core::ScenarioRequest sample_request() {
    const auto& app = pill_app();
    core::ScenarioRequest request;
    request.program = &app.program;
    request.platform = &app.platform;
    request.csl_source = app.csl_source;
    request.options.compiler.population = 4;
    request.options.compiler.iterations = 4;
    request.options.compiler.seed = 9;
    request.options.scheduler.seed = 9;
    request.options.scheduler.anneal_iterations = 60;
    request.options.profile_runs = 5;
    request.label = "pill#wire";
    // Non-default priority, no deadline: the v4 tail bytes are exercised
    // by every corruption matrix below while byte-exact round-tripping
    // still holds (only deadline-carrying frames are semantic-only).
    request.priority = core::Priority::kBackground;
    return request;
}

/// Corruption indices for a frame: exhaustive on small frames, and on
/// large ones (request/report frames embed whole IR programs) the full
/// header plus a fixed stride — every structural region still gets hit
/// while the test stays fast.
std::vector<std::size_t> corruption_indices(std::size_t size) {
    std::vector<std::size_t> indices;
    const std::size_t stride = size <= 4096 ? 1 : 131;
    for (std::size_t i = 0; i < size;
         i += (i < 64 || stride == 1 ? 1 : stride))
        indices.push_back(i);
    return indices;
}

TEST(Wire, RequestFrameRoundTripsEveryField) {
    auto request = sample_request();
    request.options.scheduler.objective =
        coordination::Scheduler::Objective::kMakespan;
    request.options.glue_style = coordination::GlueStyle::kRtems;

    const auto buffer = core::wire::encode(request);
    const auto frame = core::wire::decode_request(buffer);
    const auto decoded = frame.request();

    ASSERT_NE(decoded.program, nullptr);
    ASSERT_NE(decoded.platform, nullptr);
    EXPECT_EQ(ir::to_string(*decoded.program),
              ir::to_string(*request.program));
    EXPECT_EQ(decoded.platform->name, request.platform->name);
    ASSERT_EQ(decoded.platform->cores.size(),
              request.platform->cores.size());
    EXPECT_EQ(decoded.platform->cores[0].opps.size(),
              request.platform->cores[0].opps.size());
    EXPECT_EQ(decoded.csl_source, request.csl_source);
    EXPECT_EQ(decoded.spec.has_value(), request.spec.has_value());
    EXPECT_EQ(decoded.label, request.label);
    EXPECT_EQ(decoded.options.compiler.population,
              request.options.compiler.population);
    EXPECT_EQ(decoded.options.compiler.seed,
              request.options.compiler.seed);
    EXPECT_EQ(decoded.options.scheduler.objective,
              request.options.scheduler.objective);
    EXPECT_EQ(decoded.options.scheduler.anneal_iterations,
              request.options.scheduler.anneal_iterations);
    EXPECT_EQ(decoded.options.profile_runs, request.options.profile_runs);
    EXPECT_EQ(decoded.options.glue_style, request.options.glue_style);
    EXPECT_EQ(decoded.priority, core::Priority::kBackground);
    EXPECT_FALSE(decoded.deadline.has_value());
    // encode(decode(b)) == b: the decoded request re-encodes to the exact
    // same frame, so a relayed request is indistinguishable from the
    // original.
    EXPECT_EQ(core::wire::encode(decoded), buffer);
}

TEST(Wire, DeadlineCrossesAsBudgetWithinTolerance) {
    using Clock = std::chrono::steady_clock;
    auto request = sample_request();
    request.priority = core::Priority::kInteractive;
    const auto deadline = Clock::now() + std::chrono::milliseconds(250);
    request.deadline = deadline;

    // The budget is sampled at encode time and re-anchored on the decoding
    // host's clock, so the round trip is semantic: same remaining budget
    // up to the encode->decode latency (the documented wire-v4 exception
    // to byte-exactness — time moved between the two samplings).
    const auto frame =
        core::wire::decode_request(core::wire::encode(request));
    EXPECT_EQ(frame.priority, core::Priority::kInteractive);
    ASSERT_TRUE(frame.deadline.has_value());
    const double skew_s =
        std::abs(std::chrono::duration<double>(*frame.deadline - deadline)
                     .count());
    EXPECT_LT(skew_s, 0.05) << "re-anchored deadline drifted " << skew_s;
    EXPECT_EQ(frame.request().deadline, frame.deadline);

    // A deadline that expired before encoding stays expired after decode
    // (negative budgets are legal: the request died in transit and the
    // receiving admission check refuses it).
    request.deadline = Clock::now() - std::chrono::milliseconds(100);
    const auto expired =
        core::wire::decode_request(core::wire::encode(request));
    ASSERT_TRUE(expired.deadline.has_value());
    EXPECT_LT(*expired.deadline, Clock::now());
}

TEST(Wire, NaNDeadlineBudgetIsRejected) {
    auto request = sample_request();
    request.deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(100);
    Buffer patched = core::wire::encode(request);
    // Tail layout with a deadline: [budget f64][checksum u64]; overwrite
    // the budget with a quiet NaN and reseal so only the NaN check fires.
    const std::uint64_t nan_bits = 0x7FF8000000000000ULL;
    for (int i = 0; i < 8; ++i)
        patched[patched.size() - 16 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(nan_bits >> (8 * i));
    reseal(patched);
    EXPECT_THROW((void)core::wire::decode_request(patched),
                 core::wire::WireFormatError);
}

TEST(Wire, InvalidPriorityByteIsRejected) {
    Buffer patched = core::wire::encode(sample_request());
    // Tail layout without a deadline: [priority u8][has_deadline bool]
    // [checksum u64]; a class byte beyond the enum must be refused even
    // under a valid checksum.
    ASSERT_EQ(patched[patched.size() - 10],
              static_cast<std::uint8_t>(core::Priority::kBackground));
    patched[patched.size() - 10] = 0x7F;
    reseal(patched);
    EXPECT_THROW((void)core::wire::decode_request(patched),
                 core::wire::WireFormatError);
}

TEST(Wire, RequestWithoutProgramIsUnencodable) {
    core::ScenarioRequest empty;
    EXPECT_THROW((void)core::wire::encode(empty), std::invalid_argument);
}

TEST(Wire, ReportFrameRoundTrips) {
    // A genuine report from a full engine run, so every sub-codec (task
    // graph with version fronts, schedule, certificate proof trees, RTA
    // map, stage laps) carries production-shaped data.
    core::ScenarioEngine engine;
    const auto report = engine.submit(sample_request()).get();

    const auto buffer = core::wire::encode(report);
    const auto decoded = core::wire::decode_report(buffer);
    EXPECT_EQ(decoded.spec.name, report.spec.name);
    EXPECT_EQ(decoded.platform_name, report.platform_name);
    EXPECT_EQ(decoded.schedule.makespan_s, report.schedule.makespan_s);
    EXPECT_EQ(decoded.schedule.entries.size(),
              report.schedule.entries.size());
    EXPECT_EQ(decoded.certificate.to_text(),
              report.certificate.to_text());
    EXPECT_EQ(decoded.glue_code, report.glue_code);
    EXPECT_EQ(decoded.sequential_glue, report.sequential_glue);
    EXPECT_EQ(decoded.fronts.size(), report.fronts.size());
    EXPECT_EQ(decoded.rta.size(), report.rta.size());
    EXPECT_EQ(decoded.stage_laps.size(), report.stage_laps.size());
    EXPECT_EQ(core::wire::encode(decoded), buffer);
}

TEST(Wire, RequestEveryTruncationIsRejected) {
    const auto buffer = core::wire::encode(sample_request());
    for (const std::size_t length : corruption_indices(buffer.size())) {
        const std::span<const std::uint8_t> prefix(buffer.data(), length);
        EXPECT_THROW((void)core::wire::decode_request(prefix),
                     core::wire::WireFormatError)
            << "prefix length " << length;
    }
}

TEST(Wire, RequestEveryByteFlipIsRejected) {
    const auto pristine = core::wire::encode(sample_request());
    for (const std::size_t index : corruption_indices(pristine.size())) {
        Buffer corrupted = pristine;
        corrupted[index] ^= 0x5A;
        EXPECT_THROW((void)core::wire::decode_request(corrupted),
                     core::wire::WireFormatError)
            << "flipped byte " << index;
    }
}

TEST(Wire, RequestVersionSkewIsItsOwnError) {
    Buffer future = core::wire::encode(sample_request());
    future[4] = static_cast<std::uint8_t>(core::wire::kVersion + 1);
    future[5] = 0;
    reseal(future);
    try {
        (void)core::wire::decode_request(future);
        FAIL() << "expected WireVersionError";
    } catch (const core::wire::WireVersionError& error) {
        EXPECT_EQ(error.found(), core::wire::kVersion + 1);
    }
}

TEST(Wire, RequestTrailingGarbageIsRejected) {
    Buffer padded = core::wire::encode(sample_request());
    padded.insert(padded.end() - 8, 0x00);
    reseal(padded);
    EXPECT_THROW((void)core::wire::decode_request(padded),
                 core::wire::WireFormatError);
}

TEST(Wire, RequestKindConfusionIsRejected) {
    // A key frame is not a request, and a request frame is not a key —
    // whatever the envelope claimed.
    EXPECT_THROW(
        (void)core::wire::decode_request(core::wire::encode(sample_key())),
        core::wire::WireFormatError);
    EXPECT_THROW((void)core::wire::decode_key(
                     core::wire::encode(sample_request())),
                 core::wire::WireFormatError);
}

TEST(Wire, ReportCorruptionMatrixIsRejected) {
    core::ScenarioEngine engine;
    const auto report = engine.submit(sample_request()).get();
    const Buffer pristine = core::wire::encode(report);

    for (const std::size_t length : corruption_indices(pristine.size())) {
        const std::span<const std::uint8_t> prefix(pristine.data(),
                                                   length);
        EXPECT_THROW((void)core::wire::decode_report(prefix),
                     core::wire::WireFormatError)
            << "prefix length " << length;
    }
    for (const std::size_t index : corruption_indices(pristine.size())) {
        Buffer corrupted = pristine;
        corrupted[index] ^= 0x5A;
        EXPECT_THROW((void)core::wire::decode_report(corrupted),
                     core::wire::WireFormatError)
            << "flipped byte " << index;
    }
    Buffer future = pristine;
    future[4] = static_cast<std::uint8_t>(core::wire::kVersion + 1);
    future[5] = 0;
    reseal(future);
    EXPECT_THROW((void)core::wire::decode_report(future),
                 core::wire::WireVersionError);
    Buffer padded = pristine;
    padded.insert(padded.end() - 8, 0x00);
    reseal(padded);
    EXPECT_THROW((void)core::wire::decode_report(padded),
                 core::wire::WireFormatError);
}

// -- pinned frame bytes -------------------------------------------------------

/// One fixed input per message kind, encoded.  The frame layout is pinned
/// against these: a codec change that moves any byte shows up here even
/// when it round-trips with itself.
struct PinnedFrame {
    const char* kind;
    Buffer bytes;
};

core::EvaluationResult pinned_result() {
    const auto& pill = pill_app();
    const compiler::MultiCriteriaCompiler mcc(pill.program,
                                              pill.platform.cores[0]);
    compiler::PassConfig config;
    config.unroll_factor = 2;
    config.security = compiler::SecurityLevel::kBalance;
    core::EvaluationResult result;
    result.front =
        std::make_shared<const std::vector<compiler::TaskVersion>>(
            std::vector<compiler::TaskVersion>{
                mcc.compile("pill_compress", config)});
    result.leakage = 0.25;
    return result;
}

core::StageTelemetry pinned_telemetry() {
    core::StageTelemetry telemetry;
    telemetry.record("parse", 0.001);
    telemetry.record("parse", 0.003);
    telemetry.record("analyse", 0.25);
    telemetry.record("certify", 0.0005);
    return telemetry;
}

core::BatchStats pinned_batch_stats() {
    core::BatchStats stats;
    stats.scenarios = 12;
    stats.workers = 5;
    stats.wall_s = 1.25;
    stats.scenarios_per_s = 9.6;
    stats.cache.hits = 100;
    stats.cache.misses = 40;
    stats.cache.store_hits = 21;
    stats.cache.remote_misses = 3;
    stats.cache.entries = 33;
    stats.cache.resident_cost = 112.5;
    stats.stage_telemetry.record("schedule", 0.125);
    stats.admission.classes[0] = {.submitted = 9,
                                  .admitted = 8,
                                  .rejected = 1,
                                  .shed = 2,
                                  .completed = 5,
                                  .cancelled = 1,
                                  .failed = 0,
                                  .queue_peak = 4};
    stats.admission.classes[2].shed = 3;
    stats.admission.remote_failures = {0, 7, 1};
    return stats;
}

core::ToolchainReport pinned_report() {
    core::ScenarioEngine engine;
    auto report = engine.submit(sample_request()).get();
    // Lap times are wall-clock; everything else in the report is
    // deterministic for a fixed request.
    for (std::size_t i = 0; i < report.stage_laps.size(); ++i)
        report.stage_laps[i].seconds = 0.001 * static_cast<double>(i + 1);
    return report;
}

const std::vector<PinnedFrame>& pinned_frames() {
    static const std::vector<PinnedFrame> frames = {
        {"key", core::wire::encode(sample_key())},
        {"result", core::wire::encode(pinned_result())},
        {"telemetry", core::wire::encode(pinned_telemetry())},
        {"batch", core::wire::encode(pinned_batch_stats())},
        {"request", core::wire::encode(sample_request())},
        {"report", core::wire::encode(pinned_report())},
    };
    return frames;
}

TEST(Wire, FrameBytesArePinned) {
    struct Pin {
        std::size_t size;
        std::uint64_t fnv1a;
    };
    const Pin pins[] = {
        {61, 0x72f617e15490a845ULL},
        {2608, 0x0b851edd901c0c06ULL},
        {122, 0xdfd2d463b6c9dcf9ULL},
        {395, 0x4ccebf39c7c52349ULL},
        {9419, 0x590cd3a2fbd92e61ULL},
        {20607, 0x5a054e1257a5e27aULL},
    };
    const auto& frames = pinned_frames();
    ASSERT_EQ(frames.size(), std::size(pins));
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const Buffer& bytes = frames[i].bytes;
        EXPECT_EQ(bytes.size(), pins[i].size) << frames[i].kind;
        EXPECT_EQ(fnv1a(bytes.data(), bytes.size()), pins[i].fnv1a)
            << frames[i].kind << std::hex << " fnv1a 0x"
            << fnv1a(bytes.data(), bytes.size());
    }
}

// -- decoder keeps its own byte-exact contract --------------------------------

/// Offset of the first length-prefixed occurrence of `text` in `frame`.
std::size_t find_string(const Buffer& frame, std::string_view text) {
    Buffer needle(4);
    for (int i = 0; i < 4; ++i)
        needle[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(text.size() >> (8 * i));
    needle.insert(needle.end(), text.begin(), text.end());
    const auto it = std::search(frame.begin(), frame.end(), needle.begin(),
                                needle.end());
    EXPECT_NE(it, frame.end()) << "no string " << text;
    return static_cast<std::size_t>(it - frame.begin()) + 4;
}

void put_u64(Buffer& frame, std::size_t offset, std::uint64_t value) {
    for (int i = 0; i < 8; ++i)
        frame[offset + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(value >> (8 * i));
}

std::uint64_t get_u64(const Buffer& frame, std::size_t offset) {
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(
                     frame[offset + static_cast<std::size_t>(i)])
                 << (8 * i);
    return value;
}

/// Result-frame offset of the first version's `unroll_factor` i64: header
/// (7), front flag (1), front count (4), six PassConfig bools.
constexpr std::size_t kUnrollOffset = 7 + 1 + 4 + 6;

TEST(Wire, OutOfRangeIntegerIsRejected) {
    // An i64 that does not fit the int it decodes into would be narrowed
    // to a different value, so the frame could never re-encode to itself.
    Buffer forged = core::wire::encode(pinned_result());
    ASSERT_EQ(get_u64(forged, kUnrollOffset), 2U);
    put_u64(forged, kUnrollOffset, (std::uint64_t{1} << 32) + 4);
    reseal(forged);
    try {
        (void)core::wire::decode_result(forged);
        FAIL() << "an unroll factor of 2^32+4 was accepted";
    } catch (const core::wire::WireFormatError& error) {
        EXPECT_STREQ(error.what(), "wire integer out of range");
    }
}

TEST(Wire, NonCanonicalTelemetryOrderIsRejected) {
    // A duplicate stage name would be merged into one stage on decode and
    // re-encode as a shorter frame.
    core::StageTelemetry telemetry;
    telemetry.record("sa", 0.5);
    telemetry.record("sb", 0.25);
    Buffer renamed = core::wire::encode(telemetry);
    renamed[find_string(renamed, "sb") + 1] = 'a';
    reseal(renamed);
    EXPECT_THROW((void)core::wire::decode_telemetry(renamed),
                 core::wire::WireFormatError);
}

/// encode(decode(b)) for the message kind of pinned frame `index`.
Buffer reencode(std::size_t index, std::span<const std::uint8_t> bytes) {
    namespace wire = core::wire;
    switch (index) {
        case 0: return wire::encode(wire::decode_key(bytes));
        case 1: return wire::encode(wire::decode_result(bytes));
        case 2: return wire::encode(wire::decode_telemetry(bytes));
        case 3: return wire::encode(wire::decode_batch_stats(bytes));
        case 4: return wire::encode(wire::decode_request(bytes).request());
        default: return wire::encode(wire::decode_report(bytes));
    }
}

TEST(Wire, ResealedMutationsAreRejectedOrRoundTrip) {
    // Every byte of every pinned frame, XORed and resealed so the mutation
    // reaches the payload decoder instead of stopping at the checksum: the
    // decoder must refuse the frame or accept one that re-encodes to the
    // exact mutated bytes.  Anything else (a crash, a foreign exception, a
    // value that re-encodes differently) fails.
    const auto& frames = pinned_frames();
    for (std::size_t f = 0; f < frames.size(); ++f) {
        std::size_t accepted = 0;
        for (std::size_t index = 0; index < frames[f].bytes.size(); ++index) {
            Buffer mutated = frames[f].bytes;
            mutated[index] ^= 0x5A;
            reseal(mutated);
            try {
                ASSERT_TRUE(reencode(f, mutated) == mutated)
                    << frames[f].kind << " byte " << index
                    << " was accepted but re-encodes differently";
                ++accepted;
            } catch (const core::wire::WireError&) {
            }
        }
        // Doubles, counters and string bytes absorb most flips: the
        // matrix must reach the accept path, not only the rejections.
        EXPECT_GT(accepted, 0U) << frames[f].kind;
    }
}

/// A result frame whose one version carries a one-function program with
/// `body`; the frame ends with the empty profile (124 bytes with leakage
/// and checksum), so the body's last byte sits at size - 125.
constexpr std::size_t kResultTail = 4 + 8 + 3 * 32 + 8 + 8;

Buffer result_with_body(ir::NodePtr body) {
    ir::Function fn;
    fn.name = "f";
    fn.body = std::move(body);
    auto program = std::make_shared<ir::Program>();
    program->add(std::move(fn));
    compiler::TaskVersion version;
    version.program = std::move(program);
    core::EvaluationResult result;
    result.front =
        std::make_shared<const std::vector<compiler::TaskVersion>>(
            std::vector<compiler::TaskVersion>{version});
    return core::wire::encode(result);
}

/// A request frame with an empty program and a one-core platform whose
/// names are one letter each.  The options block starts 83 bytes before
/// the end when the request has no glue style, no deadline and no label.
constexpr std::size_t kOptionsFromEnd = 69 + 4 + 1 + 1 + 8;

Buffer tiny_request(core::ScenarioRequest request = {}) {
    static const ir::Program program;
    static const platform::Platform board = [] {
        platform::Platform p;
        p.name = "p";
        p.cores.emplace_back();
        p.cores[0].name = "c";
        p.cores[0].model.name = "m";
        return p;
    }();
    request.program = &program;
    request.platform = &board;
    return core::wire::encode(request);
}

/// A report frame with nothing but `report`'s hand-set fields.  After the
/// certificate come two empty glue strings and three empty counts (front,
/// RTA, lap) before the checksum: 28 bytes.
constexpr std::size_t kReportTail = 4 + 4 + 4 + 4 + 4 + 8;

ir::NodePtr seq_chain(int depth) {
    auto node = ir::Node::block({});
    for (int i = 0; i < depth; ++i) {
        std::vector<ir::NodePtr> children;
        children.push_back(std::move(node));
        node = ir::Node::seq(std::move(children));
    }
    return node;
}

TEST(Wire, EveryDiagnosticIsPinned) {
    namespace wire = core::wire;
    using Trigger = std::function<void()>;
    const Buffer key = wire::encode(sample_key());
    const auto patched = [](Buffer frame, std::size_t offset,
                            std::uint8_t value) {
        frame[offset] = value;
        reseal(frame);
        return frame;
    };
    const struct {
        const char* what;
        Trigger trigger;
    } cases[] = {
        {"wire buffer shorter than frame",
         [&] { (void)wire::decode_key(std::span(key).first(14)); }},
        {"wire magic mismatch",
         [&] {
             Buffer bad = key;
             bad[0] ^= 0x5A;
             (void)wire::decode_key(bad);
         }},
        {"wire checksum mismatch",
         [&] {
             Buffer bad = key;
             bad[20] ^= 0x5A;
             (void)wire::decode_key(bad);
         }},
        {"wire version mismatch: found 5, expected 4",
         [&] { (void)wire::decode_key(patched(key, 4, 5)); }},
        {"wire message kind mismatch",
         [&] { (void)wire::decode_key(wire::encode(pinned_telemetry())); }},
        {"wire payload has trailing bytes",
         [&] {
             Buffer padded = key;
             padded.insert(padded.end() - 8, 0x00);
             reseal(padded);
             (void)wire::decode_key(padded);
         }},
        // The entry string's length prefix (bytes 15..18) claims more
        // bytes than the frame holds.
        {"wire buffer truncated",
         [&] { (void)wire::decode_key(patched(key, 18, 0x7F)); }},
        {"wire bool byte not 0/1",
         [&] {
             (void)wire::decode_result(
                 patched(wire::encode(core::EvaluationResult{}), 7, 2));
         }},
        {"wire sequence count exceeds buffer",
         [&] {
             core::EvaluationResult result;
             result.front = std::make_shared<
                 const std::vector<compiler::TaskVersion>>();
             (void)wire::decode_result(
                 patched(wire::encode(result), 11, 0x7F));
         }},
        {"wire analysis kind invalid",
         [&] { (void)wire::decode_key(patched(key, 44, 0x7F)); }},
        {"wire node tree nested too deeply",
         [&] { (void)wire::decode_result(result_with_body(seq_chain(300))); }},
        {"wire node kind invalid",
         [&] {
             const Buffer frame = result_with_body(ir::Node::block({}));
             const std::size_t at = frame.size() - kResultTail - 5;
             ASSERT_EQ(frame[at], 0U);  // kBlock
             (void)wire::decode_result(patched(frame, at, 0x7F));
         }},
        {"wire opcode invalid",
         [&] {
             const Buffer frame =
                 result_with_body(ir::Node::block({ir::Instr{}}));
             const std::size_t at = frame.size() - kResultTail - 26;
             ASSERT_EQ(frame[at], static_cast<std::uint8_t>(ir::Opcode::kNop));
             (void)wire::decode_result(patched(frame, at, 0xFF));
         }},
        {"wire program functions not in canonical order",
         [&] {
             ir::Program program;
             for (const char* name : {"fa", "fb"}) {
                 ir::Function fn;
                 fn.name = name;
                 program.add(std::move(fn));
             }
             compiler::TaskVersion version;
             version.program = std::make_shared<const ir::Program>(program);
             core::EvaluationResult result;
             result.front = std::make_shared<
                 const std::vector<compiler::TaskVersion>>(
                 std::vector<compiler::TaskVersion>{version});
             Buffer frame = wire::encode(result);
             (void)wire::decode_result(
                 patched(frame, find_string(frame, "fb") + 1, 'a'));
         }},
        {"wire security level invalid",
         [&] {
             core::EvaluationResult result;
             result.front = std::make_shared<
                 const std::vector<compiler::TaskVersion>>(1);
             (void)wire::decode_result(
                 patched(wire::encode(result), kUnrollOffset + 8, 0x7F));
         }},
        {"wire integer out of range",
         [&] {
             core::EvaluationResult result;
             result.front = std::make_shared<
                 const std::vector<compiler::TaskVersion>>(1);
             // The unroll factor's top byte: a negative i64 far below
             // INT_MIN.
             (void)wire::decode_result(
                 patched(wire::encode(result), kUnrollOffset + 7, 0x80));
         }},
        {"wire telemetry stages not in canonical order",
         [&] {
             Buffer frame = wire::encode(pinned_telemetry());
             (void)wire::decode_telemetry(
                 patched(frame, find_string(frame, "parse"), 'a'));
         }},
        {"wire cost table size invalid",
         [&] {
             // header 7, empty program 12, "p" 5, base power 8, core count
             // 4, "c" 5, "m" 5, predictable 1.
             const std::size_t at = 7 + 12 + 5 + 8 + 4 + 5 + 5 + 1;
             const Buffer frame = tiny_request();
             ASSERT_EQ(frame[at], isa::kNumInstrClasses);
             (void)wire::decode_request(patched(frame, at, 0));
         }},
        {"wire compiler engine invalid",
         [&] {
             const Buffer frame = tiny_request();
             (void)wire::decode_request(
                 patched(frame, frame.size() - kOptionsFromEnd, 0x7F));
         }},
        {"wire scheduler objective invalid",
         [&] {
             const Buffer frame = tiny_request();
             const std::size_t at = frame.size() - kOptionsFromEnd + 34;
             (void)wire::decode_request(patched(frame, at, 0x7F));
         }},
        {"wire glue style invalid",
         [&] {
             core::ScenarioRequest request;
             request.options.glue_style = coordination::GlueStyle::kPosix;
             const Buffer frame = tiny_request(request);
             (void)wire::decode_request(
                 patched(frame, frame.size() - 15, 0x7F));
         }},
        {"wire priority byte invalid",
         [&] {
             const Buffer frame = tiny_request();
             (void)wire::decode_request(
                 patched(frame, frame.size() - 10, 0x7F));
         }},
        {"wire deadline budget is NaN",
         [&] {
             core::ScenarioRequest request;
             request.deadline = std::chrono::steady_clock::now();
             Buffer frame = tiny_request(request);
             put_u64(frame, frame.size() - 16, 0x7FF8000000000000ULL);
             reseal(frame);
             (void)wire::decode_request(frame);
         }},
        {"wire version map not in canonical order",
         [&] {
             core::ToolchainReport report;
             report.graph.tasks.emplace_back();
             report.graph.tasks[0].versions["ca"];
             report.graph.tasks[0].versions["cb"];
             Buffer frame = wire::encode(report);
             (void)wire::decode_report(
                 patched(frame, find_string(frame, "cb") + 1, 'a'));
         }},
        {"wire rta map not in canonical order",
         [&] {
             // Each RTA entry is 13 bytes (core, flag, empty responses);
             // the second one's core index is the 25th byte from the end.
             core::ToolchainReport report;
             report.rta[0];
             report.rta[1];
             const Buffer frame = wire::encode(report);
             ASSERT_EQ(frame[frame.size() - 25], 1U);
             (void)wire::decode_report(
                 patched(frame, frame.size() - 25, 0));
         }},
        {"wire contract property invalid",
         [&] {
             core::ToolchainReport report;
             report.certificate.results.emplace_back();
             const Buffer frame = wire::encode(report);
             (void)wire::decode_report(
                 patched(frame, frame.size() - kReportTail - 44, 0x7F));
         }},
        {"wire proof rule invalid",
         [&] {
             // A leaf proof node is 25 bytes: rule, value, param, empty
             // note, empty child count.
             core::ToolchainReport report;
             report.certificate.results.emplace_back();
             const Buffer frame = wire::encode(report);
             (void)wire::decode_report(
                 patched(frame, frame.size() - kReportTail - 25, 0x7F));
         }},
        {"wire proof tree nested too deeply",
         [&] {
             contracts::ProofNode proof;
             for (int i = 0; i < 300; ++i) {
                 contracts::ProofNode parent;
                 parent.children.push_back(std::move(proof));
                 proof = std::move(parent);
             }
             core::ToolchainReport report;
             report.certificate.results.emplace_back();
             report.certificate.results[0].proof = std::move(proof);
             (void)wire::decode_report(wire::encode(report));
         }},
        {"frame length prefix truncated",
         [] {
             const Buffer stream = {1, 2, 3};
             std::size_t offset = 0;
             (void)wire::next_frame(stream, offset);
         }},
        {"frame payload truncated",
         [] {
             const Buffer stream = {10, 0, 0, 0, 1, 2};
             std::size_t offset = 0;
             (void)wire::next_frame(stream, offset);
         }},
    };
    for (const auto& c : cases) {
        try {
            c.trigger();
            ADD_FAILURE() << "accepted; expected \"" << c.what << '"';
        } catch (const core::wire::WireError& error) {
            EXPECT_STREQ(error.what(), c.what);
        }
    }
}

}  // namespace
