#include "core/wire.hpp"

#include <bit>
#include <chrono>
#include <cmath>
#include <concepts>
#include <memory>
#include <type_traits>
#include <utility>

namespace teamplay::core::wire {

namespace {

constexpr std::uint32_t kMagic = 0x54504C57;  // "TPLW"

enum class MessageKind : std::uint8_t {
    kKey = 1,
    kResult = 2,
    kTelemetry = 3,
    kBatchStats = 4,
    kRequest = 5,
    kReport = 6,
};

/// Node and proof trees are shallow in practice (builder nesting); the cap
/// only exists so a corrupted buffer cannot drive unbounded recursion.
constexpr int kMaxNodeDepth = 256;

constexpr std::size_t kHeaderBytes = 4 + 2 + 1;   // magic + version + kind
constexpr std::size_t kChecksumBytes = 8;

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
    std::uint64_t value = 14695981039346656037ULL;
    for (const std::uint8_t byte : bytes) {
        value ^= byte;
        value *= 1099511628211ULL;
    }
    return value;
}

// -- writer and reader --------------------------------------------------------
//
// Each wire struct's layout is written exactly once, as a `visit(io, value)`
// overload below.  `Writer` and `Reader` speak the same vocabulary, so one
// visitor both encodes (`value` const) and decodes (`value` filled in), and
// every strictness check lives in `Reader`.

/// Visits a value with its struct's visitor (the default element action
/// of `seq`, `pointer` and `optional`).
struct Visit {
    template <class IO, class T>
    void operator()(IO& io, T& value) const {
        visit(io, value);
    }
};

struct Writer {
    Buffer out;

    /// Little-endian, whatever the host.
    template <std::unsigned_integral Word>
    void put(Word value) {
        for (std::size_t byte = 0; byte < sizeof(Word); ++byte)
            out.push_back(static_cast<std::uint8_t>(value >> (8 * byte)));
    }

    void u32(std::uint32_t value) { put(value); }
    void u64(std::uint64_t value) { put(value); }
    void i64(std::int64_t value) { put(static_cast<std::uint64_t>(value)); }
    void f64(double value) { put(std::bit_cast<std::uint64_t>(value)); }
    void boolean(bool value) { put(std::uint8_t{value}); }
    void reg(ir::Reg value) { put(static_cast<std::uint32_t>(value)); }
    void str(std::string_view text) {
        put(static_cast<std::uint32_t>(text.size()));
        out.insert(out.end(), text.begin(), text.end());
    }
    template <class E>
    void enumeration(E value, E /*max*/, const char* /*name*/) {
        put(static_cast<std::uint8_t>(value));
    }
    template <class T, class Fn = Visit>
    void seq(const std::vector<T>& items, std::size_t /*min_element_bytes*/,
             Fn fn = {}) {
        put(static_cast<std::uint32_t>(items.size()));
        for (const T& item : items) fn(*this, item);
    }
    /// Keys go out in map order, which is the canonical order.
    template <class Map, class Fn>
    void canonical_map(const Map& map, std::size_t /*min_element_bytes*/,
                       const char* /*name*/, Fn fn) {
        put(static_cast<std::uint32_t>(map.size()));
        for (const auto& [key, value] : map) {
            if constexpr (std::is_same_v<typename Map::key_type, std::string>)
                str(key);
            else
                u64(key);
            fn(*this, key, value);
        }
    }
    template <class T, class Fn = Visit>
    void optional(const std::optional<T>& value, Fn fn = {}) {
        boolean(value.has_value());
        if (value) fn(*this, *value);
    }
    template <class Ptr, class Fn = Visit>
    void pointer(const Ptr& ptr, Fn fn = {}) {
        boolean(ptr != nullptr);
        if (ptr) owned(ptr, fn);
    }
    /// A pointer the layout guarantees non-null (no presence flag).
    template <class Ptr, class Fn = Visit>
    void owned(const Ptr& ptr, Fn fn = {}) {
        fn(*this, *ptr);
    }
    struct Unguarded {};
    Unguarded nest(const char* /*tree*/) { return {}; }
};

struct Reader {
    std::span<const std::uint8_t> data;
    std::size_t pos = 0;
    int depth = 0;

    void need(std::size_t bytes) const {
        if (bytes > data.size() - pos)
            throw WireFormatError("wire buffer truncated");
    }
    template <std::unsigned_integral Word>
    Word get() {
        need(sizeof(Word));
        Word value = 0;
        for (std::size_t byte = 0; byte < sizeof(Word); ++byte)
            value = static_cast<Word>(
                value | static_cast<Word>(data[pos++]) << (8 * byte));
        return value;
    }
    /// A wire integer that does not fit its field would decode to a
    /// different value, which could never re-encode to the same bytes.
    template <std::integral T, std::integral Raw>
    static T narrow(Raw raw) {
        if (!std::in_range<T>(raw))
            throw WireFormatError("wire integer out of range");
        return static_cast<T>(raw);
    }
    /// Sequence-count guard: each element occupies >= `min_element_bytes`,
    /// so a forged count larger than the remaining buffer is rejected
    /// before any allocation.
    std::uint32_t count(std::size_t min_element_bytes) {
        const auto n = get<std::uint32_t>();
        if (min_element_bytes > 0 &&
            n > (data.size() - pos) / min_element_bytes)
            throw WireFormatError("wire sequence count exceeds buffer");
        return n;
    }

    void u32(std::uint32_t& value) { value = get<std::uint32_t>(); }
    template <std::unsigned_integral T>
    void u64(T& value) {
        value = narrow<T>(get<std::uint64_t>());
    }
    template <std::integral T>
    void i64(T& value) {
        value = narrow<T>(static_cast<std::int64_t>(get<std::uint64_t>()));
    }
    void f64(double& value) {
        value = std::bit_cast<double>(get<std::uint64_t>());
    }
    void boolean(bool& value) {
        const auto byte = get<std::uint8_t>();
        if (byte > 1) throw WireFormatError("wire bool byte not 0/1");
        value = byte == 1;
    }
    void reg(ir::Reg& value) {
        value = static_cast<ir::Reg>(get<std::uint32_t>());
    }
    void str(std::string& text) {
        const auto length = get<std::uint32_t>();
        need(length);
        text.assign(reinterpret_cast<const char*>(data.data() + pos), length);
        pos += length;
    }
    template <class E>
    void enumeration(E& value, E max, const char* name) {
        const auto byte = get<std::uint8_t>();
        if (byte > static_cast<std::uint8_t>(max))
            throw WireFormatError(std::string("wire ") + name + " invalid");
        value = static_cast<E>(byte);
    }
    template <class T, class Fn = Visit>
    void seq(std::vector<T>& items, std::size_t min_element_bytes,
             Fn fn = {}) {
        const std::uint32_t n = count(min_element_bytes);
        items.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) fn(*this, items.emplace_back());
    }
    /// The encoder emits keys in strict map order; accepting duplicate or
    /// unsorted keys would break the byte-exact encode(decode(b)) == b
    /// guarantee.
    template <class Map, class Fn>
    void canonical_map(Map& map, std::size_t min_element_bytes,
                       const char* name, Fn fn) {
        const std::uint32_t n = count(min_element_bytes);
        for (std::uint32_t i = 0; i < n; ++i) {
            typename Map::key_type key{};
            if constexpr (std::is_same_v<typename Map::key_type, std::string>)
                str(key);
            else
                u64(key);
            if (!map.empty() && !map.key_comp()(map.rbegin()->first, key))
                throw WireFormatError(std::string("wire ") + name +
                                      " not in canonical order");
            auto& entry = *map.emplace_hint(map.end(), std::move(key),
                                            typename Map::mapped_type{});
            fn(*this, entry.first, entry.second);
        }
    }
    template <class T, class Fn = Visit>
    void optional(std::optional<T>& value, Fn fn = {}) {
        bool present = false;
        boolean(present);
        if (present) fn(*this, value.emplace());
    }
    template <class Ptr, class Fn = Visit>
    void pointer(Ptr& ptr, Fn fn = {}) {
        bool present = false;
        boolean(present);
        if (present) owned(ptr, fn);
    }
    template <class Ptr, class Fn = Visit>
    void owned(Ptr& ptr, Fn fn = {}) {
        auto value = std::make_unique<
            std::remove_const_t<typename Ptr::element_type>>();
        fn(*this, *value);
        ptr = std::move(value);
    }
    /// Depth cap for recursive trees, held for the duration of one level.
    [[nodiscard]] auto nest(const char* tree) {
        if (depth > kMaxNodeDepth)
            throw WireFormatError(std::string("wire ") + tree +
                                  " nested too deeply");
        ++depth;
        struct Guard {
            int& level;
            explicit Guard(int& depth) : level(depth) {}
            Guard(const Guard&) = delete;
            Guard& operator=(const Guard&) = delete;
            ~Guard() { --level; }
        };
        return Guard{depth};
    }
};

template <class IO>
constexpr bool kDecoding = std::is_same_v<IO, Reader>;

/// `T` is `U` (const when encoding).
template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

// -- framing ------------------------------------------------------------------

/// Validate framing (length, magic, checksum, version, kind) and return a
/// reader positioned at the payload, spanning exactly the payload bytes.
Reader open_message(std::span<const std::uint8_t> buffer, MessageKind kind) {
    if (buffer.size() < kHeaderBytes + kChecksumBytes)
        throw WireFormatError("wire buffer shorter than frame");
    const auto body = buffer.first(buffer.size() - kChecksumBytes);
    Reader frame{buffer};
    if (frame.get<std::uint32_t>() != kMagic)
        throw WireFormatError("wire magic mismatch");
    // Checksum before version: corruption must never masquerade as a
    // version skew.
    Reader trailer{buffer, buffer.size() - kChecksumBytes};
    if (trailer.get<std::uint64_t>() != fnv1a(body))
        throw WireFormatError("wire checksum mismatch");
    const auto version = frame.get<std::uint16_t>();
    if (version != kVersion) throw WireVersionError(version, kVersion);
    if (frame.get<std::uint8_t>() != static_cast<std::uint8_t>(kind))
        throw WireFormatError("wire message kind mismatch");
    return Reader{body, kHeaderBytes};
}

template <class T>
Buffer encode_message(MessageKind kind, const T& value) {
    Writer writer;
    writer.put(kMagic);
    writer.put(kVersion);
    writer.put(static_cast<std::uint8_t>(kind));
    visit(writer, value);
    writer.put(fnv1a(writer.out));
    return std::move(writer.out);
}

template <class T>
T decode_message(MessageKind kind, std::span<const std::uint8_t> buffer) {
    Reader reader = open_message(buffer, kind);
    T value;
    visit(reader, value);
    if (reader.pos != reader.data.size())
        throw WireFormatError("wire payload has trailing bytes");
    return value;
}

// -- IR program ---------------------------------------------------------------

template <class IO, Is<ir::Instr> I>
void visit(IO& io, I& instr) {
    io.enumeration(instr.op, static_cast<ir::Opcode>(ir::kNumOpcodes - 1),
                   "opcode");
    io.reg(instr.dst);
    io.reg(instr.a);
    io.reg(instr.b);
    io.reg(instr.c);
    io.i64(instr.imm);
    io.boolean(instr.secret);
}

template <class IO, Is<ir::Node> N>
void visit(IO& io, N& node) {
    [[maybe_unused]] const auto level = io.nest("node tree");
    io.enumeration(node.kind, ir::NodeKind::kCall, "node kind");
    switch (node.kind) {
        case ir::NodeKind::kBlock:
            io.seq(node.instrs, 22);  // bytes per instr
            break;
        case ir::NodeKind::kSeq:
            io.seq(node.children, 1,
                   [](auto& io, auto& child) { io.owned(child); });
            break;
        case ir::NodeKind::kIf: {
            io.reg(node.cond);
            // Both presence flags precede both branches.
            bool has_then = node.then_branch != nullptr;
            bool has_else = node.else_branch != nullptr;
            io.boolean(has_then);
            io.boolean(has_else);
            if (has_then) io.owned(node.then_branch);
            if (has_else) io.owned(node.else_branch);
            break;
        }
        case ir::NodeKind::kLoop:
            io.i64(node.trip);
            io.i64(node.bound);
            io.reg(node.trip_reg);
            io.reg(node.index_reg);
            io.i64(node.stride);
            io.pointer(node.body);
            break;
        case ir::NodeKind::kCall:
            io.str(node.callee);
            io.seq(node.args, 4, [](auto& io, auto& arg) { io.reg(arg); });
            io.reg(node.ret);
            break;
    }
}

template <class IO, Is<ir::Program> P>
void visit(IO& io, P& program) {
    io.u64(program.memory_words);
    io.canonical_map(program.functions, 4, "program functions",
                     [](auto& io, const std::string& name, auto& fn) {
                         if constexpr (kDecoding<IO>) fn.name = name;
                         io.i64(fn.param_count);
                         io.i64(fn.reg_count);
                         io.reg(fn.ret_reg);
                         io.pointer(fn.body);
                     });
}

// -- compiler / profiler payloads --------------------------------------------

template <class IO, Is<compiler::TaskVersion> V>
void visit(IO& io, V& version) {
    auto& config = version.config;
    io.boolean(config.fold);
    io.boolean(config.cse_pass);
    io.boolean(config.strength);
    io.boolean(config.dce_pass);
    io.boolean(config.inline_calls_pass);
    io.boolean(config.licm);
    io.i64(config.unroll_factor);
    io.enumeration(config.security, compiler::SecurityLevel::kLadder,
                   "security level");
    io.u64(config.opp_index);
    io.boolean(version.analysable);
    io.f64(version.wcet_s);
    io.f64(version.wcec_j);
    io.f64(version.time_s);
    io.f64(version.energy_j);
    io.f64(version.energy_dynamic_j);
    io.f64(version.leakage);
    io.i64(version.static_instrs);
    io.pointer(version.program);
}

template <class IO, Is<profiler::Estimate> E>
void visit(IO& io, E& estimate) {
    io.f64(estimate.mean);
    io.f64(estimate.stddev);
    io.f64(estimate.p95);
    io.f64(estimate.max);
}

template <class IO, Is<profiler::TaskProfile> P>
void visit(IO& io, P& profile) {
    io.str(profile.function);
    io.i64(profile.runs);
    visit(io, profile.time_s);
    visit(io, profile.energy_j);
    visit(io, profile.cycles);
}

template <class IO, Is<EvaluationKey> K>
void visit(IO& io, K& key) {
    io.u64(key.structural_fp);
    io.str(key.entry);
    io.str(key.core_class);
    io.u64(key.opp_index);
    io.enumeration(key.kind, AnalysisKind::kTaint, "analysis kind");
    io.u64(key.params);
}

template <class IO, Is<EvaluationResult> R>
void visit(IO& io, R& result) {
    io.pointer(result.front,
               [](auto& io, auto& front) { io.seq(front, 16); });
    visit(io, result.profile);
    io.f64(result.leakage);
}

// -- statistics ---------------------------------------------------------------

template <class IO, Is<EvaluationCache::Stats> S>
void visit(IO& io, S& stats) {
    io.u64(stats.hits);
    io.u64(stats.misses);
    io.u64(stats.evictions);
    io.u64(stats.store_hits);
    io.u64(stats.store_misses);
    io.u64(stats.spills);
    io.u64(stats.store_rejects);
    io.u64(stats.remote_hits);
    io.u64(stats.remote_misses);
    io.u64(stats.entries);
    io.f64(stats.resident_cost);
}

template <class IO, Is<AdmissionStats::PerClass> C>
void visit(IO& io, C& per_class) {
    io.u64(per_class.submitted);
    io.u64(per_class.admitted);
    io.u64(per_class.rejected);
    io.u64(per_class.shed);
    io.u64(per_class.completed);
    io.u64(per_class.cancelled);
    io.u64(per_class.failed);
    io.u64(per_class.queue_peak);
}

template <class IO, Is<AdmissionStats> A>
void visit(IO& io, A& stats) {
    for (auto& per_class : stats.classes) visit(io, per_class);
    io.seq(stats.remote_failures, 8,
           [](auto& io, auto& failures) { io.u64(failures); });
}

template <class IO, Is<StageTelemetry> T>
void visit(IO& io, T& telemetry) {
    io.canonical_map(telemetry.stages(), 28,  // name len + 3 scalars
                     "telemetry stages",
                     [](auto& io, const std::string&, auto& stage) {
                         io.u64(stage.count);
                         io.f64(stage.total_s);
                         io.f64(stage.max_s);
                     });
}

template <class IO, Is<BatchStats> B>
void visit(IO& io, B& stats) {
    io.u64(stats.scenarios);
    io.u64(stats.workers);
    io.f64(stats.wall_s);
    io.f64(stats.scenarios_per_s);
    visit(io, stats.cache);
    visit(io, stats.stage_telemetry);
    visit(io, stats.admission);
}

// -- platform -----------------------------------------------------------------

template <class IO, Is<isa::TargetModel> M>
void visit(IO& io, M& model) {
    io.str(model.name);
    io.boolean(model.predictable);
    // The cost table is fixed-size per codec generation; a different class
    // count is a layout change, which is what the version field is for —
    // here it can only mean corruption that survived the checksum window.
    auto classes = static_cast<std::uint32_t>(model.cost.size());
    io.u32(classes);
    if (classes != model.cost.size())
        throw WireFormatError("wire cost table size invalid");
    for (auto& entry : model.cost) {
        io.f64(entry.cycles);
        io.f64(entry.energy_pj);
    }
    io.f64(model.branch_cycles);
    io.f64(model.branch_energy_pj);
    io.f64(model.loop_iter_cycles);
    io.f64(model.loop_iter_energy_pj);
    io.f64(model.call_cycles);
    io.f64(model.call_energy_pj);
    io.f64(model.nominal_voltage);
    io.f64(model.data_alpha_pj_per_bit);
    io.f64(model.cache_miss_prob);
    io.f64(model.cache_miss_penalty);
    io.f64(model.timing_jitter_sigma);
}

template <class IO, Is<platform::OperatingPoint> O>
void visit(IO& io, O& opp) {
    io.f64(opp.freq_hz);
    io.f64(opp.voltage);
    io.f64(opp.static_power_w);
}

template <class IO, Is<platform::Core> C>
void visit(IO& io, C& core) {
    io.str(core.name);
    visit(io, core.model);
    io.seq(core.opps, 24);
    io.str(core.core_class);
}

template <class IO, Is<platform::Platform> P>
void visit(IO& io, P& platform) {
    io.str(platform.name);
    io.f64(platform.base_power_w);
    io.seq(platform.cores, 24);
}

// -- CSL spec and workflow options --------------------------------------------

constexpr auto kStrings = [](auto& io, auto& text) { io.str(text); };

template <class IO, Is<csl::TaskSpec> T>
void visit(IO& io, T& task) {
    io.str(task.name);
    io.str(task.entry);
    io.f64(task.period_s);
    io.f64(task.deadline_s);
    io.f64(task.time_budget_s);
    io.f64(task.energy_budget_j);
    io.f64(task.leakage_budget);
    io.str(task.security_hint);
    io.str(task.core_class);
    io.seq(task.deps, 4, kStrings);
}

template <class IO, Is<csl::AppSpec> S>
void visit(IO& io, S& spec) {
    io.str(spec.name);
    io.str(spec.platform);
    io.f64(spec.deadline_s);
    io.seq(spec.tasks, 60);
}

template <class IO, Is<WorkflowOptions> W>
void visit(IO& io, W& options) {
    auto& compiler = options.compiler;
    io.enumeration(compiler.engine,
                   compiler::MultiCriteriaCompiler::Engine::kWeightedSum,
                   "compiler engine");
    io.i64(compiler.population);
    io.i64(compiler.iterations);
    io.u64(compiler.seed);
    io.boolean(compiler.explore_security);
    io.u64(compiler.max_versions);
    auto& scheduler = options.scheduler;
    io.enumeration(scheduler.objective,
                   coordination::Scheduler::Objective::kEnergy,
                   "scheduler objective");
    io.f64(scheduler.deadline_s);
    io.boolean(scheduler.anneal);
    io.i64(scheduler.anneal_iterations);
    io.u64(scheduler.seed);
    io.i64(options.profile_runs);
    io.optional(options.glue_style, [](auto& io, auto& style) {
        io.enumeration(style, coordination::GlueStyle::kPosix, "glue style");
    });
}

/// The request's program and platform: borrowed by pointer when encoding
/// a ScenarioRequest, owned by value when decoding into a frame.
template <class T>
T& referent(T* borrowed) {
    return *borrowed;
}
template <class T>
T& referent(T& owned) {
    return owned;
}

template <class IO, class R>
    requires Is<R, ScenarioRequest> || Is<R, ScenarioRequestFrame>
void visit(IO& io, R& request) {
    visit(io, referent(request.program));
    visit(io, referent(request.platform));
    io.str(request.csl_source);
    io.optional(request.spec);
    visit(io, request.options);
    io.str(request.label);
    io.enumeration(request.priority,
                   static_cast<Priority>(kNumPriorityClasses - 1),
                   "priority byte");
    // The deadline crosses as remaining budget: an absolute steady-clock
    // value is meaningless on another host's clock.
    io.optional(request.deadline, [](auto& io, auto& deadline) {
        using Clock = std::chrono::steady_clock;
        if constexpr (kDecoding<IO>) {
            double budget_s = 0.0;
            io.f64(budget_s);
            if (std::isnan(budget_s))
                throw WireFormatError("wire deadline budget is NaN");
            // Re-anchor on this host's steady clock.  A negative budget is
            // legal: it means the deadline passed in transit and admission
            // should refuse the request immediately.
            deadline = Clock::now() +
                       std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(budget_s));
        } else {
            io.f64(std::chrono::duration<double>(deadline - Clock::now())
                       .count());
        }
    });
}

// -- report payloads ----------------------------------------------------------

template <class IO, Is<coordination::VersionChoice> V>
void visit(IO& io, V& choice) {
    io.f64(choice.time_s);
    io.f64(choice.energy_j);
    io.f64(choice.leakage);
    io.u64(choice.opp_index);
    io.str(choice.note);
}

template <class IO, Is<coordination::Task> T>
void visit(IO& io, T& task) {
    io.str(task.name);
    io.str(task.entry_fn);
    io.seq(task.deps, 4, kStrings);
    io.f64(task.period_s);
    io.f64(task.deadline_s);
    io.canonical_map(task.versions, 8, "version map",
                     [](auto& io, const std::string&, auto& choices) {
                         io.seq(choices, 36);
                     });
}

template <class IO, Is<coordination::TaskGraph> G>
void visit(IO& io, G& graph) {
    io.str(graph.app_name);
    io.seq(graph.tasks, 32);
}

template <class IO, Is<coordination::ScheduleEntry> E>
void visit(IO& io, E& entry) {
    io.str(entry.task);
    io.u64(entry.core);
    io.u64(entry.version);
    io.str(entry.core_class);
    io.f64(entry.start_s);
    io.f64(entry.finish_s);
    io.f64(entry.dynamic_energy_j);
    io.u64(entry.opp_index);
}

template <class IO, Is<coordination::Schedule> S>
void visit(IO& io, S& schedule) {
    io.seq(schedule.entries, 64);
    io.f64(schedule.makespan_s);
    io.boolean(schedule.feasible);
}

template <class IO, Is<contracts::ProofNode> N>
void visit(IO& io, N& node) {
    [[maybe_unused]] const auto level = io.nest("proof tree");
    io.enumeration(node.rule, contracts::ProofRule::kStaticLeak,
                   "proof rule");
    io.f64(node.value);
    io.f64(node.param);
    io.str(node.note);
    io.seq(node.children, 25);
}

template <class IO, Is<contracts::ContractResult> R>
void visit(IO& io, R& result) {
    io.str(result.poi);
    io.enumeration(result.property, contracts::Property::kSecurity,
                   "contract property");
    io.f64(result.budget);
    io.f64(result.analysed);
    io.boolean(result.holds);
    io.boolean(result.measured_only);
    visit(io, result.proof);
}

template <class IO, Is<contracts::Certificate> C>
void visit(IO& io, C& certificate) {
    io.str(certificate.app);
    io.str(certificate.platform);
    io.seq(certificate.results, 48);
}

template <class IO, Is<TaskFront> F>
void visit(IO& io, F& front) {
    io.str(front.task);
    io.str(front.core_class);
    io.seq(front.versions, 16);
}

template <class IO, Is<StageLap> L>
void visit(IO& io, L& lap) {
    io.str(lap.stage);
    io.f64(lap.seconds);
}

template <class IO, Is<ToolchainReport> R>
void visit(IO& io, R& report) {
    visit(io, report.spec);
    io.str(report.platform_name);
    visit(io, report.graph);
    visit(io, report.schedule);
    visit(io, report.certificate);
    io.str(report.glue_code);
    io.str(report.sequential_glue);
    io.seq(report.fronts, 12);
    io.canonical_map(report.rta, 13, "rta map",
                     [](auto& io, std::size_t, auto& rta) {
                         io.boolean(rta.schedulable);
                         io.seq(rta.response_times, 8,
                                [](auto& io, auto& response) {
                                    io.f64(response);
                                });
                     });
    io.seq(report.stage_laps, 12);
}

}  // namespace

// -- public surface -----------------------------------------------------------

Buffer encode(const EvaluationKey& key) {
    return encode_message(MessageKind::kKey, key);
}

EvaluationKey decode_key(std::span<const std::uint8_t> buffer) {
    return decode_message<EvaluationKey>(MessageKind::kKey, buffer);
}

Buffer encode(const EvaluationResult& result) {
    return encode_message(MessageKind::kResult, result);
}

EvaluationResult decode_result(std::span<const std::uint8_t> buffer) {
    return decode_message<EvaluationResult>(MessageKind::kResult, buffer);
}

Buffer encode(const StageTelemetry& telemetry) {
    return encode_message(MessageKind::kTelemetry, telemetry);
}

StageTelemetry decode_telemetry(std::span<const std::uint8_t> buffer) {
    return decode_message<StageTelemetry>(MessageKind::kTelemetry, buffer);
}

Buffer encode(const BatchStats& stats) {
    return encode_message(MessageKind::kBatchStats, stats);
}

BatchStats decode_batch_stats(std::span<const std::uint8_t> buffer) {
    return decode_message<BatchStats>(MessageKind::kBatchStats, buffer);
}

ScenarioRequest ScenarioRequestFrame::request() const {
    ScenarioRequest request;
    request.program = &program;
    request.platform = &platform;
    request.csl_source = csl_source;
    request.spec = spec;
    request.options = options;
    request.label = label;
    request.priority = priority;
    request.deadline = deadline;
    return request;
}

Buffer encode(const ScenarioRequest& request) {
    if (request.program == nullptr || request.platform == nullptr)
        throw std::invalid_argument(
            "wire: cannot encode a ScenarioRequest without a program and "
            "platform");
    return encode_message(MessageKind::kRequest, request);
}

ScenarioRequestFrame decode_request(std::span<const std::uint8_t> buffer) {
    return decode_message<ScenarioRequestFrame>(MessageKind::kRequest,
                                                buffer);
}

Buffer encode(const ToolchainReport& report) {
    return encode_message(MessageKind::kReport, report);
}

ToolchainReport decode_report(std::span<const std::uint8_t> buffer) {
    return decode_message<ToolchainReport>(MessageKind::kReport, buffer);
}

// -- frame streams ------------------------------------------------------------

void append_frame(Buffer& stream, std::span<const std::uint8_t> message) {
    const auto length = static_cast<std::uint32_t>(message.size());
    for (int shift = 0; shift < 32; shift += 8)
        stream.push_back(static_cast<std::uint8_t>(length >> shift));
    stream.insert(stream.end(), message.begin(), message.end());
}

std::optional<std::span<const std::uint8_t>> next_frame(
    std::span<const std::uint8_t> stream, std::size_t& offset) {
    if (offset == stream.size()) return std::nullopt;
    if (stream.size() - offset < 4)
        throw WireFormatError("frame length prefix truncated");
    std::uint32_t length = 0;
    for (int shift = 0; shift < 32; shift += 8)
        length |= static_cast<std::uint32_t>(stream[offset++]) << shift;
    if (length > stream.size() - offset)
        throw WireFormatError("frame payload truncated");
    const auto payload = stream.subspan(offset, length);
    offset += length;
    return payload;
}

}  // namespace teamplay::core::wire
