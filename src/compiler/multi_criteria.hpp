// The multi-criteria optimising compiler (centre box of Fig. 1).
//
// Given a task entry function and a core, it explores the space of pass
// configurations (unrolling, inlining, classic scalar optimisations,
// security countermeasure level, DVFS operating point) and returns a Pareto
// front of compiled task *versions* over the three ETS objectives:
//
//   time     — static WCET bound on predictable cores,
//              measured mean over simulator runs on complex cores;
//   energy   — static WCEC bound / measured mean, same split;
//   security — static leakage proxy from the taint analysis.
//
// The front of versions is exactly what the coordination layer consumes
// (multi-version task scheduling, Roeder et al. [20]).
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "compiler/moo.hpp"
#include "compiler/passes.hpp"
#include "ir/program.hpp"
#include "platform/platform.hpp"
#include "sim/backend.hpp"

namespace teamplay::compiler {

/// Security countermeasure level applied by the pipeline.
enum class SecurityLevel : std::uint8_t { kNone, kBalance, kLadder };

[[nodiscard]] std::string_view security_level_name(SecurityLevel level);

/// One point in the configuration space.
struct PassConfig {
    bool fold = true;
    bool cse_pass = true;
    bool strength = true;
    bool dce_pass = true;
    bool inline_calls_pass = false;
    bool licm = false;      ///< loop-invariant constant hoisting
    int unroll_factor = 1;  ///< 1, 2, 4 or 8
    SecurityLevel security = SecurityLevel::kNone;
    std::size_t opp_index = 0;

    [[nodiscard]] std::string label() const;

    /// All nine fields, in declaration order (the search memo's key).
    auto operator<=>(const PassConfig&) const = default;
};

/// A compiled task version with its analysed ETS properties.
struct TaskVersion {
    PassConfig config;
    bool analysable = false;  ///< static bounds valid (predictable core)
    double wcet_s = 0.0;      ///< static WCET bound (predictable only)
    double wcec_j = 0.0;      ///< static worst-case energy (predictable only)
    double time_s = 0.0;      ///< representative time (bound or measured mean)
    double energy_j = 0.0;    ///< representative dynamic+static energy
    /// Dynamic-only share of energy_j: what the version itself controls; the
    /// scheduler adds static/idle energy from the platform model.
    double energy_dynamic_j = 0.0;
    double leakage = 0.0;     ///< static leakage proxy (0 = constant-flow)
    int static_instrs = 0;    ///< code size proxy
    /// The transformed entry and its transitive callees, with the source's
    /// memory size: the code this task can execute, and nothing else.
    std::shared_ptr<const ir::Program> program;
};

/// The compiler front-end for one (program, core) pair.
class MultiCriteriaCompiler {
public:
    /// `sim` selects the simulator tier used to evaluate candidates on
    /// complex cores.  Candidate programs are throwaway, so their traces are
    /// compiled directly and never admitted to a shared TraceCache.
    MultiCriteriaCompiler(const ir::Program& source,
                          const platform::Core& core,
                          sim::SimOptions sim = {});

    /// Apply one configuration and analyse the result.
    [[nodiscard]] TaskVersion compile(const std::string& function,
                                      const PassConfig& config) const;

    /// One version per entry of `configs`, in order, compiling each
    /// distinct configuration once: repeats share the first one's program.
    [[nodiscard]] std::vector<TaskVersion> compile_each(
        const std::string& function,
        const std::vector<PassConfig>& configs) const;

    enum class Engine : std::uint8_t { kFpa, kNsga2, kWeightedSum };

    struct Options {
        Engine engine = Engine::kFpa;
        int population = 12;
        int iterations = 14;
        std::uint64_t seed = 42;
        /// Include the security knob in the search space (off for tasks with
        /// no secrets: saves search budget).
        bool explore_security = true;
        /// Cap on returned versions (selected by crowding, keeps extremes).
        std::size_t max_versions = 8;
    };

    /// Multi-objective search; returns the non-dominated versions sorted by
    /// ascending time.  Always includes the baseline config (all scalar
    /// passes, no unroll/inline, max frequency) for reference.
    ///
    /// The search memoises objective vectors per PassConfig, so a repeated
    /// configuration is never compiled twice.  On a predictable core a
    /// memo miss applies the passes once and analyses the program at every
    /// OPP of the core, since the OPP only rescales time and energy.  The
    /// memo keeps objectives, not programs; the front's configurations are
    /// compiled again, once each, when the versions are materialised.
    [[nodiscard]] std::vector<TaskVersion> optimise(
        const std::string& function, const Options& options) const;

    /// Map a genome in [0,1]^8 onto a configuration (exposed for tests).
    [[nodiscard]] PassConfig decode(const Genome& genome,
                                    bool explore_security) const;

    /// The "traditional toolchain" reference configuration: -O2-style scalar
    /// passes, no multi-objective exploration, maximum frequency.
    [[nodiscard]] PassConfig traditional_config() const;

    /// Pass applications (clone + passes of one configuration) this
    /// compiler has run: a deterministic work counter.
    [[nodiscard]] std::size_t transforms() const {
        return transforms_.load(std::memory_order_relaxed);
    }

private:
    /// Clone the entry's reachable sub-program and apply `config`'s passes:
    /// a version with the program and its OPP-independent properties (code
    /// size, leakage).
    [[nodiscard]] TaskVersion transform(const std::string& function,
                                        const PassConfig& config) const;
    /// Analyse the transformed `version` at `opp_index`: its time and
    /// energy there, and the OPP in its configuration.
    void analyse(const std::string& function, std::size_t opp_index,
                 TaskVersion& version) const;

    const ir::Program* source_;
    const platform::Core* core_;
    sim::SimOptions sim_;
    mutable std::atomic<std::size_t> transforms_{0};
};

/// Number of genome dimensions used by `decode`.
inline constexpr int kGenomeDims = 8;

}  // namespace teamplay::compiler
