// The traced run's direct layer calls.
//
// For every distinct scenario of a workload, the benchmark calls each
// layer's public functions itself — csl, ir, security, compiler, wcet,
// energy, profiler, sim, coordination, contracts — on the same inputs the
// engine saw, inside spans, and checks that each call reproduces what the
// engine put in its report (fronts, profiles, schedule, glue, RTA,
// certificate), so the spans time the same work the engine did.
#pragma once

#include <string>
#include <vector>

#include "core/workflow.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

/// `reports[d]` is the cold-pass report of `workload.distinct[d]` (null
/// when that scenario failed).  Returns every call that did not reproduce
/// the engine's output.
[[nodiscard]] std::vector<std::string> trace_layers(
    const Workload& workload,
    const std::vector<const teamplay::core::ToolchainReport*>& reports,
    Recorder& recorder);

}  // namespace perfbench
