// Code transformations of the multi-criteria optimising compiler (the WCC
// stand-in, Falk et al. [2]).
//
// Each pass is a semantics-preserving rewrite of one function inside a
// program.  Profitability is judged against the target's cost model where it
// matters (strength reduction), mirroring how WCC consults its WCET/energy
// plug-ins.  The passes are deliberately conservative: a transformation that
// cannot be proven safe on the structured IR is skipped, never forced.
//
// Safety notes documented per pass; the test suite checks semantic
// preservation by differential execution against the untransformed program.
#pragma once

#include "ir/program.hpp"
#include "isa/target_model.hpp"

namespace teamplay::compiler {

/// Per-block constant propagation and folding.  Returns #instructions folded.
int constant_fold(ir::Function& fn);

/// Per-block common-subexpression elimination over pure single-def values.
/// Returns #instructions replaced by register moves.
int cse(ir::Function& fn);

/// Cost-model-guided strength reduction.  Safe cases only:
///   x*0 -> 0, x*1 -> x, x*2 -> x+x, x*2^k -> x<<k (exact in wrapping
///   arithmetic), x/1 -> x, x%1 -> 0.
/// Each rewrite is applied only when the target model prices it cheaper.
/// Returns #instructions rewritten.
int strength_reduce(ir::Function& fn, const isa::TargetModel& model);

/// Dead-code elimination: removes pure instructions whose destination is
/// never read (whole-function read set, iterated to fixpoint).
/// Returns #instructions removed.
int dce(ir::Function& fn);

/// Loop-invariant constant hoisting (LICM restricted to kMovImm): moves
/// constant materialisations whose destination has exactly one definition in
/// the function out of every enclosing loop.  A single-def immediate
/// produces the same value wherever it has run, so hoisting it is safe
/// when no read can reach its register before that one definition: the
/// pass skips registers read ahead of the definition in a loop's first
/// iteration, around an If that skips it, after a loop that may run zero
/// times, or (parameters) before they are overwritten.
/// Returns #instructions hoisted.
int hoist_loop_constants(ir::Function& fn);

/// Unroll innermost counted loops by `factor`.  Applicable when the loop
/// has a static trip count divisible by the factor, the body does not write
/// the index register, and nothing outside the body reads the index
/// register (its value after the loop changes with the stride).
/// Returns #loops unrolled.
int unroll_loops(ir::Function& fn, int factor);

/// Inline call sites whose callee has at most `max_callee_instrs` static
/// instructions (negative = inline everything).  The inlined body zeroes
/// the callee registers it may read before writing, as a call would.
/// Inlining is transitive: calls inside an inlined body are themselves
/// considered (terminates because the IR forbids recursion).
/// Returns #calls inlined.
int inline_calls(const ir::Program& program, ir::Function& fn,
                 int max_callee_instrs = -1);

}  // namespace teamplay::compiler
