//===- vrp/Options.h - VRP configuration knobs ------------------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tunables for the propagation engine. Defaults follow the paper: four
/// subranges per variable ("a set of four ranges per variable is adequate
/// for most programs with typical control flow"), symbolic ranges and loop
/// derivation enabled. The ablation bench sweeps these.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_VRP_OPTIONS_H
#define VRP_VRP_OPTIONS_H

#include <cstdint>

namespace vrp {

namespace trace {
class TraceSink;
} // namespace trace

/// Resource budgets with graceful degradation. The paper's algorithm
/// already degrades per-value (⊥ ranges fall back to heuristics, §3.5);
/// these caps extend the same contract to whole stages: when a budget
/// runs out, the pipeline produces a degraded-but-valid result instead
/// of running away or failing the benchmark.
struct ResourceBudget {
  /// Worklist items the propagation engine may process per function;
  /// 0 = unlimited. On exhaustion the function's analysis is abandoned,
  /// its ranges become ⊥ and every branch takes the Ball–Larus fallback
  /// (the result is marked Degraded and counted in suite reports).
  uint64_t PropagationStepLimit = 0;

  /// Interpreter steps per run; 0 = the interpreter's default runaway
  /// guard only. When set and exhausted, evaluateProgram keeps the
  /// counts collected so far as a *partial profile* (flagged on the
  /// evaluation) instead of failing the benchmark.
  uint64_t InterpreterStepLimit = 0;

  /// Wall-clock deadline in milliseconds; 0 = none. evaluateProgram
  /// checks it between stages and records a BudgetExceeded failure when
  /// blown; runModuleVRP degrades not-yet-analyzed functions to the
  /// heuristic fallback. Inherently nondeterministic — leave unset for
  /// runs that must be reproducible.
  uint64_t DeadlineMs = 0;

  bool anySet() const {
    return PropagationStepLimit != 0 || InterpreterStepLimit != 0 ||
           DeadlineMs != 0;
  }
};

struct VRPOptions {
  /// Upper limit on subranges per variable (the "give-up point", §3.4).
  unsigned MaxSubRanges = 4;

  /// Track symbolic (variable-relative) bounds (§3.4). The paper reports
  /// results both with and without these.
  bool EnableSymbolicRanges = true;

  /// Match loop-carried φs against induction templates (§3.6). When off,
  /// loops are brute-force propagated under the widening guard.
  bool EnableDerivation = true;

  /// Insert post-branch assertions before propagation (π-nodes).
  bool EnableAssertions = true;

  /// Re-evaluations of one expression before its result is widened to ⊥
  /// (termination guard for non-derivable loop-carried expressions).
  unsigned WidenThreshold = 24;

  /// Flow-worklist revisits of one block before its φs stop being
  /// re-merged for edge-probability refinements. Loop feedback converges
  /// geometrically, so a handful of rounds captures the weights to well
  /// under a percentage point; this keeps evaluation counts linear in
  /// program size (Figures 5/6).
  unsigned FlowVisitLimit = 16;

  /// "Not yet" derivation attempts allowed per loop-carried φ before the
  /// function is declared stalled and degrades to the heuristic fallback
  /// with a structured Status naming the variable (0 = unlimited). A φ
  /// whose entry value never leaves ⊤ (e.g. it flows in from a block
  /// propagation proved unreachable) re-derives on every visit without
  /// ever stabilizing; this guard turns that silent spin into the same
  /// observable degradation a blown step budget produces. Converging
  /// functions retry a handful of times, so the default is far above
  /// anything a real benchmark reaches.
  unsigned DerivationRetryLimit = 512;

  /// Assumed number of lattice points in a subrange whose extent is only
  /// known symbolically (e.g. a derived loop range [0:n:1] with n unknown).
  /// Models the typical loop trip count; the loop-exit test of such a
  /// range predicts at (C-1)/C taken. Ablatable.
  double AssumedSymbolicCount = 100.0;

  /// Floating-point interval lattice (docs/DOMAINS.md). When off, every
  /// non-constant FP value is ⊥ and FP-tested branches fall back to the
  /// Ball–Larus heuristics — the pre-FP behavior, kept for ablation.
  bool EnableFPRanges = true;

  /// Probabilistic load aliasing (analysis/AliasAnalysis.h): loads meet
  /// the ranges of their weighted may-alias store set instead of
  /// dropping to ⊥. When off, loads are ⊥ (pre-alias behavior).
  bool EnableAliasRanges = true;

  /// Analyze across calls via jump functions (§3.7).
  bool Interprocedural = false;

  /// Clone procedures whose call-site contexts diverge (§3.7).
  bool EnableCloning = false;

  /// Benchmarks evaluateSuite runs at once, on the calling thread plus
  /// Threads-1 plain threads (never more than there are benchmarks). 1 =
  /// serial; 0 = auto (hardware_concurrency, 1 when unknown). Results are
  /// byte-identical at every setting — threading only changes wall-clock
  /// time. One module is always analyzed on one thread, so nothing else
  /// reads this.
  unsigned Threads = 1;

  /// Ceiling on Threads, so a huge request (an unsigned wraparound, say)
  /// cannot exhaust the process's thread quota: evaluateSuite clamps to
  /// it, and predictor_tool and predictord reject a larger --threads.
  static constexpr unsigned MaxThreads = 256;

  /// Resource budgets (step caps, deadline) with heuristic degradation.
  /// Defaults leave every budget unlimited.
  ResourceBudget Budget;

  /// Soundness sentinel: when set, evaluation harnesses replay the
  /// reference run with a range auditor attached (vrp/Audit.h) that
  /// checks every value observed at a conditional branch against its
  /// VRP-computed range. Functions with violations are quarantined —
  /// their range predictions are discarded in favor of the Ball–Larus
  /// fallback — and reported rather than trusted.
  bool Audit = false;

  /// When set, the engine records lattice transitions (old range → new
  /// range, triggering edge) for every function the sink's filter
  /// accepts, ring-buffered per function (see vrp/Trace.h). Not owned;
  /// must outlive the analysis. Null = no tracing.
  trace::TraceSink *Trace = nullptr;
};

/// Counters behind the paper's Figures 5 and 6 (algorithm efficiency).
struct RangeStats {
  uint64_t ExprEvaluations = 0; ///< Figure 5's y-axis.
  uint64_t SubOps = 0;          ///< Figure 6's y-axis (subrange pair ops).
  uint64_t PhiEvaluations = 0;
  uint64_t BranchEvaluations = 0;
  uint64_t DerivationsTried = 0;
  uint64_t DerivationsMatched = 0;
  uint64_t Widenings = 0;

  RangeStats &operator+=(const RangeStats &R) {
    ExprEvaluations += R.ExprEvaluations;
    SubOps += R.SubOps;
    PhiEvaluations += R.PhiEvaluations;
    BranchEvaluations += R.BranchEvaluations;
    DerivationsTried += R.DerivationsTried;
    DerivationsMatched += R.DerivationsMatched;
    Widenings += R.Widenings;
    return *this;
  }
};

} // namespace vrp

#endif // VRP_VRP_OPTIONS_H
