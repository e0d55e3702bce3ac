//===- vrp/Propagation.h - The VRP worklist engine --------------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The propagation engine (paper §3.3): a Wegman–Zadeck-style sparse
/// conditional propagator extended to weighted value ranges. Two worklists
/// are maintained — the FlowWorkList of CFG edges and the SSAWorkList of
/// def-use edges — with flow items preferred ("tends to cause information
/// to be gathered more quickly"). Every CFG edge carries a probability
/// rather than an executed flag; φ evaluation merges incoming ranges
/// weighted by in-edge probabilities; conditional branches are predicted
/// by consulting the tested value's range; loop-carried φs are derived
/// (vrp/Derivation.h) so loops need not be executed during propagation.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_VRP_PROPAGATION_H
#define VRP_VRP_PROPAGATION_H

#include "support/Status.h"
#include "vrp/Options.h"
#include "vrp/RangeOps.h"
#include "vrp/ValueRange.h"

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

namespace vrp {

/// Final prediction for one conditional branch.
struct BranchPrediction {
  double ProbTrue = 0.5;
  bool FromRanges = false; ///< False: needs the heuristic fallback (§3.5).
  bool Reachable = true;   ///< False: propagation proved it unreachable.
};

/// Per-function propagation result: the paper's "output assignment" for
/// every variable plus branch predictions and efficiency counters.
struct FunctionVRPResult {
  const Function *F = nullptr;
  /// The arena every range below lives in, shared with the other results
  /// of the same analysis; the storage is freed with the last of them.
  std::shared_ptr<RangeArena> Arena;
  std::unordered_map<const Value *, ValueRange> Ranges;
  std::map<const CondBrInst *, BranchPrediction> Branches;
  /// Reach probability per block id (capped in-edge probability sum).
  std::vector<double> BlockProb;
  RangeStats Stats;
  /// True when a resource budget cut the analysis short: every range is
  /// ⊥ and every branch is marked for the Ball–Larus fallback, mirroring
  /// the paper's ⊥-range degradation (§3.5) at whole-function scope.
  bool Degraded = false;
  /// Exactly when Degraded: the structured cause (BudgetExceeded with a
  /// site of "propagation" for a blown step budget, "derivation" for a
  /// φ that never stabilized — the message names function and variable).
  Status DegradeCause;

  /// Range lookup with constant folding. A constant's exact range is
  /// interned into the caller's current arena, as the engine's own lookup
  /// does, so it lives as long as that arena; this result's arena is
  /// never written after its analysis returns, and any number of threads
  /// may read the result at once.
  ValueRange rangeOf(const Value *V) const;

  /// Makes this the whole-function ⊥ result for \p Fn, with \p Cause as
  /// its DegradeCause: no ranges, every block presumed reachable, every
  /// branch handed to the Ball–Larus fallback at a neutral probability.
  /// Stats and Arena stay as they are; the caller decides what the
  /// degradation counts as.
  void degrade(const Function &Fn, Status Cause);

  /// The predicted probability of the CFG edge From->To being taken when
  /// From executes (1.0 for unconditional edges).
  double edgeFraction(const BasicBlock *From, const BasicBlock *To) const;
};

class AnalysisCache;
class StoreCensus;

/// Context hooks for interprocedural analysis (§3.7): parameter ranges via
/// jump functions and call-result ranges via return functions. The
/// intraprocedural defaults return ⊥.
struct PropagationContext {
  std::function<ValueRange(const Param *)> ParamRange;
  std::function<ValueRange(const CallInst *)> CallResultRange;

  /// Optional per-function analysis memo. When set, the engine reads its
  /// DFS numbering from the cache instead of recomputing it per run —
  /// interprocedural analysis re-propagates every function each round, so
  /// this saves one CFG walk per function per round. Must outlive the
  /// propagation call. Not thread-safe: only the thread running the
  /// analysis may use it.
  AnalysisCache *Cache = nullptr;

  /// Optional store census of the function's current module
  /// (analysis/AliasAnalysis.h). When set, the alias summary and the
  /// persistent-cache key read it instead of walking the whole module per
  /// run. Must outlive the propagation call; null builds one per run.
  const StoreCensus *Census = nullptr;

  static PropagationContext intraprocedural();
};

/// Runs value range propagation over one SSA-form function. Inside an
/// analysis (a RangeArena::Scope is active on this thread) the result
/// shares that analysis's arena; a standalone call creates an arena the
/// result owns.
FunctionVRPResult propagateRanges(const Function &F, const VRPOptions &Opts,
                                  const PropagationContext &Context);

/// Convenience: intraprocedural propagation with default hooks.
FunctionVRPResult propagateRanges(const Function &F, const VRPOptions &Opts);

} // namespace vrp

#endif // VRP_VRP_PROPAGATION_H
