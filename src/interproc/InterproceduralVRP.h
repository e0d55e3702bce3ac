//===- interproc/InterproceduralVRP.h - Whole-program VRP -------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interprocedural value range propagation (paper §3.7). Jump functions —
/// the evaluated actual-argument ranges at each call site — feed callee
/// parameter ranges; return functions feed call-result ranges back. The
/// module is scheduled per-SCC bottom-up over the CallGraph's wave
/// layering: within one sweep, return ranges propagate all the way up the
/// call DAG (callee SCCs finish before their callers start), and only the
/// functions whose resolved context actually changed are re-analyzed in
/// later sweeps (parameter ranges flow one call-depth level per sweep).
/// Functions on call-graph cycles receive ⊥ parameters and their SCCs
/// iterate internally until their return ranges stabilize. Optional
/// procedure cloning specializes callees whose call-site contexts diverge.
/// Every entry point analyzes on the calling thread; VRPOptions::Threads
/// does not apply here.
///
/// docs/SCALING.md describes the scheduler and the incremental
/// re-analysis mode in detail.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_INTERPROC_INTERPROCEDURALVRP_H
#define VRP_INTERPROC_INTERPROCEDURALVRP_H

#include "ir/Module.h"
#include "vrp/Propagation.h"

#include <map>
#include <memory>
#include <vector>

namespace vrp {

/// Whole-module propagation result.
struct ModuleVRPResult {
  /// The analysis's range arena, shared by every per-function result
  /// (and held by the arena of an incremental run that starts from this
  /// one).
  std::shared_ptr<RangeArena> Arena;
  std::map<const Function *, FunctionVRPResult> PerFunction;
  RangeStats Total;
  /// Interprocedural sweeps executed (bottom-up passes over the wave
  /// schedule; 1 when nothing needed refinement).
  unsigned Rounds = 0;
  /// Waves in the SCC condensation's layering. Every run builds the call
  /// graph, so intraprocedural runs report it too.
  unsigned Waves = 0;
  unsigned FunctionsCloned = 0;
  /// Functions whose propagation hit a resource budget (step cap or
  /// deadline) and degraded to the Ball–Larus fallback.
  unsigned FunctionsDegraded = 0;
  /// Distinct functions the scheduler actually (re-)analyzed. Equals the
  /// module size on a full run; on an incremental run it is exactly the
  /// invalidated cone.
  unsigned FunctionsReanalyzed = 0;
  /// The cone itself, in module function order (empty ⇔ nothing dirty).
  std::vector<const Function *> Reanalyzed;

  const FunctionVRPResult *forFunction(const Function *F) const {
    auto It = PerFunction.find(F);
    return It == PerFunction.end() ? nullptr : &It->second;
  }
};

class AnalysisCache;
class PersistentCache;

/// Runs VRP over every function of \p M in a fresh range arena, which the
/// result owns. With Opts.Interprocedural set,
/// parameter and return ranges flow across call edges; otherwise each
/// function is analyzed with ⊥ context. With Opts.EnableCloning set (and
/// interprocedural analysis on), divergent-context callees are cloned
/// after the first fixpoint — note this MUTATES the module.
///
/// \p Cache optionally memoizes per-function CFG analyses across sweeps
/// and across predictors (see analysis/AnalysisCache.h). Cloning
/// invalidates the entries of callers whose call sites were retargeted.
///
/// \p PCache optionally consults the durable content-addressed result
/// store (analysis/PersistentCache.h): a warm hit restores the function's
/// result bitwise-identically and skips propagation; a miss analyzes and
/// buffers the result for persistence. Fault-injected (fault::armed())
/// and traced (Opts.Trace) runs bypass it; degraded results are never
/// persisted.
ModuleVRPResult runModuleVRP(Module &M, const VRPOptions &Opts,
                             AnalysisCache *Cache = nullptr,
                             PersistentCache *PCache = nullptr);

/// Const overload for intraprocedural-only analysis (never mutates).
ModuleVRPResult runModuleVRP(const Module &M, const VRPOptions &Opts,
                             AnalysisCache *Cache = nullptr,
                             PersistentCache *PCache = nullptr);

/// Incremental re-analysis: analyzes \p M reusing \p Previous, the result
/// of analyzing \p PrevModule (an earlier compile of the same program).
/// Functions are matched by name; a function whose structural hash is
/// unchanged starts from its previous result (rebound to the new module
/// by ordinal through PersistentCache::rebind, so the reuse is bitwise).
/// \p PrevModule must stay alive for the call; the result refers only to
/// \p M. The run interns into a fresh arena that holds \p Previous's
/// arena alive: rebound results keep their numeric handles into it, and
/// nothing is added to it.
/// The changed functions seed the dirty set and the scheduler re-analyzes
/// exactly the invalidated cone: callers re-run only when a callee's
/// return range actually changed, callees only when the merged jump
/// function into them changed. Without Opts.Interprocedural no range
/// crosses a call, so the cone is exactly the changed functions.
/// Result::Reanalyzed reports the cone.
///
/// Cloning is not applied in incremental mode (the module is not
/// mutated); pass Opts with EnableCloning off.
ModuleVRPResult runModuleVRPIncremental(const Module &M,
                                        const VRPOptions &Opts,
                                        const Module &PrevModule,
                                        const ModuleVRPResult &Previous,
                                        AnalysisCache *Cache = nullptr,
                                        PersistentCache *PCache = nullptr);

} // namespace vrp

#endif // VRP_INTERPROC_INTERPROCEDURALVRP_H
