//===- analysis/AnalysisCache.h - Per-function analysis memo ----*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-function memo for the CFG analyses the pipeline recomputes most:
/// dominator/postdominator trees, natural loops, DFS numbering, and the
/// per-branch heuristic probability map (the Ball–Larus fallback). One
/// cache spans one evaluation of one module, so the fallback and CFG
/// analyses are computed once per function per evaluation instead of once
/// per predictor per function.
///
/// Keys are `const Function *`. Analyses are heap-allocated, so references
/// handed out stay valid until that function is explicitly invalidated —
/// required by `FunctionCloning`, which retargets call sites inside caller
/// bodies (see InterproceduralVRP::cloneDivergentCallees). Callers must
/// not hold references to a function's analyses across
/// `invalidate`/`clear` of that function.
///
/// Not thread-safe: a cache belongs to one evaluation, one request or one
/// benchmark operation, and only the thread running it uses it.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_ANALYSIS_ANALYSISCACHE_H
#define VRP_ANALYSIS_ANALYSISCACHE_H

#include "analysis/DFS.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

namespace vrp {

class CondBrInst;

/// Matches heuristics/Heuristics.h's BranchProbMap; redeclared here so the
/// analysis layer does not depend on the heuristics library.
using BranchProbMap = std::map<const CondBrInst *, double>;

/// Cache efficiency counters (RangeStats-style: aggregate with +=).
struct AnalysisCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Invalidations = 0;

  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total == 0 ? 0.0 : static_cast<double>(Hits) / Total;
  }

  AnalysisCacheStats &operator+=(const AnalysisCacheStats &R) {
    Hits += R.Hits;
    Misses += R.Misses;
    Invalidations += R.Invalidations;
    return *this;
  }
};

class AnalysisCache {
public:
  /// Computes the fallback probability map from the memoized CFG
  /// analyses, which the cache passes in.
  using BranchProbComputeFn = std::function<BranchProbMap(
      const Function &, const LoopInfo &, const PostDominatorTree &,
      const DFSInfo &)>;

  AnalysisCache() = default;
  AnalysisCache(const AnalysisCache &) = delete;
  AnalysisCache &operator=(const AnalysisCache &) = delete;

  const DominatorTree &dominators(const Function &F);
  const PostDominatorTree &postDominators(const Function &F);
  const LoopInfo &loopInfo(const Function &F);
  const DFSInfo &dfs(const Function &F);

  /// Memoized per-branch probability map; \p Compute runs at most once per
  /// function until invalidated.
  const BranchProbMap &branchProbs(const Function &F,
                                   const BranchProbComputeFn &Compute);

  /// Drops every analysis cached for \p F (call after mutating its body,
  /// e.g. when cloning retargets one of its call sites).
  void invalidate(const Function *F);

  /// Drops everything (e.g. after wholesale module transformation).
  void clear();

  AnalysisCacheStats stats() const { return Stats; }

private:
  struct Entry {
    std::unique_ptr<DominatorTree> DT;
    std::unique_ptr<PostDominatorTree> PDT;
    std::unique_ptr<LoopInfo> LI;
    std::unique_ptr<DFSInfo> DFS;
    std::unique_ptr<BranchProbMap> Probs;
  };

  void count(bool Hit);

  std::map<const Function *, Entry> Entries;
  AnalysisCacheStats Stats;
};

} // namespace vrp

#endif // VRP_ANALYSIS_ANALYSISCACHE_H
