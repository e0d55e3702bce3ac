//===- analysis/AnalysisCache.cpp - Per-function analysis memo -------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisCache.h"

#include "support/Telemetry.h"

using namespace vrp;

void AnalysisCache::count(bool Hit) {
  if (Hit) {
    ++Stats.Hits;
    telemetry::count(telemetry::Counter::AnalysisCacheHits);
  } else {
    ++Stats.Misses;
    telemetry::count(telemetry::Counter::AnalysisCacheMisses);
  }
}

const DominatorTree &AnalysisCache::dominators(const Function &F) {
  std::unique_ptr<DominatorTree> &DT = Entries[&F].DT;
  count(DT != nullptr);
  if (!DT)
    DT = std::make_unique<DominatorTree>(F);
  return *DT;
}

const PostDominatorTree &AnalysisCache::postDominators(const Function &F) {
  std::unique_ptr<PostDominatorTree> &PDT = Entries[&F].PDT;
  count(PDT != nullptr);
  if (!PDT)
    PDT = std::make_unique<PostDominatorTree>(F);
  return *PDT;
}

const LoopInfo &AnalysisCache::loopInfo(const Function &F) {
  std::unique_ptr<LoopInfo> &LI = Entries[&F].LI;
  count(LI != nullptr);
  if (!LI)
    LI = std::make_unique<LoopInfo>(F, dominators(F));
  return *LI;
}

const DFSInfo &AnalysisCache::dfs(const Function &F) {
  std::unique_ptr<DFSInfo> &DFS = Entries[&F].DFS;
  count(DFS != nullptr);
  if (!DFS)
    DFS = std::make_unique<DFSInfo>(F);
  return *DFS;
}

const BranchProbMap &
AnalysisCache::branchProbs(const Function &F,
                           const BranchProbComputeFn &Compute) {
  std::unique_ptr<BranchProbMap> &Probs = Entries[&F].Probs;
  count(Probs != nullptr);
  if (!Probs) {
    const LoopInfo &LI = loopInfo(F);
    const PostDominatorTree &PDT = postDominators(F);
    const DFSInfo &DFS = dfs(F);
    Probs = std::make_unique<BranchProbMap>(Compute(F, LI, PDT, DFS));
  }
  return *Probs;
}

void AnalysisCache::invalidate(const Function *F) {
  if (Entries.erase(F)) {
    ++Stats.Invalidations;
    telemetry::count(telemetry::Counter::AnalysisCacheInvalidations);
  }
}

void AnalysisCache::clear() {
  Stats.Invalidations += Entries.size();
  telemetry::count(telemetry::Counter::AnalysisCacheInvalidations,
                   Entries.size());
  Entries.clear();
}
