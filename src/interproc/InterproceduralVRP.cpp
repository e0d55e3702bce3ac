//===- interproc/InterproceduralVRP.cpp - Whole-program VRP ----------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// The interprocedural driver schedules per-SCC bottom-up over the call
// graph's wave layering (analysis/CallGraph.h). One *sweep* processes the
// dirty SCCs wave by wave: return ranges installed at a wave boundary are
// visible to every later wave, so return information crosses the whole
// call DAG in a single sweep; recursive SCCs iterate internally until
// their return ranges stabilize. Between sweeps the jump functions
// (parameter merges) are refreshed for the callees of everything just
// analyzed; a function re-enters the dirty set only when its resolved
// context actually changed, so per-function analysis — a pure function of
// (IR, context) — is never repeated for an identical context and total
// work stays linear-ish in the module.
//
// The whole analysis runs on the calling thread. The SCCs of one wave
// have no call edge between them, so running them one after another in
// SCC index order gives the same result as any other order. The deadline
// is probed once per wave, before its first dirty SCC runs, so the set of
// degraded functions depends only on *which* wave boundary expired.
//
//===----------------------------------------------------------------------===//

#include "interproc/InterproceduralVRP.h"

#include "analysis/AliasAnalysis.h"
#include "analysis/AnalysisCache.h"
#include "analysis/CallGraph.h"
#include "analysis/PersistentCache.h"
#include "interproc/FunctionCloning.h"
#include "ir/StructuralHash.h"
#include "support/FaultInjection.h"
#include "support/ResultStore.h"
#include "support/Telemetry.h"
#include "vrp/Audit.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>
#include <optional>
#include <set>

using namespace vrp;

namespace {

/// Strips caller-scope symbolic bounds from a range crossing a call
/// boundary: a bound like `n+2` is meaningless inside the callee.
ValueRange sanitizeForCallee(const ValueRange &VR) {
  if (!VR.isRanges() || !VR.hasSymbolicBounds())
    return VR;
  return ValueRange::bottom();
}

/// Merged return range of \p F given its propagation result: `ret`
/// operand ranges weighted by the returning block's reach probability.
/// Blocks proven unreachable (probability exactly 0) contribute nothing;
/// the result is ⊥ only when every returning block is unreachable.
ValueRange computeReturnRange(const Function &F, const FunctionVRPResult &FR,
                              RangeOps &Ops) {
  if (F.returnType() == IRType::Void)
    return ValueRange::bottom();
  std::vector<std::pair<ValueRange, double>> Entries;
  for (const auto &B : F.blocks()) {
    const auto *Ret = dyn_cast_or_null<RetInst>(B->terminator());
    if (!Ret || !Ret->hasValue())
      continue;
    double Weight = FR.BlockProb[B->id()];
    if (Weight <= 0.0)
      continue;
    ValueRange VR = sanitizeForCallee(FR.rangeOf(Ret->value()));
    Entries.push_back({VR, std::max(Weight, 1e-6)});
  }
  ValueRange Merged =
      Entries.empty() ? ValueRange::bottom() : Ops.meetWeighted(Entries);
  if (Merged.isTop())
    Merged = ValueRange::bottom();
  return Merged;
}

/// Merged jump function for parameter \p PI of \p F: actual-argument
/// ranges across all call sites, weighted by each call block's reach
/// probability in its caller. A provably dead call site (weight exactly
/// 0) is dropped rather than floored: its argument must not poison the
/// merge. ⊥ when there are no callers, every site is dead, or every
/// caller result is missing.
ValueRange computeParamRange(const Function *F, unsigned PI,
                             const CallGraph &CG,
                             const std::function<const FunctionVRPResult *(
                                 const Function *)> &ResultOf,
                             RangeOps &Ops) {
  std::vector<std::pair<ValueRange, double>> Entries;
  for (const CallInst *Call : CG.callerSitesOf(F)) {
    const FunctionVRPResult *CallerResult = ResultOf(Call->function());
    if (!CallerResult)
      continue;
    double Weight = CallerResult->BlockProb[Call->parent()->id()];
    if (Weight <= 0.0)
      continue;
    ValueRange Arg = sanitizeForCallee(CallerResult->rangeOf(Call->arg(PI)));
    Entries.push_back({Arg, std::max(Weight, 1e-6)});
  }
  if (Entries.empty())
    return ValueRange::bottom();
  ValueRange Merged = Ops.meetWeighted(Entries);
  if (Merged.isTop())
    Merged = ValueRange::bottom();
  return Merged;
}

/// Interprocedural driver state: the wave schedule, the parameter and
/// return tables, and the dirty set driving re-analysis.
class InterprocDriver {
public:
  InterprocDriver(Module &M, const VRPOptions &Opts,
                  std::shared_ptr<RangeArena> Arena, AnalysisCache *Cache,
                  PersistentCache *PCache)
      : M(M), Opts(Opts), Arena(std::move(Arena)), Cache(Cache),
        PCache(PCache) {
    if (Opts.Budget.DeadlineMs != 0)
      Deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(Opts.Budget.DeadlineMs);
    UsePCache = PCache && !fault::armed() && !Opts.Trace;
  }

  ModuleVRPResult run();
  ModuleVRPResult runIncremental(const Module &PrevModule,
                                 const ModuleVRPResult &Previous);

private:
  void initState();
  bool markDirty(unsigned I);
  FunctionVRPResult analyzeOne(const Function &F,
                               const PropagationContext &Ctx);
  void analyzeScc(unsigned Scc, const std::vector<unsigned> &Members,
                  bool Recursive);
  void recordResult(unsigned I, FunctionVRPResult R);
  void installReturn(unsigned Scc, unsigned I, const ValueRange &Ret);
  void runSweep();
  void refreshParams();
  void sweepLoop();
  void degradeRemaining();
  void runIntraprocedural();
  unsigned cloneDivergentCallees();
  ModuleVRPResult finalize();

  bool pastDeadline() const {
    return Deadline && std::chrono::steady_clock::now() > *Deadline;
  }

  /// Probes the deadline (and its deterministic fault-injected stand-in)
  /// at a wave boundary. The fault site is probed first so the probe
  /// count a "module-deadline:N" spec observes never depends on the wall
  /// clock.
  void probeDeadline() {
    bool Injected = fault::shouldFail("module-deadline");
    if (!DeadlineBlown && (Injected || pastDeadline()))
      DeadlineBlown = true;
  }

  /// A function-scope ⊥ result: what propagateRanges produces when its
  /// budget runs out, manufactured here when the module deadline leaves
  /// no time to analyze \p F at all.
  FunctionVRPResult degradedResult(const Function &F) const {
    // The engine counts degradations it produces itself; this result is
    // manufactured without ever entering the engine, so count it here.
    telemetry::count(telemetry::Counter::BudgetDegradations);
    FunctionVRPResult R;
    R.F = &F;
    R.Arena = Arena;
    R.Degraded = true;
    R.DegradeCause = Status::failure(
        ErrorCategory::BudgetExceeded, "deadline",
        "module deadline expired before @" + F.name() + " was analyzed");
    R.BlockProb.assign(F.numBlocks(), 1.0);
    for (const auto &B : F.blocks())
      if (const auto *CBr = dyn_cast_or_null<CondBrInst>(B->terminator()))
        R.Branches[CBr] = BranchPrediction{0.5, false, true};
    return R;
  }

  Module &M;
  const VRPOptions &Opts;
  /// Every range of this run lives here; the entry point installs its
  /// scope.
  std::shared_ptr<RangeArena> Arena;
  AnalysisCache *Cache;    ///< May be null (no memoization).
  PersistentCache *PCache; ///< May be null (no durable result cache).
  bool UsePCache = false;
  std::optional<std::chrono::steady_clock::time_point> Deadline;
  bool DeadlineBlown = false;

  std::unique_ptr<CallGraph> CG;
  /// Store census of M for the alias summaries and pcache keys; null
  /// when alias ranges are off. Rebuilt with CG by initState().
  std::unique_ptr<StoreCensus> Census;
  std::vector<const Function *> Fns; ///< Module order.
  std::vector<FunctionVRPResult> Results; ///< By function index.
  std::vector<char> HasResult, Dirty, EverAnalyzed;
  /// Remaining (re-)analysis budget per function; the refinement analog
  /// of the old driver's MaxRounds=4.
  std::vector<unsigned> AnalysesLeft;
  /// Dirty SCCs keyed (wave, SCC index): the sweep consumes them in wave
  /// order, the only order in which cross-SCC information flows.
  std::set<std::pair<unsigned, unsigned>> DirtySccs;
  std::vector<unsigned> AnalyzedThisSweep;
  /// Param value -> merged jump-function range (absent == ⊥).
  std::map<const Param *, ValueRange> ParamTable;
  /// Function -> merged return range (absent == ⊥).
  std::map<const Function *, ValueRange> ReturnTable;
  unsigned Sweeps = 0;
  unsigned Cloned = 0;

  static constexpr unsigned MaxAnalysesPerFunction = 4;
  static constexpr unsigned SccIterationLimit = 4;
};

} // namespace

void InterprocDriver::initState() {
  Fns.clear();
  Fns.reserve(M.functions().size());
  for (const auto &F : M.functions())
    Fns.push_back(F.get());
  unsigned N = Fns.size();
  Results.assign(N, FunctionVRPResult());
  HasResult.assign(N, 0);
  Dirty.assign(N, 0);
  EverAnalyzed.assign(N, 0);
  AnalysesLeft.assign(N, MaxAnalysesPerFunction);
  DirtySccs.clear();
  AnalyzedThisSweep.clear();
  ParamTable.clear();
  ReturnTable.clear();
  CG = std::make_unique<CallGraph>(M);
  // Cloning adds writers and re-enters here, so the census always
  // describes the module the next sweeps analyze.
  Census = Opts.EnableAliasRanges ? std::make_unique<StoreCensus>(M) : nullptr;
}

bool InterprocDriver::markDirty(unsigned I) {
  if (Dirty[I])
    return true;
  if (AnalysesLeft[I] == 0)
    return false;
  Dirty[I] = 1;
  unsigned S = CG->sccOfIndex(I);
  DirtySccs.insert({CG->waveOf(S), S});
  return true;
}

FunctionVRPResult InterprocDriver::analyzeOne(const Function &F,
                                              const PropagationContext &Ctx) {
  // The persistent cache consults its frozen on-disk snapshot before
  // running the engine. Fault-injected runs bypass it entirely (injected
  // corruption must never be served back or persisted) and so do traced
  // runs (a hit would silently skip the trace events the user asked for).
  std::string Key;
  if (UsePCache) {
    Key = PersistentCache::makeKey(F, Opts, Ctx);
    FunctionVRPResult Restored;
    std::string StoredBytes;
    if (PCache->lookup(Key, F, Restored, &StoredBytes)) {
      if (!PCache->verifyMode()) {
        // Replay the engine's one analysis-memo touch (Propagation.cpp
        // reads its DFS numbering through the cache exactly once per
        // run) so AnalysisCache counters are identical cold vs. warm.
        if (Cache)
          Cache->dfs(F);
        return Restored;
      }
      // Verify mode: re-analyze and compare bytes; the fresh result is
      // used either way, so a divergent store cannot taint the run.
      FunctionVRPResult Fresh = propagateRanges(F, Opts, Ctx);
      if (PersistentCache::serialize(Fresh) != StoredBytes)
        PCache->noteDivergence();
      return Fresh;
    }
  }
  FunctionVRPResult R = propagateRanges(F, Opts, Ctx);
  if (UsePCache && !R.Degraded)
    PCache->insert(Key, R);
  return R;
}

void InterprocDriver::analyzeScc(unsigned Scc,
                                 const std::vector<unsigned> &Members,
                                 bool Recursive) {
  RangeStats Scratch;
  RangeOps Ops(Opts, Scratch);

  // Intra-SCC return overlay: recursive members read each other's
  // current-iteration return ranges through it; everything outside the
  // SCC resolves through the module table, which nothing in this wave
  // changes for this SCC's callees.
  std::map<const Function *, ValueRange> Overlay;

  PropagationContext Ctx;
  Ctx.ParamRange = [this](const Param *P) {
    auto It = ParamTable.find(P);
    return It == ParamTable.end() ? ValueRange::bottom() : It->second;
  };
  Ctx.CallResultRange = [this, &Overlay](const CallInst *Call) {
    auto O = Overlay.find(Call->callee());
    if (O != Overlay.end())
      return O->second;
    auto It = ReturnTable.find(Call->callee());
    return It == ReturnTable.end() ? ValueRange::bottom() : It->second;
  };
  Ctx.Cache = Cache;
  Ctx.Census = Census.get();

  if (!Recursive) {
    unsigned I = Members.front();
    FunctionVRPResult R = analyzeOne(*Fns[I], Ctx);
    ValueRange Ret = computeReturnRange(*Fns[I], R, Ops);
    recordResult(I, std::move(R));
    installReturn(Scc, I, Ret);
    return;
  }

  // Recursive SCC: iterate the members (in module order) against the
  // local overlay until their return ranges stabilize or the iteration
  // cap. Parameters of recursive functions are pinned ⊥ (paper §3.7), so
  // only return ranges circulate inside the cycle. The overlay always
  // starts from ⊥ — never from the module table — so the outcome is a
  // function of the external tables alone. Seeding from the previous
  // sweep's returns would make the (capped) iteration path-dependent,
  // and cold vs. incremental runs would then disagree bitwise on
  // recursive SCCs inside the re-analysis cone.
  for (unsigned I : Members)
    Overlay[Fns[I]] = ValueRange::bottom();
  std::map<unsigned, FunctionVRPResult> Current;
  for (unsigned Iter = 0; Iter < SccIterationLimit; ++Iter) {
    for (unsigned I : Members)
      Current[I] = analyzeOne(*Fns[I], Ctx);
    bool Stable = true;
    for (unsigned I : Members) {
      ValueRange Ret = computeReturnRange(*Fns[I], Current[I], Ops);
      // Bitwise stabilization (tolerance 0): the default 1e-9 probability
      // tolerance would let the iteration settle on path-dependent
      // ULP-different values, breaking cold-vs-incremental identity.
      if (!Overlay[Fns[I]].equals(Ret, 0.0)) {
        Overlay[Fns[I]] = Ret;
        Stable = false;
      }
    }
    if (Stable)
      break;
  }
  for (unsigned I : Members)
    recordResult(I, std::move(Current[I]));
  for (unsigned I : Members)
    installReturn(Scc, I, Overlay[Fns[I]]);
}

void InterprocDriver::recordResult(unsigned I, FunctionVRPResult R) {
  Results[I] = std::move(R);
  HasResult[I] = 1;
  Dirty[I] = 0;
  if (AnalysesLeft[I] > 0)
    --AnalysesLeft[I];
  EverAnalyzed[I] = 1;
  AnalyzedThisSweep.push_back(I);
}

void InterprocDriver::installReturn(unsigned Scc, unsigned I,
                                    const ValueRange &Ret) {
  const Function *F = Fns[I];
  auto It = ReturnTable.find(F);
  // Bitwise change detection — see the overlay stabilization note.
  bool Changed = It == ReturnTable.end() ? !Ret.isBottom()
                                         : !It->second.equals(Ret, 0.0);
  if (!Changed)
    return;
  ReturnTable[F] = Ret;
  // Callers sit in strictly later waves (intra-SCC edges were already
  // iterated locally): dirty them for this same sweep.
  for (const CallInst *Site : CG->callerSitesOf(F)) {
    unsigned CallerIdx = CG->indexOf(Site->function());
    if (CG->sccOfIndex(CallerIdx) != Scc)
      markDirty(CallerIdx);
  }
}

void InterprocDriver::runSweep() {
  AnalyzedThisSweep.clear();
  while (!DirtySccs.empty() && !DeadlineBlown) {
    // Pop the lowest wave with dirty work. Its SCCs have no call edge
    // between them, and anything one of them dirties lands in a strictly
    // later wave of this same sweep.
    unsigned Wave = DirtySccs.begin()->first;
    bool Probed = false;
    while (!DirtySccs.empty() && DirtySccs.begin()->first == Wave) {
      unsigned S = DirtySccs.begin()->second;
      DirtySccs.erase(DirtySccs.begin());
      const auto &Component = CG->sccsBottomUp()[S];
      bool Recursive =
          Component.size() > 1 || CG->isRecursive(Component.front());
      std::vector<unsigned> Members;
      Members.reserve(Component.size());
      if (Recursive) {
        // Members of a cycle are coupled through the overlay; a dirty
        // one re-runs them all.
        for (const Function *F : Component)
          Members.push_back(CG->indexOf(F));
        std::sort(Members.begin(), Members.end());
      } else {
        unsigned I = CG->indexOf(Component.front());
        if (!Dirty[I])
          continue;
        Members.push_back(I);
      }
      // The deadline (and its injected fault clock) is probed once per
      // wave with dirty work, before that work starts, so which
      // functions degrade depends only on which boundary expired.
      if (!Probed) {
        Probed = true;
        probeDeadline();
        if (DeadlineBlown)
          break;
      }
      analyzeScc(S, Members, Recursive);
    }
  }
  if (DeadlineBlown)
    degradeRemaining();
}

void InterprocDriver::refreshParams() {
  if (AnalyzedThisSweep.empty())
    return;
  RangeStats Scratch;
  RangeOps Ops(Opts, Scratch);
  // Only the callees of just-analyzed functions can have a changed jump
  // function; everything else's merge inputs are untouched.
  std::set<unsigned> Targets;
  for (unsigned I : AnalyzedThisSweep)
    for (const CallInst *Call : CG->callSites(Fns[I]))
      Targets.insert(CG->indexOf(Call->callee()));
  auto ResultOf = [this](const Function *F) -> const FunctionVRPResult * {
    unsigned I = CG->indexOf(F);
    return HasResult[I] ? &Results[I] : nullptr;
  };
  for (unsigned T : Targets) {
    const Function *F = Fns[T];
    if (F->numParams() == 0)
      continue;
    bool Recursive = CG->isRecursiveIndex(T);
    bool FnChanged = false;
    for (unsigned PI = 0; PI < F->numParams(); ++PI) {
      const Param *P = F->param(PI);
      ValueRange Merged = Recursive
                              ? ValueRange::bottom()
                              : computeParamRange(F, PI, *CG, ResultOf, Ops);
      auto It = ParamTable.find(P);
      // Bitwise change detection — see the overlay stabilization note.
      bool Changed = It == ParamTable.end()
                         ? !Merged.isBottom()
                         : !It->second.equals(Merged, 0.0);
      if (Changed) {
        ParamTable[P] = Merged;
        FnChanged = true;
      }
    }
    if (FnChanged)
      markDirty(T);
  }
}

void InterprocDriver::sweepLoop() {
  while (!DirtySccs.empty()) {
    runSweep();
    ++Sweeps;
    if (DeadlineBlown)
      break;
    refreshParams();
  }
}

void InterprocDriver::degradeRemaining() {
  // Deadline blown at a wave boundary: every function not yet analyzed
  // this run keeps its previous result if it has one (incremental mode),
  // else degrades to the manufactured ⊥ result — in module order, so the
  // degraded set is reproducible for a given boundary.
  for (unsigned I = 0; I < Fns.size(); ++I) {
    if (!HasResult[I]) {
      Results[I] = degradedResult(*Fns[I]);
      HasResult[I] = 1;
    }
    Dirty[I] = 0;
  }
  DirtySccs.clear();
}

void InterprocDriver::runIntraprocedural() {
  // No cross-function information: the whole module is a single wave
  // (the deadline is probed once at its boundary). Every function without
  // a result is analyzed; on an incremental run the rebound ones keep
  // theirs, since no other function's change can reach them.
  PropagationContext Ctx;
  Ctx.ParamRange = [](const Param *) { return ValueRange::bottom(); };
  Ctx.CallResultRange = [](const CallInst *) { return ValueRange::bottom(); };
  Ctx.Cache = Cache;
  Ctx.Census = Census.get();
  Sweeps = 1;
  probeDeadline();
  if (DeadlineBlown) {
    degradeRemaining();
    return;
  }
  for (unsigned I = 0; I < Fns.size(); ++I) {
    if (HasResult[I])
      continue;
    Results[I] = analyzeOne(*Fns[I], Ctx);
    HasResult[I] = 1;
    EverAnalyzed[I] = 1;
  }
}

unsigned InterprocDriver::cloneDivergentCallees() {
  struct CloneJob {
    const Function *Callee;
    std::vector<const CallInst *> Sites;
  };
  std::vector<CloneJob> Jobs;
  auto ResultOf = [this](const Function *F) -> const FunctionVRPResult * {
    unsigned I = CG->indexOf(F);
    return HasResult[I] ? &Results[I] : nullptr;
  };

  for (const Function *F : Fns) {
    if (F->numParams() == 0 || CG->isRecursive(F))
      continue;
    std::vector<const CallInst *> Sites = CG->callersOf(F);
    if (Sites.size() < 2 || Sites.size() > 4)
      continue;
    // Divergent when some parameter's argument ranges differ between two
    // sites and both are informative (non-⊥).
    bool Divergent = false;
    for (unsigned PI = 0; PI < F->numParams() && !Divergent; ++PI) {
      ValueRange FirstSeen;
      bool Any = false;
      for (const CallInst *Call : Sites) {
        const FunctionVRPResult *CallerResult = ResultOf(Call->function());
        if (!CallerResult)
          continue;
        ValueRange Arg =
            sanitizeForCallee(CallerResult->rangeOf(Call->arg(PI)));
        if (Arg.isBottom())
          continue;
        if (!Any) {
          FirstSeen = Arg;
          Any = true;
        } else if (!FirstSeen.equals(Arg)) {
          Divergent = true;
        }
      }
    }
    if (Divergent)
      Jobs.push_back({F, std::move(Sites)});
  }

  unsigned NumClones = 0;
  for (const CloneJob &Job : Jobs) {
    // One clone per extra call site; the first site keeps the original.
    for (size_t S = 1; S < Job.Sites.size(); ++S) {
      Function *Clone =
          cloneFunction(M, *Job.Callee,
                        Job.Callee->name() + ".clone" +
                            std::to_string(NumClones));
      // Retarget this call site. CallInst stores the callee outside the
      // operand list, so a targeted mutation is required.
      const_cast<CallInst *>(Job.Sites[S])->setCallee(Clone);
      // The caller's body changed; its memoized analyses are stale.
      if (Cache)
        Cache->invalidate(Job.Sites[S]->function());
      ++NumClones;
    }
  }
  return NumClones;
}

ModuleVRPResult InterprocDriver::finalize() {
  ModuleVRPResult Result;
  Result.Arena = Arena;
  Result.Rounds = std::max(Sweeps, 1u);
  Result.Waves = CG ? CG->numWaves() : 0;
  Result.FunctionsCloned = Cloned;
  for (unsigned I = 0; I < Fns.size(); ++I) {
    assert(HasResult[I] && "scheduler left a function without a result");
    Result.Total += Results[I].Stats;
    if (Results[I].Degraded)
      ++Result.FunctionsDegraded;
    if (EverAnalyzed[I])
      Result.Reanalyzed.push_back(Fns[I]);
    Result.PerFunction.emplace(Fns[I], std::move(Results[I]));
  }
  Result.FunctionsReanalyzed =
      static_cast<unsigned>(Result.Reanalyzed.size());
  telemetry::count(telemetry::Counter::InterprocSweeps, Result.Rounds);
  telemetry::count(telemetry::Counter::InterprocWaves, Result.Waves);
  telemetry::count(telemetry::Counter::InterprocFunctionsReanalyzed,
                   Result.FunctionsReanalyzed);
  return Result;
}

ModuleVRPResult InterprocDriver::run() {
  initState();
  if (!Opts.Interprocedural) {
    runIntraprocedural();
    return finalize();
  }
  for (unsigned I = 0; I < Fns.size(); ++I)
    markDirty(I);
  sweepLoop();

  if (Opts.EnableCloning && !DeadlineBlown) {
    unsigned NumClones = cloneDivergentCallees();
    if (NumClones > 0) {
      // The module grew and call sites were retargeted: rebuild the
      // schedule and re-run from scratch (sweep count accumulates).
      initState();
      Cloned = NumClones;
      for (unsigned I = 0; I < Fns.size(); ++I)
        markDirty(I);
      sweepLoop();
    }
  }
  return finalize();
}

ModuleVRPResult
InterprocDriver::runIncremental(const Module &PrevModule,
                                const ModuleVRPResult &Previous) {
  initState();

  // With alias ranges on, a function's load results depend on module-
  // level facts outside its own IR text — writer exclusivity and global
  // initializers (analysis/AliasAnalysis.h) — so the fingerprint folds
  // in the alias environment: a store added in *another* function must
  // invalidate this one. Each side reads its own module's census.
  auto PrevCensus = Opts.EnableAliasRanges
                        ? std::make_unique<StoreCensus>(PrevModule)
                        : nullptr;
  auto fingerprint = [](const Function &F, const StoreCensus *C) {
    uint64_t H = structuralHash(F);
    return C ? store::fnv1a64(AliasInfo::environmentText(F, *C), H) : H;
  };
  std::map<std::string, const Function *> PrevByName;
  std::map<std::string, uint64_t> PrevHashByName;
  for (const auto &PF : PrevModule.functions()) {
    PrevByName.emplace(PF->name(), PF.get());
    PrevHashByName.emplace(PF->name(), fingerprint(*PF, PrevCensus.get()));
  }

  // Changed-function detection by structural hash (ir/StructuralHash.h,
  // the identity PersistentCache keys on): each side is walked and hashed
  // exactly once, and unchanged functions are matched hash-to-hash. A
  // function whose hash is unchanged starts from its previous result,
  // rebound to this module's values by ordinal with no bytes written or
  // read — a bitwise reuse (SccSchedulerTest asserts cold-vs-incremental
  // identity). A result the rebind refuses is simply re-analyzed.
  unsigned Reused = 0;
  for (unsigned I = 0; I < Fns.size(); ++I) {
    const Function *F = Fns[I];
    auto It = PrevByName.find(F->name());
    const FunctionVRPResult *PR =
        It == PrevByName.end() ? nullptr : Previous.forFunction(It->second);
    bool Changed = true;
    if (PR && !PR->Degraded &&
        fingerprint(*F, Census.get()) == PrevHashByName[F->name()]) {
      FunctionVRPResult Rebound;
      if (PersistentCache::rebind(*PR, *F, Rebound)) {
        Results[I] = std::move(Rebound);
        HasResult[I] = 1;
        Changed = false;
        ++Reused;
      }
    }
    if (Changed)
      markDirty(I);
  }
  telemetry::count(telemetry::Counter::IncrementalFunctionsReused, Reused);
  if (!Opts.Interprocedural) {
    runIntraprocedural();
    return finalize();
  }

  // Seed the interprocedural tables with the previous run's converged
  // state, translated to this module by function name and parameter
  // index. Table entries never carry symbolic bounds (sanitizeForCallee),
  // so the ranges themselves are safe to carry across modules.
  CallGraph PrevCG(PrevModule);
  RangeStats Scratch;
  RangeOps Ops(Opts, Scratch);
  std::map<std::string, const Function *> NewByName;
  for (const Function *F : Fns)
    NewByName.emplace(F->name(), F);
  auto PrevResultOf =
      [&Previous](const Function *F) -> const FunctionVRPResult * {
    return Previous.forFunction(F);
  };
  for (const auto &PF : PrevModule.functions()) {
    auto NewIt = NewByName.find(PF->name());
    if (NewIt == NewByName.end())
      continue;
    const Function *NewF = NewIt->second;
    const FunctionVRPResult *PR = Previous.forFunction(PF.get());
    if (PR) {
      ValueRange Ret = computeReturnRange(*PF, *PR, Ops);
      if (!Ret.isBottom())
        ReturnTable[NewF] = Ret;
    }
    if (!PrevCG.isRecursive(PF.get())) {
      unsigned NumParams = std::min(PF->numParams(), NewF->numParams());
      for (unsigned PI = 0; PI < NumParams; ++PI) {
        ValueRange Merged =
            computeParamRange(PF.get(), PI, PrevCG, PrevResultOf, Ops);
        if (!Merged.isBottom())
          ParamTable[NewF->param(PI)] = Merged;
      }
    }
  }

  sweepLoop();
  return finalize();
}

namespace {

/// Fault site "unsound-range": one shouldFail probe per function that
/// HAS a corruptible range, in module order, so a spec like
/// "unsound-range@bench:0" always corrupts the same function — and never
/// no-ops on a branch-free helper. The corruption leaves predictions
/// intact — only the soundness sentinel can tell.
void applyUnsoundRangeFault(const Module &M, ModuleVRPResult &Result) {
  if (!fault::armed())
    return;
  for (const auto &F : M.functions()) {
    auto It = Result.PerFunction.find(F.get());
    if (It == Result.PerFunction.end() ||
        !audit::canCorruptRange(*F, It->second))
      continue;
    if (fault::shouldFail("unsound-range"))
      audit::corruptRangeForTesting(*F, It->second);
  }
}

} // namespace

ModuleVRPResult vrp::runModuleVRP(Module &M, const VRPOptions &Opts,
                                  AnalysisCache *Cache,
                                  PersistentCache *PCache) {
  telemetry::ScopedTimer T(telemetry::Timer::Propagation);
  auto Arena = std::make_shared<RangeArena>();
  RangeArena::Scope ArenaScope(Arena);
  ModuleVRPResult Result =
      InterprocDriver(M, Opts, Arena, Cache, PCache).run();
  applyUnsoundRangeFault(M, Result);
  return Result;
}

ModuleVRPResult vrp::runModuleVRP(const Module &M, const VRPOptions &Opts,
                                  AnalysisCache *Cache,
                                  PersistentCache *PCache) {
  assert(!(Opts.Interprocedural && Opts.EnableCloning) &&
         "cloning mutates the module; use the non-const overload");
  return runModuleVRP(const_cast<Module &>(M), Opts, Cache, PCache);
}

ModuleVRPResult vrp::runModuleVRPIncremental(const Module &M,
                                             const VRPOptions &Opts,
                                             const Module &PrevModule,
                                             const ModuleVRPResult &Previous,
                                             AnalysisCache *Cache,
                                             PersistentCache *PCache) {
  assert(!Opts.EnableCloning &&
         "incremental re-analysis never mutates the module");
  telemetry::ScopedTimer T(telemetry::Timer::Propagation);
  // A fresh arena for what this run adds. Rebound results and the seeded
  // tables keep handles into the predecessor's arena, which this one
  // holds alive.
  auto Arena = std::make_shared<RangeArena>(Previous.Arena);
  RangeArena::Scope ArenaScope(Arena);
  // Never mutated: cloning is excluded above, and nothing else writes.
  Module &MM = const_cast<Module &>(M);
  ModuleVRPResult Result = InterprocDriver(MM, Opts, Arena, Cache, PCache)
                               .runIncremental(PrevModule, Previous);
  applyUnsoundRangeFault(M, Result);
  return Result;
}
