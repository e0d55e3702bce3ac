//===- vrp/Propagation.cpp - The VRP worklist engine -----------------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "vrp/Propagation.h"

#include "analysis/AliasAnalysis.h"
#include "analysis/AnalysisCache.h"
#include "analysis/DFS.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"
#include "vrp/Derivation.h"
#include "vrp/Trace.h"

#include <memory>

#include <algorithm>
#include <array>
#include <cassert>
#include <deque>
#include <set>

using namespace vrp;

PropagationContext PropagationContext::intraprocedural() {
  PropagationContext Ctx;
  Ctx.ParamRange = [](const Param *) { return ValueRange::bottom(); };
  Ctx.CallResultRange = [](const CallInst *) {
    return ValueRange::bottom();
  };
  return Ctx;
}

ValueRange FunctionVRPResult::rangeOf(const Value *V) const {
  if (const auto *C = dyn_cast<Constant>(V))
    return C->isInt() ? ValueRange::intConstant(C->intValue())
                      : ValueRange::floatConstant(C->floatValue());
  auto It = Ranges.find(V);
  return It == Ranges.end() ? ValueRange::bottom() : It->second;
}

void FunctionVRPResult::degrade(const Function &Fn, Status Cause) {
  F = &Fn;
  Degraded = true;
  DegradeCause = std::move(Cause);
  Ranges.clear();
  Branches.clear();
  BlockProb.assign(Fn.numBlocks(), 1.0);
  for (const auto &B : Fn.blocks())
    if (const auto *CBr = dyn_cast_or_null<CondBrInst>(B->terminator()))
      Branches[CBr] = BranchPrediction{0.5, false, true};
}

double FunctionVRPResult::edgeFraction(const BasicBlock *From,
                                       const BasicBlock *To) const {
  const Instruction *T = From->terminator();
  if (const auto *Br = dyn_cast_or_null<BrInst>(T))
    return Br->target() == To ? 1.0 : 0.0;
  if (const auto *CBr = dyn_cast_or_null<CondBrInst>(T)) {
    auto It = Branches.find(CBr);
    double P = It == Branches.end() ? 0.5 : It->second.ProbTrue;
    if (CBr->trueBlock() == To)
      return P;
    if (CBr->falseBlock() == To)
      return 1.0 - P;
  }
  return 0.0;
}

namespace {

/// Probability tolerance for fixpoint detection. Probabilities feed back
/// through loop edges with geometric convergence; demanding more
/// precision than this multiplies evaluation counts without measurably
/// changing predictions (the paper's linearity claim depends on the
/// propagation winding down quickly).
constexpr double ProbTolerance = 1e-6;

/// Updates of one branch's probability before it is frozen (termination
/// guard for probability oscillation through loops).
constexpr unsigned BranchUpdateLimit = 48;

/// Weight-only updates of one value's range (same support, probability
/// moved beyond ProbTolerance) before further ones stop re-evaluating its
/// users. Loop feedback usually converges geometrically, but φ weights
/// can also cycle forever over a fixed support, which the widening guard
/// never sees. The suite needs at most 63 such updates and 15,000
/// generated serving programs at most 771, so their results are
/// unchanged.
constexpr unsigned ProbUpdateLimit = 4096;

/// The engine. One instance per function per run.
class Engine {
public:
  Engine(const Function &F, const VRPOptions &Opts,
         const PropagationContext &Ctx)
      : F(F), Opts(Opts), Ctx(Ctx), Ops(Opts, Result.Stats),
        OwnedDFS(Ctx.Cache ? nullptr : std::make_unique<DFSInfo>(F)),
        DFS(Ctx.Cache ? Ctx.Cache->dfs(F) : *OwnedDFS),
        Alias(!Opts.EnableAliasRanges ? AliasInfo()
              : Ctx.Census            ? AliasInfo::analyze(F, *Ctx.Census)
                                      : AliasInfo::analyze(F)) {
    if (Opts.Trace && Opts.Trace->wants(F))
      Ring = std::make_unique<trace::TraceRing>(Opts.Trace->capacity());
  }

  FunctionVRPResult run();

private:
  //===--------------------------------------------------------------------===
  // Lattice state
  //===--------------------------------------------------------------------===

  ValueRange rangeOf(const Value *V) {
    if (const auto *C = dyn_cast<Constant>(V))
      return C->isInt() ? ValueRange::intConstant(C->intValue())
                        : ValueRange::floatConstant(C->floatValue());
    if (const auto *P = dyn_cast<Param>(V)) {
      auto It = Result.Ranges.find(V);
      if (It != Result.Ranges.end())
        return It->second;
      ValueRange VR = Ctx.ParamRange(P);
      Result.Ranges.emplace(V, VR);
      return VR;
    }
    auto It = Result.Ranges.find(V);
    return It == Result.Ranges.end() ? ValueRange::top() : It->second;
  }

  /// Stores a new range; pushes SSA users when the change is material
  /// (any support change, or probability movement above the tolerance).
  bool updateRange(const Instruction *I, const ValueRange &VR) {
    ValueRange Old = rangeOf(I);
    if (Old.equals(VR, 1e-12))
      return false; // Exactly converged.
    if (Ring)
      Ring->record(trace::TraceEvent{I->displayName(), Old.str(), VR.str(),
                                     CurrentTrigger, CurrentStep});
    bool SameSupport = Old.sameSupport(VR);
    bool Material = !SameSupport || !Old.equals(VR, ProbTolerance);
    Result.Ranges[I] = VR; // Always keep the most precise result.
    if (!Material)
      return false;
    if (SameSupport && ++ProbUpdates[I] > ProbUpdateLimit)
      return false; // Frozen to guarantee termination.
    for (const Use &U : I->uses())
      SSAWorkList.push_back(U.User);
    return true;
  }

  //===--------------------------------------------------------------------===
  // Edge probabilities
  //===--------------------------------------------------------------------===

  /// Probability of the out-edge of \p B selected by \p Index (0 = Br
  /// target / CondBr true, 1 = CondBr false).
  double &outProb(const BasicBlock *B, unsigned Index) {
    return OutProbs[B->id()][Index];
  }

  double edgeProbTo(const BasicBlock *Pred, const BasicBlock *Target) {
    const Instruction *T = Pred->terminator();
    if (const auto *Br = dyn_cast_or_null<BrInst>(T))
      return Br->target() == Target ? outProb(Pred, 0) : 0.0;
    if (const auto *CBr = dyn_cast_or_null<CondBrInst>(T)) {
      if (CBr->trueBlock() == Target)
        return outProb(Pred, 0);
      if (CBr->falseBlock() == Target)
        return outProb(Pred, 1);
    }
    return 0.0;
  }

  /// Recomputes a block's reach probability: capped in-edge sum (paper
  /// footnote 1 — "the sum of the probabilities of the edges which lead to
  /// the node being executed").
  double computeBlockProb(const BasicBlock *B) {
    if (B == F.entry())
      return 1.0;
    double Sum = 0.0;
    for (const BasicBlock *P : B->preds())
      Sum += edgeProbTo(P, B);
    return std::min(1.0, Sum);
  }

  /// Updates B's out-edge probabilities from its reach probability and the
  /// current branch fraction; pushes changed edges onto the FlowWorkList.
  void refreshOutEdges(const BasicBlock *B);

  //===--------------------------------------------------------------------===
  // Evaluation
  //===--------------------------------------------------------------------===

  void evaluateInstruction(const Instruction *I);
  void evaluatePhi(const PhiInst *Phi);
  void evaluateBranch(const CondBrInst *Branch);
  ValueRange evaluateExpression(const Instruction *I);
  ValueRange evaluateLoad(const LoadInst *L);

  /// Attempts loop-carried derivation per paper step 4.
  void tryDerivation(const PhiInst *Phi);

  const Function &F;
  const VRPOptions &Opts;
  const PropagationContext &Ctx;
  FunctionVRPResult Result;
  RangeOps Ops;
  /// Locally computed DFS when no cache is supplied; see the ctor.
  std::unique_ptr<DFSInfo> OwnedDFS;
  const DFSInfo &DFS;
  /// Per-load forwarding / weighted-candidate summary; empty when
  /// EnableAliasRanges is off (analysis/AliasAnalysis.h).
  AliasInfo Alias;

  std::deque<std::pair<const BasicBlock *, const BasicBlock *>> FlowWorkList;
  std::deque<const Instruction *> SSAWorkList;

  std::vector<std::array<double, 2>> OutProbs;
  std::vector<bool> Visited;
  std::vector<unsigned> FlowVisits;
  std::set<const PhiInst *> Derived;
  std::set<const PhiInst *> DerivationImpossible;
  /// NotYet outcomes per loop-carried φ; see tryDerivation.
  std::unordered_map<const PhiInst *, unsigned> DerivationRetries;
  bool Stalled = false;
  Status StallCause;
  std::unordered_map<const Instruction *, unsigned> EvalCounts;
  std::unordered_map<const CondBrInst *, unsigned> BranchUpdates;
  /// Weight-only material updates per value; see updateRange.
  std::unordered_map<const Instruction *, unsigned> ProbUpdates;
  std::unordered_map<const CondBrInst *, double> BranchFraction;
  std::set<const CondBrInst *> BranchFromRanges;

  /// Tracing state: a ring exists only when the sink wants this function.
  std::unique_ptr<trace::TraceRing> Ring;
  /// What caused the evaluation now in flight ("flow bbA -> bbB" or
  /// "ssa %v"); stamped onto recorded transitions.
  std::string CurrentTrigger = "seed";
  /// Worklist step counter (always maintained; the budget check and the
  /// trace both read it).
  uint64_t CurrentStep = 0;

  /// Folds the per-run RangeStats into the global telemetry counters in
  /// one bulk add per run (no per-event cost on top of RangeStats, which
  /// the figures need anyway).
  void reportStats() {
    if (!telemetry::enabled())
      return;
    using telemetry::Counter;
    const RangeStats &S = Result.Stats;
    telemetry::count(Counter::ExprEvaluations, S.ExprEvaluations);
    telemetry::count(Counter::SubRangeOps, S.SubOps);
    telemetry::count(Counter::PhiEvaluations, S.PhiEvaluations);
    telemetry::count(Counter::BranchEvaluations, S.BranchEvaluations);
    telemetry::count(Counter::DerivationsTried, S.DerivationsTried);
    telemetry::count(Counter::DerivationsMatched, S.DerivationsMatched);
    telemetry::count(Counter::Widenings, S.Widenings);
  }

  /// Publishes the trace ring to the sink, if tracing is live.
  void finishTrace() {
    if (!Ring || !Opts.Trace)
      return;
    telemetry::count(telemetry::Counter::TraceEventsRecorded,
                     Ring->recorded());
    Opts.Trace->install(Ring->finish(F.name()));
  }
};

} // namespace

void Engine::refreshOutEdges(const BasicBlock *B) {
  const Instruction *T = B->terminator();
  double P = Result.BlockProb[B->id()];

  // An update is material when it moves more than the tolerance OR when
  // it crosses zero: reachability must propagate no matter how small the
  // probability gets (sequential loops can decay reach probabilities far
  // below the tolerance; the blocks still execute).
  auto updateEdge = [&](unsigned Index, double New, BasicBlock *Target) {
    double Old = outProb(B, Index);
    bool CrossesZero = (Old == 0.0) != (New == 0.0);
    if (!CrossesZero && std::abs(Old - New) <= ProbTolerance)
      return;
    outProb(B, Index) = New;
    FlowWorkList.push_back({B, Target});
  };

  if (const auto *Br = dyn_cast_or_null<BrInst>(T)) {
    updateEdge(0, P, Br->target());
    return;
  }
  const auto *CBr = dyn_cast_or_null<CondBrInst>(T);
  if (!CBr)
    return;
  auto It = BranchFraction.find(CBr);
  if (It == BranchFraction.end())
    return; // Branch not yet evaluated; edges stay at 0.
  updateEdge(0, P * It->second, CBr->trueBlock());
  updateEdge(1, P * (1.0 - It->second), CBr->falseBlock());
}

void Engine::tryDerivation(const PhiInst *Phi) {
  // Re-derivation is deliberate: the termination bound's own range may
  // still be refining (its updates reach this φ through the SSA chain of
  // the back-edge operand), so a previously derived result is recomputed
  // rather than frozen. Only template mismatches are cached.
  if (DerivationImpossible.count(Phi))
    return;
  if (!Opts.EnableDerivation) {
    DerivationImpossible.insert(Phi);
    return;
  }
  auto RangeFn = [this](const Value *V) { return rangeOf(V); };
  DerivationResult DR =
      deriveLoopCarriedRange(Phi, DFS, Opts, Result.Stats, RangeFn);
  switch (DR.Outcome) {
  case DerivationOutcome::Derived:
    Derived.insert(Phi);
    updateRange(Phi, DR.Range);
    return;
  case DerivationOutcome::Impossible:
    DerivationImpossible.insert(Phi);
    Derived.erase(Phi);
    return;
  case DerivationOutcome::NotYet:
    // Retry on a later visit — but count the retries. A φ whose entry
    // value never leaves ⊤ (unreachable entry path, frozen upstream
    // value) re-derives forever without stabilizing; after the limit,
    // declare the function stalled so it degrades observably instead of
    // spinning until the global step cap.
    if (Opts.DerivationRetryLimit != 0 &&
        ++DerivationRetries[Phi] > Opts.DerivationRetryLimit && !Stalled) {
      Stalled = true;
      StallCause = Status::failure(
          ErrorCategory::BudgetExceeded, "derivation",
          "loop-carried phi " + Phi->displayName() + " in @" + F.name() +
              " never stabilized (" +
              std::to_string(Opts.DerivationRetryLimit) +
              " derivation retries); degrading to the heuristic fallback");
    }
    return;
  }
}

void Engine::evaluatePhi(const PhiInst *Phi) {
  ++Result.Stats.PhiEvaluations;
  ++Result.Stats.ExprEvaluations;

  // Footnote 4: merging assertion-derived variables of a common parent (or
  // with the parent itself) yields the parent's range.
  const Value *CommonRoot = nullptr;
  bool AllSameRoot = true;
  for (unsigned I = 0; I < Phi->numIncoming(); ++I) {
    const Value *V = Phi->incomingValue(I);
    if (const auto *A = dyn_cast<AssertInst>(V))
      V = A->parentValue();
    if (!CommonRoot)
      CommonRoot = V;
    else if (CommonRoot != V)
      AllSameRoot = false;
  }
  if (AllSameRoot && CommonRoot) {
    ValueRange VR = rangeOf(CommonRoot);
    if (!VR.isTop())
      updateRange(Phi, VR);
    return;
  }

  std::vector<std::pair<ValueRange, double>> Entries;
  for (unsigned I = 0; I < Phi->numIncoming(); ++I) {
    double W = edgeProbTo(Phi->incomingBlock(I), Phi->parent());
    Entries.push_back({rangeOf(Phi->incomingValue(I)), W});
  }
  ValueRange Met = Ops.meetWeighted(Entries);
  if (Met.isTop())
    return;
  updateRange(Phi, Met);
}

ValueRange Engine::evaluateExpression(const Instruction *I) {
  switch (I->opcode()) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::Rem:
  case Opcode::Min:
  case Opcode::Max: {
    ValueRange L = rangeOf(I->operand(0));
    ValueRange R = rangeOf(I->operand(1));
    switch (I->opcode()) {
    case Opcode::Add:
      return Ops.add(L, R);
    case Opcode::Sub:
      return Ops.sub(L, R);
    case Opcode::Mul:
      return Ops.mul(L, R);
    case Opcode::Div:
      return Ops.div(L, R);
    case Opcode::Rem:
      return Ops.rem(L, R);
    case Opcode::Min:
      return Ops.minOp(L, R);
    default:
      return Ops.maxOp(L, R);
    }
  }
  case Opcode::Cmp: {
    const auto *Cmp = cast<CmpInst>(I);
    ValueRange L = rangeOf(Cmp->lhs());
    ValueRange R = rangeOf(Cmp->rhs());
    if (L.isTop() || R.isTop())
      return ValueRange::top();
    std::optional<double> P =
        Ops.cmpProb(Cmp->pred(), L, R, Cmp->lhs(), Cmp->rhs());
    return P ? ValueRange::weightedBool(*P) : ValueRange::bottom();
  }
  case Opcode::Neg:
    return Ops.neg(rangeOf(I->operand(0)));
  case Opcode::Not:
    return Ops.notOp(rangeOf(I->operand(0)));
  case Opcode::Abs:
    return Ops.absOp(rangeOf(I->operand(0)));
  case Opcode::Copy:
    return rangeOf(I->operand(0));
  case Opcode::IntToFloat:
    return Ops.intToFloat(rangeOf(I->operand(0)));
  case Opcode::FloatToInt:
    return Ops.floatToInt(rangeOf(I->operand(0)));
  case Opcode::Assert: {
    const auto *A = cast<AssertInst>(I);
    ValueRange Src = rangeOf(A->source());
    ValueRange BoundVR = rangeOf(A->bound());
    if (Src.isTop() || BoundVR.isTop())
      return ValueRange::top();
    // Float asserts refine only through the FP lattice: with it off, or
    // with a ⊥ bound (nothing to clip against), the assertion adds no
    // information and passes its source through — always a superset of
    // the true intersection, so sound.
    if (A->type() == IRType::Float &&
        (!Opts.EnableFPRanges || BoundVR.isBottom()))
      return Src;
    return Ops.applyAssert(Src, A->pred(), BoundVR, A->bound());
  }
  case Opcode::Load:
    return evaluateLoad(cast<LoadInst>(I));
  case Opcode::Input:
    return ValueRange::bottom(); // External input is unbounded.
  case Opcode::Call:
    return Ctx.CallResultRange(cast<CallInst>(I));
  default:
    return ValueRange::bottom();
  }
}

ValueRange Engine::evaluateLoad(const LoadInst *L) {
  const LoadAliasInfo *AI =
      Opts.EnableAliasRanges ? Alias.infoFor(L) : nullptr;
  if (!AI) {
    telemetry::count(telemetry::Counter::AliasBottomLoads);
    return ValueRange::bottom(); // §3.5: loads are ⊥ without alias info.
  }
  if (AI->Forwarded) {
    // Tier (a): the load must observe exactly this stored SSA value.
    telemetry::count(telemetry::Counter::AliasForwardedLoads);
    return rangeOf(AI->Forwarded);
  }
  // Tier (b): meet the candidates' ranges under the index-overlap
  // weights. The initial-value candidate is a constant range, so the
  // meet is never all-⊤; a ⊥ candidate forces ⊥ (meetWeighted's
  // contract), which is the paper's behavior for that load.
  std::vector<std::pair<ValueRange, double>> Entries;
  Entries.reserve(AI->Candidates.size());
  for (const AliasCandidate &C : AI->Candidates)
    Entries.push_back(
        {C.Stored ? rangeOf(C.Stored)
         : L->object()->elemType() == IRType::Float
             ? ValueRange::floatConstant(C.InitValue)
             : ValueRange::intConstant(static_cast<int64_t>(C.InitValue)),
         C.Weight});
  ValueRange VR = Ops.meetWeighted(Entries);
  telemetry::count(VR.isBottom() ? telemetry::Counter::AliasBottomLoads
                                 : telemetry::Counter::AliasWeightedLoads);
  return VR;
}

void Engine::evaluateBranch(const CondBrInst *Branch) {
  ++Result.Stats.BranchEvaluations;
  unsigned &Updates = BranchUpdates[Branch];
  if (Updates > BranchUpdateLimit)
    return; // Frozen to guarantee termination.

  ValueRange CondVR = rangeOf(Branch->cond());
  if (CondVR.isTop())
    return; // Not enough information yet.

  std::optional<double> P = CondVR.probNonZero();
  double Fraction = P ? *P : 0.5;
  bool FromRanges = P.has_value();

  auto It = BranchFraction.find(Branch);
  if (It != BranchFraction.end() &&
      std::abs(It->second - Fraction) <= ProbTolerance &&
      BranchFromRanges.count(Branch) == (FromRanges ? 1u : 0u))
    return;
  ++Updates;
  BranchFraction[Branch] = Fraction;
  if (FromRanges)
    BranchFromRanges.insert(Branch);
  else
    BranchFromRanges.erase(Branch);
  refreshOutEdges(Branch->parent());
}

void Engine::evaluateInstruction(const Instruction *I) {
  if (const auto *Phi = dyn_cast<PhiInst>(I)) {
    if (isLoopCarried(Phi, DFS)) {
      tryDerivation(Phi);
      if (Derived.count(Phi))
        return; // Step 4: derived expressions are not re-evaluated.
    }
    evaluatePhi(Phi);
    return;
  }
  if (const auto *CBr = dyn_cast<CondBrInst>(I)) {
    evaluateBranch(CBr);
    return;
  }
  if (const auto *St = dyn_cast<StoreInst>(I)) {
    // A store defines no SSA value, but dependent loads read through it
    // (its stored value is their forwarding source or one of their
    // weighted candidates): re-push them exactly as updateRange pushes
    // SSA users. The store lands here both on its block's first visit
    // and whenever its stored value's range changes (the store is an
    // SSA user of that value).
    for (const LoadInst *L : Alias.dependentLoads(St))
      SSAWorkList.push_back(L);
    return;
  }
  if (I->isTerminator() || I->type() == IRType::Void)
    return;

  ++Result.Stats.ExprEvaluations;
  ValueRange VR = evaluateExpression(I);
  if (VR.isTop())
    return;
  // Widening guard: count *support growth* only. A non-derivable
  // loop-carried expression grows its range once per simulated iteration
  // and must be cut off; probability refinements with a stable support
  // converge on their own and are not counted.
  ValueRange Old = rangeOf(I);
  if (!Old.isTop() && !Old.sameSupport(VR)) {
    unsigned &Count = EvalCounts[I];
    if (++Count > Opts.WidenThreshold && !VR.isBottom()) {
      ++Result.Stats.Widenings;
      VR = ValueRange::bottom();
    }
  }
  updateRange(I, VR);
}

FunctionVRPResult Engine::run() {
  telemetry::count(telemetry::Counter::PropagationRuns);
  Result.F = &F;
  unsigned N = F.numBlocks();
  OutProbs.assign(N, {0.0, 0.0});
  Visited.assign(N, false);
  FlowVisits.assign(N, 0);
  Result.BlockProb.assign(N, 0.0);

  // Step 1: seed with the start node's out-edges at probability 1.
  Result.BlockProb[F.entry()->id()] = 1.0;
  FlowWorkList.push_back({nullptr, F.entry()});

  // Budget guard: each worklist item processed costs one step. When the
  // cap is hit the function degrades to the heuristic fallback instead of
  // failing — the infrastructure mirror of the paper's ⊥-range fallback.
  const uint64_t StepBudget = Opts.Budget.PropagationStepLimit;
  bool Degraded = fault::shouldFail("vrp-budget");
  Status Cause =
      Degraded ? Status::failure(ErrorCategory::BudgetExceeded, "propagation",
                                 "injected budget exhaustion in @" + F.name())
               : Status::success();

  // Step 2: run until both lists are empty, preferring flow items.
  while (!Degraded && !Stalled &&
         (!FlowWorkList.empty() || !SSAWorkList.empty())) {
    ++CurrentStep;
    if (StepBudget != 0 && CurrentStep > StepBudget) {
      Degraded = true;
      Cause = Status::failure(
          ErrorCategory::BudgetExceeded, "propagation",
          "step budget (" + std::to_string(StepBudget) + ") exhausted in @" +
              F.name());
      break;
    }
    if (!FlowWorkList.empty()) {
      auto [From, To] = FlowWorkList.front();
      FlowWorkList.pop_front();
      if (Ring)
        CurrentTrigger = "flow " +
                         (From ? From->name() : std::string("entry")) +
                         " -> " + To->name();

      // Step 3: visit the target node.
      double OldProb = Result.BlockProb[To->id()];
      double NewProb = computeBlockProb(To);
      bool ProbChanged =
          std::abs(NewProb - OldProb) > ProbTolerance;
      // Zero-crossings bypass the refinement budget: reachability (and
      // unreachability) must always propagate.
      bool CrossedZero = (OldProb == 0.0) != (NewProb == 0.0);
      Result.BlockProb[To->id()] = NewProb;

      if (!Visited[To->id()]) {
        Visited[To->id()] = true;
        ++FlowVisits[To->id()];
        for (const auto &I : To->instructions())
          evaluateInstruction(I.get());
      } else if (FlowVisits[To->id()] < Opts.FlowVisitLimit ||
                 CrossedZero) {
        ++FlowVisits[To->id()];
        for (const PhiInst *Phi : To->phis())
          evaluateInstruction(Phi);
        if (ProbChanged || CrossedZero)
          if (const auto *CBr = dyn_cast_or_null<CondBrInst>(
                  To->terminator()))
            evaluateBranch(CBr);
      } else {
        continue; // Edge-probability refinement budget exhausted.
      }
      // The block's reach probability feeds its out-edges.
      refreshOutEdges(To);
      continue;
    }

    // Steps 4-7 via the SSA worklist.
    const Instruction *I = SSAWorkList.front();
    SSAWorkList.pop_front();
    // Step 5/6 guard: only evaluate when the node can execute.
    if (!Visited[I->parent()->id()])
      continue;
    if (Ring)
      CurrentTrigger = "ssa " + I->displayName();
    evaluateInstruction(I);
  }
  telemetry::count(telemetry::Counter::PropagationSteps, CurrentStep);

  if (Stalled) {
    Degraded = true;
    Cause = StallCause;
    telemetry::count(telemetry::Counter::DerivationStalls);
  }

  if (Degraded) {
    // Partial lattice state is unsound to expose (a range caught
    // mid-descent can be too narrow), so degrade the whole function.
    Result.degrade(F, std::move(Cause));
    telemetry::count(telemetry::Counter::BudgetDegradations);
    reportStats();
    finishTrace();
    return std::move(Result);
  }

  // Collect the final branch predictions.
  for (const auto &B : F.blocks()) {
    const auto *CBr = dyn_cast_or_null<CondBrInst>(B->terminator());
    if (!CBr)
      continue;
    BranchPrediction Pred;
    if (!Visited[B->id()] || Result.BlockProb[B->id()] <= 0.0) {
      Pred.Reachable = false;
      Pred.FromRanges = false;
      Pred.ProbTrue = 0.5;
    } else {
      auto It = BranchFraction.find(CBr);
      if (It != BranchFraction.end()) {
        Pred.ProbTrue = It->second;
        Pred.FromRanges = BranchFromRanges.count(CBr) != 0;
      } else {
        Pred.ProbTrue = 0.5;
        Pred.FromRanges = false;
      }
    }
    Result.Branches[CBr] = Pred;
  }
  reportStats();
  finishTrace();
  // Nothing reads Result after this (Ops, which holds Result.Stats, dies
  // with the engine): move the range map out instead of copying it.
  return std::move(Result);
}

FunctionVRPResult vrp::propagateRanges(const Function &F,
                                       const VRPOptions &Opts,
                                       const PropagationContext &Context) {
  std::shared_ptr<RangeArena> Arena = RangeArena::joinOrCreate();
  RangeArena::Scope S(Arena);
  // The engine reads the CFG only; SSA form is required.
  Engine E(F, Opts, Context);
  FunctionVRPResult R = E.run();
  R.Arena = std::move(Arena);
  return R;
}

FunctionVRPResult vrp::propagateRanges(const Function &F,
                                       const VRPOptions &Opts) {
  PropagationContext Ctx = PropagationContext::intraprocedural();
  return propagateRanges(F, Opts, Ctx);
}
