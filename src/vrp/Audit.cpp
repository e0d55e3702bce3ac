//===- vrp/Audit.cpp - Runtime soundness sentinel -------------------------===//

#include "vrp/Audit.h"

#include "ir/Module.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <sstream>

using namespace vrp;
using namespace vrp::audit;

namespace {

/// The values whose ranges provably dominate \p Br: the condition and,
/// when the condition is a comparison, its operands. Anything else in the
/// frame may not have executed yet on this path.
void forEachAuditedValue(const CondBrInst *Br,
                         const std::function<void(const Value *)> &Fn) {
  Fn(Br->cond());
  if (const auto *Cmp = dyn_cast<CmpInst>(Br->cond())) {
    Fn(Cmp->lhs());
    Fn(Cmp->rhs());
  }
}

/// True when \p VR makes a checkable claim about \p V. Int values need a
/// Ranges value with purely numeric bounds (⊤/⊥ claim nothing; symbolic
/// bounds cannot be checked against a single frame value). Float values
/// need a FloatRanges interval set or a float-constant singleton; both
/// are checkable, and \p AllowFloat gates them off for callers that can
/// only handle the int domain (the corruption back door).
bool auditable(const Value *V, const ValueRange &VR, bool AllowFloat) {
  if (isa<Constant>(V))
    return false;
  if (V->type() == IRType::Int)
    return VR.isRanges() && !VR.hasSymbolicBounds();
  if (V->type() == IRType::Float && AllowFloat)
    return VR.isFloatRanges() || VR.isFloatConst();
  return false;
}

/// Range membership: inside some subrange's [Lo, Hi] and on its stride
/// lattice. All bounds are numeric (auditable() guarantees it).
bool contains(const std::vector<SubRange> &Subs, int64_t V) {
  for (const SubRange &S : Subs) {
    if (V < S.Lo.Offset || V > S.Hi.Offset)
      continue;
    if (onLattice(S.Lo.Offset, S.Stride, V))
      return true;
  }
  return false;
}

/// Float-range membership: inside some closed interval [Lo, Hi], or NaN
/// while the range carries NaN mass. -0.0 compares equal to +0.0 under
/// IEEE <=, matching the lattice's convention (docs/DOMAINS.md).
bool containsFP(const std::vector<FPInterval> &Subs, double NaNMass,
                double V) {
  if (std::isnan(V))
    return NaNMass > 0.0;
  for (const FPInterval &S : Subs)
    if (S.Lo <= V && V <= S.Hi)
      return true;
  return false;
}

} // namespace

std::string AuditViolation::str() const {
  std::ostringstream OS;
  if (UnreachableExecuted) {
    OS << "branch at " << Branch << " predicted unreachable was executed "
       << Count << (Count == 1 ? " time" : " times");
    return OS.str();
  }
  OS << "value " << Value << " at " << Branch << " observed ";
  if (FloatWitness)
    OS << FWitness;
  else
    OS << Witness;
  OS << " outside " << Range << " (" << Count << " violating execution"
     << (Count == 1 ? ")" : "s)");
  return OS.str();
}

uint64_t AuditReport::totalChecks() const {
  uint64_t N = 0;
  for (const FunctionAudit &FA : Functions)
    N += FA.Checked;
  return N;
}

uint64_t AuditReport::totalViolations() const {
  uint64_t N = 0;
  for (const FunctionAudit &FA : Functions)
    N += FA.Violations;
  return N;
}

std::vector<const FunctionAudit *> AuditReport::violated() const {
  std::vector<const FunctionAudit *> Out;
  for (const FunctionAudit &FA : Functions)
    if (FA.Violations != 0)
      Out.push_back(&FA);
  return Out;
}

std::string AuditReport::str() const {
  std::ostringstream OS;
  OS << "audit: " << totalViolations() << " violations in " << totalChecks()
     << " checks across " << Functions.size() << " functions\n";
  for (const FunctionAudit &FA : Functions) {
    if (FA.Violations == 0)
      continue;
    OS << "  @" << FA.Function << ": " << FA.Violations << " of "
       << FA.Checked << " checks violated\n";
    for (const AuditViolation &V : FA.Details)
      OS << "    " << V.str() << "\n";
  }
  return OS.str();
}

void RangeAuditor::addFunction(const Function &F,
                               const FunctionVRPResult &VRP) {
  size_t FnIdx = Functions.size();
  Functions.push_back(FunctionAudit{F.name(), 0, 0, {}});
  if (VRP.Degraded)
    return; // Every range is ⊥: no claims to audit.

  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->instructions()) {
      const auto *Br = dyn_cast<CondBrInst>(I.get());
      if (!Br)
        continue;
      BranchPlan Plan;
      Plan.FnIdx = FnIdx;
      Plan.Loc = Br->loc().str();
      auto BrIt = VRP.Branches.find(Br);
      Plan.PredictedUnreachable =
          BrIt != VRP.Branches.end() && !BrIt->second.Reachable;
      forEachAuditedValue(Br, [&](const Value *V) {
        auto It = VRP.Ranges.find(V);
        if (It == VRP.Ranges.end() ||
            !auditable(V, It->second, /*AllowFloat=*/true))
          return;
        ValuePlan VP;
        VP.V = V;
        VP.Name = V->displayName();
        VP.RangeStr = It->second.str();
        const ValueRange &VR = It->second;
        if (V->type() == IRType::Float) {
          VP.IsFloat = true;
          if (VR.isFloatConst()) {
            // A singleton claim: the point interval, or pure NaN mass.
            double C = VR.floatValue();
            if (std::isnan(C))
              VP.NaNMass = 1.0;
            else
              VP.FPSubs.push_back(FPInterval(1.0, C, C));
          } else {
            VP.FPSubs = VR.fpIntervals();
            VP.NaNMass = VR.nanMass();
          }
        } else {
          VP.Subs = VR.subRanges();
        }
        Plan.Values.push_back(std::move(VP));
      });
      if (Plan.PredictedUnreachable || !Plan.Values.empty())
        Plans.emplace(Br, std::move(Plan));
    }
  }
}

void RangeAuditor::recordViolation(FunctionAudit &FA, const ValuePlan *VP,
                                   const BranchPlan &BP, int64_t Witness,
                                   double FWitness, bool Unreachable) {
  ++FA.Violations;
  for (AuditViolation &D : FA.Details) {
    if (D.UnreachableExecuted == Unreachable && D.Branch == BP.Loc &&
        (Unreachable || D.Value == VP->Name)) {
      ++D.Count;
      return;
    }
  }
  if (FA.Details.size() >= MaxDetailsPerFunction)
    return; // The Violations total keeps counting past the detail cap.
  AuditViolation D;
  D.Branch = BP.Loc;
  D.Count = 1;
  D.UnreachableExecuted = Unreachable;
  if (!Unreachable) {
    D.Value = VP->Name;
    D.Range = VP->RangeStr;
    D.FloatWitness = VP->IsFloat;
    if (VP->IsFloat)
      D.FWitness = FWitness;
    else
      D.Witness = Witness;
  }
  FA.Details.push_back(std::move(D));
}

void RangeAuditor::branchExecuted(const Function &F, const CondBrInst *Branch,
                                  bool Taken, const FrameValues &Values) {
  (void)F;
  (void)Taken;
  auto It = Plans.find(Branch);
  if (It == Plans.end())
    return;
  const BranchPlan &BP = It->second;
  FunctionAudit &FA = Functions[BP.FnIdx];
  if (BP.PredictedUnreachable) {
    ++FA.Checked;
    recordViolation(FA, nullptr, BP, 0, 0.0, /*Unreachable=*/true);
  }
  for (const ValuePlan &VP : BP.Values) {
    if (VP.IsFloat) {
      std::optional<double> V = Values.floatValue(VP.V);
      if (!V)
        continue;
      ++FA.Checked;
      if (!containsFP(VP.FPSubs, VP.NaNMass, *V))
        recordViolation(FA, &VP, BP, 0, *V, /*Unreachable=*/false);
      continue;
    }
    std::optional<int64_t> V = Values.intValue(VP.V);
    if (!V)
      continue;
    ++FA.Checked;
    if (!contains(VP.Subs, *V))
      recordViolation(FA, &VP, BP, *V, 0.0, /*Unreachable=*/false);
  }
}

AuditReport RangeAuditor::takeReport() {
  AuditReport R;
  R.Functions = std::move(Functions);
  Functions.clear();
  Plans.clear();
  telemetry::count(telemetry::Counter::AuditChecks, R.totalChecks());
  telemetry::count(telemetry::Counter::SoundnessViolations,
                   R.totalViolations());
  return R;
}

namespace {

/// First value in block order whose range the audit would check. The
/// corruption machinery replaces the range with an out-of-hull int
/// singleton, so only int-domain targets qualify.
const Value *findCorruptTarget(const Function &F,
                               const FunctionVRPResult &VRP) {
  if (VRP.Degraded)
    return nullptr;
  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->instructions()) {
      const auto *Br = dyn_cast<CondBrInst>(I.get());
      if (!Br)
        continue;
      const Value *Target = nullptr;
      forEachAuditedValue(Br, [&](const Value *V) {
        if (Target)
          return;
        auto It = VRP.Ranges.find(V);
        if (It != VRP.Ranges.end() &&
            auditable(V, It->second, /*AllowFloat=*/false))
          Target = V;
      });
      if (Target)
        return Target;
    }
  }
  return nullptr;
}

} // namespace

bool vrp::audit::canCorruptRange(const Function &F,
                                 const FunctionVRPResult &VRP) {
  return findCorruptTarget(F, VRP) != nullptr;
}

bool vrp::audit::corruptRangeForTesting(const Function &F,
                                        FunctionVRPResult &VRP) {
  const Value *Target = findCorruptTarget(F, VRP);
  if (!Target)
    return false;
  const std::vector<SubRange> &Subs = VRP.Ranges[Target].subRanges();
  int64_t Lo = Int64Max, Hi = Int64Min;
  for (const SubRange &S : Subs) {
    Lo = std::min(Lo, S.Lo.Offset);
    Hi = std::max(Hi, S.Hi.Offset);
  }
  // A witness singleton just outside the original hull: any in-range
  // observation then violates. A full-width hull leaves only a
  // best-effort point.
  int64_t W = Lo > Int64Min ? Lo - 1 : (Hi < Int64Max ? Hi + 1 : Lo);
  RangeArena::Scope ArenaScope(VRP.Arena);
  VRP.Ranges[Target] = ValueRange::intConstant(W);
  return true;
}
