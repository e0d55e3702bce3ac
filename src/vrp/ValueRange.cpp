//===- vrp/ValueRange.cpp - Weighted value range lattice -------------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "vrp/ValueRange.h"

#include "ir/Instruction.h"
#include "support/Casting.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <tuple>

using namespace vrp;

std::string Bound::str() const {
  if (isNumeric())
    return std::to_string(Offset);
  std::string S = Sym->displayName();
  if (Offset > 0)
    S += "+" + std::to_string(Offset);
  else if (Offset < 0)
    S += std::to_string(Offset);
  return S;
}

std::string SubRange::str() const {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.4g", Prob);
  return std::string(Buf) + "[" + Lo.str() + ":" + Hi.str() + ":" +
         std::to_string(Stride) + "]";
}

double vrp::totalProb(const std::vector<SubRange> &Subs) {
  double Total = 0.0;
  for (const SubRange &S : Subs)
    Total += S.Prob;
  return Total;
}

double vrp::totalProb(const SubRangeView &Subs) {
  const RangeArena::Rows &R = Subs.rawRows();
  double Total = 0.0;
  for (uint32_t I = 0; I < R.Count; ++I)
    Total += R.Prob[I];
  return Total;
}

namespace {

/// Pointer-free total order on bound symbols: numeric first, then
/// constants by value, params by index, instructions by dense id. Heap
/// addresses would also be a total order, but one that varies from
/// process to process — and the canonical form must serialize identically
/// across runs (analysis/PersistentCache round trips).
std::tuple<int, int64_t, uint64_t> symRank(const Value *Sym) {
  if (!Sym)
    return {0, 0, 0};
  if (const auto *C = dyn_cast<Constant>(Sym)) {
    if (C->isInt())
      return {1, C->intValue(), 0};
    uint64_t Bits = 0;
    double D = C->floatValue();
    std::memcpy(&Bits, &D, sizeof(Bits));
    return {2, 0, Bits};
  }
  if (const auto *P = dyn_cast<Param>(Sym))
    return {3, P->index(), 0};
  return {4, cast<Instruction>(Sym)->id(), 0};
}

/// Deterministic subrange ordering for canonical form.
bool subRangeLess(const SubRange &A, const SubRange &B) {
  auto Key = [](const SubRange &S) {
    return std::tuple(symRank(S.Lo.Sym), S.Lo.Offset, symRank(S.Hi.Sym),
                      S.Hi.Offset, S.Stride);
  };
  return Key(A) < Key(B);
}

/// subRangeLess restricted to all-numeric rows: symRank(nullptr) is the
/// constant minimum {0,0,0}, so the symbol components of the key compare
/// equal and the order reduces to (Lo.Offset, Hi.Offset, Stride). Sorting
/// with this comparator yields comparison outcomes identical to
/// subRangeLess — and therefore an identical permutation — without
/// constructing a symRank tuple per comparison.
bool numericSubRangeLess(const SubRange &A, const SubRange &B) {
  return std::tuple(A.Lo.Offset, A.Hi.Offset, A.Stride) <
         std::tuple(B.Lo.Offset, B.Hi.Offset, B.Stride);
}

/// True when the numeric subrange is internally consistent.
bool isValidNumeric(const SubRange &S) {
  if (S.Lo.Offset > S.Hi.Offset)
    return false;
  if (S.Stride == 0)
    return S.Lo.Offset == S.Hi.Offset;
  if (S.Stride < 0)
    return false;
  __int128 Span = static_cast<__int128>(S.Hi.Offset) - S.Lo.Offset;
  return Span % S.Stride == 0;
}

/// Merges two numeric subranges into their strided convex hull.
SubRange hullMerge(const SubRange &A, const SubRange &B) {
  int64_t Lo = std::min(A.Lo.Offset, B.Lo.Offset);
  int64_t Hi = std::max(A.Hi.Offset, B.Hi.Offset);
  int64_t Stride = 0;
  if (Lo != Hi) {
    // Points of both ranges must lie on the new lattice Lo + k*Stride;
    // the bound separation and both strides must all be multiples.
    __int128 Sep = static_cast<__int128>(A.Lo.Offset) - B.Lo.Offset;
    if (Sep < 0)
      Sep = -Sep;
    int64_t SepGcd = Sep > Int64Max ? 1 : static_cast<int64_t>(Sep);
    Stride = strideGcd(strideGcd(A.Stride, B.Stride), SepGcd);
    __int128 Span = static_cast<__int128>(Hi) - Lo;
    if (Stride == 0 || Span % Stride != 0)
      Stride = 1;
  }
  return SubRange::numeric(A.Prob + B.Prob, Lo, Hi, Stride);
}

} // namespace

ValueRange ValueRange::canonicalize(std::vector<SubRange> &Subs,
                                    unsigned MaxSubRanges) {
  assert(MaxSubRanges >= 1 && "need at least one subrange");
  // Drop empty/invalid pieces in place, tracking whether any symbolic
  // bound survives (selects the sort comparator below).
  size_t W = 0;
  bool AllNumeric = true;
  for (size_t I = 0; I < Subs.size(); ++I) {
    SubRange S = Subs[I];
    if (S.Prob <= 0.0)
      continue;
    if (S.isNumeric()) {
      if (S.Lo.Offset == S.Hi.Offset)
        S.Stride = 0;
      if (!isValidNumeric(S))
        return bottom(); // Caller produced an inconsistent range.
    } else {
      if (S.Lo.Sym && S.Hi.Sym && S.Lo.Sym != S.Hi.Sym) {
        // Bounds relative to two different ancestors are unrepresentable.
        return bottom();
      }
      AllNumeric = false;
    }
    Subs[W++] = S;
  }
  if (W == 0)
    return bottom();
  Subs.resize(W);

  // Canonical order, then merge identical shapes. All-numeric sets take
  // the tuple-free comparator (order-equivalent to subRangeLess).
  auto Less = AllNumeric ? numericSubRangeLess : subRangeLess;
  std::sort(Subs.begin(), Subs.end(), Less);
  size_t M = 0;
  for (size_t I = 0; I < Subs.size(); ++I) {
    if (M > 0 && Subs[M - 1].sameShape(Subs[I]))
      Subs[M - 1].Prob += Subs[I].Prob;
    else
      Subs[M++] = Subs[I];
  }
  Subs.resize(M);

  // Renormalize to total probability 1.
  double Total = totalProb(Subs);
  if (Total <= 0.0)
    return bottom();
  if (std::abs(Total - 1.0) > 1e-12) {
    telemetry::count(telemetry::Counter::RangeNormalizations);
    for (SubRange &S : Subs)
      S.Prob /= Total;
  }

  // Coalesce down to the cap: repeatedly merge the numeric pair with the
  // smallest combined span increase. Symbolic subranges only merge with an
  // identical-symbol partner (handled by sameShape above); if symbolic
  // variety alone exceeds the cap the range degrades to ⊥ — the paper's
  // "give-up point".
  while (Subs.size() > MaxSubRanges) {
    int BestA = -1, BestB = -1;
    double BestCost = 0.0;
    for (size_t I = 0; I < Subs.size(); ++I) {
      if (!Subs[I].isNumeric())
        continue;
      for (size_t J = I + 1; J < Subs.size(); ++J) {
        if (!Subs[J].isNumeric())
          continue;
        double SpanI = static_cast<double>(Subs[I].Hi.Offset) -
                       static_cast<double>(Subs[I].Lo.Offset);
        double SpanJ = static_cast<double>(Subs[J].Hi.Offset) -
                       static_cast<double>(Subs[J].Lo.Offset);
        double Lo = std::min(static_cast<double>(Subs[I].Lo.Offset),
                             static_cast<double>(Subs[J].Lo.Offset));
        double Hi = std::max(static_cast<double>(Subs[I].Hi.Offset),
                             static_cast<double>(Subs[J].Hi.Offset));
        double Cost = (Hi - Lo) - SpanI - SpanJ;
        if (BestA < 0 || Cost < BestCost) {
          BestA = static_cast<int>(I);
          BestB = static_cast<int>(J);
          BestCost = Cost;
        }
      }
    }
    if (BestA < 0)
      return bottom(); // Only unmergeable symbolic pieces remain.
    SubRange Combined = hullMerge(Subs[BestA], Subs[BestB]);
    Subs.erase(Subs.begin() + BestB);
    Subs[BestA] = Combined;
    std::sort(Subs.begin(), Subs.end(), Less);
  }

  ValueRange R = interned(Subs.data(), Subs.size());
  R.assertNormalized();
  return R;
}

ValueRange ValueRange::ranges(std::vector<SubRange> Subs,
                              unsigned MaxSubRanges) {
  return canonicalize(Subs, MaxSubRanges);
}

namespace {

/// Interval width for coalescing cost; non-finite spans (an interval
/// reaching ±∞) rank behind every finite merge so bounded intervals
/// coalesce first.
double fpSpan(double Lo, double Hi) {
  double W = Hi - Lo;
  return std::isfinite(W) ? W : HUGE_VAL;
}

} // namespace

ValueRange ValueRange::canonicalizeFP(std::vector<FPInterval> &Subs,
                                      double NaNMass,
                                      unsigned MaxSubRanges) {
  assert(MaxSubRanges >= 1 && "need at least one interval");
  if (NaNMass < 0.0 || std::isnan(NaNMass))
    NaNMass = 0.0;
  // Clean in place: drop non-positive mass, fold NaN-bounded pieces into
  // the NaN mass (a kernel that produces a NaN bound means the pair's
  // outcome is NaN), normalize -0.0 bounds to +0.0 so canonical content
  // is unique and the sort below is bitwise deterministic.
  size_t W = 0;
  for (size_t I = 0; I < Subs.size(); ++I) {
    FPInterval S = Subs[I];
    if (!(S.Prob > 0.0))
      continue;
    if (std::isnan(S.Lo) || std::isnan(S.Hi)) {
      NaNMass += S.Prob;
      continue;
    }
    S.Lo += 0.0;
    S.Hi += 0.0;
    if (S.Lo > S.Hi)
      return bottom(); // Caller produced an inconsistent interval.
    Subs[W++] = S;
  }
  Subs.resize(W);

  if (Subs.empty()) {
    if (!(NaNMass > 0.0))
      return bottom();
    // The pure-NaN range: no intervals, all mass on NaN.
    return internedFP(nullptr, 0, 1.0);
  }

  // Canonical order (no NaNs or -0.0 remain, so < is a total order),
  // then merge identical shapes.
  std::sort(Subs.begin(), Subs.end(),
            [](const FPInterval &A, const FPInterval &B) {
              return std::tie(A.Lo, A.Hi) < std::tie(B.Lo, B.Hi);
            });
  size_t M = 0;
  for (size_t I = 0; I < Subs.size(); ++I) {
    if (M > 0 && Subs[M - 1].Lo == Subs[I].Lo && Subs[M - 1].Hi == Subs[I].Hi)
      Subs[M - 1].Prob += Subs[I].Prob;
    else
      Subs[M++] = Subs[I];
  }
  Subs.resize(M);

  // Renormalize interval mass and NaN mass jointly to total 1.
  double Total = NaNMass;
  for (const FPInterval &S : Subs)
    Total += S.Prob;
  if (Total <= 0.0)
    return bottom();
  if (std::abs(Total - 1.0) > 1e-12) {
    telemetry::count(telemetry::Counter::RangeNormalizations);
    for (FPInterval &S : Subs)
      S.Prob /= Total;
    NaNMass /= Total;
  }

  // Coalesce down to the cap: repeatedly hull-merge the adjacent pair
  // with the smallest gap (sorted order makes adjacent merges optimal —
  // there are no strides to preserve).
  while (Subs.size() > MaxSubRanges) {
    size_t Best = 0;
    double BestCost = HUGE_VAL;
    for (size_t I = 0; I + 1 < Subs.size(); ++I) {
      double Hull = fpSpan(Subs[I].Lo, std::max(Subs[I].Hi, Subs[I + 1].Hi));
      double Cost = Hull - fpSpan(Subs[I].Lo, Subs[I].Hi) -
                    fpSpan(Subs[I + 1].Lo, Subs[I + 1].Hi);
      if (!std::isfinite(Cost))
        Cost = HUGE_VAL;
      if (Cost < BestCost) {
        Best = I;
        BestCost = Cost;
      }
    }
    Subs[Best] = FPInterval(Subs[Best].Prob + Subs[Best + 1].Prob,
                            Subs[Best].Lo,
                            std::max(Subs[Best].Hi, Subs[Best + 1].Hi));
    Subs.erase(Subs.begin() + Best + 1);
    std::sort(Subs.begin(), Subs.end(),
              [](const FPInterval &A, const FPInterval &B) {
                return std::tie(A.Lo, A.Hi) < std::tie(B.Lo, B.Hi);
              });
  }

  // An exact non-NaN singleton demotes to the FloatConst lattice level.
  if (Subs.size() == 1 && Subs[0].Lo == Subs[0].Hi && !(NaNMass > 0.0))
    return floatConstant(Subs[0].Lo);

  ValueRange R = internedFP(Subs.data(), Subs.size(), NaNMass);
  R.assertNormalized();
  return R;
}

ValueRange ValueRange::floatRanges(std::vector<FPInterval> Subs,
                                   double NaNMass, unsigned MaxSubRanges) {
  return canonicalizeFP(Subs, NaNMass, MaxSubRanges);
}

ValueRange ValueRange::interned(const SubRange *Subs, size_t N) {
  RangeArena &A = RangeArena::current();
  ValueRange R;
  R.TheKind = Kind::Ranges;
  R.Arena = &A;
  R.SliceId = A.intern(Subs, static_cast<uint32_t>(N));
  return R;
}

ValueRange ValueRange::internedFP(const FPInterval *Subs, size_t N,
                                  double NaNMass) {
  RangeArena &A = RangeArena::current();
  ValueRange R;
  R.TheKind = Kind::FloatRanges;
  R.Arena = &A;
  R.SliceId = A.internFP(Subs, static_cast<uint32_t>(N), NaNMass);
  return R;
}

ValueRange ValueRange::intConstant(int64_t V) {
  // Interned directly: historically this constructor bypassed ranges()'s
  // normalization pipeline, and the canonical single row needs none.
  SubRange S = SubRange::singleton(1.0, V);
  return interned(&S, 1);
}

ValueRange ValueRange::fullIntRange() {
  SubRange S = SubRange::numeric(1.0, Int64Min, Int64Max, 1);
  return interned(&S, 1);
}

ValueRange ValueRange::weightedBool(double ProbTrue) {
  ProbTrue = std::clamp(ProbTrue, 0.0, 1.0);
  std::vector<SubRange> Subs;
  if (ProbTrue < 1.0)
    Subs.push_back(SubRange::singleton(1.0 - ProbTrue, 0));
  if (ProbTrue > 0.0)
    Subs.push_back(SubRange::singleton(ProbTrue, 1));
  return ranges(std::move(Subs), 2);
}

std::optional<int64_t> ValueRange::asIntConstant() const {
  if (TheKind != Kind::Ranges || SliceId == 0)
    return std::nullopt;
  RangeArena::Rows R = Arena->rows(SliceId);
  if (R.Count != 1 || R.LoSym[0] || R.HiSym[0])
    return std::nullopt;
  if (R.LoOff[0] != R.HiOff[0])
    return std::nullopt;
  return R.LoOff[0];
}

const Value *ValueRange::asCopyOf() const {
  if (TheKind != Kind::Ranges || SliceId == 0)
    return nullptr;
  RangeArena::Rows R = Arena->rows(SliceId);
  if (R.Count != 1)
    return nullptr;
  if (R.LoSym[0] && R.LoSym[0] == R.HiSym[0] && R.LoOff[0] == 0 &&
      R.HiOff[0] == 0)
    return R.LoSym[0];
  return nullptr;
}

bool ValueRange::rowsMatch(const ValueRange &RHS,
                           double ProbTolerance) const {
  SubRangeView VA = subRanges();
  SubRangeView VB = RHS.subRanges();
  const RangeArena::Rows &A = VA.rawRows();
  const RangeArena::Rows &B = VB.rawRows();
  if (A.Count != B.Count)
    return false;
  for (uint32_t I = 0; I < A.Count; ++I) {
    if (A.LoOff[I] != B.LoOff[I] || A.HiOff[I] != B.HiOff[I] ||
        A.Stride[I] != B.Stride[I] || A.LoSym[I] != B.LoSym[I] ||
        A.HiSym[I] != B.HiSym[I])
      return false;
    if (ProbTolerance >= 0.0 &&
        std::abs(A.Prob[I] - B.Prob[I]) > ProbTolerance)
      return false;
  }
  return true;
}

bool ValueRange::equals(const ValueRange &RHS, double Tolerance) const {
  if (TheKind != RHS.TheKind || DistKnown != RHS.DistKnown)
    return false;
  switch (TheKind) {
  case Kind::Top:
  case Kind::Bottom:
    return true;
  case Kind::FloatConst:
    return FloatVal == RHS.FloatVal;
  case Kind::FloatRanges: {
    if (sameSlice(RHS))
      return true; // Interned: same slice, bitwise-identical content.
    FPIntervalView A = fpIntervals();
    FPIntervalView B = RHS.fpIntervals();
    if (A.size() != B.size())
      return false;
    if (std::abs(A.nanMass() - B.nanMass()) > Tolerance)
      return false;
    for (size_t I = 0; I < A.size(); ++I) {
      if (A[I].Lo != B[I].Lo || A[I].Hi != B[I].Hi)
        return false;
      if (std::abs(A[I].Prob - B[I].Prob) > Tolerance)
        return false;
    }
    return true;
  }
  case Kind::Ranges:
    break;
  }
  if (sameSlice(RHS))
    return true; // Interned: same slice, bitwise-identical content.
  return rowsMatch(RHS, Tolerance);
}

bool ValueRange::sameSupport(const ValueRange &RHS) const {
  if (TheKind != RHS.TheKind || DistKnown != RHS.DistKnown)
    return false;
  if (TheKind == Kind::FloatConst)
    return FloatVal == RHS.FloatVal;
  if (TheKind == Kind::FloatRanges) {
    if (sameSlice(RHS))
      return true;
    FPIntervalView A = fpIntervals();
    FPIntervalView B = RHS.fpIntervals();
    if (A.size() != B.size())
      return false;
    // NaN is part of the support exactly when its mass is positive.
    if ((A.nanMass() > 0.0) != (B.nanMass() > 0.0))
      return false;
    for (size_t I = 0; I < A.size(); ++I)
      if (A[I].Lo != B[I].Lo || A[I].Hi != B[I].Hi)
        return false;
    return true;
  }
  if (TheKind != Kind::Ranges)
    return true;
  return sameSlice(RHS) || rowsMatch(RHS, -1.0);
}

std::optional<double> ValueRange::probNonZero() const {
  switch (TheKind) {
  case Kind::Top:
  case Kind::Bottom:
    return std::nullopt;
  case Kind::FloatConst:
    return FloatVal != 0.0 ? 1.0 : 0.0;
  case Kind::FloatRanges:
    // FP values never feed an integer truth test directly in this IR
    // (comparisons produce int booleans); stay conservative.
    return std::nullopt;
  case Kind::Ranges:
    break;
  }
  double P = 0.0;
  for (const SubRange &S : subRanges()) {
    if (!S.isNumeric()) {
      // A symbolic subrange may or may not contain zero; unknown overall.
      return std::nullopt;
    }
    if (S.Lo.Offset > 0 || S.Hi.Offset < 0) {
      P += S.Prob;
      continue;
    }
    // Zero lies within the numeric hull; check lattice membership.
    int64_t Count = *S.count();
    bool ContainsZero = onLattice(S.Lo.Offset, S.Stride, 0);
    if (ContainsZero)
      P += S.Prob * (static_cast<double>(Count - 1) / Count);
    else
      P += S.Prob;
  }
  return P;
}

void ValueRange::assertNormalized(double Epsilon) const {
  if (TheKind == Kind::FloatRanges) {
    FPIntervalView V = fpIntervals();
    double Total = V.nanMass();
    for (size_t I = 0; I < V.size(); ++I)
      Total += V[I].Prob;
    assert(std::abs(Total - 1.0) <= Epsilon &&
           "FP probability mass not conserved");
    (void)Total;
    (void)Epsilon;
    return;
  }
  if (TheKind != Kind::Ranges)
    return;
  assert(std::abs(totalProb(subRanges()) - 1.0) <= Epsilon &&
         "probability mass not conserved");
  (void)Epsilon;
}

std::string ValueRange::str() const {
  switch (TheKind) {
  case Kind::Top:
    return "T";
  case Kind::Bottom:
    return "_|_";
  case Kind::FloatConst: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%g", FloatVal);
    return std::string("fconst ") + Buf;
  }
  case Kind::FloatRanges: {
    FPIntervalView V = fpIntervals();
    std::string S = "f{ ";
    char Buf[96];
    for (size_t I = 0; I < V.size(); ++I) {
      if (I)
        S += ", ";
      std::snprintf(Buf, sizeof(Buf), "%.4g[%g:%g]", V[I].Prob, V[I].Lo,
                    V[I].Hi);
      S += Buf;
    }
    if (V.nanMass() > 0.0) {
      if (!V.empty())
        S += ", ";
      std::snprintf(Buf, sizeof(Buf), "%.4g[nan]", V.nanMass());
      S += Buf;
    }
    S += " }";
    if (!DistKnown)
      S += "?";
    return S;
  }
  case Kind::Ranges:
    break;
  }
  std::string S = "{ ";
  SubRangeView Subs = subRanges();
  for (size_t I = 0; I < Subs.size(); ++I) {
    if (I)
      S += ", ";
    S += Subs[I].str();
  }
  S += " }";
  if (!DistKnown)
    S += "?"; // Set valid, distribution unknown.
  return S;
}
