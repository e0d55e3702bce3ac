//===- vrp/RangeOps.cpp - Arithmetic on weighted value ranges --------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "vrp/RangeOps.h"

#include "support/Telemetry.h"
#include "vrp/RangeArena.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace vrp;

//===----------------------------------------------------------------------===//
// Small numeric helpers
//===----------------------------------------------------------------------===//

int64_t vrp::pointsBelow(const SubRange &S, int64_t C) {
  assert(S.isNumeric() && "pointsBelow needs a numeric subrange");
  if (C <= S.Lo.Offset)
    return 0;
  int64_t Count = *S.count();
  if (C > S.Hi.Offset)
    return Count;
  if (S.Stride == 0)
    return S.Lo.Offset < C ? 1 : 0;
  // Points Lo + i*Stride < C  <=>  i <= (C - Lo - 1) / Stride.
  __int128 Span = static_cast<__int128>(C) - 1 - S.Lo.Offset;
  __int128 N = Span / S.Stride + 1;
  return N > Count ? Count : static_cast<int64_t>(N);
}

namespace {

/// Extended gcd: returns g and x,y with a*x + b*y == g.
int64_t extendedGcd(int64_t A, int64_t B, int64_t &X, int64_t &Y) {
  if (B == 0) {
    X = 1;
    Y = 0;
    return A;
  }
  int64_t X1, Y1;
  int64_t G = extendedGcd(B, A % B, X1, Y1);
  X = Y1;
  Y = X1 - (A / B) * Y1;
  return G;
}

/// Aligns \p Hi down onto the lattice Lo + k*Stride (Stride > 0). All
/// arithmetic in 128 bits: spans over near-full int64 ranges overflow the
/// intermediate otherwise (the result itself always fits).
int64_t alignDown(int64_t Lo, int64_t Stride, int64_t Hi) {
  __int128 Span = static_cast<__int128>(Hi) - Lo;
  __int128 Aligned = static_cast<__int128>(Lo) + (Span / Stride) * Stride;
  return static_cast<int64_t>(Aligned);
}

/// Aligns \p Lo up onto the lattice with anchor Hi - k*Stride (Stride > 0).
int64_t alignUp(int64_t Hi, int64_t Stride, int64_t Lo) {
  __int128 Span = static_cast<__int128>(Hi) - Lo;
  __int128 Aligned = static_cast<__int128>(Hi) - (Span / Stride) * Stride;
  return static_cast<int64_t>(Aligned);
}

/// Builds a numeric subrange after clamping/validating the stride.
SubRange makePiece(double Prob, int64_t Lo, int64_t Hi, int64_t Stride) {
  if (Lo == Hi)
    return SubRange::numeric(Prob, Lo, Hi, 0);
  if (Stride <= 0)
    Stride = 1;
  __int128 Span = static_cast<__int128>(Hi) - Lo;
  if (Span % Stride != 0)
    Stride = 1;
  return SubRange::numeric(Prob, Lo, Hi, Stride);
}

/// Combines two bounds for addition; fails when both are symbolic.
bool addBounds(const Bound &A, const Bound &B, Bound &Out) {
  if (A.Sym && B.Sym)
    return false;
  Out = Bound(A.Sym ? A.Sym : B.Sym, saturatingAdd(A.Offset, B.Offset));
  return true;
}

/// Combines bounds for subtraction A - B; same-symbol bounds cancel.
bool subBounds(const Bound &A, const Bound &B, Bound &Out) {
  if (B.Sym) {
    if (A.Sym != B.Sym)
      return false;
    Out = Bound(saturatingSub(A.Offset, B.Offset)); // Symbols cancel.
    return true;
  }
  Out = Bound(A.Sym, saturatingSub(A.Offset, B.Offset));
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Pairwise arithmetic kernels
//===----------------------------------------------------------------------===//

bool RangeOps::pairAdd(const SubRange &A, const SubRange &B,
                       std::vector<SubRange> &Out) {
  Bound Lo, Hi;
  if (!addBounds(A.Lo, B.Lo, Lo) || !addBounds(A.Hi, B.Hi, Hi))
    return false;
  int64_t Stride = strideGcd(A.Stride, B.Stride);
  if (Lo.isNumeric() && Hi.isNumeric()) {
    Out.push_back(makePiece(A.Prob * B.Prob, Lo.Offset, Hi.Offset, Stride));
  } else {
    if (Lo == Hi)
      Stride = 0;
    else if (Stride == 0)
      Stride = 1;
    Out.push_back(SubRange(A.Prob * B.Prob, Lo, Hi, Stride));
  }
  return true;
}

bool RangeOps::pairSub(const SubRange &A, const SubRange &B,
                       std::vector<SubRange> &Out) {
  Bound Lo, Hi;
  if (!subBounds(A.Lo, B.Hi, Lo) || !subBounds(A.Hi, B.Lo, Hi))
    return false;
  int64_t Stride = strideGcd(A.Stride, B.Stride);
  if (Lo.isNumeric() && Hi.isNumeric()) {
    if (Lo.Offset > Hi.Offset)
      return false; // Mixed symbolic cancellation produced nonsense.
    Out.push_back(makePiece(A.Prob * B.Prob, Lo.Offset, Hi.Offset, Stride));
  } else {
    if (Lo == Hi)
      Stride = 0;
    else if (Stride == 0)
      Stride = 1;
    Out.push_back(SubRange(A.Prob * B.Prob, Lo, Hi, Stride));
  }
  return true;
}

bool RangeOps::pairMul(const SubRange &A, const SubRange &B,
                       std::vector<SubRange> &Out) {
  double Prob = A.Prob * B.Prob;
  // Symbolic operands only survive multiplication by 0 or 1.
  if (!A.isNumeric() || !B.isNumeric()) {
    const SubRange &Sym = A.isNumeric() ? B : A;
    const SubRange &Num = A.isNumeric() ? A : B;
    if (!Num.isNumeric() || !Num.isSingleton())
      return false;
    if (Num.Lo.Offset == 0) {
      Out.push_back(SubRange::singleton(Prob, 0));
      return true;
    }
    if (Num.Lo.Offset == 1) {
      SubRange Copy = Sym;
      Copy.Prob = Prob;
      Out.push_back(Copy);
      return true;
    }
    return false;
  }

  int64_t Corners[4] = {
      saturatingMul(A.Lo.Offset, B.Lo.Offset),
      saturatingMul(A.Lo.Offset, B.Hi.Offset),
      saturatingMul(A.Hi.Offset, B.Lo.Offset),
      saturatingMul(A.Hi.Offset, B.Hi.Offset),
  };
  int64_t Lo = *std::min_element(Corners, Corners + 4);
  int64_t Hi = *std::max_element(Corners, Corners + 4);

  int64_t Stride = 1;
  if (B.isSingleton())
    Stride = saturatingMul(A.Stride, saturatingAbs(B.Lo.Offset));
  else if (A.isSingleton())
    Stride = saturatingMul(B.Stride, saturatingAbs(A.Lo.Offset));
  Out.push_back(makePiece(Prob, Lo, Hi, Stride));
  return true;
}

bool RangeOps::pairDiv(const SubRange &A, const SubRange &B,
                       std::vector<SubRange> &Out) {
  if (!A.isNumeric() || !B.isNumeric())
    return false;
  double Prob = A.Prob * B.Prob;

  // Divisor candidates: extremes plus the smallest-magnitude nonzero
  // values; zero divisors are undefined and force ⊥ (singleton zero) or
  // are excluded (ranges straddling zero).
  std::vector<int64_t> Divisors;
  auto addDivisor = [&](int64_t D) {
    if (D != 0 && D >= B.Lo.Offset && D <= B.Hi.Offset)
      Divisors.push_back(D);
  };
  addDivisor(B.Lo.Offset);
  addDivisor(B.Hi.Offset);
  addDivisor(-1);
  addDivisor(1);
  if (Divisors.empty())
    return false; // Only zero available: division undefined.

  // Exact fast path: positive singleton divisor that preserves the lattice.
  if (B.isSingleton()) {
    int64_t C = B.Lo.Offset;
    if (C > 0 && A.Lo.Offset >= 0 && A.Stride % C == 0 &&
        A.Lo.Offset % C == 0) {
      Out.push_back(makePiece(Prob, A.Lo.Offset / C, A.Hi.Offset / C,
                              A.Stride / C));
      return true;
    }
  }

  int64_t Lo = Int64Max, Hi = Int64Min;
  for (int64_t Dividend : {A.Lo.Offset, A.Hi.Offset}) {
    for (int64_t Divisor : Divisors) {
      // C++ trunc division; Int64Min / -1 overflows.
      int64_t Q = (Dividend == Int64Min && Divisor == -1)
                      ? Int64Max
                      : Dividend / Divisor;
      Lo = std::min(Lo, Q);
      Hi = std::max(Hi, Q);
    }
  }
  // Trunc division can also produce 0 whenever |dividend| < |divisor|.
  if (A.Lo.Offset <= 0 && A.Hi.Offset >= 0) {
    Lo = std::min<int64_t>(Lo, 0);
    Hi = std::max<int64_t>(Hi, 0);
  }
  Out.push_back(makePiece(Prob, Lo, Hi, 1));
  return true;
}

bool RangeOps::pairRem(const SubRange &A, const SubRange &B,
                       std::vector<SubRange> &Out) {
  if (!A.isNumeric() || !B.isNumeric())
    return false;
  double Prob = A.Prob * B.Prob;
  // A divisor that can only be zero is undefined: ⊥. A range that merely
  // spans zero keeps its nonzero values — undefined executions contribute
  // no outcomes, mirroring pairDiv's exclusion of zero divisors.
  if (B.isSingleton() && B.Lo.Offset == 0)
    return false; // x % 0.
  // Largest inclusive remainder magnitude: |r| <= |b| - 1 <= MaxMag. When
  // the divisor can be Int64Min, |b| - 1 is exactly Int64Max; computing it
  // through saturatingAbs would silently understate the bound by one
  // (|Int64Min| saturates to Int64Max), so that case is taken directly.
  int64_t MaxMag =
      B.Lo.Offset == Int64Min
          ? Int64Max
          : std::max(saturatingAbs(B.Lo.Offset),
                     saturatingAbs(B.Hi.Offset)) -
                1;
  // C semantics: result sign follows the dividend; |result| <= MaxMag.
  if (A.Lo.Offset >= 0 && A.Hi.Offset <= MaxMag && B.isSingleton()) {
    // Entirely within one period: identity (also exact for b = Int64Min,
    // where x % b == x for every representable non-negative x).
    Out.push_back(A.withProb(Prob));
    return true;
  }
  if (B.isSingleton() && A.Lo.Offset >= 0) {
    int64_t C = saturatingAbs(B.Lo.Offset);
    if (A.Stride > 0 && A.Stride % C == 0) {
      // All lattice points congruent: single value.
      Out.push_back(SubRange::singleton(Prob, A.Lo.Offset % C));
      return true;
    }
    int64_t G = A.Stride > 0 ? strideGcd(A.Stride, C) : 0;
    if (G > 1) {
      // Residues stay congruent to Lo modulo gcd(stride, modulus).
      int64_t First = A.Lo.Offset % G;
      int64_t Last = First + ((C - 1 - First) / G) * G;
      Out.push_back(makePiece(Prob, First, std::min(Last, C - 1), G));
      return true;
    }
    Out.push_back(
        makePiece(Prob, 0, std::min(A.Hi.Offset, C - 1), 1));
    return true;
  }
  // General case: |result| <= MaxMag, result sign follows the dividend,
  // and the result magnitude never exceeds the dividend magnitude.
  int64_t Lo = A.Lo.Offset >= 0 ? 0 : std::max(A.Lo.Offset, -MaxMag);
  int64_t Hi = A.Hi.Offset <= 0 ? 0 : std::min(A.Hi.Offset, MaxMag);
  Out.push_back(makePiece(Prob, Lo, Hi, 1));
  return true;
}

namespace {

/// Stride of a lattice containing the points of both subranges: the two
/// lattices must agree modulo the result, which also requires their
/// anchors' separation to be a multiple.
int64_t unionStride(const SubRange &A, const SubRange &B) {
  __int128 Sep = static_cast<__int128>(A.Lo.Offset) - B.Lo.Offset;
  if (Sep < 0)
    Sep = -Sep;
  int64_t SepG = Sep > Int64Max ? 1 : static_cast<int64_t>(Sep);
  return strideGcd(strideGcd(A.Stride, B.Stride), SepG);
}

} // namespace

bool RangeOps::pairMin(const SubRange &A, const SubRange &B,
                       std::vector<SubRange> &Out) {
  if (!A.isNumeric() || !B.isNumeric())
    return false;
  // min(a, b) is always one of a's or b's values, so the result lattice
  // must cover the union of both lattices.
  int64_t Lo = std::min(A.Lo.Offset, B.Lo.Offset);
  int64_t Hi = std::min(A.Hi.Offset, B.Hi.Offset);
  Out.push_back(makePiece(A.Prob * B.Prob, Lo, Hi, unionStride(A, B)));
  return true;
}

bool RangeOps::pairMax(const SubRange &A, const SubRange &B,
                       std::vector<SubRange> &Out) {
  if (!A.isNumeric() || !B.isNumeric())
    return false;
  int64_t Lo = std::max(A.Lo.Offset, B.Lo.Offset);
  int64_t Hi = std::max(A.Hi.Offset, B.Hi.Offset);
  Out.push_back(makePiece(A.Prob * B.Prob, Lo, Hi, unionStride(A, B)));
  return true;
}

//===----------------------------------------------------------------------===//
// Binary operation framework
//===----------------------------------------------------------------------===//

namespace {

/// Floating-point kernel tags: select the scalar fold (foldFloatScalar,
/// fpPairArith) and the unary kernel (fpUnary).
enum : uint8_t {
  TagFAdd = 1,
  TagFSub,
  TagFMul,
  TagFDiv,
  TagFMin,
  TagFMax,
  TagFNeg,
  TagFAbs,
};

} // namespace

ValueRange RangeOps::binaryNumeric(
    const ValueRange &L, const ValueRange &R,
    bool (RangeOps::*PairOp)(const SubRange &, const SubRange &,
                             std::vector<SubRange> &)) {
  if (L.isBottom() || R.isBottom())
    return ValueRange::bottom();
  if (L.isTop() || R.isTop())
    return ValueRange::top();
  if (!L.isRanges() || !R.isRanges())
    return ValueRange::bottom();
  const RangeArena &Arena = RangeArena::global();
  RangeArena::Rows LRows = Arena.rows(L.sliceId());
  RangeArena::Rows RRows = Arena.rows(R.sliceId());
  Scratch.clear();
  const bool Fast = LRows.AllNumeric && RRows.AllNumeric;
  telemetry::count(Fast ? telemetry::Counter::RangeKernelFastPath
                        : telemetry::Counter::RangeKernelSlowPath);
  if (Fast) {
    // All-numeric batch: iterate the SoA columns directly; bounds are
    // built numeric with no symbol-table resolution.
    for (uint32_t I = 0; I < LRows.Count; ++I) {
      SubRange A(LRows.Prob[I], Bound(LRows.LoOff[I]),
                 Bound(LRows.HiOff[I]), LRows.Stride[I]);
      for (uint32_t J = 0; J < RRows.Count; ++J) {
        SubRange B(RRows.Prob[J], Bound(RRows.LoOff[J]),
                   Bound(RRows.HiOff[J]), RRows.Stride[J]);
        ++Stats.SubOps;
        if (!(this->*PairOp)(A, B, Scratch))
          return ValueRange::bottom();
      }
    }
  } else {
    for (uint32_t I = 0; I < LRows.Count; ++I) {
      SubRange A(LRows.Prob[I],
                 Bound(Arena.symValue(LRows.LoSym[I]), LRows.LoOff[I]),
                 Bound(Arena.symValue(LRows.HiSym[I]), LRows.HiOff[I]),
                 LRows.Stride[I]);
      for (uint32_t J = 0; J < RRows.Count; ++J) {
        SubRange B(RRows.Prob[J],
                   Bound(Arena.symValue(RRows.LoSym[J]), RRows.LoOff[J]),
                   Bound(Arena.symValue(RRows.HiSym[J]), RRows.HiOff[J]),
                   RRows.Stride[J]);
        ++Stats.SubOps;
        if (!(this->*PairOp)(A, B, Scratch))
          return ValueRange::bottom();
      }
    }
  }
  ValueRange Result = ValueRange::canonicalize(Scratch, Opts.MaxSubRanges);
  Result.setDistributionKnown(L.distributionKnown() &&
                              R.distributionKnown());
  return Result;
}

namespace {

/// Exact scalar semantics of a float binary op, matching the interpreter
/// (profile/Interpreter.cpp) bit for bit: language division defines
/// x / 0.0 == 0.0, and min/max are `(b < a) ? b : a`-style selections
/// (std::min/std::max), so a NaN *left* operand propagates while a NaN
/// *right* operand selects the left value.
double foldFloatScalar(uint8_t Tag, double A, double B) {
  switch (Tag) {
  case TagFAdd:
    return A + B;
  case TagFSub:
    return A - B;
  case TagFMul:
    return A * B;
  case TagFDiv:
    return B == 0.0 ? 0.0 : A / B;
  case TagFMin:
    return std::min(A, B);
  case TagFMax:
    return std::max(A, B);
  }
  return 0.0;
}

} // namespace

ValueRange RangeOps::add(const ValueRange &L, const ValueRange &R) {
  if (L.isFloatKind() || R.isFloatKind())
    return fpBinary(TagFAdd, L, R);
  return binaryNumeric(L, R, &RangeOps::pairAdd);
}

ValueRange RangeOps::sub(const ValueRange &L, const ValueRange &R) {
  if (L.isFloatKind() || R.isFloatKind())
    return fpBinary(TagFSub, L, R);
  return binaryNumeric(L, R, &RangeOps::pairSub);
}

ValueRange RangeOps::mul(const ValueRange &L, const ValueRange &R) {
  if (L.isFloatKind() || R.isFloatKind())
    return fpBinary(TagFMul, L, R);
  return binaryNumeric(L, R, &RangeOps::pairMul);
}

ValueRange RangeOps::div(const ValueRange &L, const ValueRange &R) {
  if (L.isFloatKind() || R.isFloatKind())
    return fpBinary(TagFDiv, L, R);
  return binaryNumeric(L, R, &RangeOps::pairDiv);
}

ValueRange RangeOps::rem(const ValueRange &L, const ValueRange &R) {
  // Even a statically unknown dividend has a known result *set*:
  // |x % c| < |c| (C semantics). The distribution stays unknown.
  if (L.isBottom() && R.isRanges()) {
    if (auto C = R.asIntConstant()) {
      if (*C != 0 && *C != Int64Min) {
        int64_t M = *C < 0 ? -*C : *C;
        ValueRange Result = ValueRange::ranges(
            {SubRange::numeric(1.0, -(M - 1), M - 1, M == 1 ? 0 : 1)},
            Opts.MaxSubRanges);
        Result.setDistributionKnown(false);
        return Result;
      }
    }
  }
  return binaryNumeric(L, R, &RangeOps::pairRem);
}

ValueRange RangeOps::minOp(const ValueRange &L, const ValueRange &R) {
  if (L.isFloatKind() || R.isFloatKind())
    return fpBinary(TagFMin, L, R);
  return binaryNumeric(L, R, &RangeOps::pairMin);
}

ValueRange RangeOps::maxOp(const ValueRange &L, const ValueRange &R) {
  if (L.isFloatKind() || R.isFloatKind())
    return fpBinary(TagFMax, L, R);
  return binaryNumeric(L, R, &RangeOps::pairMax);
}

ValueRange RangeOps::neg(const ValueRange &V) {
  if (V.isTop() || V.isBottom())
    return V;
  if (V.isFloatConst())
    return ValueRange::floatConstant(-V.floatValue());
  if (V.isFloatRanges())
    return fpUnary(TagFNeg, V);
  Scratch.clear();
  for (const SubRange &S : V.subRanges()) {
    ++Stats.SubOps;
    if (!S.isNumeric())
      return ValueRange::bottom(); // -(x+c) is not representable.
    Scratch.push_back(makePiece(S.Prob, saturatingNeg(S.Hi.Offset),
                                saturatingNeg(S.Lo.Offset), S.Stride));
  }
  ValueRange Result = ValueRange::canonicalize(Scratch, Opts.MaxSubRanges);
  Result.setDistributionKnown(V.distributionKnown());
  return Result;
}

ValueRange RangeOps::absOp(const ValueRange &V) {
  if (V.isTop() || V.isBottom())
    return V;
  if (V.isFloatConst())
    return ValueRange::floatConstant(std::abs(V.floatValue()));
  if (V.isFloatRanges())
    return fpUnary(TagFAbs, V);
  Scratch.clear();
  for (const SubRange &S : V.subRanges()) {
    ++Stats.SubOps;
    if (!S.isNumeric())
      return ValueRange::bottom();
    if (S.Lo.Offset >= 0) {
      Scratch.push_back(S);
    } else if (S.Hi.Offset <= 0) {
      Scratch.push_back(makePiece(S.Prob, saturatingNeg(S.Hi.Offset),
                                  saturatingNeg(S.Lo.Offset), S.Stride));
    } else {
      int64_t Hi = std::max(saturatingNeg(S.Lo.Offset), S.Hi.Offset);
      Scratch.push_back(makePiece(S.Prob, 0, Hi, 1));
    }
  }
  ValueRange Result = ValueRange::canonicalize(Scratch, Opts.MaxSubRanges);
  Result.setDistributionKnown(V.distributionKnown());
  return Result;
}

ValueRange RangeOps::notOp(const ValueRange &V) {
  if (V.isTop())
    return ValueRange::top();
  std::optional<double> P = V.probNonZero();
  if (!P)
    return ValueRange::bottom();
  // Only certainty survives an unknown distribution.
  if (V.isRanges() && !V.distributionKnown() && *P != 0.0 && *P != 1.0)
    return ValueRange::bottom();
  return ValueRange::weightedBool(1.0 - *P);
}

//===----------------------------------------------------------------------===//
// Floating-point interval kernels (docs/DOMAINS.md)
//===----------------------------------------------------------------------===//

ValueRange RangeOps::fpPromote(const ValueRange &V) {
  if (V.isFloatRanges())
    return V;
  if (!V.isFloatConst())
    return ValueRange::bottom();
  double C = V.floatValue();
  if (std::isnan(C))
    return ValueRange::restoredFP(1.0, true, {});
  return ValueRange::restoredFP(0.0, true, {FPInterval(1.0, C, C)});
}

ValueRange RangeOps::fpBinary(uint8_t Tag, const ValueRange &L,
                              const ValueRange &R) {
  if (L.isTop() || R.isTop())
    return ValueRange::top();
  if (L.isFloatConst() && R.isFloatConst())
    return ValueRange::floatConstant(
        foldFloatScalar(Tag, L.floatValue(), R.floatValue()));
  if (!Opts.EnableFPRanges || L.isBottom() || R.isBottom())
    return ValueRange::bottom();
  ValueRange LP = fpPromote(L), RP = fpPromote(R);
  if (!LP.isFloatRanges() || !RP.isFloatRanges())
    return ValueRange::bottom(); // Mixed with the integer domain.
  telemetry::count(telemetry::Counter::FPRangeKernelOps);
  FPIntervalView LV = LP.fpIntervals(), RV = RP.fpIntervals();
  const double NL = LP.nanMass(), NR = RP.nanMass();
  FPScratch.clear();
  if (Tag == TagFMin || Tag == TagFMax) {
    // `(b < a) ? b : a` selection semantics: a NaN left operand
    // propagates (mass NL); a NaN right operand selects the left value
    // (mass (1-NL)*NR, distributed over L's intervals).
    FPNaNAcc = NL;
    if (NR > 0.0) {
      for (size_t I = 0; I < LV.size(); ++I) {
        ++Stats.SubOps;
        FPInterval A = LV[I];
        FPScratch.push_back(FPInterval(A.Prob * NR, A.Lo, A.Hi));
      }
    }
  } else {
    // Arithmetic propagates NaN from either side.
    FPNaNAcc = NL + NR - NL * NR;
  }
  for (size_t I = 0; I < LV.size(); ++I) {
    FPInterval A = LV[I];
    for (size_t J = 0; J < RV.size(); ++J) {
      ++Stats.SubOps;
      fpPairArith(Tag, A, RV[J]);
    }
  }
  ValueRange Result =
      ValueRange::canonicalizeFP(FPScratch, FPNaNAcc, Opts.MaxSubRanges);
  Result.setDistributionKnown(LP.distributionKnown() &&
                              RP.distributionKnown());
  return Result;
}

void RangeOps::fpPairArith(uint8_t Tag, const FPInterval &A,
                           const FPInterval &B) {
  double P = A.Prob * B.Prob;
  if (P <= 0.0)
    return;
  if (Tag == TagFDiv) {
    if (B.Lo == 0.0 && B.Hi == 0.0) {
      // Language rule: x / 0.0 == 0.0.
      FPScratch.push_back(FPInterval(P, 0.0, 0.0));
      return;
    }
    if (B.Lo <= 0.0 && B.Hi >= 0.0) {
      // Divisor straddles zero: quotient magnitudes are unbounded on both
      // sides (and the exact-zero divisor maps to 0), so the hull is the
      // full line. NaN additionally needs ±inf / ±inf.
      if ((std::isinf(A.Lo) || std::isinf(A.Hi)) &&
          (std::isinf(B.Lo) || std::isinf(B.Hi))) {
        FPNaNAcc += P * 0.25;
        P *= 0.75;
      }
      FPScratch.push_back(FPInterval(P, -HUGE_VAL, HUGE_VAL));
      return;
    }
  }
  // Corner evaluation in binary64 — the same arithmetic the runtime uses.
  // Every op here is monotone in each argument over the sign-consistent
  // region (division with a zero-straddling divisor was peeled off
  // above), and fl() is monotone, so the corners bound the interior.
  const double Cs[4] = {
      foldFloatScalar(Tag, A.Lo, B.Lo), foldFloatScalar(Tag, A.Lo, B.Hi),
      foldFloatScalar(Tag, A.Hi, B.Lo), foldFloatScalar(Tag, A.Hi, B.Hi)};
  double Lo = HUGE_VAL, Hi = -HUGE_VAL;
  int NaNCorners = 0;
  for (double C : Cs) {
    if (std::isnan(C)) {
      ++NaNCorners;
      continue;
    }
    Lo = std::min(Lo, C);
    Hi = std::max(Hi, C);
  }
  if (NaNCorners == 4) {
    if (A.isSingleton() && B.isSingleton()) {
      FPNaNAcc += P; // Exactly one concrete pair, and it is NaN.
      return;
    }
    // All four corners are NaN (0·∞ and ∞/∞ shapes) but a non-singleton
    // operand has interior points the corners cannot see — e.g.
    // [-∞,∞] × [0,0], where every corner is NaN yet 5.0 × 0.0 == 0.0.
    // Declaring pure NaN here would exclude those real outcomes; claim
    // the full line for the interior mass instead.
    FPNaNAcc += P * 0.5;
    FPScratch.push_back(FPInterval(P * 0.5, -HUGE_VAL, HUGE_VAL));
    return;
  }
  // Corner evaluation can miss a reachable NaN in exactly one shape:
  // multiplication where ±∞ is an endpoint of one operand and zero lies
  // in the *interior* of the other ([-0.5,∞] × [-1,1] has no NaN corner,
  // yet ∞ × 0 == NaN). Addition/division NaNs need ±∞ from both sides,
  // and ∞ is always an endpoint, so their corners see every case.
  if (NaNCorners == 0 && Tag == TagFMul &&
      (((std::isinf(A.Lo) || std::isinf(A.Hi)) && B.Lo <= 0.0 &&
        B.Hi >= 0.0) ||
       ((std::isinf(B.Lo) || std::isinf(B.Hi)) && A.Lo <= 0.0 &&
        A.Hi >= 0.0)))
    NaNCorners = 1;
  if (NaNCorners > 0) {
    // NaN-producing corners (inf-inf, 0*inf, ...): attribute a corner's
    // share of the pair mass to NaN, the rest to the non-NaN hull.
    FPNaNAcc += P * NaNCorners / 4.0;
    P *= (4.0 - NaNCorners) / 4.0;
  }
  // Directed outward widening: one ulp each way as defense in depth
  // against corner-rounding edge cases. Exact pairs (two singletons) and
  // degenerate results stay tight so constants survive verbatim.
  if (!(A.isSingleton() && B.isSingleton()) && Lo != Hi) {
    Lo = std::nextafter(Lo, -HUGE_VAL);
    Hi = std::nextafter(Hi, HUGE_VAL);
  }
  FPScratch.push_back(FPInterval(P, Lo, Hi));
}

ValueRange RangeOps::fpUnary(uint8_t Tag, const ValueRange &V) {
  telemetry::count(telemetry::Counter::FPRangeKernelOps);
  FPIntervalView IV = V.fpIntervals();
  FPScratch.clear();
  FPNaNAcc = V.nanMass(); // Neg/abs propagate NaN unchanged.
  for (size_t I = 0; I < IV.size(); ++I) {
    ++Stats.SubOps;
    FPInterval S = IV[I];
    if (Tag == TagFNeg) {
      FPScratch.push_back(FPInterval(S.Prob, -S.Hi, -S.Lo));
    } else if (S.Lo >= 0.0) { // TagFAbs; negation and fabs are exact.
      FPScratch.push_back(S);
    } else if (S.Hi <= 0.0) {
      FPScratch.push_back(FPInterval(S.Prob, -S.Hi, -S.Lo));
    } else {
      FPScratch.push_back(FPInterval(S.Prob, 0.0, std::max(-S.Lo, S.Hi)));
    }
  }
  ValueRange Result =
      ValueRange::canonicalizeFP(FPScratch, FPNaNAcc, Opts.MaxSubRanges);
  Result.setDistributionKnown(V.distributionKnown());
  return Result;
}

ValueRange RangeOps::intToFloat(const ValueRange &V) {
  if (V.isTop())
    return ValueRange::top();
  if (auto C = V.asIntConstant())
    return ValueRange::floatConstant(static_cast<double>(*C));
  if (!Opts.EnableFPRanges || !V.isRanges() || !V.allNumeric())
    return ValueRange::bottom();
  telemetry::count(telemetry::Counter::FPRangeKernelOps);
  FPScratch.clear();
  for (const SubRange &S : V.subRanges()) {
    ++Stats.SubOps;
    // static_cast<double> rounds-to-nearest and is monotone, so the
    // converted endpoints bound every converted interior point exactly.
    FPScratch.push_back(FPInterval(S.Prob,
                                   static_cast<double>(S.Lo.Offset),
                                   static_cast<double>(S.Hi.Offset)));
  }
  ValueRange Result =
      ValueRange::canonicalizeFP(FPScratch, 0.0, Opts.MaxSubRanges);
  Result.setDistributionKnown(V.distributionKnown());
  return Result;
}

ValueRange RangeOps::floatToInt(const ValueRange &V) {
  if (V.isTop())
    return ValueRange::top();
  if (V.isFloatConst()) {
    double D = V.floatValue();
    if (D >= static_cast<double>(Int64Min) &&
        D <= static_cast<double>(Int64Max))
      return ValueRange::intConstant(static_cast<int64_t>(D));
  }
  if (!Opts.EnableFPRanges || !V.isFloatRanges())
    return ValueRange::bottom();
  telemetry::count(telemetry::Counter::FPRangeKernelOps);
  FPIntervalView IV = V.fpIntervals();
  // The runtime rule (profile/Interpreter.cpp): finite values inside the
  // int64 window truncate; everything else — ±inf, NaN, out of window —
  // produces 0. The window top is the largest double that truncates to a
  // representable int64 (2^63 itself is out).
  const double WinLo = static_cast<double>(Int64Min); // -2^63, exact.
  const double WinHi = 9223372036854774784.0;         // 2^63 - 1024.
  Scratch.clear();
  double ZeroMass = V.nanMass();
  for (size_t I = 0; I < IV.size(); ++I) {
    ++Stats.SubOps;
    FPInterval S = IV[I];
    double CLo = std::max(S.Lo, WinLo), CHi = std::min(S.Hi, WinHi);
    if (CLo > CHi) { // Entirely outside the window.
      ZeroMass += S.Prob;
      continue;
    }
    double InFrac;
    if (CLo == S.Lo && CHi == S.Hi) {
      InFrac = 1.0;
    } else if (std::isfinite(S.Hi - S.Lo) && S.Hi > S.Lo) {
      InFrac = (CHi - CLo) / (S.Hi - S.Lo);
    } else {
      InFrac = 0.5; // Infinite-width split convention (docs/DOMAINS.md).
    }
    ZeroMass += S.Prob * (1.0 - InFrac);
    int64_t TLo = static_cast<int64_t>(std::trunc(CLo));
    int64_t THi = static_cast<int64_t>(std::trunc(CHi));
    Scratch.push_back(makePiece(S.Prob * InFrac, TLo, THi,
                                TLo == THi ? 0 : 1));
  }
  if (ZeroMass > 0.0)
    Scratch.push_back(SubRange::singleton(ZeroMass, 0));
  ValueRange Result = ValueRange::canonicalize(Scratch, Opts.MaxSubRanges);
  Result.setDistributionKnown(V.distributionKnown());
  return Result;
}

//===----------------------------------------------------------------------===//
// Meet
//===----------------------------------------------------------------------===//

ValueRange RangeOps::meetWeighted(
    const std::vector<std::pair<ValueRange, double>> &Entries) {
  telemetry::count(telemetry::Counter::Meets);
  double TotalWeight = 0.0;
  bool SawFloat = false, SawRanges = false, SawFPRanges = false;
  double FloatVal = 0.0;
  bool FloatConsistent = true;

  for (const auto &[VR, W] : Entries) {
    if (W <= 0.0 || VR.isTop())
      continue;
    if (VR.isBottom())
      return ValueRange::bottom();
    if (VR.isFloatConst()) {
      if (SawFloat && VR.floatValue() != FloatVal)
        FloatConsistent = false;
      FloatVal = VR.floatValue();
      SawFloat = true;
    } else if (VR.isFloatRanges()) {
      SawFPRanges = true;
    } else {
      SawRanges = true;
    }
    TotalWeight += W;
  }
  if (TotalWeight <= 0.0)
    return ValueRange::top(); // Nothing known yet.
  if ((SawFloat || SawFPRanges) && SawRanges)
    return ValueRange::bottom(); // FP / integer domain confusion.
  // A NaN constant is routed through the interval path when FP ranges
  // are on: pure-NaN FloatRanges compare stably by slice id, while a NaN
  // FloatConst payload is never ==-equal to itself.
  if (SawFloat && !SawFPRanges && FloatConsistent &&
      (!Opts.EnableFPRanges || !std::isnan(FloatVal)))
    return ValueRange::floatConstant(FloatVal);
  if (SawFloat || SawFPRanges) {
    if (!Opts.EnableFPRanges)
      return ValueRange::bottom();
    // Weighted FP mixture: constants enter as exact singletons (NaN
    // constants as NaN mass), interval sets scale piecewise.
    FPScratch.clear();
    FPNaNAcc = 0.0;
    bool DistKnown = true;
    for (const auto &[VR, W] : Entries) {
      if (W <= 0.0 || !VR.isFloatKind())
        continue;
      double Scale = W / TotalWeight;
      if (VR.isFloatConst()) {
        ++Stats.SubOps;
        double C = VR.floatValue();
        if (std::isnan(C))
          FPNaNAcc += Scale;
        else
          FPScratch.push_back(FPInterval(Scale, C, C));
        continue;
      }
      DistKnown &= VR.distributionKnown();
      FPNaNAcc += VR.nanMass() * Scale;
      FPIntervalView IV = VR.fpIntervals();
      for (size_t I = 0; I < IV.size(); ++I) {
        ++Stats.SubOps;
        FPInterval S = IV[I];
        FPScratch.push_back(FPInterval(S.Prob * Scale, S.Lo, S.Hi));
      }
    }
    ValueRange Result =
        ValueRange::canonicalizeFP(FPScratch, FPNaNAcc, Opts.MaxSubRanges);
    Result.setDistributionKnown(DistKnown);
    return Result;
  }

  Scratch.clear();
  bool DistKnown = true;
  for (const auto &[VR, W] : Entries) {
    if (W <= 0.0 || !VR.isRanges())
      continue;
    DistKnown &= VR.distributionKnown();
    double Scale = W / TotalWeight;
    for (const SubRange &S : VR.subRanges()) {
      ++Stats.SubOps;
      SubRange Scaled = S;
      Scaled.Prob *= Scale;
      Scratch.push_back(Scaled);
    }
  }
  ValueRange Result = ValueRange::canonicalize(Scratch, Opts.MaxSubRanges);
  Result.setDistributionKnown(DistKnown);
  return Result;
}

//===----------------------------------------------------------------------===//
// Assertions
//===----------------------------------------------------------------------===//

namespace {

/// Clips one numeric subrange against `value PRED C`; appends surviving
/// pieces with probability scaled by the surviving point fraction.
void clipNumeric(const SubRange &S, CmpPred Pred, int64_t C,
                 std::vector<SubRange> &Out) {
  int64_t Count = *S.count();
  auto keepUpTo = [&](int64_t U) { // Values <= U survive.
    if (U >= S.Hi.Offset) {
      Out.push_back(S);
      return;
    }
    if (U < S.Lo.Offset)
      return; // Nothing survives.
    int64_t NewHi = S.Stride == 0 ? S.Lo.Offset
                                  : alignDown(S.Lo.Offset, S.Stride, U);
    SubRange Piece = makePiece(S.Prob, S.Lo.Offset, NewHi, S.Stride);
    Piece.Prob = S.Prob * (static_cast<double>(*Piece.count()) / Count);
    Out.push_back(Piece);
  };
  auto keepFrom = [&](int64_t L) { // Values >= L survive.
    if (L <= S.Lo.Offset) {
      Out.push_back(S);
      return;
    }
    if (L > S.Hi.Offset)
      return;
    int64_t NewLo = S.Stride == 0 ? S.Hi.Offset
                                  : alignUp(S.Hi.Offset, S.Stride, L);
    SubRange Piece = makePiece(S.Prob, NewLo, S.Hi.Offset, S.Stride);
    Piece.Prob = S.Prob * (static_cast<double>(*Piece.count()) / Count);
    Out.push_back(Piece);
  };

  switch (Pred) {
  case CmpPred::LT:
    if (C == Int64Min)
      return; // x < INT64_MIN is impossible; nothing survives.
    keepUpTo(C - 1);
    return;
  case CmpPred::LE:
    keepUpTo(C);
    return;
  case CmpPred::GT:
    if (C == Int64Max)
      return;
    keepFrom(C + 1);
    return;
  case CmpPred::GE:
    keepFrom(C);
    return;
  case CmpPred::EQ: {
    bool Contains = C >= S.Lo.Offset && C <= S.Hi.Offset &&
                    onLattice(S.Lo.Offset, S.Stride, C);
    if (Contains)
      Out.push_back(SubRange::singleton(S.Prob / Count, C));
    return;
  }
  case CmpPred::NE: {
    bool Contains = C >= S.Lo.Offset && C <= S.Hi.Offset &&
                    onLattice(S.Lo.Offset, S.Stride, C);
    if (!Contains) {
      Out.push_back(S);
      return;
    }
    double Keep = S.Prob * (static_cast<double>(Count - 1) / Count);
    if (Count == 1)
      return; // The whole subrange was that one value.
    if (C == S.Lo.Offset) {
      SubRange Piece = makePiece(Keep, S.Lo.Offset + S.Stride, S.Hi.Offset,
                                 S.Stride);
      Out.push_back(Piece);
    } else if (C == S.Hi.Offset) {
      Out.push_back(
          makePiece(Keep, S.Lo.Offset, S.Hi.Offset - S.Stride, S.Stride));
    } else {
      // Interior removal: split proportionally to the two sides.
      int64_t Below = pointsBelow(S, C);
      int64_t Above = Count - Below - 1;
      Out.push_back(makePiece(S.Prob * Below / Count, S.Lo.Offset,
                              C - S.Stride, S.Stride));
      Out.push_back(makePiece(S.Prob * Above / Count, C + S.Stride,
                              S.Hi.Offset, S.Stride));
    }
    return;
  }
  }
}

/// Clips one subrange against a symbolic bound `value PRED (Sym)`; keeps
/// probability unchanged (the surviving fraction is unknown).
void clipSymbolic(const SubRange &S, CmpPred Pred, const Value *Sym,
                  std::vector<SubRange> &Out) {
  SubRange Piece = S;
  switch (Pred) {
  case CmpPred::LT:
    Piece.Hi = Bound(Sym, -1);
    break;
  case CmpPred::LE:
    Piece.Hi = Bound(Sym, 0);
    break;
  case CmpPred::GT:
    Piece.Lo = Bound(Sym, 1);
    break;
  case CmpPred::GE:
    Piece.Lo = Bound(Sym, 0);
    break;
  case CmpPred::EQ:
    // assert x == y: x becomes an exact copy of y.
    Out.push_back(SubRange(S.Prob, Bound(Sym, 0), Bound(Sym, 0), 0));
    return;
  case CmpPred::NE:
    Out.push_back(S); // No representable refinement.
    return;
  }
  // Bounds relative to two different ancestors are unrepresentable; fall
  // back to the assert side only (the controlling test is the most
  // predictive information available).
  if (Piece.Lo.Sym && Piece.Hi.Sym && Piece.Lo.Sym != Piece.Hi.Sym) {
    if (Pred == CmpPred::LT || Pred == CmpPred::LE)
      Piece.Lo = Bound(Int64Min);
    else
      Piece.Hi = Bound(Int64Max);
    Piece.Stride = 1;
  }
  // Symbolic clipping can invert numeric-looking bounds only at runtime;
  // statically we keep the piece as-is.
  if (Piece.Lo.isNumeric() && Piece.Hi.isNumeric() &&
      Piece.Lo.Offset > Piece.Hi.Offset) {
    Out.push_back(S);
    return;
  }
  if (Piece.Lo == Piece.Hi)
    Piece.Stride = 0;
  else if (Piece.Stride == 0)
    Piece.Stride = 1;
  Out.push_back(Piece);
}

} // namespace

ValueRange RangeOps::applyAssert(const ValueRange &Src, CmpPred Pred,
                                 const ValueRange &BoundRange,
                                 const Value *BoundVal) {
  // FP asserts: an FP interval source, or an FP-typed bound refining a ⊥
  // source (the ⊥ float still has a known universe: [-inf,+inf] ∪ NaN).
  // The clip reads the bound's interval hull, so a FloatConst bound is
  // promoted to its singleton interval.
  if (Opts.EnableFPRanges &&
      (Src.isFloatRanges() || (BoundRange.isFloatKind() && Src.isBottom())))
    return applyFPAssert(Src, Pred, fpPromote(BoundRange));
  if (!Src.isRanges() && !Src.isBottom())
    return Src; // ⊤ / float-const pass through untouched.

  // An assert on a statically unknown value still pins down the *set* of
  // surviving values ("valuable information can often be derived from the
  // equality tests controlling branches") — but not their distribution.
  ValueRange Effective = Src;
  if (Src.isBottom()) {
    Effective = ValueRange::fullIntRange();
    Effective.setDistributionKnown(false);
  }
  const ValueRange &SrcR = Effective;

  std::optional<int64_t> C = BoundRange.asIntConstant();
  const Value *Sym = nullptr;
  if (!C && Opts.EnableSymbolicRanges && BoundVal &&
      !isa<Constant>(BoundVal))
    Sym = BoundVal;

  std::vector<SubRange> &Out = Scratch;
  Out.clear();
  for (const SubRange &S : SrcR.subRanges()) {
    ++Stats.SubOps;
    if (C && S.isNumeric()) {
      clipNumeric(S, Pred, *C, Out);
    } else if (C) {
      // Symbolic subrange, numeric bound: adopt the numeric bound on the
      // constrained side (prefer the assert's information).
      SubRange Piece = S;
      switch (Pred) {
      case CmpPred::LT:
        Piece.Hi = Bound(*C == Int64Min ? Int64Min : *C - 1);
        break;
      case CmpPred::LE:
        Piece.Hi = Bound(*C);
        break;
      case CmpPred::GT:
        Piece.Lo = Bound(*C == Int64Max ? Int64Max : *C + 1);
        break;
      case CmpPred::GE:
        Piece.Lo = Bound(*C);
        break;
      case CmpPred::EQ:
        Piece = SubRange::singleton(S.Prob, *C);
        break;
      case CmpPred::NE:
        break;
      }
      if (Piece.Lo.isNumeric() && Piece.Hi.isNumeric() &&
          Piece.Lo.Offset > Piece.Hi.Offset) {
        continue; // Contradiction: nothing survives from this piece.
      }
      if (Piece.Lo == Piece.Hi)
        Piece.Stride = 0;
      else if (Piece.Stride == 0)
        Piece.Stride = 1;
      Out.push_back(Piece);
    } else if (Sym) {
      clipSymbolic(S, Pred, Sym, Out);
    } else {
      Out.push_back(S); // No usable bound information.
    }
  }
  if (Out.empty())
    return ValueRange::bottom(); // Contradicted assert: edge unreachable.
  // Clipping drops the excluded values' probability mass (EQ keeps one
  // point's worth, NE removes the interior, LT/GT shave the tails), so
  // the surviving pieces no longer sum to 1. Renormalize here — the
  // split site that drifts — rather than relying on the canonicalizer's
  // silent backstop, and count the event so tests can observe it.
  double Total = 0.0;
  for (const SubRange &S : Out)
    Total += S.Prob;
  if (Total > 0.0 && std::abs(Total - 1.0) > 1e-9) {
    telemetry::count(telemetry::Counter::RangeNormalizations);
    for (SubRange &S : Out)
      S.Prob /= Total;
  }
  ValueRange Result = ValueRange::ranges(std::move(Out), Opts.MaxSubRanges);
  Result.setDistributionKnown(SrcR.distributionKnown());
  Result.assertNormalized();
  return Result;
}

ValueRange RangeOps::applyFPAssert(const ValueRange &Src, CmpPred Pred,
                                   const ValueRange &Bound) {
  telemetry::count(telemetry::Counter::FPRangeKernelOps);
  // Effective source: a ⊥ float still has a known universe —
  // [-inf,+inf] ∪ NaN with an unknown distribution (the FP analogue of
  // the integer path's fullIntRange fallback).
  std::vector<FPInterval> SrcIv;
  double SrcNaN = 0.0;
  bool DistKnown = true;
  if (Src.isBottom()) {
    SrcIv.push_back(FPInterval(0.5, -HUGE_VAL, HUGE_VAL));
    SrcNaN = 0.5;
    DistKnown = false;
  } else {
    FPIntervalView IV = Src.fpIntervals();
    for (size_t I = 0; I < IV.size(); ++I)
      SrcIv.push_back(IV[I]);
    SrcNaN = Src.nanMass();
    DistKnown = Src.distributionKnown();
  }

  // Bound hull [CLo, CHi]. The clip against a non-singleton bound uses
  // the conservative extreme: `x < b` for some b in the bound's support
  // only guarantees x below the support's maximum.
  bool HaveHull = false, BoundSingleton = false;
  double CLo = 0.0, CHi = 0.0;
  if (Bound.isFloatRanges()) {
    FPIntervalView BV = Bound.fpIntervals();
    if (BV.empty())
      // Certainly-NaN bound: every ordered comparison (and EQ) is false,
      // so those assert edges are unreachable; NE holds vacuously.
      return Pred == CmpPred::NE ? Src : ValueRange::bottom();
    CLo = HUGE_VAL;
    CHi = -HUGE_VAL;
    for (size_t I = 0; I < BV.size(); ++I) {
      CLo = std::min(CLo, BV[I].Lo);
      CHi = std::max(CHi, BV[I].Hi);
    }
    HaveHull = true;
    BoundSingleton =
        BV.size() == 1 && BV[0].isSingleton() && BV.nanMass() == 0.0;
  }

  // Any predicate but NE is false on NaN, so the assert holding strips
  // the source's NaN mass; `x != b` keeps it.
  FPScratch.clear();
  double OutNaN = Pred == CmpPred::NE ? SrcNaN : 0.0;
  auto clipFrac = [](const FPInterval &S, double NLo, double NHi) {
    if (S.isSingleton() || (NLo == S.Lo && NHi == S.Hi))
      return 1.0;
    double W = S.Hi - S.Lo;
    if (!std::isfinite(W))
      return 0.5; // Infinite-width split convention (docs/DOMAINS.md).
    return (NHi - NLo) / W;
  };
  for (const FPInterval &S : SrcIv) {
    ++Stats.SubOps;
    double NLo = S.Lo, NHi = S.Hi;
    switch (Pred) {
    case CmpPred::LT:
      if (HaveHull)
        NHi = std::min(NHi, std::nextafter(CHi, -HUGE_VAL));
      break;
    case CmpPred::LE:
      if (HaveHull)
        NHi = std::min(NHi, CHi);
      break;
    case CmpPred::GT:
      if (HaveHull)
        NLo = std::max(NLo, std::nextafter(CLo, HUGE_VAL));
      break;
    case CmpPred::GE:
      if (HaveHull)
        NLo = std::max(NLo, CLo);
      break;
    case CmpPred::EQ:
      // x == b pins x into the bound's hull.
      if (HaveHull) {
        NLo = std::max(NLo, CLo);
        NHi = std::min(NHi, CHi);
      }
      break;
    case CmpPred::NE:
      // Holes are unrepresentable; only an excluded exact point drops,
      // and only when the bound is certainly that point.
      if (BoundSingleton && S.isSingleton() && S.Lo == CLo)
        continue;
      FPScratch.push_back(S);
      continue;
    }
    if (NLo > NHi)
      continue; // Contradicted piece.
    double P = S.Prob * clipFrac(S, NLo, NHi);
    if (P > 0.0)
      FPScratch.push_back(FPInterval(P, NLo, NHi));
  }
  if (FPScratch.empty() && OutNaN <= 0.0)
    return ValueRange::bottom(); // Contradicted assert: edge unreachable.
  // canonicalizeFP renormalizes the surviving mass jointly with OutNaN.
  ValueRange Result =
      ValueRange::canonicalizeFP(FPScratch, OutNaN, Opts.MaxSubRanges);
  Result.setDistributionKnown(DistKnown);
  return Result;
}

//===----------------------------------------------------------------------===//
// Probabilistic comparison
//===----------------------------------------------------------------------===//

namespace {

/// Exact point count as a double (int64-capped SubRange::count() would
/// collapse probabilities over near-full ranges into fake certainty).
double countPointsD(const SubRange &S) {
  if (S.Stride == 0 || S.Lo.Offset == S.Hi.Offset)
    return 1.0;
  __int128 Span = static_cast<__int128>(S.Hi.Offset) - S.Lo.Offset;
  return static_cast<double>(Span / S.Stride) + 1.0;
}

/// pointsBelow in double precision, capped at the true count.
double pointsBelowD(const SubRange &S, int64_t C) {
  if (C <= S.Lo.Offset)
    return 0.0;
  double Count = countPointsD(S);
  if (C > S.Hi.Offset)
    return Count;
  if (S.Stride == 0)
    return S.Lo.Offset < C ? 1.0 : 0.0;
  __int128 Span = static_cast<__int128>(C) - 1 - S.Lo.Offset;
  double N = static_cast<double>(Span / S.Stride) + 1.0;
  return std::min(N, Count);
}

} // namespace

double RangeOps::numericEqProb(const SubRange &A, const SubRange &B) {
  double Na = countPointsD(A), Nb = countPointsD(B);
  int64_t Lo = std::max(A.Lo.Offset, B.Lo.Offset);
  int64_t Hi = std::min(A.Hi.Offset, B.Hi.Offset);
  if (Lo > Hi)
    return 0.0;
  double Common;
  if (A.Stride == 0 && B.Stride == 0) {
    Common = A.Lo.Offset == B.Lo.Offset ? 1 : 0;
  } else if (A.Stride == 0 || B.Stride == 0) {
    const SubRange &Point = A.Stride == 0 ? A : B;
    const SubRange &Range = A.Stride == 0 ? B : A;
    int64_t P = Point.Lo.Offset;
    bool In = P >= Range.Lo.Offset && P <= Range.Hi.Offset &&
              onLattice(Range.Lo.Offset, Range.Stride, P);
    Common = In ? 1 : 0;
  } else {
    // Solve x ≡ aLo (mod sa), x ≡ bLo (mod sb) within [Lo, Hi].
    int64_t X, Y;
    int64_t G = extendedGcd(A.Stride, B.Stride, X, Y);
    __int128 Diff = static_cast<__int128>(B.Lo.Offset) - A.Lo.Offset;
    if (Diff % G != 0) {
      Common = 0;
    } else {
      __int128 Lcm = static_cast<__int128>(A.Stride) / G * B.Stride;
      // First solution: aLo + (Diff/G * X mod (sb/G)) * sa.
      __int128 Step = B.Stride / G;
      __int128 K = (Diff / G) % Step * X % Step;
      if (K < 0)
        K += Step;
      __int128 First = static_cast<__int128>(A.Lo.Offset) + K * A.Stride;
      // Move First into [Lo, Hi].
      if (First < Lo)
        First += ((Lo - First + Lcm - 1) / Lcm) * Lcm;
      if (First > Hi) {
        Common = 0;
      } else {
        Common = static_cast<double>((Hi - First) / Lcm) + 1.0;
      }
    }
  }
  return Common / (Na * Nb);
}

double RangeOps::numericLtProb(const SubRange &A, const SubRange &B) {
  if (A.Hi.Offset < B.Lo.Offset)
    return 1.0;
  if (A.Lo.Offset >= B.Hi.Offset)
    return 0.0;
  double Na = countPointsD(A), Nb = countPointsD(B);
  if (Nb == 1.0)
    return pointsBelowD(A, B.Lo.Offset) / Na;
  if (Na == 1.0) {
    // P(c < B) = points of B above c / Nb.
    double NotAbove =
        pointsBelowD(B, saturatingAdd(A.Lo.Offset, 1));
    return (Nb - NotAbove) / Nb;
  }
  // Continuous approximation: A ~ U[a1,a2], B ~ U[b1,b2].
  double A1 = static_cast<double>(A.Lo.Offset);
  double A2 = static_cast<double>(A.Hi.Offset);
  double B1 = static_cast<double>(B.Lo.Offset);
  double B2 = static_cast<double>(B.Hi.Offset);
  // P(A < y) integrated over y ~ U[B1,B2]:
  //   F(y) = clamp((y - A1) / (A2 - A1), 0, 1).
  auto integralF = [&](double Y) { // ∫_{A1}^{Y} F between A1..A2 pieces.
    if (Y <= A1)
      return 0.0;
    if (Y >= A2)
      return (A2 - A1) / 2.0 + (Y - A2);
    return (Y - A1) * (Y - A1) / (2.0 * (A2 - A1));
  };
  double P = (integralF(B2) - integralF(B1)) / (B2 - B1);
  return std::clamp(P, 0.0, 1.0);
}

namespace {

/// Fraction of an arithmetic progression satisfying a predicate against a
/// fixed anchor. The progression has \p Count points
///     p_j = anchor + Off + j*Step   for j = 0 .. Count-1
/// with Step signed (negative for descending); the predicate compares p_j
/// against the anchor itself, i.e. tests `Off + j*Step PRED 0`.
int64_t anchoredSatisfied(CmpPred Pred, int64_t Off, int64_t Step,
                          int64_t Count) {
  // Count j in [0, Count) with Off + j*Step PRED 0.
  switch (Pred) {
  case CmpPred::EQ: {
    if (Off % Step != 0)
      return 0;
    int64_t J = -Off / Step;
    return (J >= 0 && J < Count) ? 1 : 0;
  }
  case CmpPred::NE:
    return Count - anchoredSatisfied(CmpPred::EQ, Off, Step, Count);
  case CmpPred::LT: {
    // Off + j*Step < 0.
    if (Step > 0) {
      // Satisfied exactly for j < -Off/Step.
      int64_t Limit = ceilDiv(-Off, Step); // First j with p_j >= 0.
      return std::clamp<int64_t>(Limit, 0, Count);
    }
    // Descending: satisfied for j > Off/(-Step).
    int64_t First = floorDiv(Off, -Step) + 1; // First j with p_j < 0.
    return Count - std::clamp<int64_t>(First, 0, Count);
  }
  case CmpPred::LE:
    return anchoredSatisfied(CmpPred::LT, Off, Step, Count) +
           anchoredSatisfied(CmpPred::EQ, Off, Step, Count);
  case CmpPred::GT:
    return Count - anchoredSatisfied(CmpPred::LE, Off, Step, Count);
  case CmpPred::GE:
    return Count - anchoredSatisfied(CmpPred::LT, Off, Step, Count);
  }
  return 0;
}

double anchoredFraction(CmpPred Pred, int64_t Off, int64_t Step,
                        int64_t Count) {
  assert(Count >= 1 && Step != 0);
  // anchoredSatisfied negates Off internally; keep it off INT64_MIN
  // (saturated symbolic offsets can reach it).
  if (Off == Int64Min)
    Off = Int64Min + 1;
  return static_cast<double>(anchoredSatisfied(Pred, Off, Step, Count)) /
         static_cast<double>(Count);
}

} // namespace

std::optional<double> RangeOps::pairCmpProb(CmpPred Pred, const SubRange &A,
                                            const SubRange &B,
                                            const Value *LVal,
                                            const Value *RVal,
                                            bool LDistKnown,
                                            bool RDistKnown) {
  ++Stats.SubOps;

  // Per-case distribution trust: a result computed from an untrusted
  // distribution may only be believed when it is set-level certain.
  auto gate = [](std::optional<double> P,
                 bool Trusted) -> std::optional<double> {
    if (!P || Trusted || *P == 0.0 || *P == 1.0)
      return P;
    return std::nullopt;
  };

  // Normalize symbolic situations down to numeric comparisons.
  auto offsets = [](const SubRange &S) {
    if (S.Lo == S.Hi)
      return SubRange::singleton(S.Prob, S.Lo.Offset);
    return makePiece(S.Prob, std::min(S.Lo.Offset, S.Hi.Offset),
                     std::max(S.Lo.Offset, S.Hi.Offset),
                     std::max<int64_t>(S.Stride, 1));
  };

  const bool ASym = !A.isNumeric(), BSym = !B.isNumeric();
  if (!ASym && !BSym) {
    std::optional<double> P;
    switch (Pred) {
    case CmpPred::EQ:
      P = numericEqProb(A, B);
      break;
    case CmpPred::NE:
      P = 1.0 - numericEqProb(A, B);
      break;
    case CmpPred::LT:
      P = numericLtProb(A, B);
      break;
    case CmpPred::LE:
      P = std::min(1.0, numericLtProb(A, B) + numericEqProb(A, B));
      break;
    case CmpPred::GT:
      P = std::max(0.0, 1.0 - numericLtProb(A, B) - numericEqProb(A, B));
      break;
    case CmpPred::GE:
      P = 1.0 - numericLtProb(A, B);
      break;
    }
    return gate(P, LDistKnown && RDistKnown);
  }

  if (!Opts.EnableSymbolicRanges)
    return std::nullopt;

  // Fully-symbolic bounds on one common ancestor.
  auto symOf = [](const SubRange &S) -> const Value * {
    if (S.Lo.Sym && (S.Hi.Sym == S.Lo.Sym))
      return S.Lo.Sym;
    return nullptr;
  };
  const Value *SA = symOf(A), *SB = symOf(B);

  if (ASym && BSym && SA && SA == SB) {
    // Both relative to the same ancestor: compare offsets.
    return pairCmpProb(Pred, offsets(A), offsets(B), nullptr, nullptr,
                       LDistKnown, RDistKnown);
  }
  if (ASym && SA && SA == RVal) {
    // A's bounds are relative to the right operand itself: A PRED RVal
    // reduces to offsets PRED 0 regardless of RVal's distribution.
    return pairCmpProb(Pred, offsets(A), SubRange::singleton(1.0, 0),
                       nullptr, nullptr, LDistKnown, true);
  }
  if (BSym && SB && SB == LVal) {
    // Symmetric: 0 PRED offsets.
    return pairCmpProb(Pred, SubRange::singleton(1.0, 0), offsets(B),
                       nullptr, nullptr, true, RDistKnown);
  }

  // Partially symbolic subranges (one numeric bound, one symbolic): model
  // the unknown extent as AssumedSymbolicCount lattice points anchored at
  // the known end. This is how the loop-exit test of a derived range like
  // [0:n:1] predicts at (C-1)/C without knowing n. Saturated sentinel
  // offsets (INT64_MIN/MAX from symbolic-clip fallbacks) are not real
  // anchors and must not be modeled.
  int64_t C = std::max<int64_t>(
      2, static_cast<int64_t>(Opts.AssumedSymbolicCount));
  auto realAnchor = [](const Bound &B) {
    return B.isNumeric() && B.Offset > Int64Min + 1 &&
           B.Offset < Int64Max - 1;
  };

  // A anchored against the right operand's own variable.
  if (A.Hi.Sym && A.Hi.Sym == RVal && realAnchor(A.Lo))
    return gate(anchoredFraction(Pred, A.Hi.Offset,
                                 -std::max<int64_t>(A.Stride, 1), C),
                LDistKnown);
  if (A.Lo.Sym && A.Lo.Sym == RVal && realAnchor(A.Hi))
    return gate(anchoredFraction(Pred, A.Lo.Offset,
                                 std::max<int64_t>(A.Stride, 1), C),
                LDistKnown);
  // B anchored against the left operand's variable (swap the predicate).
  if (B.Hi.Sym && B.Hi.Sym == LVal && realAnchor(B.Lo))
    return gate(anchoredFraction(swapPred(Pred), B.Hi.Offset,
                                 -std::max<int64_t>(B.Stride, 1), C),
                RDistKnown);
  if (B.Lo.Sym && B.Lo.Sym == LVal && realAnchor(B.Hi))
    return gate(anchoredFraction(swapPred(Pred), B.Lo.Offset,
                                 std::max<int64_t>(B.Stride, 1), C),
                RDistKnown);

  // Mixed-bound subrange against a numeric constant: anchor at the
  // numeric end.
  if (ASym && !BSym && B.isSingleton()) {
    int64_t Target = B.Lo.Offset;
    if (realAnchor(A.Lo))
      return gate(anchoredFraction(Pred,
                                   saturatingSub(A.Lo.Offset, Target),
                                   std::max<int64_t>(A.Stride, 1), C),
                  LDistKnown);
    if (realAnchor(A.Hi))
      return gate(anchoredFraction(Pred,
                                   saturatingSub(A.Hi.Offset, Target),
                                   -std::max<int64_t>(A.Stride, 1), C),
                  LDistKnown);
  }
  if (BSym && !ASym && A.isSingleton()) {
    int64_t Target = A.Lo.Offset;
    if (realAnchor(B.Lo))
      return gate(anchoredFraction(swapPred(Pred),
                                   saturatingSub(B.Lo.Offset, Target),
                                   std::max<int64_t>(B.Stride, 1), C),
                  RDistKnown);
    if (realAnchor(B.Hi))
      return gate(anchoredFraction(swapPred(Pred),
                                   saturatingSub(B.Hi.Offset, Target),
                                   -std::max<int64_t>(B.Stride, 1), C),
                  RDistKnown);
  }
  return std::nullopt;
}

namespace {

double evalPredOnDoubles(CmpPred Pred, double A, double B) {
  bool Result = false;
  switch (Pred) {
  case CmpPred::EQ:
    Result = A == B;
    break;
  case CmpPred::NE:
    Result = A != B;
    break;
  case CmpPred::LT:
    Result = A < B;
    break;
  case CmpPred::LE:
    Result = A <= B;
    break;
  case CmpPred::GT:
    Result = A > B;
    break;
  case CmpPred::GE:
    Result = A >= B;
    break;
  }
  return Result ? 1.0 : 0.0;
}

} // namespace

std::optional<double> RangeOps::cmpProb(CmpPred Pred, const ValueRange &L,
                                        const ValueRange &R,
                                        const Value *LVal,
                                        const Value *RVal) {
  if (L.isFloatConst() && R.isFloatConst())
    return evalPredOnDoubles(Pred, L.floatValue(), R.floatValue());

  // FP interval comparisons have their own engine. With the FP domain on,
  // a FloatConst side is promoted to its singleton interval; an FP side
  // meeting a non-FP side (a ⊥ float) is undecidable here.
  if (L.isFloatRanges() || R.isFloatRanges()) {
    ValueRange LP = Opts.EnableFPRanges ? fpPromote(L) : L;
    ValueRange RP = Opts.EnableFPRanges ? fpPromote(R) : R;
    if (!LP.isFloatRanges() || !RP.isFloatRanges())
      return std::nullopt;
    return fpCmpProb(Pred, LP, RP);
  }

  // A ⊥ operand may still be decidable when the other side's bounds are
  // relative to it (e.g. the loop test i < n with i in [0:n:1] and n
  // unknown): substitute the symbolic singleton [v:v].
  ValueRange LSub = L, RSub = R;
  auto symSingleton = [](const Value *V) {
    std::vector<SubRange> Subs{SubRange(1.0, Bound(V, 0), Bound(V, 0), 0)};
    return ValueRange::ranges(std::move(Subs), 1);
  };
  if (Opts.EnableSymbolicRanges) {
    if (!LSub.isRanges() && RSub.isRanges() && LVal &&
        !isa<Constant>(LVal))
      LSub = symSingleton(LVal);
    if (!RSub.isRanges() && LSub.isRanges() && RVal &&
        !isa<Constant>(RVal))
      RSub = symSingleton(RVal);
  }
  const ValueRange &LR = LSub, &RR = RSub;
  if (!LR.isRanges() || !RR.isRanges())
    return std::nullopt;
  double P = 0.0;
  for (const SubRange &A : LR.subRanges()) {
    for (const SubRange &B : RR.subRanges()) {
      std::optional<double> F =
          pairCmpProb(Pred, A, B, LVal, RVal, LR.distributionKnown(),
                      RR.distributionKnown());
      if (!F)
        return std::nullopt;
      P += A.Prob * B.Prob * *F;
    }
  }
  // Subrange probabilities of an untrusted distribution can still skew
  // the aggregate; with multiple subranges on an untrusted side only a
  // unanimous 0/1 outcome survives (each pair was individually gated, so
  // a non-0/1 aggregate can only arise from mixing certain 0s and 1s).
  P = std::clamp(P, 0.0, 1.0);
  if (!LR.distributionKnown() || !RR.distributionKnown()) {
    bool Mixed = P != 0.0 && P != 1.0;
    if (Mixed && (LR.subRanges().size() > 1 || RR.subRanges().size() > 1))
      return std::nullopt;
  }
  return P;
}

std::optional<double> RangeOps::fpCmpProb(CmpPred Pred, const ValueRange &L,
                                          const ValueRange &R) {
  FPIntervalView LV = L.fpIntervals(), RV = R.fpIntervals();
  const double NL = L.nanMass(), NR = R.nanMass();
  // IEEE ordered comparisons are false whenever either side is NaN; NE
  // is true. P(either NaN) under independence:
  const double PN = NL + NR - NL * NR;
  const double NaNTerm = Pred == CmpPred::NE ? PN : 0.0;
  if (LV.empty() || RV.empty()) {
    // At least one side is certainly NaN: the outcome is decided.
    telemetry::count(telemetry::Counter::FPCmpDecided);
    return Pred == CmpPred::NE ? 1.0 : 0.0;
  }
  const bool Trusted = L.distributionKnown() && R.distributionKnown();
  // Interval masses are conditional on "not NaN" (per-side probabilities
  // sum to 1 - NaN mass).
  double P = 0.0;
  for (size_t I = 0; I < LV.size(); ++I) {
    FPInterval A = LV[I];
    for (size_t J = 0; J < RV.size(); ++J) {
      ++Stats.SubOps;
      std::optional<double> F = fpPairCmpProb(Pred, A, RV[J], Trusted);
      if (!F)
        return std::nullopt;
      P += (A.Prob / (1.0 - NL)) * (RV[J].Prob / (1.0 - NR)) * *F;
    }
  }
  P = std::clamp(P, 0.0, 1.0);
  double Final = (1.0 - PN) * P + NaNTerm;
  // Untrusted distributions: pairs were individually gated to set-level
  // certainty, but mixing certain 0s and 1s — or an untrusted NaN mass —
  // can still produce a non-certain aggregate. Only unanimity survives.
  if (!Trusted && Final != 0.0 && Final != 1.0 &&
      (LV.size() > 1 || RV.size() > 1 || PN > 0.0))
    return std::nullopt;
  telemetry::count(telemetry::Counter::FPCmpDecided);
  return Final;
}

std::optional<double> RangeOps::fpPairCmpProb(CmpPred Pred,
                                              const FPInterval &A,
                                              const FPInterval &B,
                                              bool Trusted) {
  // Set-level certainties first: valid for any distribution and the only
  // results an untrusted one may produce. Closed intervals, so e.g.
  // A.Lo >= B.Hi already refutes `a < b`.
  switch (Pred) {
  case CmpPred::LT:
    if (A.Hi < B.Lo)
      return 1.0;
    if (A.Lo >= B.Hi)
      return 0.0;
    break;
  case CmpPred::LE:
    if (A.Hi <= B.Lo)
      return 1.0;
    if (A.Lo > B.Hi)
      return 0.0;
    break;
  case CmpPred::GT:
    if (A.Lo > B.Hi)
      return 1.0;
    if (A.Hi <= B.Lo)
      return 0.0;
    break;
  case CmpPred::GE:
    if (A.Lo >= B.Hi)
      return 1.0;
    if (A.Hi < B.Lo)
      return 0.0;
    break;
  case CmpPred::EQ:
    if (A.Hi < B.Lo || B.Hi < A.Lo)
      return 0.0;
    if (A.isSingleton() && B.isSingleton())
      return A.Lo == B.Lo ? 1.0 : 0.0;
    break;
  case CmpPred::NE:
    if (A.Hi < B.Lo || B.Hi < A.Lo)
      return 1.0;
    if (A.isSingleton() && B.isSingleton())
      return A.Lo == B.Lo ? 0.0 : 1.0;
    break;
  }
  if (A.isSingleton() && B.isSingleton())
    return evalPredOnDoubles(Pred, A.Lo, B.Lo);
  if (!Trusted)
    return std::nullopt;

  // Continuous uniform model over the overlap. Point equality has
  // measure zero, so EQ/NE resolve immediately and LT == LE.
  if (Pred == CmpPred::EQ)
    return 0.0;
  if (Pred == CmpPred::NE)
    return 1.0;
  // A uniform distribution over an infinite-width interval is not a
  // model we can integrate; only the certainties above were available.
  if (!std::isfinite(A.Hi - A.Lo) || !std::isfinite(B.Hi - B.Lo))
    return std::nullopt;
  double PLt;
  if (A.isSingleton()) {
    PLt = std::clamp((B.Hi - A.Lo) / (B.Hi - B.Lo), 0.0, 1.0);
  } else if (B.isSingleton()) {
    PLt = std::clamp((B.Lo - A.Lo) / (A.Hi - A.Lo), 0.0, 1.0);
  } else {
    // P(a < y) integrated over y ~ U[B.Lo, B.Hi] — the continuous
    // counterpart of numericLtProb's integralF.
    double A1 = A.Lo, A2 = A.Hi;
    auto integralF = [&](double Y) {
      if (Y <= A1)
        return 0.0;
      if (Y >= A2)
        return (A2 - A1) / 2.0 + (Y - A2);
      return (Y - A1) * (Y - A1) / (2.0 * (A2 - A1));
    };
    PLt = std::clamp(
        (integralF(B.Hi) - integralF(B.Lo)) / (B.Hi - B.Lo), 0.0, 1.0);
  }
  // Huge-but-finite widths can overflow the integrals into ∞/∞; a NaN
  // must surface as "undecidable", never as a probability.
  if (std::isnan(PLt))
    return std::nullopt;
  switch (Pred) {
  case CmpPred::LT:
  case CmpPred::LE:
    return PLt;
  default: // GT / GE.
    return 1.0 - PLt;
  }
}
