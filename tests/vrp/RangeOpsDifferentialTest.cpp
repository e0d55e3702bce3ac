//===- tests/vrp/RangeOpsDifferentialTest.cpp - Old vs new kernel parity --===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// Differential oracle for the arena/SoA refactor: the pre-refactor
// vector-backed kernels (transcribed verbatim below as `ref*`) and the
// arena-backed batched kernels must agree *exactly* — bitwise-equal
// probabilities, identical bounds/strides/symbols, identical ⊥ decisions
// — on add/mul/rem, meetWeighted and union/canonicalization, including
// symbolic bounds and probability renormalization. The suite-level
// bitwise gates in scripts/check.sh catch end-to-end drift; this test
// pins the kernels directly, over the same exhaustive [-8, 8] domain the
// containment oracle uses plus randomized multi-subrange and symbolic
// cases.
//
//===----------------------------------------------------------------------===//

#include "ir/Value.h"
#include "support/MathUtil.h"
#include "support/RNG.h"
#include "vrp/RangeOps.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <tuple>
#include <vector>

using namespace vrp;

namespace {

//===----------------------------------------------------------------------===//
// Reference implementation: the seed's vector-backed pipeline, transcribed.
// Deliberately NOT shared with the production code — drift between the two
// is exactly what this test exists to detect.
//===----------------------------------------------------------------------===//

std::tuple<int, int64_t, uint64_t> refSymRank(const Value *Sym) {
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

bool refSubRangeLess(const SubRange &A, const SubRange &B) {
  auto Key = [](const SubRange &S) {
    return std::tuple(refSymRank(S.Lo.Sym), S.Lo.Offset,
                      refSymRank(S.Hi.Sym), S.Hi.Offset, S.Stride);
  };
  return Key(A) < Key(B);
}

bool refIsValidNumeric(const SubRange &S) {
  if (S.Lo.Offset > S.Hi.Offset)
    return false;
  if (S.Stride == 0)
    return S.Lo.Offset == S.Hi.Offset;
  if (S.Stride < 0)
    return false;
  __int128 Span = static_cast<__int128>(S.Hi.Offset) - S.Lo.Offset;
  return Span % S.Stride == 0;
}

SubRange refHullMerge(const SubRange &A, const SubRange &B) {
  int64_t Lo = std::min(A.Lo.Offset, B.Lo.Offset);
  int64_t Hi = std::max(A.Hi.Offset, B.Hi.Offset);
  int64_t Stride = 0;
  if (Lo != Hi) {
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

/// The seed's ValueRange::ranges() canonicalization; nullopt = ⊥.
std::optional<std::vector<SubRange>>
refCanonicalize(std::vector<SubRange> Subs, unsigned MaxSubRanges) {
  std::vector<SubRange> Clean;
  for (SubRange &S : Subs) {
    if (S.Prob <= 0.0)
      continue;
    if (S.isNumeric()) {
      if (S.Lo.Offset == S.Hi.Offset)
        S.Stride = 0;
      if (!refIsValidNumeric(S))
        return std::nullopt;
    } else if (S.Lo.Sym && S.Hi.Sym && S.Lo.Sym != S.Hi.Sym) {
      return std::nullopt;
    }
    Clean.push_back(S);
  }
  if (Clean.empty())
    return std::nullopt;

  std::sort(Clean.begin(), Clean.end(), refSubRangeLess);
  std::vector<SubRange> Merged;
  for (const SubRange &S : Clean) {
    if (!Merged.empty() && Merged.back().sameShape(S))
      Merged.back().Prob += S.Prob;
    else
      Merged.push_back(S);
  }

  double Total = 0.0;
  for (const SubRange &S : Merged)
    Total += S.Prob;
  if (Total <= 0.0)
    return std::nullopt;
  if (std::abs(Total - 1.0) > 1e-12)
    for (SubRange &S : Merged)
      S.Prob /= Total;

  while (Merged.size() > MaxSubRanges) {
    int BestA = -1, BestB = -1;
    double BestCost = 0.0;
    for (size_t I = 0; I < Merged.size(); ++I) {
      if (!Merged[I].isNumeric())
        continue;
      for (size_t J = I + 1; J < Merged.size(); ++J) {
        if (!Merged[J].isNumeric())
          continue;
        double SpanI = static_cast<double>(Merged[I].Hi.Offset) -
                       static_cast<double>(Merged[I].Lo.Offset);
        double SpanJ = static_cast<double>(Merged[J].Hi.Offset) -
                       static_cast<double>(Merged[J].Lo.Offset);
        double Lo = std::min(static_cast<double>(Merged[I].Lo.Offset),
                             static_cast<double>(Merged[J].Lo.Offset));
        double Hi = std::max(static_cast<double>(Merged[I].Hi.Offset),
                             static_cast<double>(Merged[J].Hi.Offset));
        double Cost = (Hi - Lo) - SpanI - SpanJ;
        if (BestA < 0 || Cost < BestCost) {
          BestA = static_cast<int>(I);
          BestB = static_cast<int>(J);
          BestCost = Cost;
        }
      }
    }
    if (BestA < 0)
      return std::nullopt;
    SubRange Combined = refHullMerge(Merged[BestA], Merged[BestB]);
    Merged.erase(Merged.begin() + BestB);
    Merged[BestA] = Combined;
    std::sort(Merged.begin(), Merged.end(), refSubRangeLess);
  }
  return Merged;
}

SubRange refMakePiece(double Prob, int64_t Lo, int64_t Hi, int64_t Stride) {
  if (Lo == Hi)
    return SubRange::numeric(Prob, Lo, Hi, 0);
  if (Stride <= 0)
    Stride = 1;
  __int128 Span = static_cast<__int128>(Hi) - Lo;
  if (Span % Stride != 0)
    Stride = 1;
  return SubRange::numeric(Prob, Lo, Hi, Stride);
}

bool refAddBounds(const Bound &A, const Bound &B, Bound &Out) {
  if (A.Sym && B.Sym)
    return false;
  Out = Bound(A.Sym ? A.Sym : B.Sym, saturatingAdd(A.Offset, B.Offset));
  return true;
}

bool refPairAdd(const SubRange &A, const SubRange &B,
                std::vector<SubRange> &Out) {
  Bound Lo, Hi;
  if (!refAddBounds(A.Lo, B.Lo, Lo) || !refAddBounds(A.Hi, B.Hi, Hi))
    return false;
  int64_t Stride = strideGcd(A.Stride, B.Stride);
  if (Lo.isNumeric() && Hi.isNumeric()) {
    Out.push_back(
        refMakePiece(A.Prob * B.Prob, Lo.Offset, Hi.Offset, Stride));
  } else {
    if (Lo == Hi)
      Stride = 0;
    else if (Stride == 0)
      Stride = 1;
    Out.push_back(SubRange(A.Prob * B.Prob, Lo, Hi, Stride));
  }
  return true;
}

bool refPairMul(const SubRange &A, const SubRange &B,
                std::vector<SubRange> &Out) {
  double Prob = A.Prob * B.Prob;
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
  Out.push_back(refMakePiece(Prob, Lo, Hi, Stride));
  return true;
}

bool refPairRem(const SubRange &A, const SubRange &B,
                std::vector<SubRange> &Out) {
  if (!A.isNumeric() || !B.isNumeric())
    return false;
  double Prob = A.Prob * B.Prob;
  if (B.isSingleton() && B.Lo.Offset == 0)
    return false;
  int64_t MaxMag =
      B.Lo.Offset == Int64Min
          ? Int64Max
          : std::max(saturatingAbs(B.Lo.Offset),
                     saturatingAbs(B.Hi.Offset)) -
                1;
  if (A.Lo.Offset >= 0 && A.Hi.Offset <= MaxMag && B.isSingleton()) {
    Out.push_back(A.withProb(Prob));
    return true;
  }
  if (B.isSingleton() && A.Lo.Offset >= 0) {
    int64_t C = saturatingAbs(B.Lo.Offset);
    if (A.Stride > 0 && A.Stride % C == 0) {
      Out.push_back(SubRange::singleton(Prob, A.Lo.Offset % C));
      return true;
    }
    int64_t G = A.Stride > 0 ? strideGcd(A.Stride, C) : 0;
    if (G > 1) {
      int64_t First = A.Lo.Offset % G;
      int64_t Last = First + ((C - 1 - First) / G) * G;
      Out.push_back(refMakePiece(Prob, First, std::min(Last, C - 1), G));
      return true;
    }
    Out.push_back(refMakePiece(Prob, 0, std::min(A.Hi.Offset, C - 1), 1));
    return true;
  }
  int64_t Lo = A.Lo.Offset >= 0 ? 0 : std::max(A.Lo.Offset, -MaxMag);
  int64_t Hi = A.Hi.Offset <= 0 ? 0 : std::min(A.Hi.Offset, MaxMag);
  Out.push_back(refMakePiece(Prob, Lo, Hi, 1));
  return true;
}

/// The seed's binaryNumeric: pairwise loop in subrange order, ⊥ on the
/// first unrepresentable pair, then canonicalize.
std::optional<std::vector<SubRange>>
refBinary(const ValueRange &L, const ValueRange &R,
          bool (*PairOp)(const SubRange &, const SubRange &,
                         std::vector<SubRange> &),
          unsigned Cap) {
  std::vector<SubRange> LS = L.subRanges(), RS = R.subRanges();
  std::vector<SubRange> Out;
  for (const SubRange &A : LS)
    for (const SubRange &B : RS)
      if (!PairOp(A, B, Out))
        return std::nullopt;
  return refCanonicalize(std::move(Out), Cap);
}

/// The seed's meetWeighted accumulation over Ranges entries (the
/// float/top/bottom short-circuits are unchanged code paths).
std::optional<std::vector<SubRange>> refMeet(
    const std::vector<std::pair<ValueRange, double>> &Entries,
    unsigned Cap) {
  double TotalWeight = 0.0;
  for (const auto &[VR, W] : Entries) {
    if (W <= 0.0 || VR.isTop())
      continue;
    if (VR.isBottom())
      return std::nullopt;
    TotalWeight += W;
  }
  std::vector<SubRange> Out;
  for (const auto &[VR, W] : Entries) {
    if (W <= 0.0 || !VR.isRanges())
      continue;
    double Scale = W / TotalWeight;
    for (const SubRange &S : VR.subRanges()) {
      SubRange Scaled = S;
      Scaled.Prob *= Scale;
      Out.push_back(Scaled);
    }
  }
  return refCanonicalize(std::move(Out), Cap);
}

//===----------------------------------------------------------------------===//
// Exact comparison
//===----------------------------------------------------------------------===//

bool bitwiseEq(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// New result vs reference rows: kind agreement and bitwise row equality
/// (probabilities by bit pattern, symbols by identity).
void expectExact(const ValueRange &New,
                 const std::optional<std::vector<SubRange>> &Ref,
                 const char *What) {
  if (!Ref) {
    EXPECT_TRUE(New.isBottom()) << What << ": expected bottom, got "
                                << New.str();
    return;
  }
  ASSERT_TRUE(New.isRanges()) << What << ": expected ranges, got "
                              << New.str();
  SubRangeView View = New.subRanges();
  ASSERT_EQ(View.size(), Ref->size()) << What << ": " << New.str();
  for (size_t I = 0; I < Ref->size(); ++I) {
    SubRange N = View[I];
    const SubRange &E = (*Ref)[I];
    EXPECT_TRUE(bitwiseEq(N.Prob, E.Prob))
        << What << " row " << I << ": prob " << N.Prob << " vs " << E.Prob;
    EXPECT_EQ(N.Lo.Sym, E.Lo.Sym) << What << " row " << I;
    EXPECT_EQ(N.Lo.Offset, E.Lo.Offset) << What << " row " << I;
    EXPECT_EQ(N.Hi.Sym, E.Hi.Sym) << What << " row " << I;
    EXPECT_EQ(N.Hi.Offset, E.Hi.Offset) << What << " row " << I;
    EXPECT_EQ(N.Stride, E.Stride) << What << " row " << I;
  }
}

/// Every valid subrange with bounds in [-8, 8] and stride in {0,1,2,3}.
std::vector<SubRange> smallDomain() {
  std::vector<SubRange> All;
  for (int64_t Lo = -8; Lo <= 8; ++Lo)
    for (int64_t Hi = Lo; Hi <= 8; ++Hi)
      for (int64_t Stride = 0; Stride <= 3; ++Stride) {
        SubRange S = SubRange::numeric(1.0, Lo, Hi, Stride);
        if (refIsValidNumeric(S))
          All.push_back(S);
      }
  return All;
}

ValueRange single(const SubRange &S, unsigned Cap = 4) {
  std::vector<SubRange> V{S};
  return ValueRange::ranges(std::move(V), Cap);
}

//===----------------------------------------------------------------------===//
// Tests
//===----------------------------------------------------------------------===//

TEST(RangeOpsDifferential, ExhaustiveSmallDomainAddMulRem) {
  VRPOptions Opts;
  RangeStats Stats;
  std::vector<SubRange> Domain = smallDomain();
  for (const SubRange &SA : Domain) {
    ValueRange A = single(SA);
    for (const SubRange &SB : Domain) {
      ValueRange B = single(SB);
      RangeOps Ops(Opts, Stats);
      expectExact(Ops.add(A, B),
                  refBinary(A, B, refPairAdd, Opts.MaxSubRanges), "add");
      expectExact(Ops.mul(A, B),
                  refBinary(A, B, refPairMul, Opts.MaxSubRanges), "mul");
      expectExact(Ops.rem(A, B),
                  refBinary(A, B, refPairRem, Opts.MaxSubRanges), "rem");
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "first divergence at A=" << A.str()
                      << " B=" << B.str();
        return;
      }
    }
  }
}

TEST(RangeOpsDifferential, MemoReplayMatchesUncached) {
  // The same op twice through one instance must return the identical
  // result: nothing an instance evaluated before may change an answer.
  VRPOptions Opts;
  RangeStats Stats;
  RangeOps Ops(Opts, Stats);
  std::vector<SubRange> Domain = smallDomain();
  for (size_t I = 0; I < Domain.size(); I += 7) {
    ValueRange A = single(Domain[I]);
    ValueRange B = single(Domain[(I * 13 + 5) % Domain.size()]);
    ValueRange First = Ops.add(A, B);
    ValueRange Second = Ops.add(A, B);
    ASSERT_TRUE(First.equals(Second))
        << First.str() << " vs " << Second.str();
  }
}

TEST(RangeOpsDifferential, RandomMultiSubrangeRenormalization) {
  // Piece sets with probabilities that do NOT sum to 1 and counts over
  // the cap: exercises renormalization and hull coalescing — union
  // through the canonicalizer — against the reference pipeline.
  RNG Rng(1234);
  for (int Case = 0; Case < 2000; ++Case) {
    unsigned Cap = 1 + Rng.nextInRange(0, 3);
    unsigned N = 1 + Rng.nextInRange(0, 9);
    std::vector<SubRange> Pieces;
    for (unsigned I = 0; I < N; ++I) {
      int64_t Lo = Rng.nextInRange(-100, 100);
      int64_t Span = Rng.nextInRange(0, 60);
      int64_t Stride = Span == 0 ? 0 : Rng.nextInRange(1, 4);
      if (Stride > 0)
        Span -= Span % Stride;
      double Prob = 0.05 * (1 + Rng.nextInRange(0, 19));
      Pieces.push_back(
          SubRange::numeric(Prob, Lo, Lo + Span, Span == 0 ? 0 : Stride));
    }
    std::vector<SubRange> Copy = Pieces;
    ValueRange New = ValueRange::ranges(std::move(Copy), Cap);
    expectExact(New, refCanonicalize(Pieces, Cap), "union/canonicalize");
    if (::testing::Test::HasFailure())
      return;
  }
}

TEST(RangeOpsDifferential, SymbolicBoundsAddAndCanonicalize) {
  VRPOptions Opts;
  RangeStats Stats;
  Param N(IRType::Int, "n", 0, nullptr);
  Param M(IRType::Int, "m", 1, nullptr);
  RNG Rng(77);
  for (int Case = 0; Case < 500; ++Case) {
    const Value *Sym = (Case & 1) ? static_cast<const Value *>(&N) : &M;
    // Mixed symbolic + numeric piece set through the canonicalizer.
    std::vector<SubRange> Pieces;
    int64_t SLo = Rng.nextInRange(-20, 20);
    int64_t SSpan = Rng.nextInRange(0, 10);
    Pieces.push_back(SubRange(0.5, Bound(Sym, SLo), Bound(Sym, SLo + SSpan),
                              SSpan == 0 ? 0 : 1));
    int64_t NLo = Rng.nextInRange(-50, 50);
    int64_t NSpan = Rng.nextInRange(0, 30);
    Pieces.push_back(SubRange::numeric(0.5, NLo, NLo + NSpan,
                                       NSpan == 0 ? 0 : 1));
    std::vector<SubRange> Copy = Pieces;
    ValueRange A = ValueRange::ranges(std::move(Copy), 4);
    expectExact(A, refCanonicalize(Pieces, 4), "symbolic canonicalize");

    // Symbolic + numeric addition routes through the slow path.
    ValueRange B = single(SubRange::numeric(
        1.0, Rng.nextInRange(-8, 8), Rng.nextInRange(8, 16), 1));
    RangeOps Ops(Opts, Stats);
    expectExact(Ops.add(A, B),
                refBinary(A, B, refPairAdd, Opts.MaxSubRanges),
                "symbolic add");
    // Multiplication by the singletons 0 and 1 keeps/zeroes the symbol;
    // anything else must agree on the ⊥ decision.
    for (int64_t K : {0, 1, 2}) {
      ValueRange C = ValueRange::intConstant(K);
      RangeOps Ops2(Opts, Stats);
      expectExact(Ops2.mul(A, C),
                  refBinary(A, C, refPairMul, Opts.MaxSubRanges),
                  "symbolic mul");
    }
    if (::testing::Test::HasFailure())
      return;
  }
}

TEST(RangeOpsDifferential, MeetWeightedIncludingSymbolic) {
  VRPOptions Opts;
  RangeStats Stats;
  Param N(IRType::Int, "n", 0, nullptr);
  RNG Rng(99);
  for (int Case = 0; Case < 500; ++Case) {
    unsigned K = 2 + Rng.nextInRange(0, 2);
    std::vector<std::pair<ValueRange, double>> Entries;
    for (unsigned I = 0; I < K; ++I) {
      double W = 0.1 * (1 + Rng.nextInRange(0, 9));
      if (Case % 5 == 0 && I == 0) {
        // A symbolic entry in the φ meet.
        int64_t Lo = Rng.nextInRange(-10, 10);
        std::vector<SubRange> P{
            SubRange(1.0, Bound(&N, Lo), Bound(&N, Lo + 4), 1)};
        Entries.push_back({ValueRange::ranges(std::move(P), 4), W});
        continue;
      }
      int64_t Lo = Rng.nextInRange(-100, 100);
      int64_t Span = Rng.nextInRange(0, 40);
      Entries.push_back(
          {single(SubRange::numeric(1.0, Lo, Lo + Span, Span == 0 ? 0 : 1)),
           W});
    }
    RangeOps Ops(Opts, Stats);
    expectExact(Ops.meetWeighted(Entries),
                refMeet(Entries, Opts.MaxSubRanges), "meetWeighted");
    if (::testing::Test::HasFailure())
      return;
  }
}

} // namespace
