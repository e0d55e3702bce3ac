//===- tests/vrp/RangeOpsUnitTest.cpp - Targeted operator tests -----------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// Directed unit tests complementing the property suite: float constant
// folding, casts, logical not, the paper's worked §3.5 example, stride
// behavior, lattice edge cases and history independence of repeated
// evaluation.
//
//===----------------------------------------------------------------------===//

#include "ir/Value.h"
#include "vrp/RangeOps.h"

#include <gtest/gtest.h>

using namespace vrp;

namespace {

class RangeOpsUnitTest : public ::testing::Test {
protected:
  RangeOpsUnitTest() : Ops(Opts, Stats) {}

  ValueRange numeric(double P1, int64_t L1, int64_t H1, int64_t S1) {
    return ValueRange::ranges({SubRange::numeric(P1, L1, H1, S1)},
                              Opts.MaxSubRanges);
  }

  VRPOptions Opts;
  RangeStats Stats;
  RangeOps Ops;
};

TEST_F(RangeOpsUnitTest, PaperSection35Example) {
  // { 0.7[32:256:1], 0.3[3:21:3] } + { 0.6[16:100:4], 0.4[8:8:0] }.
  ValueRange L = ValueRange::ranges({SubRange::numeric(0.7, 32, 256, 1),
                                     SubRange::numeric(0.3, 3, 21, 3)},
                                    4);
  ValueRange R = ValueRange::ranges({SubRange::numeric(0.6, 16, 100, 4),
                                     SubRange::numeric(0.4, 8, 8, 0)},
                                    4);
  ValueRange Sum = Ops.add(L, R);
  ASSERT_TRUE(Sum.isRanges());
  // The paper's result: { 0.42[48:356:1], 0.28[40:264:1],
  //                       0.18[19:121:1], 0.12[11:29:3] }.
  ASSERT_EQ(Sum.subRanges().size(), 4u);
  auto expectPiece = [&](double P, int64_t Lo, int64_t Hi, int64_t S) {
    for (const SubRange &Piece : Sum.subRanges())
      if (Piece.Lo.Offset == Lo && Piece.Hi.Offset == Hi) {
        EXPECT_NEAR(Piece.Prob, P, 1e-9);
        EXPECT_EQ(Piece.Stride, S);
        return;
      }
    ADD_FAILURE() << "missing piece [" << Lo << ":" << Hi << ":" << S
                  << "] in " << Sum.str();
  };
  expectPiece(0.42, 48, 356, 1);
  expectPiece(0.28, 40, 264, 1);
  expectPiece(0.18, 19, 121, 1);
  expectPiece(0.12, 11, 29, 3);
}

TEST_F(RangeOpsUnitTest, FloatConstantFolding) {
  ValueRange A = ValueRange::floatConstant(1.5);
  ValueRange B = ValueRange::floatConstant(2.0);
  EXPECT_DOUBLE_EQ(Ops.add(A, B).floatValue(), 3.5);
  EXPECT_DOUBLE_EQ(Ops.sub(A, B).floatValue(), -0.5);
  EXPECT_DOUBLE_EQ(Ops.mul(A, B).floatValue(), 3.0);
  EXPECT_DOUBLE_EQ(Ops.div(A, B).floatValue(), 0.75);
  EXPECT_DOUBLE_EQ(Ops.minOp(A, B).floatValue(), 1.5);
  EXPECT_DOUBLE_EQ(Ops.maxOp(A, B).floatValue(), 2.0);
  EXPECT_DOUBLE_EQ(Ops.neg(A).floatValue(), -1.5);
  EXPECT_DOUBLE_EQ(Ops.absOp(Ops.neg(A)).floatValue(), 1.5);
  // Division by the float constant zero matches interpreter semantics.
  EXPECT_DOUBLE_EQ(Ops.div(A, ValueRange::floatConstant(0.0)).floatValue(),
                   0.0);
  // Float mixed with a non-constant collapses to ⊥.
  EXPECT_TRUE(Ops.add(A, ValueRange::bottom()).isBottom());
  EXPECT_TRUE(Ops.add(A, numeric(1.0, 0, 5, 1)).isBottom());
}

TEST_F(RangeOpsUnitTest, FloatComparisons) {
  ValueRange A = ValueRange::floatConstant(1.5);
  ValueRange B = ValueRange::floatConstant(2.0);
  EXPECT_EQ(*Ops.cmpProb(CmpPred::LT, A, B, nullptr, nullptr), 1.0);
  EXPECT_EQ(*Ops.cmpProb(CmpPred::GE, A, B, nullptr, nullptr), 0.0);
  EXPECT_EQ(*Ops.cmpProb(CmpPred::EQ, A, A, nullptr, nullptr), 1.0);
  EXPECT_FALSE(
      Ops.cmpProb(CmpPred::LT, A, ValueRange::bottom(), nullptr, nullptr)
          .has_value());
}

TEST_F(RangeOpsUnitTest, Casts) {
  EXPECT_DOUBLE_EQ(
      Ops.intToFloat(ValueRange::intConstant(7)).floatValue(), 7.0);
  EXPECT_EQ(Ops.floatToInt(ValueRange::floatConstant(3.99)).asIntConstant(),
            3);
  EXPECT_EQ(
      Ops.floatToInt(ValueRange::floatConstant(-3.99)).asIntConstant(),
      -3);
  // A non-constant int range converts into the FP interval hull; with
  // the FP lattice disabled it degrades to ⊥ as before.
  ValueRange Conv = Ops.intToFloat(numeric(1.0, 0, 5, 1));
  ASSERT_TRUE(Conv.isFloatRanges());
  EXPECT_EQ(Conv.fpIntervals().front().Lo, 0.0);
  EXPECT_EQ(Conv.fpIntervals().back().Hi, 5.0);
  {
    VRPOptions NoFP;
    NoFP.EnableFPRanges = false;
    RangeStats NoFPStats;
    RangeOps NoFPOps(NoFP, NoFPStats);
    EXPECT_TRUE(NoFPOps.intToFloat(numeric(1.0, 0, 5, 1)).isBottom());
  }
  EXPECT_TRUE(Ops.floatToInt(ValueRange::bottom()).isBottom());
  // ⊤ passes through (SCCP optimism).
  EXPECT_TRUE(Ops.intToFloat(ValueRange::top()).isTop());
}

TEST_F(RangeOpsUnitTest, LogicalNot) {
  EXPECT_EQ(Ops.notOp(ValueRange::intConstant(0)).asIntConstant(), 1);
  EXPECT_EQ(Ops.notOp(ValueRange::intConstant(42)).asIntConstant(), 0);
  // {-2..2}: P(zero) = 0.2 -> not is true 20% of the time.
  ValueRange R = numeric(1.0, -2, 2, 1);
  ValueRange N = Ops.notOp(R);
  ASSERT_TRUE(N.isRanges());
  EXPECT_NEAR(*N.probNonZero(), 0.2, 1e-12);
  EXPECT_TRUE(Ops.notOp(ValueRange::bottom()).isBottom());
  EXPECT_TRUE(Ops.notOp(ValueRange::top()).isTop());
}

TEST_F(RangeOpsUnitTest, StridePreservation) {
  // [0:30:3] + 5 keeps stride 3; * 2 doubles it; / 3 divides exactly.
  ValueRange R = numeric(1.0, 0, 30, 3);
  ValueRange Plus = Ops.add(R, ValueRange::intConstant(5));
  ASSERT_TRUE(Plus.isRanges());
  EXPECT_EQ(Plus.subRanges().front().Stride, 3);
  EXPECT_EQ(Plus.subRanges().front().Lo.Offset, 5);

  ValueRange Twice = Ops.mul(R, ValueRange::intConstant(2));
  EXPECT_EQ(Twice.subRanges().front().Stride, 6);

  ValueRange Third = Ops.div(R, ValueRange::intConstant(3));
  EXPECT_EQ(Third.subRanges().front().Stride, 1);
  EXPECT_EQ(Third.subRanges().front().Hi.Offset, 10);

  // [0:100:10] % 4: residues keep gcd(10, 4) = 2.
  ValueRange Mod =
      Ops.rem(numeric(1.0, 0, 100, 10), ValueRange::intConstant(4));
  ASSERT_TRUE(Mod.isRanges());
  EXPECT_EQ(Mod.subRanges().front().Stride, 2);
  EXPECT_EQ(Mod.subRanges().front().Lo.Offset, 0);
  EXPECT_EQ(Mod.subRanges().front().Hi.Offset, 2);

  // [0:100:10] % 10 collapses to the single residue 0.
  EXPECT_EQ(Ops.rem(numeric(1.0, 0, 100, 10), ValueRange::intConstant(10))
                .asIntConstant(),
            0);
}

TEST_F(RangeOpsUnitTest, RemOfUnknownDividendKeepsSet) {
  ValueRange R = Ops.rem(ValueRange::bottom(), ValueRange::intConstant(7));
  ASSERT_TRUE(R.isRanges());
  EXPECT_FALSE(R.distributionKnown());
  EXPECT_EQ(R.subRanges().front().Lo.Offset, -6);
  EXPECT_EQ(R.subRanges().front().Hi.Offset, 6);
  // Modulo zero stays ⊥.
  EXPECT_TRUE(
      Ops.rem(ValueRange::bottom(), ValueRange::intConstant(0)).isBottom());
}

TEST_F(RangeOpsUnitTest, LatticePassThrough) {
  ValueRange C = ValueRange::intConstant(4);
  EXPECT_TRUE(Ops.add(ValueRange::top(), C).isTop());
  EXPECT_TRUE(Ops.add(ValueRange::bottom(), C).isBottom());
  EXPECT_TRUE(Ops.mul(ValueRange::top(), ValueRange::bottom()).isBottom());
  EXPECT_TRUE(Ops.neg(ValueRange::top()).isTop());
  EXPECT_TRUE(Ops.neg(ValueRange::bottom()).isBottom());
}

TEST_F(RangeOpsUnitTest, DivisionCornerCases) {
  // Divisor range straddling zero: quotients from the ±1 candidates.
  ValueRange Div = Ops.div(numeric(1.0, 100, 100, 0),
                           numeric(1.0, -2, 2, 1));
  ASSERT_TRUE(Div.isRanges());
  EXPECT_EQ(Div.subRanges().front().Lo.Offset, -100);
  EXPECT_EQ(Div.subRanges().front().Hi.Offset, 100);
  // Singleton zero divisor: undefined everywhere -> ⊥.
  EXPECT_TRUE(
      Ops.div(numeric(1.0, 0, 10, 1), ValueRange::intConstant(0)).isBottom());
  // Int64Min / -1 saturates instead of trapping.
  ValueRange Extreme = Ops.div(numeric(1.0, Int64Min, Int64Min, 0),
                               ValueRange::intConstant(-1));
  ASSERT_TRUE(Extreme.isRanges());
}

TEST_F(RangeOpsUnitTest, SubOpsAreCounted) {
  uint64_t Before = Stats.SubOps;
  Ops.add(numeric(1.0, 0, 10, 1), numeric(1.0, 0, 10, 1));
  EXPECT_GT(Stats.SubOps, Before);
}

TEST_F(RangeOpsUnitTest, RepeatedEvaluationIsHistoryIndependent) {
  // An operation's result and its SubOps count depend only on its
  // operands: evaluating the same operations again on the same instance
  // must repeat exactly the same work (Figure 6 counts every evaluation).
  Param N(IRType::Int, "n", 0, nullptr);
  ValueRange A = ValueRange::ranges({SubRange::numeric(0.5, 0, 10, 1),
                                     SubRange::numeric(0.5, 20, 40, 4)},
                                    Opts.MaxSubRanges);
  ValueRange B = numeric(1.0, -3, 3, 1);
  // i in [0 : n-1], the loop-test shape, compared against n itself.
  ValueRange I = ValueRange::ranges(
      {SubRange(1.0, Bound(nullptr, 0), Bound(&N, -1), 1)},
      Opts.MaxSubRanges);
  ValueRange FA = Ops.intToFloat(A), FB = Ops.intToFloat(B);
  ASSERT_TRUE(FA.isFloatRanges() && FB.isFloatRanges());
  std::vector<std::pair<ValueRange, double>> Phi{{A, 0.25}, {B, 0.75}};

  struct Outcome {
    ValueRange Add, Meet, Assert, FPMul;
    std::optional<double> Cmp;
    std::vector<uint64_t> SubOps;
  };
  auto evaluate = [&] {
    Outcome O;
    auto counted = [&](auto &&Op) {
      uint64_t Before = Stats.SubOps;
      auto Result = Op();
      O.SubOps.push_back(Stats.SubOps - Before);
      return Result;
    };
    O.Add = counted([&] { return Ops.add(A, B); });
    O.Meet = counted([&] { return Ops.meetWeighted(Phi); });
    O.Assert = counted([&] {
      return Ops.applyAssert(A, CmpPred::LT, ValueRange::bottom(), &N);
    });
    O.Cmp = counted([&] {
      return Ops.cmpProb(CmpPred::LT, I, ValueRange::bottom(), nullptr, &N);
    });
    O.FPMul = counted([&] { return Ops.mul(FA, FB); });
    return O;
  };

  Outcome First = evaluate();
  Outcome Second = evaluate();
  EXPECT_TRUE(First.Add.equals(Second.Add)) << First.Add.str();
  EXPECT_TRUE(First.Meet.equals(Second.Meet)) << First.Meet.str();
  EXPECT_TRUE(First.Assert.equals(Second.Assert)) << First.Assert.str();
  EXPECT_TRUE(First.FPMul.equals(Second.FPMul)) << First.FPMul.str();
  ASSERT_TRUE(First.Cmp.has_value());
  EXPECT_EQ(First.Cmp, Second.Cmp);
  EXPECT_EQ(First.SubOps, Second.SubOps);

  // Every operation did real work, and the assert took the symbolic clip.
  for (uint64_t Delta : First.SubOps)
    EXPECT_GT(Delta, 0u);
  ASSERT_TRUE(First.Assert.isRanges());
  bool Symbolic = false;
  for (const SubRange &S : First.Assert.subRanges())
    Symbolic |= S.Hi.Sym == &N;
  EXPECT_TRUE(Symbolic) << First.Assert.str();
  EXPECT_TRUE(First.FPMul.isFloatRanges());
}

} // namespace
