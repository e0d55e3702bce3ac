//===- tests/vrp/PropagationTest.cpp - Engine behavior tests --------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// Tests of the worklist engine over small programs: constant
// subsumption, unreachable-edge detection, φ weighting, the assertion
// merge rule (footnote 4), heuristic-fallback marking and engine
// statistics.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "ir/CFGUtils.h"
#include "ir/IRPrinter.h"
#include "profile/Interpreter.h"

#include <gtest/gtest.h>

using namespace vrp;

namespace {

/// Compiles and propagates `main`, returning both.
struct Analyzed {
  std::unique_ptr<CompiledProgram> Compiled;
  const Function *Main = nullptr;
  FunctionVRPResult Result;
};

Analyzed analyze(const char *Source, VRPOptions Opts = {}) {
  Analyzed A;
  DiagnosticEngine Diags;
  A.Compiled = compileToSSA(Source, Diags, Opts);
  EXPECT_TRUE(A.Compiled) << Diags.firstError();
  if (!A.Compiled)
    return A;
  A.Main = A.Compiled->IR->findFunction("main");
  A.Result = propagateRanges(*A.Main, Opts);
  return A;
}

const CondBrInst *onlyBranch(const Function &F) {
  const CondBrInst *Found = nullptr;
  for (const auto &B : F.blocks())
    if (const auto *CBr = dyn_cast_or_null<CondBrInst>(B->terminator())) {
      EXPECT_EQ(Found, nullptr);
      Found = CBr;
    }
  return Found;
}

//===----------------------------------------------------------------------===//
// Constant propagation subsumption (paper §6)
//===----------------------------------------------------------------------===//

TEST(PropagationTest, ConstantChainsFold) {
  Analyzed A = analyze(R"(
    fn main() {
      var a = 6;
      var b = a * 7;
      var c = b - 2;
      return c;
    }
  )");
  ASSERT_TRUE(A.Main);
  const auto *Ret =
      cast<RetInst>(A.Main->blocks().back()->terminator());
  EXPECT_EQ(A.Result.rangeOf(Ret->value()).asIntConstant(), 40);
}

TEST(PropagationTest, FloatConstantsFold) {
  Analyzed A = analyze(R"(
    fn main() {
      var x = 1.5;
      var y = x * 4.0;
      return int(y);
    }
  )");
  ASSERT_TRUE(A.Main);
  const auto *Ret =
      cast<RetInst>(A.Main->blocks().back()->terminator());
  EXPECT_EQ(A.Result.rangeOf(Ret->value()).asIntConstant(), 6);
}

TEST(PropagationTest, BranchOnConstantIsCertain) {
  Analyzed A = analyze(R"(
    fn main() {
      var x = 5;
      if (x > 3) {
        return 1;
      }
      return 0;
    }
  )");
  ASSERT_TRUE(A.Main);
  const CondBrInst *Branch = onlyBranch(*A.Main);
  ASSERT_NE(Branch, nullptr);
  const BranchPrediction &P = A.Result.Branches.at(Branch);
  EXPECT_TRUE(P.FromRanges);
  EXPECT_EQ(P.ProbTrue, 1.0);
  // The false edge's target is unreachable: probability 0.
  EXPECT_EQ(A.Result.edgeFraction(Branch->parent(), Branch->falseBlock()),
            0.0);
}

TEST(PropagationTest, UnreachableBranchesAreMarked) {
  Analyzed A = analyze(R"(
    fn main(n) {
      var x = 2;
      if (x == 3) {
        // Unreachable region with its own branch.
        if (n > 0) {
          return 1;
        }
        return 2;
      }
      return 0;
    }
  )");
  ASSERT_TRUE(A.Main);
  unsigned Unreachable = 0;
  for (const auto &[Branch, Pred] : A.Result.Branches)
    if (!Pred.Reachable)
      ++Unreachable;
  EXPECT_EQ(Unreachable, 1u);
}

//===----------------------------------------------------------------------===//
// φ merging
//===----------------------------------------------------------------------===//

TEST(PropagationTest, PhiMergesWeightedByEdgeProbabilities) {
  // P(then) = 0.25 exactly (x in [0:3] == 0), so the merged constant
  // distribution must be {0.25[100], 0.75[200]}.
  Analyzed A = analyze(R"(
    fn main() {
      var total = 0;
      for (var i = 0; i < 4; i = i + 1) {
        var y = 0;
        if (i == 0) {
          y = 100;
        } else {
          y = 200;
        }
        total = total + y;
      }
      return total;
    }
  )");
  ASSERT_TRUE(A.Main);
  // Find the φ merging 100/200.
  for (const auto &B : A.Main->blocks()) {
    for (PhiInst *Phi : B->phis()) {
      ValueRange VR = A.Result.rangeOf(Phi);
      if (!VR.isRanges() || VR.subRanges().size() != 2)
        continue;
      const auto &Subs = VR.subRanges();
      if (Subs[0].Lo.Offset == 100 && Subs[1].Lo.Offset == 200) {
        EXPECT_NEAR(Subs[0].Prob, 0.25, 1e-6);
        EXPECT_NEAR(Subs[1].Prob, 0.75, 1e-6);
        return;
      }
    }
  }
  FAIL() << "merged φ {0.25[100], 0.75[200]} not found";
}

TEST(PropagationTest, AssertionMergeRuleRecoversParentRange) {
  // Footnote 4: merging all the assertion-derived variables of a common
  // parent results in the value range of the parent variable. Build the
  // diamond directly: x in [0:9]; φ(assert(x>2), assert(x<=2)) must
  // recover exactly x's range, not a lossy weighted remerge.
  Module M;
  Function *F = M.makeFunction("f", IRType::Int);
  Param *X = F->addParam(IRType::Int, "x");
  BasicBlock *Entry = F->makeBlock("entry");
  BasicBlock *Then = F->makeBlock("then");
  BasicBlock *Else = F->makeBlock("else");
  BasicBlock *Join = F->makeBlock("join");

  auto *Cmp = cast<CmpInst>(Entry->append(
      std::make_unique<CmpInst>(CmpPred::GT, X, Constant::getInt(2))));
  createCondBr(Entry, Cmp, Then, Else);
  auto *AThen = cast<AssertInst>(Then->append(
      std::make_unique<AssertInst>(X, CmpPred::GT, Constant::getInt(2))));
  createBr(Then, Join);
  auto *AElse = cast<AssertInst>(Else->append(
      std::make_unique<AssertInst>(X, CmpPred::LE, Constant::getInt(2))));
  createBr(Else, Join);
  auto *Phi = Join->insertPhi(std::make_unique<PhiInst>(IRType::Int));
  Phi->addIncoming(AThen, Then);
  Phi->addIncoming(AElse, Else);
  createRet(Join, Phi);

  VRPOptions Opts;
  PropagationContext Ctx;
  Ctx.ParamRange = [](const Param *) {
    return ValueRange::ranges({SubRange::numeric(1.0, 0, 9, 1)}, 4);
  };
  Ctx.CallResultRange = [](const CallInst *) {
    return ValueRange::bottom();
  };
  FunctionVRPResult R = propagateRanges(*F, Opts, Ctx);

  ValueRange PhiVR = R.rangeOf(Phi);
  ValueRange XVR = R.rangeOf(X);
  EXPECT_TRUE(PhiVR.equals(XVR, 1e-9))
      << "φ " << PhiVR.str() << " vs parent " << XVR.str();
  ASSERT_TRUE(PhiVR.isRanges());
  EXPECT_EQ(PhiVR.subRanges().size(), 1u)
      << "merge rule should avoid the split: " << PhiVR.str();
}

//===----------------------------------------------------------------------===//
// Fallback marking (paper §3.5)
//===----------------------------------------------------------------------===//

TEST(PropagationTest, LoadsAndInputsAreBottom) {
  Analyzed A = analyze(R"(
    var g[10];
    fn main() {
      var x = input();
      var y = g[3];
      if (x > y) {
        return 1;
      }
      return 0;
    }
  )");
  ASSERT_TRUE(A.Main);
  const CondBrInst *Branch = onlyBranch(*A.Main);
  ASSERT_NE(Branch, nullptr);
  const BranchPrediction &P = A.Result.Branches.at(Branch);
  EXPECT_FALSE(P.FromRanges); // ⊥ vs ⊥: heuristics take over.
}

TEST(PropagationTest, CallsAreBottomIntraprocedurally) {
  Analyzed A = analyze(R"(
    fn helper() { return 5; }
    fn main() {
      if (helper() == 5) {
        return 1;
      }
      return 0;
    }
  )");
  ASSERT_TRUE(A.Main);
  const CondBrInst *Branch = onlyBranch(*A.Main);
  const BranchPrediction &P = A.Result.Branches.at(Branch);
  EXPECT_FALSE(P.FromRanges);
}

//===----------------------------------------------------------------------===//
// Statistics and termination
//===----------------------------------------------------------------------===//

TEST(PropagationTest, StatisticsAreCounted) {
  Analyzed A = analyze(R"(
    fn main() {
      var s = 0;
      for (var i = 0; i < 100; i = i + 1) {
        if (i % 2 == 0) {
          s = s + i;
        }
      }
      return s;
    }
  )");
  ASSERT_TRUE(A.Main);
  EXPECT_GT(A.Result.Stats.ExprEvaluations, 0u);
  EXPECT_GT(A.Result.Stats.SubOps, 0u);
  EXPECT_GT(A.Result.Stats.PhiEvaluations, 0u);
  EXPECT_GT(A.Result.Stats.BranchEvaluations, 0u);
  EXPECT_GT(A.Result.Stats.DerivationsTried, 0u);
}

TEST(PropagationTest, ModuloBranchUsesStride) {
  // i in [0:99:1]; i % 2 has range [0:1:1] and P(== 0) = 0.5.
  Analyzed A = analyze(R"(
    fn main() {
      var s = 0;
      for (var i = 0; i < 100; i = i + 1) {
        if (i % 2 == 0) {
          s = s + 1;
        }
      }
      return s;
    }
  )");
  ASSERT_TRUE(A.Main);
  for (const auto &[Branch, Pred] : A.Result.Branches) {
    const auto *Cmp = cast<CmpInst>(Branch->cond());
    if (Cmp->pred() != CmpPred::EQ)
      continue;
    EXPECT_TRUE(Pred.FromRanges);
    EXPECT_NEAR(Pred.ProbTrue, 0.5, 0.02);
    return;
  }
  FAIL() << "modulo branch not found";
}

TEST(PropagationTest, DeepNestingTerminatesQuickly) {
  // Three nested loops with data dependences across levels.
  Analyzed A = analyze(R"(
    fn main() {
      var s = 0;
      for (var i = 0; i < 10; i = i + 1) {
        for (var j = i; j < 20; j = j + 1) {
          for (var k = j; k < 30; k = k + 1) {
            s = s + 1;
          }
        }
      }
      return s;
    }
  )");
  ASSERT_TRUE(A.Main);
  EXPECT_LT(A.Result.Stats.ExprEvaluations, 5000u);
  for (const auto &[Branch, Pred] : A.Result.Branches)
    EXPECT_TRUE(Pred.FromRanges)
        << "loop branch should predict from ranges";
}

//===----------------------------------------------------------------------===//
// Derivation stall guard (VRPOptions::DerivationRetryLimit)
//===----------------------------------------------------------------------===//

// A loop-carried φ whose entry operand never leaves ⊤ re-derives NotYet
// on every visit without stabilizing. The reproducible shape: a call
// summary frozen at ⊤ (a context whose jump functions are not ready)
// feeding one header φ, while a second, non-derivable counter in the
// same header keeps refining the loop edges and re-triggering the
// derivation. The guard must convert that spin into an observable
// degradation with a structured cause instead of burning the global
// step budget.
const char *StallSource = R"(
  fn helper() { return 0; }
  fn main() {
    var start = helper();
    var j = 1;
    var i = start;
    var total = 0;
    while (j < 1000000) {
      j = j + j + 1;
      i = i + 1;
      total = total + i;
    }
    return total;
  }
)";

FunctionVRPResult propagateWithTopCalls(const char *Source,
                                        const VRPOptions &Opts) {
  DiagnosticEngine Diags;
  auto C = compileToSSA(Source, Diags, Opts);
  EXPECT_TRUE(C) << Diags.firstError();
  PropagationContext Ctx;
  Ctx.ParamRange = [](const Param *) { return ValueRange::bottom(); };
  Ctx.CallResultRange = [](const CallInst *) { return ValueRange::top(); };
  return propagateRanges(*C->IR->findFunction("main"), Opts, Ctx);
}

TEST(PropagationTest, DerivationStallDegradesWithStructuredCause) {
  VRPOptions Opts;
  Opts.DerivationRetryLimit = 8;
  FunctionVRPResult R = propagateWithTopCalls(StallSource, Opts);
  ASSERT_TRUE(R.Degraded);
  ASSERT_FALSE(R.DegradeCause.ok());
  const VrpError &E = R.DegradeCause.error();
  EXPECT_EQ(E.Category, ErrorCategory::BudgetExceeded);
  EXPECT_EQ(E.Site, "derivation");
  // The message names the function, the φ, and the configured limit.
  EXPECT_NE(E.Message.find("@main"), std::string::npos) << E.Message;
  EXPECT_NE(E.Message.find("never stabilized"), std::string::npos)
      << E.Message;
  EXPECT_NE(E.Message.find("8 derivation retries"), std::string::npos)
      << E.Message;
  // Degradation is the whole-function ⊥ contract: no ranges, every
  // branch handed to the heuristic fallback.
  EXPECT_TRUE(R.Ranges.empty());
  for (const auto &[Branch, Pred] : R.Branches)
    EXPECT_FALSE(Pred.FromRanges);
}

TEST(PropagationTest, DerivationStallGuardDisabledByZeroLimit) {
  // Limit 0 means "never give up": the same program must still
  // terminate (the widening and branch-update guards bound the spin)
  // and must NOT be degraded by the retry guard.
  VRPOptions Opts;
  Opts.DerivationRetryLimit = 0;
  FunctionVRPResult R = propagateWithTopCalls(StallSource, Opts);
  EXPECT_FALSE(R.Degraded);
}

TEST(PropagationTest, DefaultRetryLimitRidesOutTransientNotYet) {
  // The default limit is far above any transient NotYet sequence a
  // converging analysis produces: the stall program's refinement loop
  // settles well under 512 retries, so no degradation.
  VRPOptions Opts;
  FunctionVRPResult R = propagateWithTopCalls(StallSource, Opts);
  EXPECT_FALSE(R.Degraded);
}

//===----------------------------------------------------------------------===//
// Weight oscillation guard (ProbUpdateLimit in Propagation.cpp)
//===----------------------------------------------------------------------===//

// The doubling φ of the last loop has the fixed support {6, 12, 24}, but
// its weights, fed back through the `v < 17` branch, cycle without end:
// the widening guard counts support growth only, so without a limit on
// weight-only updates propagation never terminates.
const char *WeightCycleSource = R"(
  fn main() {
    var n = 25;
    var v = 6;
    for (var i = 0; i < 56; i = i + 1) {
      for (var j = 0; j < n; j = j + 1) {
      }
    }
    for (var k = 0; k < 46; k = k + 2) {
      if (v < 17) {
        v = v + v;
      }
    }
    return v;
  }
)";

TEST(PropagationTest, WeightCycleTerminates) {
  // The step budget is only a safety net: the weight-update limit must
  // end the cycle long before it, keeping the ranges.
  VRPOptions Opts;
  Opts.Budget.PropagationStepLimit = 1000000;
  Analyzed A = analyze(WeightCycleSource, Opts);
  ASSERT_TRUE(A.Main);
  EXPECT_FALSE(A.Result.Degraded);
  EXPECT_FALSE(A.Result.Branches.empty());
  for (const auto &[Branch, Pred] : A.Result.Branches)
    EXPECT_TRUE(Pred.FromRanges);
}

TEST(PropagationTest, PredictionsAgreeWithExecutionOnClosedProgram) {
  const char *Source = R"(
    fn main() {
      var evens = 0;
      var bigs = 0;
      for (var i = 0; i < 60; i = i + 1) {
        if (i % 3 == 0) {
          evens = evens + 1;
        }
        if (i >= 45) {
          bigs = bigs + 1;
        }
      }
      print(evens);
      print(bigs);
      return 0;
    }
  )";
  Analyzed A = analyze(Source);
  ASSERT_TRUE(A.Main);

  Interpreter Interp(*A.Compiled->IR);
  EdgeProfile Profile;
  ExecutionResult Run = Interp.run({}, &Profile);
  ASSERT_TRUE(Run.Ok) << Run.Error;
  EXPECT_EQ(Run.Output[0], "20");
  EXPECT_EQ(Run.Output[1], "15");

  for (const auto &[Branch, Pred] : A.Result.Branches) {
    const BranchCounts *C = Profile.lookup(Branch);
    ASSERT_NE(C, nullptr);
    EXPECT_TRUE(Pred.FromRanges);
    EXPECT_NEAR(Pred.ProbTrue, C->takenFraction(), 0.02)
        << "predicted vs measured for "
        << instructionToString(*cast<Instruction>(Branch->cond()));
  }
}

} // namespace
