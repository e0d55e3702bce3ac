//===- tests/interproc/InterprocTest.cpp - §3.7 interprocedural tests -----===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// Jump functions, return functions, recursion handling and procedure
// cloning.
//
//===----------------------------------------------------------------------===//

#include "benchsuite/Programs.h"
#include "driver/Pipeline.h"
#include "interproc/FunctionCloning.h"
#include "ir/Verifier.h"
#include "profile/Interpreter.h"
#include "ssa/SSAVerifier.h"

#include <gtest/gtest.h>

using namespace vrp;

namespace {

std::unique_ptr<CompiledProgram> compile(const char *Source,
                                         const VRPOptions &Opts = {}) {
  DiagnosticEngine Diags;
  auto C = compileToSSA(Source, Diags, Opts);
  EXPECT_TRUE(C) << Diags.firstError();
  return C;
}

const CondBrInst *firstBranch(const Function &F) {
  for (const auto &B : F.blocks())
    if (const auto *CBr = dyn_cast_or_null<CondBrInst>(B->terminator()))
      return CBr;
  return nullptr;
}

TEST(InterprocTest, JumpFunctionsDeliverParameterRanges) {
  const char *Source = R"(
    fn clamp100(v) {
      if (v > 100) { return 100; }
      return v;
    }
    fn main() {
      var total = 0;
      for (var i = 0; i < 150; i = i + 1) {
        total = total + clamp100(i);
      }
      return total;
    }
  )";
  auto C = compile(Source);
  VRPOptions Opts;
  Opts.Interprocedural = true;
  ModuleVRPResult R = runModuleVRP(*C->IR, Opts);

  const Function *Clamp = C->IR->findFunction("clamp100");
  const FunctionVRPResult *FR = R.forFunction(Clamp);
  ASSERT_NE(FR, nullptr);
  // v's range flows in from the (derived) loop range of i.
  ValueRange VRange = FR->rangeOf(Clamp->param(0));
  ASSERT_TRUE(VRange.isRanges()) << VRange.str();
  EXPECT_EQ(VRange.subRanges().front().Lo.Offset, 0);
  // And the v > 100 branch predicts from ranges.
  const CondBrInst *Branch = firstBranch(*Clamp);
  ASSERT_NE(Branch, nullptr);
  EXPECT_TRUE(FR->Branches.at(Branch).FromRanges);
  // Roughly 49 of 150 values exceed 100.
  EXPECT_NEAR(FR->Branches.at(Branch).ProbTrue, 49.0 / 150.0, 0.05);
}

TEST(InterprocTest, IntraproceduralModeLeavesParamsBottom) {
  const char *Source = R"(
    fn f(v) {
      if (v > 10) { return 1; }
      return 0;
    }
    fn main() { return f(3); }
  )";
  auto C = compile(Source);
  VRPOptions Opts; // Interprocedural off.
  ModuleVRPResult R = runModuleVRP(*C->IR, Opts);
  const Function *F = C->IR->findFunction("f");
  EXPECT_TRUE(R.forFunction(F)->rangeOf(F->param(0)).isBottom());
}

TEST(InterprocTest, ReturnRangesFlowToCallers) {
  const char *Source = R"(
    fn small() { return 3; }
    fn main() {
      if (small() > 10) {       // Provably false interprocedurally.
        return 1;
      }
      return 0;
    }
  )";
  auto C = compile(Source);
  VRPOptions Opts;
  Opts.Interprocedural = true;
  ModuleVRPResult R = runModuleVRP(*C->IR, Opts);
  const Function *Main = C->IR->findFunction("main");
  const CondBrInst *Branch = firstBranch(*Main);
  ASSERT_NE(Branch, nullptr);
  const BranchPrediction &P = R.forFunction(Main)->Branches.at(Branch);
  EXPECT_TRUE(P.FromRanges);
  EXPECT_EQ(P.ProbTrue, 0.0);
}

TEST(InterprocTest, MultiSiteArgumentsMerge) {
  const char *Source = R"(
    fn probe(v) {
      if (v == 5) { return 1; }
      return 0;
    }
    fn main() {
      return probe(5) + probe(7);
    }
  )";
  auto C = compile(Source);
  VRPOptions Opts;
  Opts.Interprocedural = true;
  ModuleVRPResult R = runModuleVRP(*C->IR, Opts);
  const Function *Probe = C->IR->findFunction("probe");
  ValueRange VRange = R.forFunction(Probe)->rangeOf(Probe->param(0));
  ASSERT_TRUE(VRange.isRanges()) << VRange.str();
  // The merged jump function covers {5, 7}.
  ASSERT_EQ(VRange.subRanges().size(), 2u);
  EXPECT_EQ(VRange.subRanges()[0].Lo.Offset, 5);
  EXPECT_EQ(VRange.subRanges()[1].Lo.Offset, 7);
}

TEST(InterprocTest, RecursiveFunctionsGetBottomParams) {
  const char *Source = R"(
    fn fact(n) {
      if (n <= 1) { return 1; }
      return n * fact(n - 1);
    }
    fn main() { return fact(10); }
  )";
  auto C = compile(Source);
  VRPOptions Opts;
  Opts.Interprocedural = true;
  ModuleVRPResult R = runModuleVRP(*C->IR, Opts);
  const Function *Fact = C->IR->findFunction("fact");
  EXPECT_TRUE(R.forFunction(Fact)->rangeOf(Fact->param(0)).isBottom());
}

TEST(InterprocTest, SymbolicArgumentsDoNotLeakAcrossCalls) {
  // The argument range is [0:n:1] with n caller-scoped; the callee must
  // see ⊥, never a foreign symbol.
  const char *Source = R"(
    fn probe(v) {
      if (v > 3) { return 1; }
      return 0;
    }
    fn main(n) {
      var t = 0;
      for (var i = 0; i < n; i = i + 1) {
        t = t + probe(i);
      }
      return t;
    }
  )";
  auto C = compile(Source);
  VRPOptions Opts;
  Opts.Interprocedural = true;
  ModuleVRPResult R = runModuleVRP(*C->IR, Opts);
  const Function *Probe = C->IR->findFunction("probe");
  ValueRange VRange = R.forFunction(Probe)->rangeOf(Probe->param(0));
  if (VRange.isRanges()) {
    EXPECT_FALSE(VRange.hasSymbolicBounds()) << VRange.str();
  }
}

//===----------------------------------------------------------------------===//
// Function cloning
//===----------------------------------------------------------------------===//

TEST(CloningTest, CloneIsStructurallyValidAndBehavesTheSame) {
  const char *Source = R"(
    var buf[16];
    fn work(n, scale) {
      var acc = 0;
      for (var i = 0; i < n; i = i + 1) {
        buf[i % 16] = i * scale;
        if (buf[i % 16] > 40) {
          acc = acc + 1;
        } else {
          acc = acc + 2;
        }
      }
      return acc;
    }
    fn main() { return work(20, 3); }
  )";
  auto C = compile(Source);
  Function *Work = C->IR->findFunction("work");
  Function *Clone = cloneFunction(*C->IR, *Work, "work.clone0");

  std::vector<std::string> Problems;
  EXPECT_TRUE(verifyFunction(*Clone, Problems, true)) << Problems.front();
  EXPECT_TRUE(verifySSA(*Clone, Problems)) << Problems.front();
  EXPECT_EQ(Clone->numBlocks(), Work->numBlocks());
  EXPECT_EQ(Clone->numParams(), Work->numParams());

  // Retarget main's call to the clone: behavior must be identical.
  Interpreter I1(*C->IR);
  int64_t Before = I1.run({}).ExitValue;
  for (const auto &B : C->IR->findFunction("main")->blocks())
    for (const auto &I : B->instructions())
      if (auto *Call = dyn_cast<CallInst>(I.get()))
        Call->setCallee(Clone);
  Interpreter I2(*C->IR);
  EXPECT_EQ(I2.run({}).ExitValue, Before);
}

TEST(CloningTest, SelfRecursionRetargetsToClone) {
  const char *Source = R"(
    fn count(n) {
      if (n <= 0) { return 0; }
      return 1 + count(n - 1);
    }
    fn main() { return count(5); }
  )";
  auto C = compile(Source);
  Function *Count = C->IR->findFunction("count");
  Function *Clone = cloneFunction(*C->IR, *Count, "count.clone0");
  for (const auto &B : Clone->blocks()) {
    for (const auto &I : B->instructions()) {
      if (const auto *Call = dyn_cast<CallInst>(I.get())) {
        EXPECT_EQ(Call->callee(), Clone)
            << "self-recursion must stay within the clone";
      }
    }
  }
}

TEST(CloningTest, DivergentCallSitesTriggerCloning) {
  const char *Source = R"(
    fn work(mode) {
      var acc = 0;
      for (var i = 0; i < 10; i = i + 1) {
        if (mode == 0) { acc = acc + i; } else { acc = acc + 2 * i; }
      }
      return acc;
    }
    fn main() {
      return work(0) + work(1);
    }
  )";
  auto C = compile(Source);
  VRPOptions Opts;
  Opts.Interprocedural = true;
  Opts.EnableCloning = true;
  unsigned FunctionsBefore = C->IR->functions().size();
  ModuleVRPResult R = runModuleVRP(*C->IR, Opts);
  EXPECT_GT(R.FunctionsCloned, 0u);
  EXPECT_GT(C->IR->functions().size(), FunctionsBefore);

  // The specialized copies now predict the mode branch with certainty.
  unsigned Certain = 0;
  for (const auto &F : C->IR->functions()) {
    if (F->name().rfind("work", 0) != 0)
      continue;
    const FunctionVRPResult *FR = R.forFunction(F.get());
    for (const auto &[Branch, Pred] : FR->Branches) {
      const auto *Cmp = dyn_cast<CmpInst>(Branch->cond());
      if (Cmp && Cmp->pred() == CmpPred::EQ && Pred.FromRanges &&
          (Pred.ProbTrue == 0.0 || Pred.ProbTrue == 1.0))
        ++Certain;
    }
  }
  EXPECT_GE(Certain, 2u) << "both copies should specialize";

  // And the module still runs correctly after cloning.
  Interpreter Interp(*C->IR);
  ExecutionResult Run = Interp.run({});
  ASSERT_TRUE(Run.Ok) << Run.Error;
  EXPECT_EQ(Run.ExitValue, 45 + 90);
}

/// The first load of the object named \p Object in \p F, or null.
const LoadInst *firstLoadOf(const Function &F, const std::string &Object) {
  for (const auto &B : F.blocks())
    for (const auto &I : B->instructions())
      if (const auto *L = dyn_cast<LoadInst>(I.get()))
        if (L->object()->name() == Object)
          return L;
  return nullptr;
}

// work is the only writer of `last` and loads it in a later block, so
// before cloning that load gets tier-(b) candidates. Cloning work makes
// the clone a second writer: the store census must be rebuilt with the
// call graph, and the load must then be ⊥ in both copies. A census kept
// from before cloning would still call the original an exclusive writer.
TEST(CloningTest, CloneOfStoringCalleeBreaksWriterExclusivity) {
  const char *Source = R"(
    var last = 0;
    fn work(mode) {
      last = mode;
      var acc = 0;
      for (var i = 0; i < 10; i = i + 1) {
        if (mode == 0) { acc = acc + i; } else { acc = acc + 2 * i; }
      }
      if (last > 0) { acc = acc + 1; }
      return acc;
    }
    fn main() {
      return work(0) + work(1);
    }
  )";
  VRPOptions Opts;
  Opts.Interprocedural = true;

  // Without cloning, work is the sole writer and the load has a range.
  {
    auto C = compile(Source);
    ModuleVRPResult R = runModuleVRP(*C->IR, Opts);
    const Function *Work = C->IR->findFunction("work");
    const LoadInst *L = firstLoadOf(*Work, "last");
    ASSERT_NE(L, nullptr);
    EXPECT_FALSE(R.forFunction(Work)->rangeOf(L).isBottom());
  }

  auto C = compile(Source);
  Opts.EnableCloning = true;
  ModuleVRPResult R = runModuleVRP(*C->IR, Opts);
  ASSERT_GT(R.FunctionsCloned, 0u);
  unsigned Copies = 0;
  for (const auto &F : C->IR->functions()) {
    if (F->name().rfind("work", 0) != 0)
      continue;
    ++Copies;
    const LoadInst *L = firstLoadOf(*F, "last");
    ASSERT_NE(L, nullptr) << F->name();
    EXPECT_TRUE(R.forFunction(F.get())->rangeOf(L).isBottom()) << F->name();
  }
  EXPECT_EQ(Copies, 2u);
}

TEST(InterprocTest, WholeSuiteInterproceduralSmoke) {
  // Every suite program must analyze cleanly in interprocedural mode with
  // bounded rounds.
  for (const BenchmarkProgram *P : allPrograms()) {
    DiagnosticEngine Diags;
    VRPOptions Opts;
    Opts.Interprocedural = true;
    auto C = compileToSSA(P->Source, Diags, Opts);
    ASSERT_TRUE(C) << P->Name;
    ModuleVRPResult R = runModuleVRP(*C->IR, Opts);
    EXPECT_GE(R.Rounds, 1u);
    EXPECT_LE(R.Rounds, 4u);
    EXPECT_EQ(R.PerFunction.size(), C->IR->functions().size());
  }
}

} // namespace
