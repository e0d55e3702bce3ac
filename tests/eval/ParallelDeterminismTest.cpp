//===- tests/eval/ParallelDeterminismTest.cpp - Threads=N == Threads=1 ----===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// The parallel evaluation engine's core contract: results are
// byte-identical to the serial run at any thread count. Runs the suite
// fan-out (evaluateSuite) and a module analysis (runModuleVRP, which
// reads no thread count) at Threads=1 and Threads=4 and compares every
// curve and prediction.
// This binary is also the target scripts/check.sh runs under
// -DVRP_SANITIZE=thread, so it keeps the program set small.
//
//===----------------------------------------------------------------------===//

#include "benchsuite/Programs.h"
#include "driver/Pipeline.h"
#include "eval/SuiteRunner.h"

#include <gtest/gtest.h>

using namespace vrp;

namespace {

/// A small, mixed int/float slice of the suite — enough to exercise both
/// range lattices without making the TSan run crawl.
std::vector<const BenchmarkProgram *> smallSuite() {
  std::vector<const BenchmarkProgram *> All = allPrograms();
  std::vector<const BenchmarkProgram *> Picked;
  for (size_t I = 0; I < All.size() && Picked.size() < 4; I += 2)
    Picked.push_back(All[I]);
  return Picked;
}

void expectIdenticalCurves(const ErrorCdf &A, const ErrorCdf &B,
                           const char *What) {
  EXPECT_EQ(A.meanError(), B.meanError()) << What;
  EXPECT_EQ(A.totalWeight(), B.totalWeight()) << What;
  for (unsigned Bucket = 0; Bucket < ErrorCdf::NumBuckets; ++Bucket)
    EXPECT_EQ(A.fractionWithin(Bucket), B.fractionWithin(Bucket))
        << What << " bucket " << Bucket;
}

TEST(ParallelDeterminismTest, SuiteCurvesMatchSerialRun) {
  std::vector<const BenchmarkProgram *> Programs = smallSuite();
  ASSERT_GE(Programs.size(), 2u);

  VRPOptions Serial;
  Serial.Interprocedural = true;
  Serial.Threads = 1;
  VRPOptions Parallel = Serial;
  Parallel.Threads = 4;

  SuiteEvaluation A = evaluateSuite(Programs, Serial);
  SuiteEvaluation B = evaluateSuite(Programs, Parallel);

  ASSERT_EQ(A.Benchmarks.size(), B.Benchmarks.size());
  for (size_t I = 0; I < A.Benchmarks.size(); ++I) {
    const BenchmarkEvaluation &X = A.Benchmarks[I];
    const BenchmarkEvaluation &Y = B.Benchmarks[I];
    EXPECT_EQ(X.Name, Y.Name) << "slot I must hold program I";
    ASSERT_TRUE(X.Ok) << X.Name << ": " << X.Error;
    ASSERT_TRUE(Y.Ok) << Y.Name << ": " << Y.Error;
    EXPECT_EQ(X.VRPRangeFraction, Y.VRPRangeFraction) << X.Name;
    EXPECT_EQ(X.StaticBranches, Y.StaticBranches) << X.Name;
    ASSERT_EQ(X.Curves.size(), Y.Curves.size()) << X.Name;
    for (const auto &[Kind, Pair] : X.Curves) {
      auto It = Y.Curves.find(Kind);
      ASSERT_NE(It, Y.Curves.end()) << X.Name;
      expectIdenticalCurves(Pair.first, It->second.first,
                            predictorName(Kind));
      expectIdenticalCurves(Pair.second, It->second.second,
                            predictorName(Kind));
    }
  }

  for (PredictorKind Kind : allPredictors()) {
    expectIdenticalCurves(A.AveragedUnweighted.at(Kind),
                          B.AveragedUnweighted.at(Kind),
                          predictorName(Kind));
    expectIdenticalCurves(A.AveragedWeighted.at(Kind),
                          B.AveragedWeighted.at(Kind), predictorName(Kind));
  }
}

TEST(ParallelDeterminismTest, ModuleVRPFunctionFanOutMatchesSerialRun) {
  // runModuleVRP analyzes on one thread whatever Threads says: every
  // per-branch probability and range fraction must match the serial
  // analysis.
  for (const BenchmarkProgram *P : smallSuite()) {
    VRPOptions Serial;
    Serial.Interprocedural = true;
    Serial.Threads = 1;
    VRPOptions Parallel = Serial;
    Parallel.Threads = 4;

    DiagnosticEngine DA, DB;
    auto CA = compileToSSA(P->Source, DA, Serial);
    auto CB = compileToSSA(P->Source, DB, Parallel);
    ASSERT_TRUE(CA) << P->Name;
    ASSERT_TRUE(CB) << P->Name;

    ModuleVRPResult RA = runModuleVRP(*CA->IR, Serial);
    ModuleVRPResult RB = runModuleVRP(*CB->IR, Parallel);
    EXPECT_EQ(RA.Rounds, RB.Rounds) << P->Name;
    ASSERT_EQ(RA.PerFunction.size(), RB.PerFunction.size()) << P->Name;

    // Same source, two compiles: functions pair up by module order.
    const auto &FnsA = CA->IR->functions();
    const auto &FnsB = CB->IR->functions();
    ASSERT_EQ(FnsA.size(), FnsB.size()) << P->Name;
    for (size_t I = 0; I < FnsA.size(); ++I) {
      const FunctionVRPResult *FA = RA.forFunction(FnsA[I].get());
      const FunctionVRPResult *FB = RB.forFunction(FnsB[I].get());
      ASSERT_NE(FA, nullptr) << P->Name;
      ASSERT_NE(FB, nullptr) << P->Name;
      FinalPredictionMap MA = finalizePredictions(*FnsA[I], *FA);
      FinalPredictionMap MB = finalizePredictions(*FnsB[I], *FB);
      ASSERT_EQ(MA.size(), MB.size()) << P->Name;

      std::vector<const CondBrInst *> BrA, BrB;
      for (const auto &B : FnsA[I]->blocks())
        if (const auto *CBr = dyn_cast_or_null<CondBrInst>(B->terminator()))
          BrA.push_back(CBr);
      for (const auto &B : FnsB[I]->blocks())
        if (const auto *CBr = dyn_cast_or_null<CondBrInst>(B->terminator()))
          BrB.push_back(CBr);
      ASSERT_EQ(BrA.size(), BrB.size()) << P->Name;
      for (size_t J = 0; J < BrA.size(); ++J) {
        const FinalPrediction &PA = MA.at(BrA[J]);
        const FinalPrediction &PB = MB.at(BrB[J]);
        EXPECT_EQ(PA.ProbTrue, PB.ProbTrue)
            << P->Name << " fn " << FnsA[I]->name() << " branch " << J;
        EXPECT_EQ(PA.Source, PB.Source)
            << P->Name << " fn " << FnsA[I]->name() << " branch " << J;
      }
    }
  }
}

TEST(ParallelDeterminismTest, AutoThreadCountAlsoMatches) {
  // Threads=0 resolves to the hardware count; whatever that is, the
  // curves must still be the serial curves.
  std::vector<const BenchmarkProgram *> Programs = smallSuite();
  VRPOptions Serial;
  Serial.Threads = 1;
  VRPOptions Auto;
  Auto.Threads = 0;

  SuiteEvaluation A = evaluateSuite(Programs, Serial);
  SuiteEvaluation B = evaluateSuite(Programs, Auto);
  ASSERT_EQ(A.Benchmarks.size(), B.Benchmarks.size());
  for (size_t I = 0; I < A.Benchmarks.size(); ++I)
    EXPECT_EQ(A.Benchmarks[I].VRPRangeFraction,
              B.Benchmarks[I].VRPRangeFraction)
        << A.Benchmarks[I].Name;
  for (PredictorKind Kind : allPredictors())
    expectIdenticalCurves(A.AveragedWeighted.at(Kind),
                          B.AveragedWeighted.at(Kind), predictorName(Kind));
}

} // namespace
