//===- tests/eval/FaultToleranceTest.cpp - Suite-level fault tolerance ----===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// The robustness layer's core contract: when k of N benchmarks fail —
// injected parse errors, interpreter traps, worker-task exceptions — the
// suite completes, reports exactly k structured failures, and the other
// N−k results are bitwise identical to a fault-free run, at any thread
// count. Budget exhaustion degrades to the Ball–Larus fallback instead
// of failing, mirroring the paper's ⊥-range degradation (§3.5).
//
//===----------------------------------------------------------------------===//

#include "benchsuite/Programs.h"
#include "eval/SuiteRunner.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

using namespace vrp;

namespace {

std::vector<const BenchmarkProgram *> testSuite() {
  std::vector<const BenchmarkProgram *> All = allPrograms();
  if (All.size() > 6)
    All.resize(6);
  return All;
}

void expectIdenticalCurves(const ErrorCdf &A, const ErrorCdf &B,
                           const std::string &What) {
  EXPECT_EQ(A.meanError(), B.meanError()) << What;
  EXPECT_EQ(A.totalWeight(), B.totalWeight()) << What;
  for (unsigned Bucket = 0; Bucket < ErrorCdf::NumBuckets; ++Bucket)
    EXPECT_EQ(A.fractionWithin(Bucket), B.fractionWithin(Bucket))
        << What << " bucket " << Bucket;
}

void expectIdenticalEvaluations(const BenchmarkEvaluation &A,
                                const BenchmarkEvaluation &B) {
  EXPECT_EQ(A.Name, B.Name);
  EXPECT_EQ(A.Ok, B.Ok) << A.Name;
  EXPECT_EQ(A.RefSteps, B.RefSteps) << A.Name;
  EXPECT_EQ(A.StaticBranches, B.StaticBranches) << A.Name;
  EXPECT_EQ(A.ExecutedBranches, B.ExecutedBranches) << A.Name;
  EXPECT_EQ(A.VRPRangeFraction, B.VRPRangeFraction) << A.Name;
  ASSERT_EQ(A.Curves.size(), B.Curves.size()) << A.Name;
  for (const auto &[Kind, Pair] : A.Curves) {
    auto It = B.Curves.find(Kind);
    ASSERT_NE(It, B.Curves.end()) << A.Name;
    expectIdenticalCurves(Pair.first, It->second.first,
                          A.Name + std::string(" unweighted ") +
                              predictorName(Kind));
    expectIdenticalCurves(Pair.second, It->second.second,
                          A.Name + std::string(" weighted ") +
                              predictorName(Kind));
  }
}

/// Disarms injection around every test, pass or fail.
class FaultToleranceTest : public ::testing::Test {
protected:
  void TearDown() override { fault::reset(); }
};

TEST_F(FaultToleranceTest, KOfNFailuresLeaveTheRestBitwiseIdentical) {
  std::vector<const BenchmarkProgram *> Programs = testSuite();
  ASSERT_GE(Programs.size(), 5u);
  const size_t N = Programs.size();

  VRPOptions Opts;
  Opts.Interprocedural = true;
  Opts.Threads = 1;

  fault::reset();
  SuiteEvaluation Clean = evaluateSuite(Programs, Opts);
  for (const BenchmarkEvaluation &B : Clean.Benchmarks)
    ASSERT_TRUE(B.Ok) << B.Name << ": " << B.Error;
  ASSERT_TRUE(Clean.Failures.empty());

  // Inject one fault of each kind, each keyed to a specific benchmark so
  // the same k benchmarks fail regardless of worker scheduling.
  const std::string ParseVictim = Programs[0]->Name;
  const std::string InterpVictim = Programs[2]->Name;
  const std::string WorkerVictim = Programs[4]->Name;
  const std::string Spec = "parse@" + ParseVictim + ":0,interp@" +
                           InterpVictim + ":0,worker@" + WorkerVictim +
                           ":0";
  const std::set<std::string> Victims{ParseVictim, InterpVictim,
                                      WorkerVictim};
  const size_t K = Victims.size();
  ASSERT_EQ(K, 3u) << "victims must be distinct benchmarks";

  for (unsigned Threads : {1u, 4u}) {
    ASSERT_TRUE(fault::configure(Spec));
    VRPOptions Faulty = Opts;
    Faulty.Threads = Threads;
    SuiteEvaluation Suite = evaluateSuite(Programs, Faulty);
    fault::reset();

    // The suite completed with exactly k structured failures...
    ASSERT_EQ(Suite.Benchmarks.size(), N) << "Threads=" << Threads;
    ASSERT_EQ(Suite.Failures.size(), K) << "Threads=" << Threads;
    for (const FailureInfo &F : Suite.Failures)
      EXPECT_TRUE(Victims.count(F.Benchmark))
          << F.str() << " Threads=" << Threads;

    // ...of the right categories, attributed to the right stages...
    auto findFailure = [&](const std::string &Name) -> const FailureInfo * {
      auto It = std::find_if(
          Suite.Failures.begin(), Suite.Failures.end(),
          [&](const FailureInfo &F) { return F.Benchmark == Name; });
      return It == Suite.Failures.end() ? nullptr : &*It;
    };
    const FailureInfo *ParseF = findFailure(ParseVictim);
    const FailureInfo *InterpF = findFailure(InterpVictim);
    const FailureInfo *WorkerF = findFailure(WorkerVictim);
    ASSERT_NE(ParseF, nullptr) << "Threads=" << Threads;
    ASSERT_NE(InterpF, nullptr) << "Threads=" << Threads;
    ASSERT_NE(WorkerF, nullptr) << "Threads=" << Threads;
    EXPECT_EQ(ParseF->Category, ErrorCategory::ParseError);
    EXPECT_EQ(InterpF->Category, ErrorCategory::InterpreterTrap);
    EXPECT_EQ(InterpF->Stage, "ref-run");
    EXPECT_EQ(WorkerF->Category, ErrorCategory::Internal);
    EXPECT_EQ(WorkerF->Stage, "worker-task");

    // ...and the N−k untouched benchmarks are bitwise identical to the
    // fault-free run.
    for (size_t I = 0; I < N; ++I) {
      const BenchmarkEvaluation &B = Suite.Benchmarks[I];
      EXPECT_EQ(B.Name, Clean.Benchmarks[I].Name);
      if (Victims.count(B.Name)) {
        EXPECT_FALSE(B.Ok) << B.Name << " Threads=" << Threads;
        ASSERT_TRUE(B.Failure.has_value()) << B.Name;
        EXPECT_EQ(B.Failure->Benchmark, B.Name);
      } else {
        ASSERT_TRUE(B.Ok) << B.Name << ": " << B.Error
                          << " Threads=" << Threads;
        expectIdenticalEvaluations(Clean.Benchmarks[I], B);
      }
    }
  }
}

TEST_F(FaultToleranceTest, FailuresReportedInBenchmarkOrderUnderThreads) {
  // FailureInfos must come back in benchmark order, not completion order:
  // the parallel path collects per-slot results and rebuilds Failures from
  // the ordered benchmark list, so four faults spread over eight
  // benchmarks on four threads — where completion order is effectively
  // adversarial — must still report in suite order, identically to the
  // serial run.
  std::vector<const BenchmarkProgram *> Programs = allPrograms();
  ASSERT_GE(Programs.size(), 8u);
  Programs.resize(8);

  // Four faults of mixed kinds, keyed to benchmarks deliberately NOT in
  // index order (7, 1, 5, 3) so a completion-ordered implementation has
  // every chance to get it wrong.
  const std::vector<std::string> VictimsInSuiteOrder{
      Programs[1]->Name, Programs[3]->Name, Programs[5]->Name,
      Programs[7]->Name};
  const std::string Spec = "worker@" + Programs[7]->Name + ":0,parse@" +
                           Programs[1]->Name + ":0,interp@" +
                           Programs[5]->Name + ":0,parse@" +
                           Programs[3]->Name + ":0";

  VRPOptions Opts;
  Opts.Interprocedural = true;
  Opts.Threads = 4;
  ASSERT_TRUE(fault::configure(Spec));
  SuiteEvaluation Suite = evaluateSuite(Programs, Opts);
  fault::reset();

  ASSERT_EQ(Suite.Benchmarks.size(), 8u);
  ASSERT_EQ(Suite.Failures.size(), 4u);
  for (size_t I = 0; I < Suite.Failures.size(); ++I)
    EXPECT_EQ(Suite.Failures[I].Benchmark, VictimsInSuiteOrder[I])
        << "failure " << I << " out of benchmark order: "
        << Suite.Failures[I].str();

  // The serial run must produce the same failures in the same order.
  ASSERT_TRUE(fault::configure(Spec));
  VRPOptions Serial = Opts;
  Serial.Threads = 1;
  SuiteEvaluation Reference = evaluateSuite(Programs, Serial);
  fault::reset();
  ASSERT_EQ(Reference.Failures.size(), Suite.Failures.size());
  for (size_t I = 0; I < Suite.Failures.size(); ++I) {
    EXPECT_EQ(Suite.Failures[I].Benchmark, Reference.Failures[I].Benchmark);
    EXPECT_EQ(Suite.Failures[I].Category, Reference.Failures[I].Category);
    EXPECT_EQ(Suite.Failures[I].Stage, Reference.Failures[I].Stage);
  }
}

// evaluateSuite caps its participants at the program count, so a request
// for every thread there is starts one per benchmark (18 beside the
// calling thread on the full suite) and must still reproduce the serial
// run: the same curves, and the same failures in benchmark order. An
// empty suite starts nothing and evaluates nothing.
TEST_F(FaultToleranceTest, UnboundedThreadRequestMatchesSerialRun) {
  std::vector<const BenchmarkProgram *> Programs = allPrograms();
  ASSERT_GE(Programs.size(), 8u);
  const std::string Spec = "worker@" + Programs[5]->Name + ":0,parse@" +
                           Programs[1]->Name + ":0,interp@" +
                           Programs.back()->Name + ":0";

  VRPOptions Serial;
  Serial.Interprocedural = true;
  Serial.Threads = 1;
  VRPOptions Unbounded = Serial;
  Unbounded.Threads = std::numeric_limits<unsigned>::max();

  ASSERT_TRUE(fault::configure(Spec));
  SuiteEvaluation A = evaluateSuite(Programs, Serial);
  ASSERT_TRUE(fault::configure(Spec));
  SuiteEvaluation B = evaluateSuite(Programs, Unbounded);
  fault::reset();

  ASSERT_EQ(A.Benchmarks.size(), Programs.size());
  ASSERT_EQ(B.Benchmarks.size(), Programs.size());
  for (size_t I = 0; I < Programs.size(); ++I)
    expectIdenticalEvaluations(A.Benchmarks[I], B.Benchmarks[I]);
  ASSERT_EQ(A.Failures.size(), 3u);
  ASSERT_EQ(B.Failures.size(), A.Failures.size());
  for (size_t I = 0; I < A.Failures.size(); ++I)
    EXPECT_EQ(B.Failures[I].str(), A.Failures[I].str());
  for (PredictorKind Kind : allPredictors()) {
    expectIdenticalCurves(A.AveragedUnweighted.at(Kind),
                          B.AveragedUnweighted.at(Kind),
                          predictorName(Kind));
    expectIdenticalCurves(A.AveragedWeighted.at(Kind),
                          B.AveragedWeighted.at(Kind), predictorName(Kind));
  }

  VRPOptions Four = Serial;
  Four.Threads = 4;
  SuiteEvaluation Empty = evaluateSuite({}, Four);
  EXPECT_TRUE(Empty.Benchmarks.empty());
  EXPECT_TRUE(Empty.Failures.empty());
  EXPECT_EQ(Empty.VRPTotals.FunctionsAnalyzed, 0u);
}

TEST_F(FaultToleranceTest, StepBudgetDegradesToBallLarusFallback) {
  // A starved propagation budget must not fail anything: every starved
  // function falls back to the cached Ball–Larus predictions, exactly as
  // a ⊥ range does per-branch in the paper, and the evaluation reports
  // how many functions degraded.
  for (const BenchmarkProgram *P : testSuite()) {
    VRPOptions Opts;
    Opts.Interprocedural = true;
    Opts.Budget.PropagationStepLimit = 1;

    BenchmarkEvaluation Eval = evaluateProgram(*P, Opts);
    ASSERT_TRUE(Eval.Ok) << P->Name << ": " << Eval.Error;
    EXPECT_FALSE(Eval.Failure.has_value()) << P->Name;
    EXPECT_GT(Eval.DegradedFunctions, 0u) << P->Name;
    EXPECT_EQ(Eval.VRPRangeFraction, 0.0)
        << P->Name << ": degraded functions must not claim range "
                      "predictions";

    // With every function degraded, the VRP predictor IS Ball–Larus.
    const auto &VRP = Eval.Curves.at(PredictorKind::VRP);
    const auto &BL = Eval.Curves.at(PredictorKind::BallLarus);
    expectIdenticalCurves(VRP.first, BL.first, P->Name);
    expectIdenticalCurves(VRP.second, BL.second, P->Name);
  }
}

TEST_F(FaultToleranceTest, InjectedBudgetFaultDegradesLikeRealExhaustion) {
  // The "vrp-budget" site simulates exhaustion with no budget configured:
  // every function degrades, nothing fails, and the VRP predictor
  // collapses onto its Ball–Larus fallback.
  const BenchmarkProgram *P = testSuite().front();
  ASSERT_TRUE(fault::configure("vrp-budget:*"));
  VRPOptions Opts;
  Opts.Interprocedural = true;
  BenchmarkEvaluation Faked = evaluateProgram(*P, Opts);
  fault::reset();

  ASSERT_TRUE(Faked.Ok) << Faked.Error;
  EXPECT_FALSE(Faked.Failure.has_value());
  EXPECT_GT(Faked.DegradedFunctions, 0u);
  EXPECT_EQ(Faked.VRPRangeFraction, 0.0);
  const auto &VRP = Faked.Curves.at(PredictorKind::VRP);
  const auto &BL = Faked.Curves.at(PredictorKind::BallLarus);
  expectIdenticalCurves(VRP.first, BL.first, P->Name);
  expectIdenticalCurves(VRP.second, BL.second, P->Name);
}

TEST_F(FaultToleranceTest, SuiteCountsDegradedFunctions) {
  std::vector<const BenchmarkProgram *> Programs = testSuite();
  VRPOptions Opts;
  Opts.Interprocedural = true;
  Opts.Budget.PropagationStepLimit = 1;
  SuiteEvaluation Suite = evaluateSuite(Programs, Opts);
  EXPECT_TRUE(Suite.Failures.empty());
  unsigned Sum = 0;
  for (const BenchmarkEvaluation &B : Suite.Benchmarks) {
    EXPECT_TRUE(B.Ok) << B.Name << ": " << B.Error;
    Sum += B.DegradedFunctions;
  }
  EXPECT_GT(Suite.DegradedFunctions, 0u);
  EXPECT_EQ(Suite.DegradedFunctions, Sum);
}

TEST_F(FaultToleranceTest, InterpreterBudgetKeepsPartialProfile) {
  // A tight interpreter budget truncates the profiling runs; the
  // benchmark still completes, flagged as a partial profile, instead of
  // failing with a trap.
  const BenchmarkProgram *P = testSuite().front();
  VRPOptions Unlimited;
  BenchmarkEvaluation Full = evaluateProgram(*P, Unlimited);
  ASSERT_TRUE(Full.Ok) << Full.Error;
  ASSERT_GT(Full.RefSteps, 100u)
      << "test premise: the reference run must be nontrivial";

  VRPOptions Tight;
  Tight.Budget.InterpreterStepLimit = Full.RefSteps / 2;
  BenchmarkEvaluation Partial = evaluateProgram(*P, Tight);
  ASSERT_TRUE(Partial.Ok) << Partial.Error;
  EXPECT_TRUE(Partial.PartialProfile);
  EXPECT_FALSE(Partial.Failure.has_value());
  EXPECT_LE(Partial.RefSteps, Full.RefSteps);

  // Without an explicit budget the same truncation is a hard failure
  // (the default guard catching a runaway program is an error).
  EXPECT_FALSE(Full.PartialProfile);
}

TEST_F(FaultToleranceTest, DeadlineFailureIsStructured) {
  // A 0ms... deadline cannot be hit reliably, but an *already expired*
  // one (1ms against a real compile+run) reliably trips the first stage
  // boundary check. The failure must be BudgetExceeded, not a crash.
  const BenchmarkProgram *P = testSuite().back();
  VRPOptions Opts;
  Opts.Budget.DeadlineMs = 1;
  BenchmarkEvaluation Eval = evaluateProgram(*P, Opts);
  if (!Eval.Ok) {
    ASSERT_TRUE(Eval.Failure.has_value());
    EXPECT_EQ(Eval.Failure->Category, ErrorCategory::BudgetExceeded)
        << Eval.Failure->str();
  }
  // Either way: no throw, no abort, and a well-formed result.
  EXPECT_EQ(Eval.Name, P->Name);
}

TEST_F(FaultToleranceTest, FailureInfoRendering) {
  FailureInfo F{ErrorCategory::InterpreterTrap, "quicksort", "ref-run",
                "array index 12 out of bounds"};
  EXPECT_EQ(F.str(), "quicksort [ref-run]: interpreter trap: array index "
                     "12 out of bounds");
}

} // namespace
