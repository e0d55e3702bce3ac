//===- tests/eval/SupervisorRetryTest.cpp - Retry under concurrency -------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// The supervisor's retry contract under the parallel fan-out: a fault
// injected into the first attempt of one benchmark slot — while three
// other workers are evaluating concurrently — is retried exactly once,
// the suite reports success, and the merged statistics are bitwise
// identical to a fault-free serial run. Also covers cooperative
// interruption: benchmarks that have not started when stop is requested
// fail structurally with stage "interrupted" and commit nothing to the
// persistent cache, so a rerun evaluates them instead of replaying the
// interruption.
//
//===----------------------------------------------------------------------===//

#include "benchsuite/Programs.h"
#include "eval/SuiteRunner.h"
#include "support/FaultInjection.h"
#include "support/Signal.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace vrp;

namespace {

std::vector<const BenchmarkProgram *> firstPrograms(size_t N) {
  std::vector<const BenchmarkProgram *> All = allPrograms();
  EXPECT_GE(All.size(), N);
  All.resize(N);
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

/// Disarms injection and clears the stop flag around every test.
class SupervisorRetryTest : public ::testing::Test {
protected:
  void TearDown() override {
    fault::reset();
    stopsignal::resetForTests();
  }
};

TEST_F(SupervisorRetryTest, TransientFaultUnderFourWorkersRetriedOnce) {
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(8);
  const std::string Victim = Programs[3]->Name;

  VRPOptions Serial;
  Serial.Interprocedural = true;
  Serial.Threads = 1;
  fault::reset();
  SuiteEvaluation Clean = evaluateSuite(Programs, Serial);
  for (const BenchmarkEvaluation &B : Clean.Benchmarks)
    ASSERT_TRUE(B.Ok) << B.Name << ": " << B.Error;

  // The fault fires on the victim's FIRST attempt only, while three
  // other workers are mid-evaluation. The supervisor must retry exactly
  // that one slot, exactly once, without disturbing any other worker.
  VRPOptions Parallel = Serial;
  Parallel.Threads = 4;
  SuiteRunConfig Config;
  Config.SupervisorRetry = true;
  ASSERT_TRUE(fault::configure("worker@" + Victim + ":0"));
  SuiteEvaluation Suite = evaluateSuite(Programs, Parallel, Config);
  fault::reset();

  ASSERT_EQ(Suite.Benchmarks.size(), 8u);
  EXPECT_TRUE(Suite.Failures.empty());
  EXPECT_EQ(Suite.SupervisorRetries, 1u) << "exactly one retry";
  for (size_t I = 0; I < Suite.Benchmarks.size(); ++I) {
    const BenchmarkEvaluation &B = Suite.Benchmarks[I];
    ASSERT_TRUE(B.Ok) << B.Name << ": " << B.Error;
    EXPECT_EQ(B.Retried, B.Name == Victim) << B.Name;
    // The retried result and the seven untouched ones are all bitwise
    // identical to the fault-free serial run: the retry recomputed, it
    // did not approximate.
    expectIdenticalEvaluations(Clean.Benchmarks[I], B);
  }

  // Merged suite-level stats are deterministic too.
  for (const auto &[Kind, Curve] : Clean.AveragedUnweighted)
    expectIdenticalCurves(Curve, Suite.AveragedUnweighted.at(Kind),
                          std::string("averaged unweighted ") +
                              predictorName(Kind));
  for (const auto &[Kind, Curve] : Clean.AveragedWeighted)
    expectIdenticalCurves(Curve, Suite.AveragedWeighted.at(Kind),
                          std::string("averaged weighted ") +
                              predictorName(Kind));
  EXPECT_EQ(Clean.VRPTotals.FunctionsAnalyzed,
            Suite.VRPTotals.FunctionsAnalyzed);
}

TEST_F(SupervisorRetryTest, PersistentFaultUnderFourWorkersFailsOnce) {
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(8);
  const std::string Victim = Programs[5]->Name;

  VRPOptions Opts;
  Opts.Interprocedural = true;
  Opts.Threads = 4;
  SuiteRunConfig Config;
  Config.SupervisorRetry = true;

  // Every attempt fails: the supervisor stops after the single retry
  // (two attempts total — counted by the spec's trigger count) and
  // reports one structured failure.
  ASSERT_TRUE(fault::configure("worker@" + Victim + ":*"));
  SuiteEvaluation Suite = evaluateSuite(Programs, Opts, Config);
  fault::reset();

  ASSERT_EQ(Suite.Benchmarks.size(), 8u);
  ASSERT_EQ(Suite.Failures.size(), 1u);
  EXPECT_EQ(Suite.Failures.front().Benchmark, Victim);
  EXPECT_EQ(Suite.Failures.front().Stage, "worker-task");
  // The single retry happened (the count below) and the victim STILL
  // failed — i.e. exactly two attempts were made, then the supervisor
  // gave up instead of looping.
  EXPECT_EQ(Suite.SupervisorRetries, 1u);
  for (const BenchmarkEvaluation &B : Suite.Benchmarks) {
    if (B.Name == Victim)
      EXPECT_FALSE(B.Ok);
    else
      EXPECT_TRUE(B.Ok) << B.Name << ": " << B.Error;
  }
}

TEST_F(SupervisorRetryTest, InterruptedBenchmarksCommitNothingToTheCache) {
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(4);
  const std::string Cache = ::testing::TempDir() + "retry_interrupt.bin";
  std::remove(Cache.c_str());

  VRPOptions Opts;
  Opts.Interprocedural = true;
  SuiteRunConfig Config;
  Config.CachePath = Cache;

  // Stop already requested when the suite starts: every slot fails
  // structurally with stage "interrupted" instead of evaluating.
  stopsignal::requestStop();
  SuiteEvaluation Stopped = evaluateSuite(Programs, Opts, Config);
  stopsignal::resetForTests();

  ASSERT_EQ(Stopped.Benchmarks.size(), 4u);
  ASSERT_EQ(Stopped.Failures.size(), 4u);
  for (const FailureInfo &F : Stopped.Failures)
    EXPECT_EQ(F.Stage, "interrupted") << F.str();
  EXPECT_EQ(Stopped.PCache.BytesWritten, 0u)
      << "interrupted slots must commit nothing to the cache";

  // So a rerun against the same store finds nothing to reuse, evaluates
  // everything and succeeds, rather than replaying the stop.
  SuiteEvaluation Rerun = evaluateSuite(Programs, Opts, Config);
  EXPECT_EQ(Rerun.PCache.Hits, 0u);
  EXPECT_TRUE(Rerun.Failures.empty());
  for (const BenchmarkEvaluation &B : Rerun.Benchmarks)
    EXPECT_TRUE(B.Ok) << B.Name << ": " << B.Error;
  std::remove(Cache.c_str());
}

} // namespace
