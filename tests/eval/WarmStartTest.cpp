//===- tests/eval/WarmStartTest.cpp - Persistent-cache suite tests --------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// The persistent result cache under the full suite protocol: a warm run
// must reproduce the cold run bit-for-bit (per-benchmark evaluations and
// averaged curves) at any thread count, verify mode must find no
// divergence, and fault-injected runs must bypass the store entirely.
//
//===----------------------------------------------------------------------===//

#include "EvaluationOracle.h"
#include "eval/SuiteRunner.h"
#include "support/FaultInjection.h"

#include <cstdio>
#include <gtest/gtest.h>

using namespace vrp;

namespace {

std::vector<const BenchmarkProgram *> firstPrograms(size_t N) {
  std::vector<const BenchmarkProgram *> All = allPrograms();
  EXPECT_GE(All.size(), N);
  All.resize(N);
  return All;
}

std::string tempPath(const std::string &Name) {
  std::string Path = ::testing::TempDir() + "warm_start_" + Name;
  std::remove(Path.c_str());
  return Path;
}

VRPOptions suiteOptions(unsigned Threads = 1) {
  VRPOptions Opts;
  Opts.Interprocedural = true;
  Opts.Threads = Threads;
  return Opts;
}

/// Bitwise identity of two suite evaluations via the evaluation oracle,
/// which covers every deterministic field of an evaluation.
void expectIdentical(const SuiteEvaluation &A, const SuiteEvaluation &B) {
  ASSERT_EQ(A.Benchmarks.size(), B.Benchmarks.size());
  for (size_t I = 0; I < A.Benchmarks.size(); ++I)
    EXPECT_EQ(oracle::serializeEvaluation(A.Benchmarks[I]),
              oracle::serializeEvaluation(B.Benchmarks[I]))
        << A.Benchmarks[I].Name;
  for (PredictorKind Kind : allPredictors()) {
    EXPECT_EQ(A.AveragedUnweighted.at(Kind).meanError(),
              B.AveragedUnweighted.at(Kind).meanError());
    EXPECT_EQ(A.AveragedWeighted.at(Kind).meanError(),
              B.AveragedWeighted.at(Kind).meanError());
  }
}

class WarmStartTest : public ::testing::Test {
protected:
  void TearDown() override { fault::reset(); }
};

TEST_F(WarmStartTest, WarmRunReproducesColdRunBitwise) {
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(6);
  std::string Path = tempPath("bitwise.bin");
  SuiteRunConfig Config;
  Config.CachePath = Path;

  SuiteEvaluation Cold = evaluateSuite(Programs, suiteOptions(), Config);
  ASSERT_TRUE(Cold.PCacheEnabled);
  EXPECT_GT(Cold.PCache.Misses, 0u);
  EXPECT_EQ(Cold.PCache.Hits, 0u);
  EXPECT_GT(Cold.PCache.BytesWritten, 0u);

  SuiteEvaluation Warm = evaluateSuite(Programs, suiteOptions(), Config);
  ASSERT_TRUE(Warm.PCacheEnabled);
  EXPECT_GT(Warm.PCache.Hits, 0u);
  EXPECT_EQ(Warm.PCache.Misses, 0u)
      << "every function analyzed cold must hit warm";
  expectIdentical(Cold, Warm);
  std::remove(Path.c_str());
}

TEST_F(WarmStartTest, WarmRunIsIdenticalAtAnyThreadCount) {
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(6);
  std::string Path = tempPath("threads.bin");
  SuiteRunConfig Config;
  Config.CachePath = Path;
  SuiteEvaluation Cold = evaluateSuite(Programs, suiteOptions(1), Config);

  for (unsigned Threads : {1u, 2u, 4u}) {
    SuiteEvaluation Warm =
        evaluateSuite(Programs, suiteOptions(Threads), Config);
    expectIdentical(Cold, Warm);
    EXPECT_EQ(Warm.PCache.Hits, Cold.PCache.Misses)
        << "hit/miss counts are schedule-independent (frozen snapshot)";
    EXPECT_EQ(Warm.PCache.Misses, 0u) << "threads=" << Threads;
  }
  std::remove(Path.c_str());
}

TEST_F(WarmStartTest, VerifyModeFindsNoDivergenceAndMatchesCold) {
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(6);
  std::string Path = tempPath("verify.bin");
  SuiteRunConfig Config;
  Config.CachePath = Path;
  SuiteEvaluation Cold = evaluateSuite(Programs, suiteOptions(), Config);

  Config.CacheVerify = true;
  SuiteEvaluation Verify = evaluateSuite(Programs, suiteOptions(), Config);
  EXPECT_GT(Verify.PCache.Hits, 0u);
  EXPECT_EQ(Verify.PCacheDivergences, 0u)
      << "re-analysis must reproduce every stored record bitwise";
  expectIdentical(Cold, Verify);
  std::remove(Path.c_str());
}

TEST_F(WarmStartTest, OptionChangeMissesInsteadOfServingStaleResults) {
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(3);

  // Each variant computes different results, so its key differs and the
  // records a default-options run stored must not be served: the rerun
  // misses everything and matches a fresh uncached run under the variant.
  // (Flipping EnableSymbolicRanges would NOT do here: the suite's
  // VRPNumeric predictor already persisted numeric-key records cold.)
  VRPOptions Capped = suiteOptions();
  Capped.MaxSubRanges += 1;
  VRPOptions NoFP = suiteOptions();
  NoFP.EnableFPRanges = false;
  VRPOptions NoAlias = suiteOptions();
  NoAlias.EnableAliasRanges = false;
  for (const auto &[What, Variant] :
       {std::pair{"MaxSubRanges+1", Capped}, std::pair{"fp off", NoFP},
        std::pair{"alias off", NoAlias}}) {
    std::string Path = tempPath("options.bin");
    SuiteRunConfig Config;
    Config.CachePath = Path;
    (void)evaluateSuite(Programs, suiteOptions(), Config);

    SuiteEvaluation Run = evaluateSuite(Programs, Variant, Config);
    EXPECT_GT(Run.PCache.Misses, 0u) << What;
    EXPECT_EQ(Run.PCache.Hits, 0u) << What;
    SCOPED_TRACE(What);
    expectIdentical(evaluateSuite(Programs, Variant), Run);
    std::remove(Path.c_str());
  }
}

TEST_F(WarmStartTest, FaultInjectedRunsBypassTheStore) {
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(3);
  std::string Path = tempPath("fault.bin");
  SuiteRunConfig Config;
  Config.CachePath = Path;
  Config.SupervisorRetry = true;

  // Arm an injection spec: the run is now untrusted end to end, so
  // nothing may be served from or persisted to the store.
  fault::configure("worker@" + Programs[1]->Name + ":1");
  SuiteEvaluation Faulted = evaluateSuite(Programs, suiteOptions(), Config);
  EXPECT_EQ(Faulted.PCache.Hits, 0u);
  EXPECT_EQ(Faulted.PCache.Misses, 0u);
  EXPECT_EQ(Faulted.PCache.BytesWritten, 0u);
  fault::reset();

  // A clean run afterwards starts cold: the faulted run left no records.
  SuiteEvaluation Clean = evaluateSuite(Programs, suiteOptions(), Config);
  EXPECT_EQ(Clean.PCache.Hits, 0u);
  EXPECT_GT(Clean.PCache.Misses, 0u);
  std::remove(Path.c_str());
}

} // namespace
