//===- tests/eval/AliasDeterminismTest.cpp - Alias/FP determinism ---------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// The load-alias pass and the FP interval domain under the determinism
// contracts the rest of the engine already honors: suite curves with
// EnableAliasRanges/EnableFPRanges on must be bitwise-identical at any
// thread count and across a cold-vs-warm persistent-cache cycle, and
// flipping either flag must change the cache fingerprint (stale records
// computed under the other semantics must never be served).
//
//===----------------------------------------------------------------------===//

#include "EvaluationOracle.h"
#include "eval/SuiteRunner.h"

#include <cstdio>
#include <gtest/gtest.h>

using namespace vrp;

namespace {

/// The numeric slice of the suite: these are the programs with float
/// induction variables and calibration-table loads, i.e. the ones whose
/// predictions actually flow through the FP kernels and the alias pass.
std::vector<const BenchmarkProgram *> numericPrograms(size_t N) {
  std::vector<const BenchmarkProgram *> Picked;
  for (const BenchmarkProgram &P : numericSuite()) {
    Picked.push_back(&P);
    if (Picked.size() == N)
      break;
  }
  EXPECT_EQ(Picked.size(), N);
  return Picked;
}

std::string tempPath(const std::string &Name) {
  std::string Path = ::testing::TempDir() + "alias_determinism_" + Name;
  std::remove(Path.c_str());
  return Path;
}

VRPOptions aliasOptions(unsigned Threads = 1) {
  VRPOptions Opts;
  Opts.Interprocedural = true;
  Opts.Threads = Threads;
  Opts.EnableFPRanges = true;
  Opts.EnableAliasRanges = true;
  return Opts;
}

/// Bitwise identity via the evaluation oracle (covers every
/// deterministic field of an evaluation, curves included).
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

TEST(AliasDeterminismTest, CurvesIdenticalAcrossThreadCounts) {
  std::vector<const BenchmarkProgram *> Programs = numericPrograms(5);
  SuiteEvaluation Serial = evaluateSuite(Programs, aliasOptions(1));
  for (unsigned Threads : {2u, 4u}) {
    SuiteEvaluation Parallel = evaluateSuite(Programs, aliasOptions(Threads));
    expectIdentical(Serial, Parallel);
  }
}

TEST(AliasDeterminismTest, WarmPCacheReproducesColdRunBitwise) {
  std::vector<const BenchmarkProgram *> Programs = numericPrograms(5);
  std::string Path = tempPath("warm.bin");
  SuiteRunConfig Config;
  Config.CachePath = Path;

  SuiteEvaluation Cold = evaluateSuite(Programs, aliasOptions(), Config);
  ASSERT_TRUE(Cold.PCacheEnabled);
  EXPECT_GT(Cold.PCache.Misses, 0u);

  SuiteEvaluation Warm = evaluateSuite(Programs, aliasOptions(), Config);
  EXPECT_GT(Warm.PCache.Hits, 0u);
  EXPECT_EQ(Warm.PCache.Misses, 0u)
      << "alias environments are part of the key; identical modules must hit";
  expectIdentical(Cold, Warm);
  std::remove(Path.c_str());
}

TEST(AliasDeterminismTest, FlagFlipsChangeTheCacheFingerprint) {
  // Records computed with the alias pass (or the FP domain) on encode
  // loads resolved to weighted stored ranges; serving them to a run with
  // the flag off would be a correctness bug, not a performance one.
  std::vector<const BenchmarkProgram *> Programs = numericPrograms(3);
  std::string Path = tempPath("flags.bin");
  SuiteRunConfig Config;
  Config.CachePath = Path;
  (void)evaluateSuite(Programs, aliasOptions(), Config);

  VRPOptions NoAlias = aliasOptions();
  NoAlias.EnableAliasRanges = false;
  SuiteEvaluation RunA = evaluateSuite(Programs, NoAlias, Config);
  EXPECT_GT(RunA.PCache.Misses, 0u);
  EXPECT_EQ(RunA.PCache.Hits, 0u) << "EnableAliasRanges must be key material";

  VRPOptions NoFP = aliasOptions();
  NoFP.EnableFPRanges = false;
  SuiteEvaluation RunB = evaluateSuite(Programs, NoFP, Config);
  EXPECT_GT(RunB.PCache.Misses, 0u);
  EXPECT_EQ(RunB.PCache.Hits, 0u) << "EnableFPRanges must be key material";
  std::remove(Path.c_str());
}

} // namespace
