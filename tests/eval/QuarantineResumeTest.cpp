//===- tests/eval/QuarantineResumeTest.cpp - Sentinel + rerun e2e ---------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// End-to-end contracts of the soundness sentinel and of finishing a
// killed suite run. Quarantine: k of N benchmarks with injected unsound
// ranges are detected, demoted to the Ball–Larus fallback, and reported —
// while the suite completes all N and the untouched N−k results stay
// bitwise identical. Supervisor: a transient worker failure is retried
// once and recovered; a persistent one stays a structured failure.
// Resume: rerunning against the persistent cache a mid-suite kill left,
// torn tail included, finishes the run with stats bitwise identical to an
// uninterrupted run at 1 and 4 threads, and commits the remainder so the
// rerun after that recomputes nothing.
//
//===----------------------------------------------------------------------===//

#include "benchsuite/Programs.h"
#include "EvaluationOracle.h"
#include "eval/Reporting.h"
#include "eval/SuiteRunner.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace vrp;

namespace {

std::vector<const BenchmarkProgram *> firstPrograms(size_t N) {
  std::vector<const BenchmarkProgram *> All = allPrograms();
  EXPECT_GE(All.size(), N);
  All.resize(N);
  return All;
}

VRPOptions auditOptions(unsigned Threads = 1) {
  VRPOptions Opts;
  Opts.Interprocedural = true;
  Opts.Audit = true;
  Opts.Threads = Threads;
  return Opts;
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
  // The oracle covers every deterministic field — equality there IS
  // bitwise identity of the evaluation.
  EXPECT_EQ(oracle::serializeEvaluation(A), oracle::serializeEvaluation(B))
      << A.Name;
}

/// Stats JSON down to the "pcache" block, with a zeroed telemetry
/// snapshot: everything deterministic the suite computed. The pcache
/// counters below it legitimately differ between a fresh run and a rerun.
std::string statsAbovePCache(const SuiteEvaluation &Suite) {
  std::ostringstream OS;
  writeSuiteStatsJson(Suite, telemetry::Snapshot{}, OS,
                      /*IncludeTimings=*/false);
  std::string Json = OS.str();
  return Json.substr(0, Json.find("\"pcache\""));
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "quarantine_resume_" + Name;
}

class QuarantineResumeTest : public ::testing::Test {
protected:
  void TearDown() override { fault::reset(); }
};

//===----------------------------------------------------------------------===//
// Quarantine
//===----------------------------------------------------------------------===//

TEST_F(QuarantineResumeTest, TwoOfEightQuarantinedSuiteReportsAllEight) {
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(8);

  // Victims with a single branchy function (the Rng helper is
  // straight-line), so quarantining it demotes the whole benchmark to
  // the Ball–Larus fallback.
  const std::string VictimA = Programs[0]->Name; // sort
  const std::string VictimB = Programs[4]->Name; // rle

  fault::reset();
  SuiteEvaluation Clean = evaluateSuite(Programs, auditOptions());
  ASSERT_TRUE(Clean.Failures.empty());
  EXPECT_EQ(Clean.SoundnessViolations, 0u);
  EXPECT_EQ(Clean.QuarantinedFunctions, 0u);
  EXPECT_GT(Clean.AuditChecks, 0u);

  for (unsigned Threads : {1u, 4u}) {
    ASSERT_TRUE(fault::configure("unsound-range@" + VictimA +
                                 ":0,unsound-range@" + VictimB + ":0"));
    SuiteEvaluation Suite = evaluateSuite(Programs, auditOptions(Threads));
    fault::reset();

    // All 8 benchmarks completed; none FAILED — quarantine degrades,
    // never aborts.
    ASSERT_EQ(Suite.Benchmarks.size(), 8u) << "Threads=" << Threads;
    EXPECT_TRUE(Suite.Failures.empty()) << "Threads=" << Threads;
    EXPECT_EQ(Suite.QuarantinedFunctions, 2u) << "Threads=" << Threads;
    EXPECT_GT(Suite.SoundnessViolations, 0u);
    ASSERT_EQ(Suite.Quarantines.size(), 2u);
    for (const quarantine::Record &Q : Suite.Quarantines) {
      EXPECT_EQ(Q.Why, quarantine::Reason::SoundnessViolation);
      EXPECT_TRUE(Q.Context == VictimA || Q.Context == VictimB) << Q.str();
      EXPECT_GT(Q.Violations, 0u);
    }

    for (size_t I = 0; I < Programs.size(); ++I) {
      const BenchmarkEvaluation &B = Suite.Benchmarks[I];
      ASSERT_TRUE(B.Ok) << B.Name << ": " << B.Error;
      if (B.Name == VictimA || B.Name == VictimB) {
        EXPECT_GT(B.SoundnessViolations, 0u) << B.Name;
        EXPECT_EQ(B.QuarantinedFunctions, 1u) << B.Name;
        // Discarded VRP predictions: the predictor collapses onto its
        // Ball–Larus fallback and claims no range predictions.
        EXPECT_EQ(B.VRPRangeFraction, 0.0) << B.Name;
        const auto &VRP = B.Curves.at(PredictorKind::VRP);
        const auto &BL = B.Curves.at(PredictorKind::BallLarus);
        expectIdenticalCurves(VRP.first, BL.first, B.Name + " unweighted");
        expectIdenticalCurves(VRP.second, BL.second, B.Name + " weighted");
      } else {
        // Untouched benchmarks are bitwise identical to the clean run.
        EXPECT_EQ(B.SoundnessViolations, 0u) << B.Name;
        EXPECT_EQ(B.QuarantinedFunctions, 0u) << B.Name;
        expectIdenticalEvaluations(Clean.Benchmarks[I], B);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Supervisor retry
//===----------------------------------------------------------------------===//

TEST_F(QuarantineResumeTest, TransientWorkerFaultIsRetriedAndRecovered) {
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(4);
  const std::string Victim = Programs[1]->Name;

  VRPOptions Opts;
  Opts.Interprocedural = true;
  SuiteRunConfig Config;
  Config.SupervisorRetry = true;

  // A counted spec fires on the first attempt only: the retry runs past
  // the trigger and succeeds.
  ASSERT_TRUE(fault::configure("worker@" + Victim + ":0"));
  SuiteEvaluation Suite = evaluateSuite(Programs, Opts, Config);
  fault::reset();

  ASSERT_EQ(Suite.Benchmarks.size(), 4u);
  EXPECT_TRUE(Suite.Failures.empty());
  EXPECT_EQ(Suite.SupervisorRetries, 1u);
  for (const BenchmarkEvaluation &B : Suite.Benchmarks) {
    ASSERT_TRUE(B.Ok) << B.Name << ": " << B.Error;
    EXPECT_EQ(B.Retried, B.Name == Victim) << B.Name;
  }
}

TEST_F(QuarantineResumeTest, PersistentWorkerFaultStaysAStructuredFailure) {
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(4);
  const std::string Victim = Programs[2]->Name;

  VRPOptions Opts;
  Opts.Interprocedural = true;
  SuiteRunConfig Config;
  Config.SupervisorRetry = true;

  // An every-occurrence spec fails the retry too: one structured failure,
  // marked retried, and the other three benchmarks unharmed.
  ASSERT_TRUE(fault::configure("worker@" + Victim + ":*"));
  SuiteEvaluation Suite = evaluateSuite(Programs, Opts, Config);
  fault::reset();

  ASSERT_EQ(Suite.Benchmarks.size(), 4u);
  ASSERT_EQ(Suite.Failures.size(), 1u);
  EXPECT_EQ(Suite.Failures.front().Benchmark, Victim);
  EXPECT_EQ(Suite.SupervisorRetries, 1u);
  for (const BenchmarkEvaluation &B : Suite.Benchmarks) {
    if (B.Name == Victim) {
      EXPECT_FALSE(B.Ok);
      EXPECT_TRUE(B.Retried);
      ASSERT_TRUE(B.Failure.has_value());
      EXPECT_NE(B.Failure->Message.find("injected"), std::string::npos)
          << B.Failure->str();
    } else {
      EXPECT_TRUE(B.Ok) << B.Name << ": " << B.Error;
      EXPECT_FALSE(B.Retried);
    }
  }
}

//===----------------------------------------------------------------------===//
// Finishing a killed run from the persistent cache
//===----------------------------------------------------------------------===//

TEST_F(QuarantineResumeTest, ResumeAfterMidSuiteKillIsBitwiseIdentical) {
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(8);
  VRPOptions Opts = auditOptions();

  // The uninterrupted reference run.
  SuiteEvaluation Reference = evaluateSuite(Programs, Opts);
  ASSERT_TRUE(Reference.Failures.empty());
  std::string ReferenceJson = statsAbovePCache(Reference);

  // The store a run killed during its fourth benchmark leaves behind: the
  // first three benchmarks' records (each committed after its audit
  // passed) and the first bytes of a record that never finished.
  std::string Killed = tempPath("killed.bin");
  std::remove(Killed.c_str());
  {
    SuiteRunConfig Config;
    Config.CachePath = Killed;
    std::vector<const BenchmarkProgram *> Prefix(Programs.begin(),
                                                 Programs.begin() + 3);
    ASSERT_TRUE(evaluateSuite(Prefix, Opts, Config).Failures.empty());
  }
  // The torn record: the 16-byte record header and first key bytes of a
  // copy of the store's first record (docs/CACHE.md has the layout).
  std::string Store = slurp(Killed);
  const size_t HeaderSize = 16, TornSize = 24;
  ASSERT_GT(Store.size(), HeaderSize + TornSize);
  Store += Store.substr(HeaderSize, TornSize);
  std::remove(Killed.c_str());

  for (unsigned Threads : {1u, 4u}) {
    std::string Path = tempPath("rerun_t" + std::to_string(Threads) + ".bin");
    std::ofstream(Path, std::ios::binary | std::ios::trunc) << Store;

    SuiteRunConfig Config;
    Config.CachePath = Path;
    Config.SupervisorRetry = true;
    SuiteEvaluation Rerun =
        evaluateSuite(Programs, auditOptions(Threads), Config);

    ASSERT_TRUE(Rerun.Failures.empty()) << "Threads=" << Threads;
    EXPECT_EQ(Rerun.PCache.CorruptRecords, 1u) << "Threads=" << Threads;
    EXPECT_GT(Rerun.PCache.Hits, 0u) << "Threads=" << Threads;
    // Bitwise identical to the uninterrupted run — every hex-float
    // fraction, CDF bucket and per-benchmark field.
    EXPECT_EQ(statsAbovePCache(Rerun), ReferenceJson) << "Threads=" << Threads;
    for (auto &[Kind, Cdf] : Reference.AveragedUnweighted)
      expectIdenticalCurves(Cdf, Rerun.AveragedUnweighted.at(Kind),
                            std::string("averaged unweighted ") +
                                predictorName(Kind));
    for (auto &[Kind, Cdf] : Reference.AveragedWeighted)
      expectIdenticalCurves(Cdf, Rerun.AveragedWeighted.at(Kind),
                            std::string("averaged weighted ") +
                                predictorName(Kind));
    ASSERT_EQ(Rerun.Benchmarks.size(), Reference.Benchmarks.size());
    for (size_t I = 0; I < Reference.Benchmarks.size(); ++I)
      expectIdenticalEvaluations(Reference.Benchmarks[I], Rerun.Benchmarks[I]);
    std::remove(Path.c_str());
  }
}

TEST_F(QuarantineResumeTest, ResumeJournalsTheRemainderForTheNextCrash) {
  // A rerun that finishes a killed run commits the benchmarks it had to
  // recompute, next to the records it reused: if it is killed in turn, the
  // rerun after it recomputes nothing.
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(4);
  VRPOptions Opts;
  Opts.Interprocedural = true;
  std::string Reference = statsAbovePCache(evaluateSuite(Programs, Opts));

  for (unsigned Threads : {1u, 4u}) {
    VRPOptions RunOpts = Opts;
    RunOpts.Threads = Threads;
    std::string Path =
        tempPath("remainder_t" + std::to_string(Threads) + ".bin");
    std::remove(Path.c_str());

    // The store of a run killed after its first benchmark.
    SuiteRunConfig Config;
    Config.CachePath = Path;
    {
      std::vector<const BenchmarkProgram *> Prefix(Programs.begin(),
                                                   Programs.begin() + 1);
      ASSERT_TRUE(evaluateSuite(Prefix, RunOpts, Config).Failures.empty());
    }

    SuiteEvaluation First = evaluateSuite(Programs, RunOpts, Config);
    ASSERT_TRUE(First.Failures.empty()) << "Threads=" << Threads;
    EXPECT_GT(First.PCache.Hits, 0u) << "Threads=" << Threads;
    EXPECT_GT(First.PCache.Misses, 0u) << "Threads=" << Threads;
    EXPECT_GT(First.PCache.BytesWritten, 0u) << "Threads=" << Threads;
    EXPECT_EQ(statsAbovePCache(First), Reference) << "Threads=" << Threads;

    SuiteEvaluation Second = evaluateSuite(Programs, RunOpts, Config);
    ASSERT_TRUE(Second.Failures.empty()) << "Threads=" << Threads;
    EXPECT_EQ(Second.PCache.Misses, 0u) << "Threads=" << Threads;
    EXPECT_EQ(Second.PCache.BytesWritten, 0u) << "Threads=" << Threads;
    EXPECT_EQ(statsAbovePCache(Second), Reference) << "Threads=" << Threads;
    std::remove(Path.c_str());
  }
}

} // namespace
