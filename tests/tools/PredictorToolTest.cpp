//===- tests/tools/PredictorToolTest.cpp - CLI exit-code contract ---------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// End-to-end checks of the predictor_tool executable's exit-code
// contract (0 success, 1 diagnostics, 2 usage, 3 internal) and its
// budget/fault-injection plumbing. The binary path is injected by CMake
// as PREDICTOR_TOOL_PATH.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace {

/// Runs the tool with \p Args, stdout/stderr redirected to \p LogFile,
/// and returns the process exit code (-1 if the shell invocation failed).
int runTool(const std::string &Args, const std::string &LogFile) {
  std::string Cmd = std::string(PREDICTOR_TOOL_PATH) + " " + Args + " > " +
                    LogFile + " 2>&1";
  int Raw = std::system(Cmd.c_str());
  if (Raw == -1)
    return -1;
#ifdef WEXITSTATUS
  if (WIFEXITED(Raw))
    return WEXITSTATUS(Raw);
  return -1;
#else
  return Raw;
#endif
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  return Text;
}

/// Writes a .vl source file under the test temp dir and returns its path.
std::string writeTemp(const std::string &Name, const std::string &Source) {
  std::string Path = ::testing::TempDir() + Name;
  std::ofstream Out(Path);
  Out << Source;
  return Path;
}

const char *ValidSource = R"(
fn main() {
  var total = 0;
  for (var i = 0; i < 10; i = i + 1) {
    if (i > 5) {
      total = total + i;
    }
  }
  return total;
}
)";

class PredictorToolTest : public ::testing::Test {
protected:
  // ctest runs each discovered case as its own process, in parallel, so
  // the log file must be unique per test or concurrent cases clobber
  // each other's output mid-read.
  std::string Log = ::testing::TempDir() + "predictor_tool_" +
                    ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name() +
                    ".log";
};

TEST_F(PredictorToolTest, ValidProgramExitsZero) {
  std::string File = writeTemp("ptool_valid.vl", ValidSource);
  EXPECT_EQ(runTool(File, Log), 0) << slurp(Log);
  EXPECT_NE(slurp(Log).find("fn @main"), std::string::npos);
}

TEST_F(PredictorToolTest, MalformedProgramExitsOneWithDiagnostics) {
  std::string File =
      writeTemp("ptool_bad.vl", "fn main() { return 1 + ; }");
  EXPECT_EQ(runTool(File, Log), 1);
  std::string Text = slurp(Log);
  EXPECT_NE(Text.find("error"), std::string::npos) << Text;
}

TEST_F(PredictorToolTest, UsageErrorsExitTwo) {
  EXPECT_EQ(runTool("--no-such-flag", Log), 2);
  EXPECT_EQ(runTool("--threads=notanumber", Log), 2);
  EXPECT_EQ(runTool("--budget=-5", Log), 2);
  EXPECT_EQ(runTool("--deadline=10ms", Log), 2);
  EXPECT_EQ(runTool("--predictor=psychic", Log), 2);
  EXPECT_EQ(runTool("/nonexistent/dir/missing.vl", Log), 2);
}

TEST_F(PredictorToolTest, HelpExitsZero) {
  EXPECT_EQ(runTool("--help", Log), 0);
  EXPECT_NE(slurp(Log).find("exit codes"), std::string::npos);
}

TEST_F(PredictorToolTest, ExhaustedBudgetDegradesInsteadOfFailing) {
  std::string File = writeTemp("ptool_budget.vl", ValidSource);
  EXPECT_EQ(runTool("--budget=1 " + File, Log), 0) << slurp(Log);
  std::string Text = slurp(Log);
  EXPECT_NE(Text.find("heuristic fallback"), std::string::npos) << Text;
  EXPECT_NE(Text.find("degraded"), std::string::npos) << Text;
}

TEST_F(PredictorToolTest, StatsFlagPrintsCounters) {
  std::string File = writeTemp("ptool_stats.vl", ValidSource);
  EXPECT_EQ(runTool("--stats " + File, Log), 0) << slurp(Log);
  std::string Text = slurp(Log);
  EXPECT_NE(Text.find("propagation_steps"), std::string::npos) << Text;
  EXPECT_NE(Text.find("parse_runs"), std::string::npos) << Text;
}

TEST_F(PredictorToolTest, StatsJsonPutsTimingsLast) {
  std::string File = writeTemp("ptool_stats_json.vl", ValidSource);
  EXPECT_EQ(runTool("--stats=json " + File, Log), 0) << slurp(Log);
  std::string Text = slurp(Log);
  size_t Counters = Text.find("\"counters\"");
  size_t Timings = Text.find("\"timings\"");
  ASSERT_NE(Counters, std::string::npos) << Text;
  ASSERT_NE(Timings, std::string::npos) << Text;
  EXPECT_LT(Counters, Timings) << "timings must be the trailing key";
}

TEST_F(PredictorToolTest, TraceRecordsLatticeTransitions) {
  std::string File = writeTemp("ptool_trace.vl", ValidSource);
  EXPECT_EQ(runTool("--trace=main " + File, Log), 0) << slurp(Log);
  std::string Text = slurp(Log);
  EXPECT_NE(Text.find("trace of main"), std::string::npos) << Text;
  EXPECT_NE(Text.find("->"), std::string::npos) << Text;
}

TEST_F(PredictorToolTest, TraceOfUnknownFunctionSaysSo) {
  std::string File = writeTemp("ptool_trace_miss.vl", ValidSource);
  EXPECT_EQ(runTool("--trace=no_such_fn " + File, Log), 0) << slurp(Log);
  EXPECT_NE(slurp(Log).find("no function named"), std::string::npos)
      << slurp(Log);
}

TEST_F(PredictorToolTest, StatsUsageErrorsExitTwo) {
  std::string File = writeTemp("ptool_stats_bad.vl", ValidSource);
  EXPECT_EQ(runTool("--stats=xml " + File, Log), 2);
  EXPECT_EQ(runTool("--trace= " + File, Log), 2);
  // --suite takes no input file.
  EXPECT_EQ(runTool("--suite " + File, Log), 2);
}

TEST_F(PredictorToolTest, SuiteStatsJsonIsDeterministicAcrossThreads) {
  // The CLI surface of the determinism contract: non-timing stats from a
  // full-suite run are identical at 1 and 4 threads.
  std::string Log1 = ::testing::TempDir() + "ptool_suite_t1.json";
  std::string Log4 = ::testing::TempDir() + "ptool_suite_t4.json";
  EXPECT_EQ(runTool("--suite --stats=json --threads=1", Log1), 0)
      << slurp(Log1);
  EXPECT_EQ(runTool("--suite --stats=json --threads=4", Log4), 0)
      << slurp(Log4);
  auto stripTimings = [](std::string Text) {
    size_t At = Text.find("\"timings\"");
    return At == std::string::npos ? Text : Text.substr(0, At);
  };
  std::string T1 = stripTimings(slurp(Log1));
  ASSERT_NE(T1.find("\"benchmarks\""), std::string::npos) << T1;
  EXPECT_EQ(T1, stripTimings(slurp(Log4)));
  std::remove(Log1.c_str());
  std::remove(Log4.c_str());
}

TEST_F(PredictorToolTest, AuditCleanProgramExitsZero) {
  std::string File = writeTemp("ptool_audit.vl", ValidSource);
  EXPECT_EQ(runTool("--audit " + File, Log), 0) << slurp(Log);
  std::string Text = slurp(Log);
  EXPECT_NE(Text.find("audit: 0 violations"), std::string::npos) << Text;
}

TEST_F(PredictorToolTest, AuditJsonReportsChecks) {
  std::string File = writeTemp("ptool_audit_json.vl", ValidSource);
  EXPECT_EQ(runTool("--audit=json " + File, Log), 0) << slurp(Log);
  std::string Text = slurp(Log);
  EXPECT_NE(Text.find("\"violations\": 0"), std::string::npos) << Text;
  EXPECT_NE(Text.find("\"checks\""), std::string::npos) << Text;
}

TEST_F(PredictorToolTest, InjectedUnsoundRangeExitsFour) {
  // The full sentinel path through the CLI: a silently corrupted range
  // is caught by the audit, the suite quarantines the function instead
  // of aborting, and the audit-violation exit code distinguishes the
  // outcome from ordinary failures.
  std::string Cmd = "VRP_FAULT_INJECT='unsound-range@sort:0' " +
                    std::string(PREDICTOR_TOOL_PATH) +
                    " --suite --audit > " + Log + " 2>&1";
  int Raw = std::system(Cmd.c_str());
  ASSERT_NE(Raw, -1);
  ASSERT_TRUE(WIFEXITED(Raw));
  EXPECT_EQ(WEXITSTATUS(Raw), 4);
  std::string Text = slurp(Log);
  EXPECT_NE(Text.find("quarantined"), std::string::npos) << Text;
  EXPECT_NE(Text.find("@main in sort"), std::string::npos) << Text;
}

TEST_F(PredictorToolTest, JournalUsageErrorsExitTwo) {
  // Suites have no checkpoint flags: a killed run is finished by
  // rerunning it with the same --cache (docs/ROBUSTNESS.md).
  std::string File = writeTemp("ptool_journal_bad.vl", ValidSource);
  EXPECT_EQ(runTool("--journal=run.jsonl " + File, Log), 2);
  EXPECT_NE(slurp(Log).find("unknown option: --journal"), std::string::npos)
      << slurp(Log);
  EXPECT_EQ(runTool("--suite --resume", Log), 2);
  EXPECT_NE(slurp(Log).find("unknown option: --resume"), std::string::npos)
      << slurp(Log);
}

// Two programs that differ only in a float constant that prints alike
// in both (`0.000005`). The cache key hashes constants by bit pattern,
// so b misses against a store filled by a and reports its own cold
// result (54.5%), not a's (51.5%).
TEST_F(PredictorToolTest, FloatConstantThatPrintsAlikeMissesTheCache) {
  auto source = [](const char *Threshold) {
    return std::string(R"(
fn main() {
  var hits = 0;
  for (var i = 0; i < 100; i = i + 1) {
    var x = float(i) * 0.0000001;
    if (x < )") + Threshold + R"() {
      hits = hits + 1;
    }
  }
  return hits;
}
)";
  };
  std::string A = writeTemp("ptool_float_a.vl", source("0.0000051"));
  std::string B = writeTemp("ptool_float_b.vl", source("0.0000054"));
  std::string Store = ::testing::TempDir() + "ptool_float.pcache";
  std::remove(Store.c_str());
  std::string ColdLog = Log + ".cold";
  ASSERT_EQ(runTool(B, ColdLog), 0) << slurp(ColdLog);
  std::string Cold = slurp(ColdLog);
  ASSERT_NE(Cold.find("54.5%"), std::string::npos) << Cold;

  ASSERT_EQ(runTool(A + " --cache=" + Store, Log), 0) << slurp(Log);
  ASSERT_EQ(runTool(B + " --cache=" + Store + " --stats", Log), 0)
      << slurp(Log);
  std::string Warm = slurp(Log);
  EXPECT_EQ(Warm.substr(0, Cold.size()), Cold);
  EXPECT_NE(Warm.find("pcache_hits 0\n"), std::string::npos) << Warm;
  EXPECT_NE(Warm.find("pcache_misses 1\n"), std::string::npos) << Warm;
  std::remove(Store.c_str());
  std::remove(ColdLog.c_str());
}

TEST_F(PredictorToolTest, InjectedParseFaultExitsOne) {
  std::string File = writeTemp("ptool_inject.vl", ValidSource);
  std::string Cmd = "VRP_FAULT_INJECT=parse:0 " + std::string(
      PREDICTOR_TOOL_PATH) + " " + File + " > " + Log + " 2>&1";
  int Raw = std::system(Cmd.c_str());
  ASSERT_NE(Raw, -1);
  ASSERT_TRUE(WIFEXITED(Raw));
  EXPECT_EQ(WEXITSTATUS(Raw), 1);
  EXPECT_NE(slurp(Log).find("injected parse failure"), std::string::npos)
      << slurp(Log);
}

} // namespace
