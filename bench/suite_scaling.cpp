//===- bench/suite_scaling.cpp - Parallel evaluation scaling ---------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// Measures the suite fan-out: wall-clock for the full ProgramsInt +
// ProgramsNumeric suite at 1/2/4/N threads, serial-vs-parallel speedup,
// analysis-cache hit rates, and a bitwise comparison of the prediction
// curves against the serial run (parallelism must never change results).
// Emits BENCH_suite_scaling.json so future PRs have a perf trajectory to
// defend.
//
// Every thread count runs once per round, for several rounds, and the
// order rotates each round so no count always runs first or last. Each
// count reports its median wall time, and the CPU time the process used
// (getrusage) beside it: CPU/wall near 1 at four threads means the host
// ran the fan-out on one CPU, which a bare wall-clock speedup cannot
// tell apart from a fan-out that serialized.
//
// A growth phase then repeats serial suite passes in this one process and
// gates on memory: resident set size after 5 passes and after 300 must
// agree within 10%. A process keeps memory in proportion to the results
// it holds, not to its history; a range arena that outlives its analysis
// fails this gate.
//
//===----------------------------------------------------------------------===//

#include "eval/SuiteRunner.h"
#include "support/Format.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

using namespace vrp;

namespace {

double wallSeconds(std::chrono::steady_clock::time_point Start,
                   std::chrono::steady_clock::time_point End) {
  return std::chrono::duration<double>(End - Start).count();
}

/// Bitwise curve comparison: the parallel engine promises results
/// identical to the serial run, so exact double equality is required.
bool curvesIdentical(const SuiteEvaluation &A, const SuiteEvaluation &B) {
  if (A.Benchmarks.size() != B.Benchmarks.size())
    return false;
  for (size_t I = 0; I < A.Benchmarks.size(); ++I) {
    const BenchmarkEvaluation &X = A.Benchmarks[I];
    const BenchmarkEvaluation &Y = B.Benchmarks[I];
    if (X.Ok != Y.Ok || X.Name != Y.Name ||
        X.VRPRangeFraction != Y.VRPRangeFraction)
      return false;
  }
  for (PredictorKind Kind : allPredictors()) {
    const ErrorCdf &CA = A.AveragedUnweighted.at(Kind);
    const ErrorCdf &CB = B.AveragedUnweighted.at(Kind);
    const ErrorCdf &WA = A.AveragedWeighted.at(Kind);
    const ErrorCdf &WB = B.AveragedWeighted.at(Kind);
    if (CA.meanError() != CB.meanError() ||
        WA.meanError() != WB.meanError())
      return false;
    for (unsigned Bucket = 0; Bucket < ErrorCdf::NumBuckets; ++Bucket)
      if (CA.fractionWithin(Bucket) != CB.fractionWithin(Bucket) ||
          WA.fractionWithin(Bucket) != WB.fractionWithin(Bucket))
        return false;
  }
  return true;
}

/// Current resident set size of this process, in MB.
double residentMb() {
  std::ifstream Statm("/proc/self/statm");
  uint64_t Size = 0, Resident = 0;
  Statm >> Size >> Resident;
  return static_cast<double>(Resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// CPU seconds (user + system) this process has used so far.
double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto secs = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + T.tv_usec / 1e6;
  };
  return secs(U.ru_utime) + secs(U.ru_stime);
}

/// The \p Q quantile of \p Xs (linear interpolation between ranks).
double quantile(std::vector<double> Xs, double Q) {
  std::sort(Xs.begin(), Xs.end());
  double Pos = Q * static_cast<double>(Xs.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Xs.size() - 1);
  return Xs[Lo] + (Xs[Hi] - Xs[Lo]) * (Pos - static_cast<double>(Lo));
}

/// Every timed pass at one thread count.
struct Run {
  unsigned Threads = 1;
  std::vector<double> Wall, Cpu, CpuPerWall;
  double CacheHitRate = 0.0;
  bool Identical = true;
};

} // namespace

int main() {
  std::vector<const BenchmarkProgram *> Programs = allPrograms();
  unsigned HW = std::thread::hardware_concurrency();
  constexpr unsigned Rounds = 9;

  std::cout << "==== Suite evaluation scaling ====\n\n"
            << "programs: " << Programs.size()
            << ", hardware_concurrency: " << HW << ", rounds: " << Rounds
            << "\n\n";

  std::vector<unsigned> ThreadCounts{1, 2, 4};
  if (HW > 4)
    ThreadCounts.push_back(HW);
  std::vector<Run> Runs(ThreadCounts.size());
  for (size_t I = 0; I < Runs.size(); ++I)
    Runs[I].Threads = ThreadCounts[I];

  VRPOptions Opts;
  Opts.Interprocedural = true;

  // One untimed serial pass warms the process (interned constants, suite
  // tables, allocator) and is the reference every timed pass must match.
  Opts.Threads = 1;
  SuiteEvaluation Serial = evaluateSuite(Programs, Opts);

  for (unsigned Round = 0; Round < Rounds; ++Round) {
    for (size_t K = 0; K < Runs.size(); ++K) {
      Run &R = Runs[(Round + K) % Runs.size()];
      Opts.Threads = R.Threads;
      double Cpu0 = cpuSeconds();
      auto Start = std::chrono::steady_clock::now();
      SuiteEvaluation Suite = evaluateSuite(Programs, Opts);
      double Wall = wallSeconds(Start, std::chrono::steady_clock::now());
      double Cpu = cpuSeconds() - Cpu0;
      R.Wall.push_back(Wall);
      R.Cpu.push_back(Cpu);
      R.CpuPerWall.push_back(Cpu / Wall);
      R.CacheHitRate = Suite.CacheTotals.hitRate();
      R.Identical = R.Identical && curvesIdentical(Serial, Suite);
    }
  }

  double SerialMedian = quantile(Runs.front().Wall, 0.5);
  TextTable Table({"threads", "median s", "q1-q3 s", "cpu s", "cpu/wall",
                   "speedup", "cache hit rate", "curves"});
  for (const Run &R : Runs)
    Table.addRow({std::to_string(R.Threads),
                  formatDouble(quantile(R.Wall, 0.5), 3),
                  formatDouble(quantile(R.Wall, 0.25), 3) + "-" +
                      formatDouble(quantile(R.Wall, 0.75), 3),
                  formatDouble(quantile(R.Cpu, 0.5), 3),
                  formatDouble(quantile(R.CpuPerWall, 0.5), 2),
                  formatDouble(SerialMedian / quantile(R.Wall, 0.5), 2) +
                      "x",
                  formatPercent(R.CacheHitRate),
                  R.Identical ? "identical" : "DIVERGED"});
  Table.print(std::cout);

  bool AllIdentical = true;
  for (const Run &R : Runs)
    AllIdentical = AllIdentical && R.Identical;
  std::cout << "\nparallel curves "
            << (AllIdentical ? "match the serial run bit-for-bit"
                             : "DIVERGED from the serial run (BUG)")
            << "\n";
  if (HW < 2)
    std::cout << "note: this host exposes " << (HW == 0 ? 1 : HW)
              << " core(s); speedups above are what the hardware allows, "
                 "not what the engine caps at\n";

  // Growth: serial passes in this process; RSS after the warm-up passes
  // is the baseline the last pass must stay within 10% of.
  constexpr unsigned BaselinePasses = 5;
  constexpr unsigned GrowthPasses = 300;
  VRPOptions GrowthOpts;
  GrowthOpts.Interprocedural = true;
  GrowthOpts.Threads = 1;
  double BaselineMb = 0.0;
  auto GrowthStart = std::chrono::steady_clock::now();
  for (unsigned Pass = 1; Pass <= GrowthPasses; ++Pass) {
    (void)evaluateSuite(Programs, GrowthOpts);
    if (Pass == BaselinePasses)
      BaselineMb = residentMb();
  }
  double GrowthSeconds =
      wallSeconds(GrowthStart, std::chrono::steady_clock::now());
  double FinalMb = residentMb();
  double GrowthRatio = FinalMb / BaselineMb;
  bool GrowthOk = std::abs(GrowthRatio - 1.0) <= 0.10;
  std::cout << "\nmemory growth: RSS " << formatDouble(BaselineMb, 1)
            << " MB after " << BaselinePasses << " passes, "
            << formatDouble(FinalMb, 1) << " MB after " << GrowthPasses
            << " (ratio " << formatDouble(GrowthRatio, 3) << ", "
            << (GrowthOk ? "within 10%" : "GREW beyond 10% (BUG)") << ")\n";

  std::ofstream Json("BENCH_suite_scaling.json");
  Json << "{\n"
       << "  \"bench\": \"suite_scaling\",\n"
       << "  \"suite_programs\": " << Programs.size() << ",\n"
       << "  \"hardware_concurrency\": " << HW << ",\n"
       << "  \"rounds\": " << Rounds << ",\n"
       << "  \"curves_identical\": " << (AllIdentical ? "true" : "false")
       << ",\n"
       << "  \"cache\": {\"hits\": " << Serial.CacheTotals.Hits
       << ", \"misses\": " << Serial.CacheTotals.Misses
       << ", \"hit_rate\": " << formatDouble(Serial.CacheTotals.hitRate(), 4)
       << "},\n"
       << "  \"runs\": [\n";
  for (size_t I = 0; I < Runs.size(); ++I) {
    const Run &R = Runs[I];
    double Median = quantile(R.Wall, 0.5);
    Json << "    {\"threads\": " << R.Threads
         << ", \"seconds\": " << formatDouble(Median, 6)
         << ", \"seconds_q1\": " << formatDouble(quantile(R.Wall, 0.25), 6)
         << ", \"seconds_q3\": " << formatDouble(quantile(R.Wall, 0.75), 6)
         << ", \"cpu_seconds\": " << formatDouble(quantile(R.Cpu, 0.5), 6)
         << ", \"cpu_per_wall\": "
         << formatDouble(quantile(R.CpuPerWall, 0.5), 4)
         << ", \"speedup_vs_serial\": "
         << formatDouble(SerialMedian / Median, 4)
         << ", \"cache_hit_rate\": " << formatDouble(R.CacheHitRate, 4)
         << ", \"curves_identical\": " << (R.Identical ? "true" : "false")
         << "}" << (I + 1 < Runs.size() ? "," : "") << "\n";
  }
  Json << "  ],\n"
       << "  \"growth\": {\"passes\": " << GrowthPasses
       << ", \"rss_mb_after_" << BaselinePasses
       << "\": " << formatDouble(BaselineMb, 2)
       << ", \"rss_mb_after_last\": " << formatDouble(FinalMb, 2)
       << ", \"ratio\": " << formatDouble(GrowthRatio, 4)
       << ", \"seconds\": " << formatDouble(GrowthSeconds, 3)
       << ", \"within_10pct\": " << (GrowthOk ? "true" : "false") << "}\n"
       << "}\n";
  std::cout << "\nwrote BENCH_suite_scaling.json\n";
  return AllIdentical && GrowthOk ? 0 : 1;
}
