//===- vrpbench/Harness.h - Shared pieces of the vrpbench harness ---------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// The four workloads (suite_eval, module_cold, module_incremental,
// serve_mixed) share one result shape, one span recorder and one replay
// of the compile pipeline. README.md in this directory explains what each
// workload and metric is for.
//
//===----------------------------------------------------------------------===//

#ifndef VRPBENCH_HARNESS_H
#define VRPBENCH_HARNESS_H

#include "driver/Pipeline.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace vrpbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// What every workload receives from the command line.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20.0;
  /// Report per-layer numbers from traced replays of the operations
  /// instead of end-to-end numbers.
  bool Trace = false;
  /// Tiny inputs and a short run, for checking the harness itself.
  bool Smoke = false;
  /// Where sockets, caches and the span file go.
  std::string WorkDir = ".";
};

/// Per-layer numbers of a traced run.
struct LayerReport {
  /// Mean self time per traced operation, by span name ("op" is the
  /// unexplained residual of the operation itself).
  std::map<std::string, double> SelfMs;
  /// Per-layer counts and ratios (deterministic for a given seed).
  std::map<std::string, double> Values;
  unsigned TracedOps = 0;
  double TracedOpMs = 0.0;   ///< Mean traced operation time.
  double UntracedOpMs = 0.0; ///< Mean untraced operation time, same run.
};

/// Outcome of one workload run.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems; ///< First few failure descriptions.
  std::vector<double> SetupSeconds;  ///< One entry per set-up repetition.
  std::vector<double> OpMs;          ///< Untraced operation latencies.
  double Throughput = 0.0;           ///< Operations per second.
  /// Peak resident set after set-up and a fixed amount of work, so it does
  /// not grow with the number of operations that fit in the run.
  double PeakRssMb = 0.0;
  LayerReport Layers;                ///< Filled by traced runs only.
  std::vector<std::string> Notes;    ///< Extra lines for the report.

  void fail(const std::string &Why, uint64_t N = 1);
};

/// In-memory span recorder for one thread. Spans nest under the innermost
/// open span; nothing is written until writeJson().
class Tracer {
public:
  struct Span {
    std::string Name;
    double StartUs = 0.0;
    double EndUs = 0.0;
    int Parent = -1;
    int Last = -1; ///< Last span index of this span's subtree.
    uint64_t Request = 0;
  };

  int begin(std::string Name, uint64_t Request = 0);
  void end(int Id);
  double durationMs(int Id) const;

  /// Self time (duration minus the duration of direct children) summed
  /// by span name over the subtree rooted at \p Root, in milliseconds.
  std::map<std::string, double> selfTimes(int Root) const;

  bool writeJson(const std::string &Path) const;

  class Scope {
  public:
    Scope(Tracer &T, std::string Name) : T(T), Id(T.begin(std::move(Name))) {}
    ~Scope() { T.end(Id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int Id;
  };

private:
  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// Accumulates traced operations into a LayerReport.
class LayerAccumulator {
public:
  void addOp(const std::map<std::string, double> &Self, double OpMs);
  /// Records the counts of the operation on input \p Key. Only the first
  /// operation per input counts, so the reported means are a function of
  /// the inputs, not of how many operations fit in the run.
  void addValues(uint64_t Key, const std::map<std::string, double> &V);
  /// Means per operation (times) and per input (counts);
  /// \p UntracedOpMs is the untraced mean.
  LayerReport finish(double UntracedOpMs) const;

private:
  std::map<std::string, double> SumMs;
  std::map<uint64_t, std::map<std::string, double>> ValuesByKey;
  unsigned Ops = 0;
  double OpMsSum = 0.0;
};

/// Peak resident set size of this process so far, in MiB.
double peakRssMb();

/// Median (P = 0.5) or other linear-interpolated percentile.
double percentile(std::vector<double> Values, double P);
double mean(const std::vector<double> &Values);

/// The timed phase of the suite and module workloads. \p Untraced(I) runs
/// operation I and returns its latency in ms (it times itself so its
/// correctness checks stay untimed). A trace run follows every untraced
/// operation with \p Traced(I), the same operation replayed with spans,
/// so both see the same process state: the process-wide range arena
/// grows with every analysis and later operations run slower. Runs for
/// Cfg.Seconds of wall-clock, never starting a round the previous one
/// says would overrun, but at least \p MinOps rounds. The peak RSS is
/// read after \p MinOps rounds.
template <typename UntracedFn, typename TracedFn>
void runTimed(const RunConfig &Cfg, unsigned MinOps, RunResult &R,
              UntracedFn &&Untraced, TracedFn &&Traced) {
  const auto Start = Clock::now();
  double LastMs = 0.0;
  for (unsigned I = 0;
       I < MinOps || msSince(Start) + LastMs <= Cfg.Seconds * 1e3; ++I) {
    const auto Round = Clock::now();
    R.OpMs.push_back(Untraced(I));
    if (Cfg.Trace)
      Traced(I);
    LastMs = msSince(Round);
    if (I + 1 == MinOps)
      R.PeakRssMb = peakRssMb();
  }
}

/// Paper defaults with interprocedural propagation on one thread: the
/// options of every analysis call in the benchmark.
vrp::VRPOptions benchOptions();

/// A program compiled by compileTraced(): the AST owns the symbols the IR
/// refers to, so both live together.
struct Compiled {
  std::unique_ptr<vrp::Program> AST;
  std::unique_ptr<vrp::Module> IR;
};

/// Replays vrp::compileProgram stage by stage through the public stage
/// functions (parse, sema, irgen, SSA, assertions, verify), one span per
/// stage. Returns false with \p Err set when a stage rejects the source.
bool compileTraced(Tracer &T, std::string_view Source, Compiled &Out,
                   std::string &Err);

/// Runs vrp::compileProgram with the benchmark options; null + \p Err on
/// failure.
std::unique_ptr<vrp::CompiledProgram> compileOrReport(std::string_view Source,
                                                      std::string &Err);

/// FNV-1a over every function's PersistentCache serialization, in module
/// order: equal fingerprints mean bitwise-equal analysis results.
uint64_t fingerprint(const vrp::Module &M, const vrp::ModuleVRPResult &R);

/// IR instructions in \p M.
uint64_t instructionCount(const vrp::Module &M);

/// Probe spans that split one traced whole-module propagation span into
/// layers, run after the operation on the module it analyzed:
/// AliasInfo::analyze on every function, CallGraph construction, and the
/// same propagation with Interprocedural=false.
void probeModule(Tracer &T, const vrp::Module &M);

/// Replaces the self time of the \p SpanName spans in \p Self with the
/// layers the probe spans in \p Probe measured: analysis.alias,
/// analysis.callgraph, vrp.self (intraprocedural propagation minus alias
/// analysis), pcache.roundtrip (when probed) and interproc.self (the rest
/// of the interprocedural run). Every propagation run analyzes its
/// function's aliases again, so alias time inside the span is estimated
/// as the probe's time \p AliasCalls times over: the span's propagation
/// runs per function the alias probe covered.
void splitModuleSpan(std::map<std::string, double> &Self,
                     const std::map<std::string, double> &Probe,
                     double AliasCalls,
                     const std::string &SpanName = "vrp.module");

/// Propagation runs so far in this telemetry epoch.
uint64_t propagationRuns();

/// Starts a fresh telemetry epoch for one traced operation, so its
/// counts do not depend on what the process analyzed before.
void resetCounters();

/// The telemetry counters since resetCounters(), under their per-layer
/// metric names, with the ratios derived from them.
std::map<std::string, double> readCounters();

RunResult runSuiteEval(const RunConfig &Cfg);
RunResult runModuleCold(const RunConfig &Cfg);
RunResult runModuleIncremental(const RunConfig &Cfg);
RunResult runServeMixed(const RunConfig &Cfg);

} // namespace vrpbench

#endif // VRPBENCH_HARNESS_H
