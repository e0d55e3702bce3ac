//===- eval/SuiteRunner.h - Figure 7/8 evaluation orchestration -*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Orchestrates the paper's §5 evaluation protocol over a benchmark suite:
/// compile, run the reference input for ground truth, run the short input
/// to train the profiling baseline, produce per-predictor branch
/// probabilities, and aggregate error CDFs (unweighted and weighted by
/// execution count) with each benchmark weighted equally — everything the
/// Figure 7/8 benches need.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_EVAL_SUITERUNNER_H
#define VRP_EVAL_SUITERUNNER_H

#include "analysis/AnalysisCache.h"
#include "benchsuite/Programs.h"
#include "driver/Pipeline.h"
#include "eval/ErrorMetrics.h"
#include "support/Quarantine.h"
#include "support/ResultStore.h"
#include "support/Status.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace vrp {

class PersistentCache;

/// The predictors evaluated against each other, in the paper's order.
enum class PredictorKind {
  Profiling,    ///< Trained on the short input (input.short protocol).
  BallLarus,    ///< Combined heuristics [BallLarus93] + [WuLarus94].
  VRP,          ///< Value range propagation (full, symbolic ranges on).
  VRPNumeric,   ///< VRP with numeric ranges only.
  NinetyFifty,  ///< The 90/50 rule.
  Random,       ///< Random probabilities.
};

const char *predictorName(PredictorKind Kind);

/// All kinds, in display order.
std::vector<PredictorKind> allPredictors();

/// Structured record of one benchmark's failure: which benchmark, which
/// pipeline stage, and the error category the suite report aggregates
/// over. The suite records these and keeps going — one bad program never
/// aborts an evaluateSuite run.
struct FailureInfo {
  ErrorCategory Category = ErrorCategory::Internal;
  std::string Benchmark;
  std::string Stage; ///< "compile", "ref-run", "train-run", "vrp", ...
  std::string Message;

  /// "benchmark [stage]: category: message" rendering for reports.
  std::string str() const;
};

/// Evaluation of one benchmark program.
struct BenchmarkEvaluation {
  std::string Name;
  bool Ok = false;
  std::string Error; ///< Human-readable; see Failure for the structure.
  /// Set exactly when !Ok (except for default-constructed slots).
  std::optional<FailureInfo> Failure;
  /// Functions whose VRP analysis blew a resource budget and degraded to
  /// the Ball–Larus fallback (whole-function ⊥, paper §3.5 writ large).
  unsigned DegradedFunctions = 0;
  /// True when an interpreter step budget truncated the reference or
  /// training run and the counts collected so far were kept.
  bool PartialProfile = false;
  uint64_t RefSteps = 0;
  unsigned StaticBranches = 0;   ///< Conditional branches in the module.
  unsigned ExecutedBranches = 0; ///< Executed by the reference run.
  double VRPRangeFraction = 0.0; ///< Share of branches VRP predicted from
                                 ///< ranges (rest fell back to heuristics).
  /// Per-benchmark VRP work/outcome counters from the scored VRP run
  /// (engine evaluations, degradations, per-branch decision sources).
  /// Assembled from that run's structured results, so the numbers stay
  /// attributable to this benchmark under the parallel suite fan-out.
  VRPStats VRP;
  /// Analysis-cache efficiency over this benchmark's evaluation.
  AnalysisCacheStats Cache;
  /// Individual range-membership checks the soundness sentinel ran
  /// (Opts.Audit only; see vrp/Audit.h).
  uint64_t AuditChecks = 0;
  /// Checks whose observed value fell outside its computed range.
  uint64_t SoundnessViolations = 0;
  /// Functions whose VRP predictions the audit discarded: each was
  /// rebuilt from the Ball–Larus fallback before scoring, so the VRP
  /// curves of a quarantined function are its fallback curves.
  unsigned QuarantinedFunctions = 0;
  /// One record per quarantined function (audit verdicts with witness).
  std::vector<quarantine::Record> Quarantines;
  /// True when the supervisor retried this benchmark after a transient
  /// failure and this evaluation is the second attempt.
  bool Retried = false;
  /// Per predictor: {unweighted CDF, weighted CDF}.
  std::map<PredictorKind, std::pair<ErrorCdf, ErrorCdf>> Curves;
};

/// Whole-suite evaluation: per-benchmark detail plus equal-weight averages.
struct SuiteEvaluation {
  std::vector<BenchmarkEvaluation> Benchmarks;
  std::map<PredictorKind, ErrorCdf> AveragedUnweighted;
  std::map<PredictorKind, ErrorCdf> AveragedWeighted;
  /// Summed analysis-cache counters across benchmarks.
  AnalysisCacheStats CacheTotals;
  /// Summed per-benchmark VRP counters (deterministic at any Threads).
  VRPStats VRPTotals;
  /// Every per-benchmark failure, in benchmark order. Under the parallel
  /// fan-out this aggregates ALL failed tasks, not just the first.
  std::vector<FailureInfo> Failures;
  /// Summed BenchmarkEvaluation::DegradedFunctions across benchmarks.
  unsigned DegradedFunctions = 0;
  /// Summed audit totals across benchmarks (Opts.Audit only).
  uint64_t AuditChecks = 0;
  uint64_t SoundnessViolations = 0;
  unsigned QuarantinedFunctions = 0;
  /// Every quarantine record, in benchmark order.
  std::vector<quarantine::Record> Quarantines;
  /// Benchmarks the supervisor re-ran after a transient failure.
  unsigned SupervisorRetries = 0;
  /// True when the run had a persistent result cache attached
  /// (SuiteRunConfig::CachePath); the stats JSON then carries a "pcache"
  /// block with the counters below.
  bool PCacheEnabled = false;
  /// Persistent-cache efficiency/health counters for this run
  /// (analysis/PersistentCache.h). Deterministic at any thread count:
  /// lookups consult a snapshot frozen when the store was opened.
  store::ResultStoreStats PCache;
  /// Verify-mode (--cache-verify) hits whose stored bytes differed from a
  /// fresh re-analysis. Always 0 outside verify mode.
  uint64_t PCacheDivergences = 0;
};

/// Suite-run mechanics orthogonal to the analysis options: the fault
/// supervisor and the persistent result cache. Defaults reproduce the
/// plain evaluateSuite behavior exactly.
struct SuiteRunConfig {
  /// Supervise benchmark slots: an escaped worker exception becomes a
  /// structured failure instead of a pool task failure, and a *transient*
  /// failure (budget/deadline or injected fault) is retried once.
  bool SupervisorRetry = false;
  /// Persistent content-addressed result cache (analysis/PersistentCache):
  /// warm runs restore per-function VRP results bitwise-identically from
  /// this file and skip propagation. It is also how a killed run is
  /// finished: rerunning against the same file skips propagation for
  /// every benchmark that committed before the kill. Empty: no cache.
  std::string CachePath;
  /// With CachePath: do not skip on a hit — re-analyze, compare the fresh
  /// bytes against the stored record, and count divergences (surfaced as
  /// SuiteEvaluation::PCacheDivergences; predictor_tool exits 5 on any).
  bool CacheVerify = false;
};

/// Computes module-wide branch probabilities for one predictor.
/// For the VRP kinds, \p Opts controls the engine (symbolic ranges are
/// forced off for VRPNumeric) and predictions include the heuristic
/// fallback, exactly as in the paper's experiment. \p Cache optionally
/// memoizes per-function CFG analyses and the Ball–Larus map across
/// predictors evaluating the same module.
BranchProbMap predictModule(PredictorKind Kind, Module &M,
                            const EdgeProfile &TrainingProfile,
                            const VRPOptions &Opts, uint64_t RandomSeed,
                            AnalysisCache *Cache = nullptr,
                            PersistentCache *PCache = nullptr);

/// Runs the full §5 protocol over \p Programs. With Opts.Threads > 1 (or
/// 0 = auto), benchmarks are fanned out across a worker pool — each
/// evaluateProgram is independent — and results are merged in benchmark
/// order, so the outcome is identical to a serial run at any thread count.
SuiteEvaluation evaluateSuite(
    const std::vector<const BenchmarkProgram *> &Programs,
    const VRPOptions &Opts);

/// As above, with supervision and a persistent cache (see SuiteRunConfig).
SuiteEvaluation evaluateSuite(
    const std::vector<const BenchmarkProgram *> &Programs,
    const VRPOptions &Opts, const SuiteRunConfig &Config);

/// Evaluates a single program (used by tests and the ablation bench).
BenchmarkEvaluation evaluateProgram(const BenchmarkProgram &Program,
                                    const VRPOptions &Opts);

/// As above, against a persistent result cache (may be null). Pending
/// cache inserts commit only after the evaluation — including its audit —
/// succeeded; quarantined functions are expunged first and a failed
/// benchmark's pending results are discarded.
BenchmarkEvaluation evaluateProgram(const BenchmarkProgram &Program,
                                    const VRPOptions &Opts,
                                    PersistentCache *PCache);

} // namespace vrp

#endif // VRP_EVAL_SUITERUNNER_H
