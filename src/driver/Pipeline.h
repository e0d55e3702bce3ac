//===- driver/Pipeline.h - End-to-end VRP pipeline --------------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's front door: VL source -> SSA IR -> value range
/// propagation -> final branch predictions with heuristic fallback. This
/// is the API the examples, benches and evaluation harness build on.
///
/// \code
///   DiagnosticEngine Diags;
///   auto Compiled = compileToSSA(Source, Diags);          // parse..SSA
///   ModuleVRPResult VRP = runModuleVRP(*Compiled->IR, {});// propagate
///   FinalPredictionMap P = finalizePredictions(
///       *Compiled->IR->findFunction("main"),
///       *VRP.forFunction(...));                           // + fallback
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef VRP_DRIVER_PIPELINE_H
#define VRP_DRIVER_PIPELINE_H

#include "interproc/InterproceduralVRP.h"
#include "heuristics/Heuristics.h"
#include "lang/AST.h"
#include "ssa/AssertionInsertion.h"
#include "ssa/SSAConstruction.h"
#include "support/Diagnostics.h"
#include "support/Status.h"

#include <iosfwd>
#include <memory>
#include <string_view>

namespace vrp {

/// A compiled VL program: the decorated AST (owning the symbol arena) and
/// the SSA-form IR module.
struct CompiledProgram {
  std::unique_ptr<Program> AST;
  std::unique_ptr<Module> IR;
  SSAStats SSA;
  AssertionStats Assertions;
};

/// Compiles \p Source through parse, sema, irgen, SSA construction and
/// (unless disabled in \p Opts) assertion insertion. On failure the error
/// names the stage that rejected the input: front-end rejections are
/// ParseError, IR generation failures Internal, verifier failures
/// VerifyError. Diagnostics are still collected in \p Diags either way.
/// Honors the "parse" fault-injection site (support/FaultInjection.h).
StatusOr<std::unique_ptr<CompiledProgram>>
compileProgram(std::string_view Source, DiagnosticEngine &Diags,
               const VRPOptions &Opts = {});

/// Compatibility wrapper over compileProgram: returns null on any
/// diagnosed error, dropping the structured category.
std::unique_ptr<CompiledProgram>
compileToSSA(std::string_view Source, DiagnosticEngine &Diags,
             const VRPOptions &Opts = {});

/// Where a final branch prediction came from.
enum class PredictionSource {
  Range,       ///< VRP consulted the tested value's range.
  Heuristic,   ///< Range was ⊥; Ball–Larus fallback (paper §3.5).
  Unreachable, ///< Propagation proved the branch unreachable.
};

struct FinalPrediction {
  double ProbTrue = 0.5;
  PredictionSource Source = PredictionSource::Heuristic;
};

using FinalPredictionMap = std::map<const CondBrInst *, FinalPrediction>;

class AnalysisCache;

/// Combines VRP results with the Ball–Larus heuristic fallback exactly as
/// the paper's evaluation does: range-predicted branches keep their range
/// probability; ⊥ branches take the combined-heuristic probability.
///
/// The heuristic pass is computed lazily — when every branch was range
/// predicted (common in the numeric suite), it never runs at all. With a
/// \p Cache, the fallback map and its CFG analyses are additionally
/// memoized per function, so repeated finalization (one call per predictor
/// per function in the evaluation harness) computes them once.
FinalPredictionMap finalizePredictions(const Function &F,
                                       const FunctionVRPResult &VRP,
                                       AnalysisCache *Cache = nullptr);

/// The Ball–Larus probabilities of \p F's branches. With a \p Cache they
/// are computed once per function and returned from it without a copy;
/// without one they are computed into \p Local.
const BranchProbMap &ballLarusProbs(const Function &F, AnalysisCache *Cache,
                                    BranchProbMap &Local);

/// Fraction of branches in \p Predictions predicted from ranges.
double rangePredictedFraction(const FinalPredictionMap &Predictions);

/// Per-run VRP statistics, assembled from structured analysis results
/// (ModuleVRPResult + final prediction maps) rather than the global
/// telemetry shards, so a benchmark's numbers are attributable even when
/// many benchmarks run concurrently. Aggregates with += per benchmark in
/// the evaluation harness and suite-wide in SuiteEvaluation.
struct VRPStats {
  RangeStats Ranges;               ///< Engine work counters (Figures 5/6).
  unsigned FunctionsAnalyzed = 0;  ///< Functions propagation covered.
  unsigned FunctionsDegraded = 0;  ///< Budget/deadline fallbacks.
  unsigned FunctionsCloned = 0;    ///< §3.7 cloning (when enabled).
  unsigned Rounds = 0;             ///< Interprocedural sweeps (fixpoint).
  unsigned Waves = 0;              ///< Call-graph condensation layers.
  unsigned FunctionsReanalyzed = 0; ///< Scheduler's (re-)analyzed cone.
  uint64_t RangePredictedBranches = 0;
  uint64_t HeuristicBranches = 0;  ///< Ball–Larus fallback decisions.
  uint64_t UnreachableBranches = 0;

  VRPStats &operator+=(const VRPStats &R) {
    Ranges += R.Ranges;
    FunctionsAnalyzed += R.FunctionsAnalyzed;
    FunctionsDegraded += R.FunctionsDegraded;
    FunctionsCloned += R.FunctionsCloned;
    Rounds += R.Rounds;
    Waves += R.Waves;
    FunctionsReanalyzed += R.FunctionsReanalyzed;
    RangePredictedBranches += R.RangePredictedBranches;
    HeuristicBranches += R.HeuristicBranches;
    UnreachableBranches += R.UnreachableBranches;
    return *this;
  }
};

/// Folds a whole-module propagation result into \p Stats.
void accumulateModuleStats(VRPStats &Stats, const ModuleVRPResult &VRP);

/// Folds one function's final predictions (the per-branch decision
/// sources) into \p Stats.
void accumulatePredictionStats(VRPStats &Stats,
                               const FinalPredictionMap &Predictions);

/// One conditional branch as a prediction report shows it.
struct ReportedBranch {
  const CondBrInst *Branch = nullptr;
  double ProbTrue = 0.5;
  /// "ranges", "heuristic fallback" or "unreachable" for the "vrp"
  /// predictor; any other predictor's own name.
  std::string Source;
};

/// The per-branch decisions both report renderers print (predictor_tool's
/// text table and predictord's `analyze` JSON): every conditional branch
/// of \p F in block order, with the probability \p Predictor ("vrp",
/// "ball-larus", "90-50" or "random") gives it and where that came from.
/// Empty when \p F has no conditional branch; the reports skip it.
std::vector<ReportedBranch> reportedBranches(const Function &F,
                                             const FunctionVRPResult &FR,
                                             AnalysisCache *Cache,
                                             const std::string &Predictor);

/// What renderPredictionReport annotates each branch with.
struct PredictionReportOptions {
  /// Which predictor's probability annotates each branch: "vrp" (the
  /// range/fallback pipeline), "ball-larus", "90-50" or "random".
  std::string Predictor = "vrp";
  /// Also list each instruction's final non-trivial value range
  /// ("vrp" only).
  bool DumpRanges = false;
};

/// Renders the per-function branch-prediction report — `fn @name:` blocks
/// with a line/branch/P(taken)/source table, a degradation annotation per
/// budget-exhausted function, and a trailing note when any function
/// degraded. This is byte-for-byte the single-file output of
/// predictor_tool, extracted here so a resident service (serve/Service.h)
/// answering the same source produces bitwise-identical text.
void renderPredictionReport(const Module &M, const ModuleVRPResult &VRP,
                            AnalysisCache *Cache,
                            const PredictionReportOptions &Options,
                            std::ostream &OS);

} // namespace vrp

#endif // VRP_DRIVER_PIPELINE_H
