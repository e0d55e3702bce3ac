//===- driver/Pipeline.cpp - End-to-end VRP pipeline -----------------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "analysis/AnalysisCache.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "irgen/IRGen.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "ssa/SSAVerifier.h"
#include "support/FaultInjection.h"
#include "support/Format.h"
#include "support/Telemetry.h"

#include <ostream>

using namespace vrp;

namespace {
using telemetry::Counter;
using telemetry::ScopedTimer;
using telemetry::Timer;
} // namespace

StatusOr<std::unique_ptr<CompiledProgram>>
vrp::compileProgram(std::string_view Source, DiagnosticEngine &Diags,
                    const VRPOptions &Opts) {
  using Ret = StatusOr<std::unique_ptr<CompiledProgram>>;

  // The front-end error summary: the first collected diagnostic, which
  // printAll renders in full for tools.
  auto frontEndError = [&](const char *Stage) {
    std::string First = Diags.firstError();
    return Ret::failure(ErrorCategory::ParseError, Stage,
                        First.empty() ? "rejected input" : First);
  };

  if (fault::shouldFail("parse")) {
    Diags.error(SourceLoc(), "injected parse failure");
    return frontEndError("parse");
  }

  auto Result = std::make_unique<CompiledProgram>();
  {
    ScopedTimer T(Timer::Parse);
    telemetry::count(Counter::ParseRuns);
    Result->AST = parseVL(Source, Diags);
  }
  if (Diags.hasErrors())
    return frontEndError("parse");
  {
    ScopedTimer T(Timer::Sema);
    telemetry::count(Counter::SemaRuns);
    if (!runSema(*Result->AST, Diags))
      return frontEndError("sema");
  }
  {
    ScopedTimer T(Timer::IRGen);
    telemetry::count(Counter::IRGenRuns);
    Result->IR = generateIR(*Result->AST, Diags);
  }
  if (!Result->IR)
    return Ret::failure(ErrorCategory::Internal, "irgen",
                        Diags.firstError().empty() ? "IR generation failed"
                                                   : Diags.firstError());

  {
    ScopedTimer T(Timer::SSAConstruction);
    telemetry::count(Counter::SSAConstructions);
    Result->SSA = constructSSA(*Result->IR);
  }
  if (Opts.EnableAssertions) {
    ScopedTimer T(Timer::AssertionInsertion);
    telemetry::count(Counter::AssertionInsertions);
    Result->Assertions = insertAssertions(*Result->IR);
  }

  // Internal consistency: the whole pipeline must leave verifiable IR.
  ScopedTimer T(Timer::Verify);
  telemetry::count(Counter::VerifyRuns);
  std::vector<std::string> Problems;
  if (!verifyModule(*Result->IR, Problems, /*ExpectPhis=*/true) ||
      !verifySSA(*Result->IR, Problems)) {
    for (const std::string &P : Problems)
      Diags.error(SourceLoc(), "internal error: " + P);
    return Ret::failure(ErrorCategory::VerifyError, "verify",
                        Problems.empty() ? "verification failed"
                                         : Problems.front());
  }
  return Result;
}

std::unique_ptr<CompiledProgram>
vrp::compileToSSA(std::string_view Source, DiagnosticEngine &Diags,
                  const VRPOptions &Opts) {
  auto Result = compileProgram(Source, Diags, Opts);
  return Result.ok() ? Result.takeValue() : nullptr;
}

FinalPredictionMap vrp::finalizePredictions(const Function &F,
                                            const FunctionVRPResult &VRP,
                                            AnalysisCache *Cache) {
  ScopedTimer T(Timer::Finalize);
  FinalPredictionMap Result;
  // The heuristic pass (dominators, loops, postdominators, DFS, eight
  // heuristics) only runs if some branch actually needs the fallback.
  const BranchProbMap *Fallback = nullptr;
  BranchProbMap Local;
  auto fallbackProbs = [&]() -> const BranchProbMap & {
    if (!Fallback) {
      if (Cache)
        Fallback = &Cache->branchProbs(
            F, [](const Function &Fn, const LoopInfo &LI,
                  const PostDominatorTree &PDT, const DFSInfo &DFS) {
              return predictBallLarus(Fn, LI, PDT, DFS);
            });
      else {
        Local = predictBallLarus(F);
        Fallback = &Local;
      }
    }
    return *Fallback;
  };

  for (const auto &[Branch, Pred] : VRP.Branches) {
    FinalPrediction Final;
    if (!Pred.Reachable) {
      Final.ProbTrue = Pred.ProbTrue;
      Final.Source = PredictionSource::Unreachable;
    } else if (Pred.FromRanges) {
      Final.ProbTrue = Pred.ProbTrue;
      Final.Source = PredictionSource::Range;
    } else {
      telemetry::count(Counter::BallLarusFallbackBranches);
      const BranchProbMap &Probs = fallbackProbs();
      auto It = Probs.find(Branch);
      Final.ProbTrue = It == Probs.end() ? 0.5 : It->second;
      Final.Source = PredictionSource::Heuristic;
    }
    Result[Branch] = Final;
  }
  return Result;
}

void vrp::accumulateModuleStats(VRPStats &Stats, const ModuleVRPResult &VRP) {
  Stats.Ranges += VRP.Total;
  Stats.FunctionsAnalyzed += static_cast<unsigned>(VRP.PerFunction.size());
  Stats.FunctionsDegraded += VRP.FunctionsDegraded;
  Stats.FunctionsCloned += VRP.FunctionsCloned;
  Stats.Rounds += VRP.Rounds;
  Stats.Waves += VRP.Waves;
  Stats.FunctionsReanalyzed += VRP.FunctionsReanalyzed;
}

void vrp::accumulatePredictionStats(VRPStats &Stats,
                                    const FinalPredictionMap &Predictions) {
  for (const auto &[Branch, Pred] : Predictions) {
    switch (Pred.Source) {
    case PredictionSource::Range:
      ++Stats.RangePredictedBranches;
      break;
    case PredictionSource::Heuristic:
      ++Stats.HeuristicBranches;
      break;
    case PredictionSource::Unreachable:
      ++Stats.UnreachableBranches;
      break;
    }
  }
}

double vrp::rangePredictedFraction(const FinalPredictionMap &Predictions) {
  if (Predictions.empty())
    return 0.0;
  unsigned FromRanges = 0;
  for (const auto &[Branch, Pred] : Predictions)
    if (Pred.Source == PredictionSource::Range)
      ++FromRanges;
  return static_cast<double>(FromRanges) / Predictions.size();
}

std::vector<ReportedBranch>
vrp::reportedBranches(const Function &F, const FunctionVRPResult &FR,
                      AnalysisCache *Cache, const std::string &Predictor) {
  std::vector<ReportedBranch> Rows;
  for (const auto &B : F.blocks())
    if (const auto *CBr = dyn_cast_or_null<CondBrInst>(B->terminator()))
      Rows.push_back({CBr, 0.5, Predictor});
  if (Rows.empty())
    return Rows;

  FinalPredictionMap Final = finalizePredictions(F, FR, Cache);
  BranchProbMap Alt;
  if (Predictor == "ball-larus")
    Alt = predictBallLarus(F);
  else if (Predictor == "90-50")
    Alt = predictNinetyFifty(F);
  else if (Predictor == "random")
    Alt = predictRandom(F, 1234);

  for (ReportedBranch &Row : Rows) {
    if (Predictor != "vrp") {
      Row.ProbTrue = Alt.at(Row.Branch);
      continue;
    }
    const FinalPrediction &P = Final.at(Row.Branch);
    Row.ProbTrue = P.ProbTrue;
    Row.Source = P.Source == PredictionSource::Range ? "ranges"
                 : P.Source == PredictionSource::Heuristic
                     ? "heuristic fallback"
                     : "unreachable";
  }
  return Rows;
}

void vrp::renderPredictionReport(const Module &M, const ModuleVRPResult &VRP,
                                 AnalysisCache *Cache,
                                 const PredictionReportOptions &Options,
                                 std::ostream &OS) {
  for (const auto &F : M.functions()) {
    const FunctionVRPResult *FR = VRP.forFunction(F.get());
    if (!FR)
      continue;
    std::vector<ReportedBranch> Rows =
        reportedBranches(*F, *FR, Cache, Options.Predictor);
    if (Rows.empty())
      continue;

    OS << "fn @" << F->name() << ":";
    if (FR->Degraded)
      OS << " (budget exhausted; heuristic fallback)";
    OS << "\n";
    TextTable Table({"line", "branch", "P(taken)", "source"});
    for (const ReportedBranch &Row : Rows)
      Table.addRow(
          {Row.Branch->loc().str(),
           instructionToString(*cast<Instruction>(Row.Branch->cond())),
           formatPercent(Row.ProbTrue), Row.Source});
    Table.print(OS);

    if (Options.DumpRanges && Options.Predictor == "vrp") {
      OS << "  value ranges:\n";
      for (const auto &B : F->blocks())
        for (const auto &I : B->instructions()) {
          if (I->type() == IRType::Void)
            continue;
          ValueRange VR = FR->rangeOf(I.get());
          if (VR.isTop() || VR.isBottom())
            continue;
          OS << "    " << I->displayName() << " : " << VR.str() << "\n";
        }
    }
    OS << "\n";
  }
  if (VRP.FunctionsDegraded > 0)
    OS << "note: " << VRP.FunctionsDegraded
       << " function(s) degraded to the heuristic fallback after "
          "exhausting the analysis budget\n";
}
