//===- vrpbench/SuiteEval.cpp - The paper's §5 evaluation workload --------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// One operation is one evaluateSuite pass over the 19 suite programs: the
// paper's own experiment. The interpreter's profiling runs and the error
// scoring dominate it, so it is the workload on which an optimisation of
// the analysis kernels should change nothing. The seed only permutes the
// program order.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/AnalysisCache.h"
#include "eval/SuiteRunner.h"
#include "profile/Interpreter.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <random>

using namespace vrp;

namespace vrpbench {

namespace {

using Curves = std::map<PredictorKind, std::pair<ErrorCdf, ErrorCdf>>;

bool sameCurves(const Curves &A, const Curves &B) {
  if (A.size() != B.size())
    return false;
  for (const auto &[Kind, Pair] : A) {
    auto It = B.find(Kind);
    if (It == B.end() || Pair.first.rawState() != It->second.first.rawState() ||
        Pair.second.rawState() != It->second.second.rawState())
      return false;
  }
  return true;
}

/// Compares a pass against the reference pass, benchmark by benchmark.
/// Returns an empty string when they agree.
std::string diffSuite(const SuiteEvaluation &S, const SuiteEvaluation &Ref) {
  if (!S.Failures.empty())
    return "benchmark failed: " + S.Failures.front().str();
  if (S.Benchmarks.size() != Ref.Benchmarks.size())
    return "benchmark count changed";
  for (size_t I = 0; I < S.Benchmarks.size(); ++I)
    if (!sameCurves(S.Benchmarks[I].Curves, Ref.Benchmarks[I].Curves))
      return "error curves of " + S.Benchmarks[I].Name +
             " differ from the reference pass";
  return "";
}

const char *predictorSpan(PredictorKind Kind) {
  switch (Kind) {
  case PredictorKind::Profiling:
    return "profile.predict";
  case PredictorKind::VRPNumeric:
    return "vrp.numeric";
  default:
    return "heuristics.predict";
  }
}

/// evaluateProgram's steps for one benchmark (no audit, budget or cache),
/// one span per layer call. \p Keep receives the compiled program so the
/// caller can probe it after the operation; \p ModuleRuns counts the
/// propagation runs of its whole-module analysis.
bool replayProgram(Tracer &T, const BenchmarkProgram &P, Compiled &Keep,
                   Curves &Out, std::map<std::string, double> &Counts,
                   uint64_t &ModuleRuns, std::string &Err) {
  const VRPOptions Opts = benchOptions();
  if (!compileTraced(T, P.Source, Keep, Err))
    return false;
  Module &M = *Keep.IR;
  Counts["irgen.instructions"] += static_cast<double>(instructionCount(M));

  Interpreter Interp(M);
  EdgeProfile RefProfile, TrainProfile;
  {
    Tracer::Scope S(T, "profile.interp");
    ExecutionResult Ref = Interp.run(P.RefInput, &RefProfile);
    ExecutionResult Train = Interp.run(P.ShortInput, &TrainProfile);
    if (!Ref.Ok || !Train.Ok) {
      Err = P.Name + ": profiling run failed: " + Ref.Error + Train.Error;
      return false;
    }
    Counts["profile.steps"] += static_cast<double>(Ref.Steps + Train.Steps);
  }

  AnalysisCache Cache;
  ModuleVRPResult VRP;
  uint64_t Runs = propagationRuns();
  {
    Tracer::Scope S(T, "vrp.module");
    VRP = runModuleVRP(M, Opts, &Cache);
  }
  ModuleRuns += propagationRuns() - Runs;
  BranchProbMap VRPProbs;
  {
    Tracer::Scope S(T, "driver.finalize");
    for (const auto &F : M.functions())
      if (const FunctionVRPResult *FR = VRP.forFunction(F.get()))
        for (const auto &[Branch, Pred] : finalizePredictions(*F, *FR, &Cache))
          VRPProbs[Branch] = Pred.ProbTrue;
  }

  uint64_t Seed = 0xC0FFEE ^ std::hash<std::string>{}(P.Name);
  for (PredictorKind Kind : allPredictors()) {
    BranchProbMap Probs;
    if (Kind == PredictorKind::VRP) {
      Probs = VRPProbs;
    } else {
      Tracer::Scope S(T, predictorSpan(Kind));
      Probs = predictModule(Kind, M, TrainProfile, Opts, Seed, &Cache);
    }
    Tracer::Scope S(T, "eval.score");
    std::vector<BranchErrorSample> Samples = computeErrors(Probs, RefProfile);
    ErrorCdf Unweighted, Weighted;
    Unweighted.addSamples(Samples, /*Weighted=*/false);
    Weighted.addSamples(Samples, /*Weighted=*/true);
    Out[Kind] = {Unweighted, Weighted};
  }
  return true;
}

} // namespace

RunResult runSuiteEval(const RunConfig &Cfg) {
  RunResult R;
  std::vector<const BenchmarkProgram *> Programs = allPrograms();
  std::mt19937_64 Rng(Cfg.Seed);
  std::shuffle(Programs.begin(), Programs.end(), Rng);
  if (Cfg.Smoke)
    Programs.resize(4);
  const VRPOptions Opts = benchOptions();

  // Set-up is the warm pass that fills the allocator and interning pools;
  // it is repeated so its median is steady, and the last one is the
  // reference every later pass must reproduce bit for bit.
  SuiteEvaluation Ref;
  for (int I = 0; I < 3; ++I) {
    auto Start = Clock::now();
    Ref = evaluateSuite(Programs, Opts);
    R.SetupSeconds.push_back(msSince(Start) / 1e3);
  }
  if (!Ref.Failures.empty()) {
    R.fail("reference pass failed: " + Ref.Failures.front().str());
    return R;
  }

  Tracer T;
  LayerAccumulator Acc;
  auto untraced = [&](unsigned) {
    auto Start = Clock::now();
    SuiteEvaluation Pass = evaluateSuite(Programs, Opts);
    double Ms = msSince(Start);
    ++R.Attempted;
    if (std::string Diff = diffSuite(Pass, Ref); !Diff.empty())
      R.fail("timed pass: " + Diff);
    return Ms;
  };
  auto traced = [&](unsigned I) {
    telemetry::setEnabled(true);
    std::vector<Compiled> Keep(Programs.size());
    std::map<std::string, double> Counts;
    uint64_t ModuleRuns = 0;
    int Op = T.begin("op", I + 1);
    resetCounters();
    for (size_t P = 0; P < Programs.size(); ++P) {
      Curves C;
      std::string Err;
      ++R.Attempted;
      if (!replayProgram(T, *Programs[P], Keep[P], C, Counts, ModuleRuns,
                         Err))
        R.fail("traced replay: " + Err);
      else if (!sameCurves(C, Ref.Benchmarks[P].Curves))
        R.fail("traced replay of " + Programs[P]->Name +
               " differs from evaluateSuite");
    }
    for (const auto &[Name, V] : readCounters())
      Counts[Name] += V;
    T.end(Op);
    int Probe = T.begin("probe", I + 1);
    size_t Functions = 0;
    for (const Compiled &C : Keep)
      if (C.IR) {
        probeModule(T, *C.IR);
        Functions += C.IR->functions().size();
      }
    T.end(Probe);
    telemetry::setEnabled(false);
    std::map<std::string, double> Self = T.selfTimes(Op);
    splitModuleSpan(Self, T.selfTimes(Probe),
                    Functions ? static_cast<double>(ModuleRuns) / Functions
                              : 1.0);
    Acc.addOp(Self, T.durationMs(Op));
    Acc.addValues(0, Counts);
  };
  runTimed(Cfg, 20, R, untraced, traced);
  if (Cfg.Trace) {
    R.Layers = Acc.finish(mean(R.OpMs));
    T.writeJson(Cfg.WorkDir + "/trace-suite_eval.json");
  }

  // Soundness: one audited pass replays every reference run against the
  // computed ranges; it must find no violation and change no curve.
  VRPOptions AuditOpts = Opts;
  AuditOpts.Audit = true;
  SuiteEvaluation Audited = evaluateSuite(Programs, AuditOpts);
  ++R.Attempted;
  if (Audited.AuditChecks == 0 || Audited.SoundnessViolations != 0)
    R.fail("audit: " + std::to_string(Audited.SoundnessViolations) +
           " soundness violations in " + std::to_string(Audited.AuditChecks) +
           " checks");
  else if (std::string Diff = diffSuite(Audited, Ref); !Diff.empty())
    R.fail("audited pass: " + Diff);

  const ErrorCdf &U = Ref.AveragedUnweighted.at(PredictorKind::VRP);
  const ErrorCdf &W = Ref.AveragedWeighted.at(PredictorKind::VRP);
  R.Layers.Values["eval.vrp_err_pp"] = U.meanError();
  R.Layers.Values["eval.vrp_werr_pp"] = W.meanError();
  R.Notes.push_back("programs: " + std::to_string(Programs.size()) +
                    ", audit checks: " +
                    std::to_string(Audited.AuditChecks));
  return R;
}

} // namespace vrpbench
