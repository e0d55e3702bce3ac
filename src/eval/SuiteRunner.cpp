//===- eval/SuiteRunner.cpp - Figure 7/8 evaluation orchestration ----------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "eval/SuiteRunner.h"

#include "analysis/PersistentCache.h"
#include "profile/ProfilePredictor.h"
#include "support/FaultInjection.h"
#include "support/Signal.h"
#include "support/Telemetry.h"
#include "vrp/Audit.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <system_error>
#include <thread>

using namespace vrp;

std::string FailureInfo::str() const {
  return Benchmark + " [" + Stage + "]: " +
         errorCategoryName(Category) + ": " + Message;
}

const char *vrp::predictorName(PredictorKind Kind) {
  switch (Kind) {
  case PredictorKind::Profiling:
    return "Execution Profiling";
  case PredictorKind::BallLarus:
    return "Ball & Larus Heuristics";
  case PredictorKind::VRP:
    return "Value Range Propagation";
  case PredictorKind::VRPNumeric:
    return "VRP (numeric ranges only)";
  case PredictorKind::NinetyFifty:
    return "90/50 Rule";
  case PredictorKind::Random:
    return "Random Predictions";
  }
  return "?";
}

std::vector<PredictorKind> vrp::allPredictors() {
  return {PredictorKind::Profiling,  PredictorKind::BallLarus,
          PredictorKind::VRP,        PredictorKind::VRPNumeric,
          PredictorKind::NinetyFifty, PredictorKind::Random};
}

namespace {

/// Collects VRP+fallback probabilities over a whole module.
BranchProbMap vrpModulePredictions(Module &M, const VRPOptions &Opts,
                                   AnalysisCache *Cache,
                                   PersistentCache *PCache) {
  ModuleVRPResult R = runModuleVRP(M, Opts, Cache, PCache);
  BranchProbMap Probs;
  for (const auto &F : M.functions())
    if (const FunctionVRPResult *FR = R.forFunction(F.get()))
      for (const auto &[Branch, Pred] : finalizePredictions(*F, *FR, Cache))
        Probs[Branch] = Pred.ProbTrue;
  return Probs;
}

} // namespace

BranchProbMap vrp::predictModule(PredictorKind Kind, Module &M,
                                 const EdgeProfile &TrainingProfile,
                                 const VRPOptions &Opts,
                                 uint64_t RandomSeed,
                                 AnalysisCache *Cache,
                                 PersistentCache *PCache) {
  BranchProbMap Probs;
  switch (Kind) {
  case PredictorKind::Profiling:
    for (const auto &F : M.functions()) {
      BranchProbMap Per = predictFromProfile(*F, TrainingProfile);
      Probs.insert(Per.begin(), Per.end());
    }
    return Probs;
  case PredictorKind::BallLarus:
    for (const auto &F : M.functions()) {
      BranchProbMap Local;
      const BranchProbMap &Per = ballLarusProbs(*F, Cache, Local);
      Probs.insert(Per.begin(), Per.end());
    }
    return Probs;
  case PredictorKind::VRP:
    // Uses Opts as configured (the ablation bench relies on this); the
    // default configuration has symbolic ranges enabled.
    return vrpModulePredictions(M, Opts, Cache, PCache);
  case PredictorKind::VRPNumeric: {
    // The numeric configuration shares the persistent cache: its options
    // fingerprint differs (EnableSymbolicRanges off), so its records can
    // never be confused with the full configuration's.
    VRPOptions Numeric = Opts;
    Numeric.EnableSymbolicRanges = false;
    return vrpModulePredictions(M, Numeric, Cache, PCache);
  }
  case PredictorKind::NinetyFifty:
    for (const auto &F : M.functions()) {
      BranchProbMap Per = predictNinetyFifty(*F);
      Probs.insert(Per.begin(), Per.end());
    }
    return Probs;
  case PredictorKind::Random: {
    uint64_t Seed = RandomSeed;
    for (const auto &F : M.functions()) {
      BranchProbMap Per = predictRandom(*F, Seed++);
      Probs.insert(Per.begin(), Per.end());
    }
    return Probs;
  }
  }
  return Probs;
}

namespace {

/// Marks \p Eval failed with both the legacy human-readable Error and the
/// structured FailureInfo.
BenchmarkEvaluation &&failEvaluation(BenchmarkEvaluation &&Eval,
                                     ErrorCategory Category,
                                     std::string Stage, std::string Message,
                                     std::string LegacyError = "") {
  Eval.Ok = false;
  Eval.Error = LegacyError.empty() ? Stage + ": " + Message
                                   : std::move(LegacyError);
  Eval.Failure = FailureInfo{Category, Eval.Name, std::move(Stage),
                             std::move(Message)};
  return std::move(Eval);
}

/// The per-benchmark wall-clock deadline, if any.
class StageDeadline {
public:
  explicit StageDeadline(uint64_t Ms) : Active(Ms != 0) {
    if (Active)
      At = std::chrono::steady_clock::now() + std::chrono::milliseconds(Ms);
  }
  bool blown() const {
    return Active && std::chrono::steady_clock::now() > At;
  }

private:
  bool Active;
  std::chrono::steady_clock::time_point At{};
};

/// The whole-function ⊥ result a quarantined function is rescored with:
/// the same shape as budget degradation (every branch takes the
/// Ball–Larus fallback) but attributed to the audit — and deliberately
/// NOT counted as a budget degradation.
FunctionVRPResult quarantinedResult(const Function &F, uint64_t Violations) {
  FunctionVRPResult R;
  R.degrade(F, Status::failure(
                   ErrorCategory::Internal, "audit",
                   "@" + F.name() + " quarantined after " +
                       std::to_string(Violations) +
                       (Violations == 1 ? " runtime soundness violation"
                                        : " runtime soundness violations")));
  return R;
}

BenchmarkEvaluation evaluateProgramImpl(const BenchmarkProgram &Program,
                                        const VRPOptions &Opts,
                                        PersistentCache *PCache) {
  BenchmarkEvaluation Eval;
  Eval.Name = Program.Name;

  if (Opts.EnableCloning) {
    // Cloning transforms the module, so predictions would describe
    // different static branches than the reference profile collected
    // here. Callers wanting to evaluate cloning must re-profile the
    // transformed module (see bench/ablation.cpp's showcase).
    return failEvaluation(
        std::move(Eval), ErrorCategory::Internal, "config",
        "evaluateProgram cannot score EnableCloning runs; "
        "profile the transformed module instead",
        "evaluateProgram cannot score EnableCloning runs; "
        "profile the transformed module instead");
  }

  StageDeadline Deadline(Opts.Budget.DeadlineMs);

  DiagnosticEngine Diags;
  auto Compiled = compileProgram(Program.Source, Diags, Opts);
  if (!Compiled) {
    const VrpError &E = Compiled.error();
    return failEvaluation(std::move(Eval), E.Category, E.Site, E.Message,
                          "compile error: " + Diags.firstError());
  }
  Module &M = *Compiled.value()->IR;

  if (Deadline.blown())
    return failEvaluation(std::move(Eval), ErrorCategory::BudgetExceeded,
                          "compile", "deadline exceeded after compilation");

  // An explicit interpreter budget tightens (never loosens) the default
  // runaway guard.
  uint64_t MaxSteps = 200'000'000;
  if (Opts.Budget.InterpreterStepLimit != 0)
    MaxSteps = std::min(MaxSteps, Opts.Budget.InterpreterStepLimit);

  // Ground truth from the reference input.
  Interpreter Interp(M);
  EdgeProfile RefProfile;
  ExecutionResult RefRun = Interp.run(Program.RefInput, &RefProfile, MaxSteps);
  if (!RefRun.Ok) {
    // A run truncated by an explicit step budget keeps its counts as a
    // partial profile; a genuine trap (or the default runaway guard)
    // fails the benchmark.
    if (RefRun.StepLimit && Opts.Budget.InterpreterStepLimit != 0)
      Eval.PartialProfile = true;
    else
      return failEvaluation(std::move(Eval), ErrorCategory::InterpreterTrap,
                            "ref-run", RefRun.Error,
                            "reference run failed: " + RefRun.Error);
  }
  Eval.RefSteps = RefRun.Steps;

  // Training profile from the (different) short input.
  EdgeProfile TrainProfile;
  ExecutionResult TrainRun =
      Interp.run(Program.ShortInput, &TrainProfile, MaxSteps);
  if (!TrainRun.Ok) {
    if (TrainRun.StepLimit && Opts.Budget.InterpreterStepLimit != 0)
      Eval.PartialProfile = true;
    else
      return failEvaluation(std::move(Eval), ErrorCategory::InterpreterTrap,
                            "train-run", TrainRun.Error,
                            "training run failed: " + TrainRun.Error);
  }

  if (Deadline.blown())
    return failEvaluation(std::move(Eval), ErrorCategory::BudgetExceeded,
                          "profile", "deadline exceeded after profiling");

  for (const auto &F : M.functions())
    for (const auto &B : F->blocks())
      if (isa<CondBrInst>(B->terminator()))
        ++Eval.StaticBranches;
  Eval.ExecutedBranches = RefProfile.counts().size();

  // One analysis memo spans the whole evaluation of this module: the
  // Ball–Larus fallback and the CFG analyses behind it are computed once
  // per function here instead of once per predictor per function.
  AnalysisCache Cache;

  // Full VRP propagation runs exactly once; the same run yields both the
  // range-predicted share (reported for the §5 discussion) and the
  // PredictorKind::VRP probability map scored below. Budget-degraded
  // functions (step cap or deadline inside runModuleVRP) are counted, not
  // failed: their branches carry Ball–Larus fallback predictions.
  ModuleVRPResult VRPResult = runModuleVRP(M, Opts, &Cache, PCache);
  Eval.DegradedFunctions = VRPResult.FunctionsDegraded;
  accumulateModuleStats(Eval.VRP, VRPResult);

  if (Deadline.blown())
    return failEvaluation(std::move(Eval), ErrorCategory::BudgetExceeded,
                          "vrp", "deadline exceeded after propagation");

  // Per-function final predictions, kept apart so the audit below can
  // rebuild a quarantined function's map before anything is scored.
  std::vector<std::pair<const Function *, FinalPredictionMap>> Finals;
  for (const auto &F : M.functions())
    if (const FunctionVRPResult *FR = VRPResult.forFunction(F.get()))
      Finals.emplace_back(F.get(), finalizePredictions(*F, *FR, &Cache));

  if (Opts.Audit) {
    // Soundness sentinel (vrp/Audit.h): replay the reference input with
    // the auditor watching every executed conditional branch. Only this
    // scored VRP run is audited — VRPNumeric re-propagates separately
    // inside predictModule and shares the engine, so auditing one
    // configuration is the bug-detection contract. The replay mirrors
    // the reference run above, so its outcome needs no new handling.
    audit::RangeAuditor Auditor;
    std::vector<const Function *> Audited;
    for (const auto &F : M.functions())
      if (const FunctionVRPResult *FR = VRPResult.forFunction(F.get())) {
        Auditor.addFunction(*F, *FR);
        Audited.push_back(F.get());
      }
    Interp.run(Program.RefInput, nullptr, MaxSteps, &Auditor);
    audit::AuditReport Report = Auditor.takeReport();
    Eval.AuditChecks = Report.totalChecks();
    Eval.SoundnessViolations = Report.totalViolations();
    for (size_t I = 0; I < Report.Functions.size(); ++I) {
      const audit::FunctionAudit &FA = Report.Functions[I];
      if (FA.Violations == 0)
        continue;
      // Quarantine: the function's analysis lied at least once, so none
      // of its range predictions can be trusted. Rescore every one of
      // its branches from the whole-function ⊥ fallback — the same
      // degradation shape a blown budget produces, but attributed to
      // the audit and counted separately.
      const Function *F = Audited[I];
      FunctionVRPResult Q = quarantinedResult(*F, FA.Violations);
      for (auto &[Fn, Final] : Finals)
        if (Fn == F)
          Final = finalizePredictions(*F, Q, &Cache);
      ++Eval.QuarantinedFunctions;
      telemetry::count(telemetry::Counter::FunctionsQuarantined);
      quarantine::Record R;
      R.Why = quarantine::Reason::SoundnessViolation;
      R.Context = Program.Name;
      R.Function = F->name();
      R.Violations = FA.Violations;
      if (!FA.Details.empty())
        R.Detail = FA.Details.front().str();
      Eval.Quarantines.push_back(std::move(R));
    }
    if (Deadline.blown())
      return failEvaluation(std::move(Eval), ErrorCategory::BudgetExceeded,
                            "audit", "deadline exceeded after range audit");
  }

  // Scored VRP probabilities and the range-predicted share, from the
  // (possibly quarantine-rebuilt) final maps.
  BranchProbMap VRPProbs;
  unsigned TotalBranches = 0, FromRanges = 0;
  for (const auto &[F, Final] : Finals) {
    accumulatePredictionStats(Eval.VRP, Final);
    for (const auto &[Branch, Pred] : Final) {
      VRPProbs[Branch] = Pred.ProbTrue;
      ++TotalBranches;
      if (Pred.Source == PredictionSource::Range)
        ++FromRanges;
    }
  }
  Eval.VRPRangeFraction =
      TotalBranches == 0 ? 0.0
                         : static_cast<double>(FromRanges) / TotalBranches;

  uint64_t Seed = 0xC0FFEE ^ std::hash<std::string>{}(Program.Name);
  for (PredictorKind Kind : allPredictors()) {
    BranchProbMap Probs =
        Kind == PredictorKind::VRP
            ? VRPProbs
            : predictModule(Kind, M, TrainProfile, Opts, Seed, &Cache,
                            PCache);
    std::vector<BranchErrorSample> Samples =
        computeErrors(Probs, RefProfile);
    ErrorCdf Unweighted, Weighted;
    Unweighted.addSamples(Samples, /*Weighted=*/false);
    Weighted.addSamples(Samples, /*Weighted=*/true);
    Eval.Curves[Kind] = {Unweighted, Weighted};
  }
  Eval.Cache = Cache.stats();
  Eval.Ok = true;
  return Eval;
}

} // namespace

BenchmarkEvaluation vrp::evaluateProgram(const BenchmarkProgram &Program,
                                         const VRPOptions &Opts) {
  return evaluateProgram(Program, Opts, nullptr);
}

BenchmarkEvaluation vrp::evaluateProgram(const BenchmarkProgram &Program,
                                         const VRPOptions &Opts,
                                         PersistentCache *PCache) {
  // Scope fault-injection counters to this benchmark so "site@name:n"
  // specs fire deterministically regardless of thread count or schedule.
  // The same scope key buffers this benchmark's pending persistent-cache
  // inserts until the verdict below.
  fault::ScopedKey Key(Program.Name);
  auto fail = [&](std::string Message) {
    if (PCache)
      PCache->discardScope();
    BenchmarkEvaluation Eval;
    Eval.Name = Program.Name;
    return failEvaluation(std::move(Eval), ErrorCategory::Internal,
                          "evaluate", std::move(Message));
  };
  try {
    BenchmarkEvaluation Eval = evaluateProgramImpl(Program, Opts, PCache);
    if (PCache) {
      if (Eval.Ok) {
        // A quarantined function's analysis lied at runtime: none of its
        // results may persist — drop its pending inserts and tombstone
        // any stored record that was served for it this run.
        for (const quarantine::Record &R : Eval.Quarantines)
          PCache->expunge(R.Function);
        PCache->commitScope();
      } else {
        PCache->discardScope();
      }
    }
    return Eval;
  } catch (const std::exception &E) {
    return fail(E.what());
  } catch (...) {
    return fail("unknown exception");
  }
}

SuiteEvaluation vrp::evaluateSuite(
    const std::vector<const BenchmarkProgram *> &Programs,
    const VRPOptions &Opts) {
  return evaluateSuite(Programs, Opts, SuiteRunConfig());
}

SuiteEvaluation vrp::evaluateSuite(
    const std::vector<const BenchmarkProgram *> &Programs,
    const VRPOptions &Opts, const SuiteRunConfig &Config) {
  SuiteEvaluation Suite;

  // Persistent result store. Lookups see only the snapshot frozen here, so
  // hit/miss patterns — and every counter derived from them — are the same
  // at any thread count; this run's own results land on disk for the NEXT
  // run. That is also how a killed run is finished: rerun against the same
  // store, and the benchmarks that committed skip propagation. Open
  // failure (unwritable path) degrades to an uncached run.
  std::unique_ptr<PersistentCache> PCache;
  if (!Config.CachePath.empty())
    PCache = PersistentCache::open(Config.CachePath, Config.CacheVerify);

  // One attempt at one benchmark. evaluateProgram already converts every
  // pipeline failure into a structured result; the "worker" injection
  // site throws outside it. This is the one place an escaped exception
  // becomes a structured worker-task failure, so one bad benchmark never
  // stops the others.
  auto attempt = [&](const BenchmarkProgram &P) -> BenchmarkEvaluation {
    std::string Message;
    try {
      fault::ScopedKey Key(P.Name);
      if (fault::shouldFail("worker"))
        throw std::runtime_error("injected worker-task failure");
      return evaluateProgram(P, Opts, PCache.get());
    } catch (const std::exception &E) {
      Message = E.what();
    } catch (...) {
      Message = "unknown exception";
    }
    BenchmarkEvaluation Eval;
    Eval.Name = P.Name;
    return failEvaluation(std::move(Eval), ErrorCategory::Internal,
                          "worker-task", std::move(Message));
  };

  // A transient failure is worth one retry: injected faults are counted
  // (the spec's trigger has fired, so the retry runs clean) and budget
  // blowouts are frequently load-dependent.
  auto transient = [](const FailureInfo &F) {
    return F.Category == ErrorCategory::BudgetExceeded ||
           F.Message.find("injected") != std::string::npos;
  };

  // One slot. Cooperative interruption (SIGTERM/SIGINT via
  // support/Signal.h): benchmarks already running finish and commit to
  // the store normally; ones that have not started yet fail structurally
  // with stage "interrupted" and never touch the store, so a rerun
  // evaluates them afresh. Under the supervisor a transient first
  // failure gets exactly one more attempt.
  auto evalSlot = [&](const BenchmarkProgram &P) -> BenchmarkEvaluation {
    if (stopsignal::stopRequested()) {
      BenchmarkEvaluation Eval;
      Eval.Name = P.Name;
      return failEvaluation(std::move(Eval), ErrorCategory::Internal,
                            "interrupted",
                            "stop requested before this benchmark started");
    }
    BenchmarkEvaluation Eval = attempt(P);
    if (!Config.SupervisorRetry || Eval.Ok || !Eval.Failure ||
        !transient(*Eval.Failure))
      return Eval;
    telemetry::count(telemetry::Counter::SupervisorRetries);
    BenchmarkEvaluation Second = attempt(P);
    Second.Retried = true;
    return Second;
  };

  // Every benchmark runs through evalSlot, at every thread count. Each
  // compiles, profiles and predicts its own module, so slots share only
  // state that synchronizes itself: the persistent cache, the constant
  // pools and the telemetry shards. Slot I holds program I, so the merge
  // below, every curve and the failure order are the serial loop's. The
  // calling thread is one participant; the others pull indices from the
  // same counter and are all joined before the merge.
  Suite.Benchmarks.resize(Programs.size());
  std::atomic<size_t> Next{0};
  auto drain = [&] {
    for (size_t I = Next++; I < Programs.size(); I = Next++)
      Suite.Benchmarks[I] = evalSlot(*Programs[I]);
  };
  unsigned Requested = Opts.Threads;
  if (Requested == 0) // Auto: the hardware's count, 1 when unknown.
    Requested = std::max(1u, std::thread::hardware_concurrency());
  size_t Participants = std::min<size_t>(
      {Requested, VRPOptions::MaxThreads, Programs.size()});
  std::vector<std::thread> Helpers;
  Helpers.reserve(Participants);
  for (size_t T = 1; T < Participants; ++T) {
    try {
      Helpers.emplace_back(drain);
    } catch (const std::system_error &) {
      break; // The caller and the threads started drain every slot.
    }
  }
  drain();
  for (std::thread &H : Helpers)
    H.join();

  for (const BenchmarkEvaluation &B : Suite.Benchmarks) {
    Suite.CacheTotals += B.Cache;
    Suite.VRPTotals += B.VRP;
    Suite.DegradedFunctions += B.DegradedFunctions;
    Suite.AuditChecks += B.AuditChecks;
    Suite.SoundnessViolations += B.SoundnessViolations;
    Suite.QuarantinedFunctions += B.QuarantinedFunctions;
    if (B.Retried)
      ++Suite.SupervisorRetries;
    for (const quarantine::Record &R : B.Quarantines)
      Suite.Quarantines.push_back(R);
    if (B.Failure)
      Suite.Failures.push_back(*B.Failure);
  }

  for (PredictorKind Kind : allPredictors()) {
    std::vector<ErrorCdf> Unweighted, Weighted;
    for (const BenchmarkEvaluation &B : Suite.Benchmarks) {
      if (!B.Ok)
        continue;
      auto It = B.Curves.find(Kind);
      if (It == B.Curves.end())
        continue;
      Unweighted.push_back(It->second.first);
      Weighted.push_back(It->second.second);
    }
    Suite.AveragedUnweighted[Kind] = ErrorCdf::average(Unweighted);
    Suite.AveragedWeighted[Kind] = ErrorCdf::average(Weighted);
  }

  if (PCache) {
    Suite.PCacheEnabled = true;
    Suite.PCache = PCache->stats();
    Suite.PCacheDivergences = PCache->divergences();
  }
  return Suite;
}
