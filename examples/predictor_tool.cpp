//===- examples/predictor_tool.cpp - Branch prediction CLI -----------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// A command-line branch predictor over VL source:
//
//   predictor_tool [--predictor=vrp|ball-larus|90-50|random]
//                  [--threads=N] [--budget=N] [--deadline=MS]
//                  [--dump-ir] [--ranges] [--stats[=json]]
//                  [--trace=<function>] [--audit[=json]]
//                  [--suite] [--cache=<path>] [--cache-verify]
//                  [--fp-ranges=on|off] [--alias=on|off]
//                  [--module-scale=N [--module-seed=S] [--module-layers=L]
//                   [--mutate=K] [--incremental]] [file.vl]
//
// Without a file argument it analyzes a built-in demo program. For every
// conditional branch it prints the predicted taken-probability and, for
// VRP, whether the prediction came from ranges or the heuristic fallback.
// --stats prints pipeline telemetry (counters and timers) after the run;
// --stats=json emits the machine-readable schema of docs/TELEMETRY.md.
// --trace=<function> records that function's lattice transitions during
// propagation. --suite evaluates the built-in benchmark suite instead of
// a single file (the workload behind the stats-determinism check).
// --audit arms the soundness sentinel (vrp/Audit.h): executions are
// replayed with every observed branch value checked against its
// VRP-computed range; violating functions are quarantined to the
// heuristic fallback and reported. --cache=<path> attaches the
// persistent result cache (docs/CACHE.md): warm runs restore per-function
// analyses bitwise-identically from the file and skip propagation, which
// is also how a killed --suite run is finished (docs/ROBUSTNESS.md).
// --cache-verify re-analyzes on every hit and compares against the
// stored bytes, exiting 5 on any divergence.
// --fp-ranges=off and --alias=off are ablation toggles (both default
// on): the first reverts floating-point-tested branches to the
// heuristic fallback, the second makes every load ⊥ (docs/DOMAINS.md).
// --module-scale=N generates a synthetic N-function module (deep call
// DAG with recursive SCCs, see benchsuite/Synthetic.h) and analyzes it
// whole-module, printing a JSON summary with a bitwise result
// fingerprint. --mutate=K perturbs K function bodies; adding
// --incremental analyzes the unmutated module first and then re-analyzes
// only the invalidated cone (docs/SCALING.md).
//
// Exit codes: 0 success, 1 input rejected with diagnostics, 2 usage
// error, 3 internal error, 4 soundness violations detected by --audit,
// 5 --cache-verify divergence, 7 interrupted by SIGTERM/SIGINT after a
// graceful flush (cache commits are complete up to the interruption
// point; rerun with the same --cache to finish).
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisCache.h"
#include "analysis/PersistentCache.h"
#include "benchsuite/Programs.h"
#include "benchsuite/Synthetic.h"
#include "driver/Pipeline.h"
#include "eval/Reporting.h"
#include "ir/IRPrinter.h"
#include "profile/Interpreter.h"
#include "support/Format.h"
#include "support/ResultStore.h"
#include "support/Signal.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "vrp/Audit.h"
#include "vrp/Trace.h"

#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace vrp;

namespace {

// Exit codes, documented in README.md — scripts depend on these.
enum ExitCode : int {
  ExitSuccess = 0,
  ExitDiagnostics = 1,
  ExitUsage = 2,
  ExitInternal = 3,
  ExitAudit = 4,
  ExitCacheDiverged = 5,
  ExitInterrupted = 7,
};

const char *DemoSource = R"(
fn classify(score) {
  if (score < 0) {
    return 0 - 1;
  }
  if (score > 100) {
    return 101;
  }
  return score;
}

fn main() {
  var total = 0;
  for (var i = 0; i < 50; i = i + 1) {
    var s = classify(i * 3 - 10);
    if (s >= 0 && s <= 100) {
      total = total + s;
    }
  }
  print(total);
  return total;
}
)";

void printUsage() {
  std::cerr << "usage: predictor_tool [--predictor=vrp|ball-larus|90-50|"
               "random] [--threads=N] [--budget=N] [--deadline=MS] "
               "[--dump-ir] [--ranges] [--stats[=json]] "
               "[--trace=<function>] [--audit[=json]] [--suite] "
               "[--cache=<path>] [--cache-verify] [--fp-ranges=on|off] "
               "[--alias=on|off]\n"
               "                      [--module-scale=N [--module-seed=S] "
               "[--module-layers=L]\n                       [--mutate=K] "
               "[--incremental]] [file.vl]\n"
               "  --threads=N   with --suite, evaluate N benchmarks at once "
               "(0 = all\n                hardware threads; results are "
               "identical at any N); a single\n                file or "
               "--module-scale module is analyzed on one thread\n"
               "  --budget=N    cap propagation at N worklist steps per "
               "function;\n                exhausted functions degrade to "
               "the heuristic fallback\n"
               "  --deadline=MS wall-clock deadline for propagation; "
               "functions not\n                analyzed in time degrade "
               "to the heuristic fallback\n"
               "  --stats[=json] print pipeline telemetry (per-pass "
               "counters and timers)\n                after the run; json "
               "uses the docs/TELEMETRY.md schema with\n                "
               "wall-clock under a trailing \"timings\" key\n"
               "  --trace=<fn>  record <fn>'s lattice transitions "
               "(old range -> new\n                range, triggering "
               "edge) during propagation\n"
               "  --audit[=json] replay execution under the soundness "
               "sentinel: every\n                observed branch value is "
               "checked against its computed\n                range, and "
               "violating functions are quarantined to the\n"
               "                heuristic fallback (exit 4 on any "
               "violation)\n"
               "  --suite       evaluate the built-in benchmark suite "
               "instead of one\n                file (combine with "
               "--stats=json for the determinism check)\n"
               "  --cache=<p>   persistent result cache: warm runs "
               "restore per-function\n                analyses "
               "bitwise-identically from file <p> and skip\n"
               "                propagation (see docs/CACHE.md)\n"
               "  --cache-verify with --cache: re-analyze on every hit, "
               "compare against\n                the stored bytes, exit 5 "
               "on any divergence\n"
               "  --fp-ranges=on|off toggle the floating-point interval "
               "lattice (default\n                on; off reverts FP-tested "
               "branches to the heuristic fallback)\n"
               "  --alias=on|off toggle probabilistic load aliasing "
               "(default on; off\n                makes every load bottom, "
               "the pre-alias behavior)\n"
               "  --module-scale=N analyze a generated N-function module "
               "and print a JSON\n                summary (waves, sweeps, "
               "re-analyzed cone, result fingerprint)\n"
               "  --module-seed=S  generator seed (default 1)\n"
               "  --module-layers=L bound the generated call DAG's depth "
               "to L layers\n                (0 = unconstrained chain "
               "depth)\n"
               "  --mutate=K    perturb K generated function bodies "
               "before analyzing\n"
               "  --incremental with --module-scale: analyze the "
               "unmutated module cold,\n                then re-analyze "
               "only the cone the mutation invalidated\n"
               "exit codes: 0 success, 1 diagnostics, 2 usage error, "
               "3 internal error,\n            4 soundness violations "
               "detected by --audit, 5 cache divergence,\n            "
               "7 interrupted after a graceful flush (rerun with the "
               "same --cache\n            to finish)\n";
}

/// Parses a digits-only unsigned option value. stoul alone would accept
/// "-2" (wrapping) and "12abc" (dropping the suffix).
bool parseUnsigned(const std::string &V, uint64_t &Out) {
  if (V.empty() || V.find_first_not_of("0123456789") != std::string::npos)
    return false;
  try {
    Out = std::stoull(V);
  } catch (...) {
    return false;
  }
  return true;
}

int runTool(int argc, char **argv) {
  std::string PredictorName = "vrp";
  bool DumpIR = false, DumpRanges = false;
  bool Stats = false, StatsJson = false, Suite = false;
  bool Audit = false, AuditJson = false;
  bool CacheVerify = false;
  std::string CachePath;
  std::string TraceFn;
  unsigned Threads = 1;
  uint64_t StepBudget = 0, DeadlineMs = 0;
  uint64_t ModuleScale = 0, ModuleSeed = 1, ModuleLayers = 0, Mutate = 0;
  bool Incremental = false;
  bool FPRanges = true, AliasRanges = true;
  std::string FileName;

  // "--flag=on|off" ablation toggles (both default on).
  auto parseOnOff = [](const std::string &Arg, size_t Prefix, bool &Out) {
    std::string V = Arg.substr(Prefix);
    if (V != "on" && V != "off")
      return false;
    Out = V == "on";
    return true;
  };

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--predictor=", 0) == 0)
      PredictorName = Arg.substr(12);
    else if (Arg == "--stats")
      Stats = true;
    else if (Arg.rfind("--stats=", 0) == 0) {
      if (Arg.substr(8) != "json") {
        std::cerr << "invalid --stats value: " << Arg
                  << " (expected --stats or --stats=json)\n";
        return ExitUsage;
      }
      Stats = StatsJson = true;
    } else if (Arg.rfind("--trace=", 0) == 0) {
      TraceFn = Arg.substr(8);
      if (TraceFn.empty()) {
        std::cerr << "invalid --trace value: expected a function name\n";
        return ExitUsage;
      }
    } else if (Arg == "--suite")
      Suite = true;
    else if (Arg == "--audit")
      Audit = true;
    else if (Arg.rfind("--audit=", 0) == 0) {
      if (Arg.substr(8) != "json") {
        std::cerr << "invalid --audit value: " << Arg
                  << " (expected --audit or --audit=json)\n";
        return ExitUsage;
      }
      Audit = AuditJson = true;
    } else if (Arg.rfind("--cache=", 0) == 0) {
      CachePath = Arg.substr(8);
      if (CachePath.empty()) {
        std::cerr << "invalid --cache value: expected a file path\n";
        return ExitUsage;
      }
    } else if (Arg == "--cache-verify")
      CacheVerify = true;
    else if (Arg.rfind("--threads=", 0) == 0) {
      uint64_t Parsed = 0;
      if (!parseUnsigned(Arg.substr(10), Parsed) ||
          Parsed > ThreadPool::MaxThreads) {
        std::cerr << "invalid --threads value: " << Arg << " (expected 0-"
                  << ThreadPool::MaxThreads << ")\n";
        return ExitUsage;
      }
      Threads = static_cast<unsigned>(Parsed);
    } else if (Arg.rfind("--budget=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(9), StepBudget)) {
        std::cerr << "invalid --budget value: " << Arg << "\n";
        return ExitUsage;
      }
    } else if (Arg.rfind("--deadline=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(11), DeadlineMs)) {
        std::cerr << "invalid --deadline value: " << Arg << "\n";
        return ExitUsage;
      }
    } else if (Arg.rfind("--module-scale=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(15), ModuleScale) || ModuleScale == 0) {
        std::cerr << "invalid --module-scale value: " << Arg << "\n";
        return ExitUsage;
      }
    } else if (Arg.rfind("--module-seed=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(14), ModuleSeed)) {
        std::cerr << "invalid --module-seed value: " << Arg << "\n";
        return ExitUsage;
      }
    } else if (Arg.rfind("--module-layers=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(16), ModuleLayers)) {
        std::cerr << "invalid --module-layers value: " << Arg << "\n";
        return ExitUsage;
      }
    } else if (Arg.rfind("--mutate=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(9), Mutate)) {
        std::cerr << "invalid --mutate value: " << Arg << "\n";
        return ExitUsage;
      }
    } else if (Arg.rfind("--fp-ranges=", 0) == 0) {
      if (!parseOnOff(Arg, 12, FPRanges)) {
        std::cerr << "invalid --fp-ranges value: " << Arg
                  << " (expected on or off)\n";
        return ExitUsage;
      }
    } else if (Arg.rfind("--alias=", 0) == 0) {
      if (!parseOnOff(Arg, 8, AliasRanges)) {
        std::cerr << "invalid --alias value: " << Arg
                  << " (expected on or off)\n";
        return ExitUsage;
      }
    } else if (Arg == "--incremental")
      Incremental = true;
    else if (Arg == "--dump-ir")
      DumpIR = true;
    else if (Arg == "--ranges")
      DumpRanges = true;
    else if (Arg == "--help") {
      printUsage();
      return ExitSuccess;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::cerr << "unknown option: " << Arg << "\n";
      printUsage();
      return ExitUsage;
    } else {
      FileName = Arg;
    }
  }

  if (PredictorName != "vrp" && PredictorName != "ball-larus" &&
      PredictorName != "90-50" && PredictorName != "random") {
    std::cerr << "unknown predictor: " << PredictorName << "\n";
    printUsage();
    return ExitUsage;
  }

  // Telemetry is opt-in: arm it only when something will be reported.
  if (Stats || !TraceFn.empty()) {
    telemetry::setEnabled(true);
    telemetry::reset();
  }

  if (CacheVerify && CachePath.empty()) {
    std::cerr << "--cache-verify compares against a cache; add "
                 "--cache=<path>\n";
    return ExitUsage;
  }
  if (ModuleScale == 0 && (Incremental || Mutate != 0)) {
    std::cerr << "--incremental/--mutate act on a generated module; add "
                 "--module-scale=N\n";
    return ExitUsage;
  }

  if (ModuleScale != 0) {
    if (Suite || !FileName.empty()) {
      std::cerr << "--module-scale generates its own input; drop --suite "
                   "and the file argument\n";
      return ExitUsage;
    }
    SyntheticModuleConfig Base;
    Base.NumFunctions = static_cast<unsigned>(ModuleScale);
    Base.Seed = ModuleSeed;
    Base.Layers = static_cast<unsigned>(ModuleLayers);
    SyntheticModuleConfig Target = Base;
    Target.MutateCount = static_cast<unsigned>(Mutate);

    VRPOptions Opts;
    Opts.Interprocedural = true;
    Opts.Threads = Threads;
    Opts.Budget.PropagationStepLimit = StepBudget;
    Opts.Budget.DeadlineMs = DeadlineMs;
    Opts.EnableFPRanges = FPRanges;
    Opts.EnableAliasRanges = AliasRanges;

    DiagnosticEngine Diags;
    auto compileCfg = [&](const SyntheticModuleConfig &Cfg) {
      return compileProgram(makeSyntheticModule(Cfg), Diags, Opts);
    };
    auto TargetProg = compileCfg(Target);
    if (!TargetProg.ok()) {
      std::cerr << "error: " << TargetProg.error().str() << "\n";
      return ExitInternal;
    }
    const Module &TargetIR = *TargetProg.value()->IR;

    ModuleVRPResult R;
    const char *Mode = "cold";
    std::unique_ptr<CompiledProgram> PrevProg;
    if (Incremental) {
      // Cold-analyze the unmutated generation, then re-analyze only the
      // cone the mutation invalidated.
      auto PrevOrErr = compileCfg(Base);
      if (!PrevOrErr.ok()) {
        std::cerr << "error: " << PrevOrErr.error().str() << "\n";
        return ExitInternal;
      }
      PrevProg = std::move(PrevOrErr.value());
      ModuleVRPResult PrevR = runModuleVRP(*PrevProg->IR, Opts);
      R = runModuleVRPIncremental(TargetIR, Opts, *PrevProg->IR, PrevR);
      Mode = "incremental";
    } else {
      R = runModuleVRP(TargetIR, Opts);
    }

    // Bitwise fingerprint: FNV-1a over every function's exact result
    // serialization, in module order. Identical analyses => identical
    // fingerprints, at any thread count and in either mode.
    uint64_t H = 0xcbf29ce484222325ULL;
    for (const auto &F : TargetIR.functions())
      if (const FunctionVRPResult *FR = R.forFunction(F.get()))
        H = store::fnv1a64(PersistentCache::serialize(*FR), H);
    char Hex[17];
    std::snprintf(Hex, sizeof(Hex), "%016llx",
                  static_cast<unsigned long long>(H));

    std::cout << "{\n  \"module_scale\": {\n"
              << "    \"functions\": " << TargetIR.functions().size()
              << ",\n    \"mode\": \"" << Mode << "\""
              << ",\n    \"mutated\": " << Mutate
              << ",\n    \"waves\": " << R.Waves
              << ",\n    \"sweeps\": " << R.Rounds
              << ",\n    \"functions_reanalyzed\": " << R.FunctionsReanalyzed
              << ",\n    \"functions_degraded\": " << R.FunctionsDegraded
              << ",\n    \"fingerprint\": \"" << Hex << "\"\n  }\n}\n";
    if (Stats) {
      if (StatsJson)
        std::cout << telemetry::toJson(telemetry::snapshot());
      else
        std::cout << "telemetry counters:\n"
                  << telemetry::toText(telemetry::snapshot());
    }
    return ExitSuccess;
  }

  if (Suite) {
    if (!FileName.empty()) {
      std::cerr << "--suite evaluates the built-in benchmarks; drop the "
                   "file argument\n";
      return ExitUsage;
    }
    // A long suite run interrupted by SIGTERM/SIGINT flushes what it has
    // — every pending cache commit — instead of dying mid-append;
    // already-running benchmarks finish, not-yet-started ones are skipped
    // and reported as interrupted (exit 7).
    stopsignal::installHandlers();
    VRPOptions Opts;
    Opts.Interprocedural = true;
    Opts.Threads = Threads;
    Opts.Budget.PropagationStepLimit = StepBudget;
    Opts.Budget.DeadlineMs = DeadlineMs;
    Opts.EnableFPRanges = FPRanges;
    Opts.EnableAliasRanges = AliasRanges;
    Opts.Audit = Audit;
    SuiteRunConfig Config;
    Config.SupervisorRetry = true;
    Config.CachePath = CachePath;
    Config.CacheVerify = CacheVerify;
    SuiteEvaluation SuiteEval = evaluateSuite(allPrograms(), Opts, Config);
    if (StatsJson) {
      writeSuiteStatsJson(SuiteEval, telemetry::snapshot(), std::cout);
    } else {
      printSuiteReport(SuiteEval, "benchmark suite", std::cout);
      if (Stats)
        std::cout << "telemetry counters:\n"
                  << telemetry::toText(telemetry::snapshot());
    }
    if (SuiteEval.PCacheDivergences > 0) {
      std::cerr << "cache-verify: " << SuiteEval.PCacheDivergences
                << " stored result(s) diverged from re-analysis\n";
      return ExitCacheDiverged;
    }
    if (Audit && SuiteEval.SoundnessViolations > 0)
      return ExitAudit;
    if (stopsignal::stopRequested()) {
      std::cerr << "interrupted: suite stopped early; completed "
                   "benchmarks are flushed; "
                << (CachePath.empty() ? "rerun to finish"
                                      : "rerun with the same --cache to "
                                        "finish")
                << "\n";
      return ExitInterrupted;
    }
    return SuiteEval.Failures.empty() ? ExitSuccess : ExitDiagnostics;
  }

  std::string Source;
  if (FileName.empty()) {
    Source = DemoSource;
    std::cout << "(no input file; analyzing the built-in demo)\n\n";
  } else {
    std::ifstream In(FileName);
    if (!In) {
      std::cerr << "error: cannot open " << FileName << "\n";
      return ExitUsage;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Source = Buf.str();
  }

  DiagnosticEngine Diags;
  VRPOptions Opts;
  Opts.Interprocedural = true;
  Opts.Threads = Threads;
  Opts.Budget.PropagationStepLimit = StepBudget;
  Opts.Budget.DeadlineMs = DeadlineMs;
  Opts.EnableFPRanges = FPRanges;
  Opts.EnableAliasRanges = AliasRanges;
  trace::TraceSink Sink(TraceFn);
  if (!TraceFn.empty())
    Opts.Trace = &Sink;
  auto Compiled = compileProgram(Source, Diags, Opts);
  if (!Compiled.ok()) {
    Diags.printAll(std::cerr);
    std::cerr << "error: " << Compiled.error().str() << "\n";
    return ExitDiagnostics;
  }
  Module &M = *Compiled.value()->IR;

  if (DumpIR)
    printModule(M, std::cout);

  // Single-file cache attachment: lookups hit the snapshot on disk, and
  // this run's fresh results commit below once analysis finished cleanly.
  std::unique_ptr<PersistentCache> PCache;
  if (!CachePath.empty()) {
    Status CacheWhy;
    PCache = PersistentCache::open(CachePath, CacheVerify, &CacheWhy);
    if (!PCache) {
      // --cache-verify exists to check the store's contents; silently
      // verifying nothing would report success vacuously, so a cache
      // that cannot open (e.g. locked by a resident predictord) is an
      // error there and a degradation everywhere else.
      if (CacheVerify) {
        std::cerr << "error: " << CacheWhy.error().str() << "\n";
        return ExitInternal;
      }
      std::cerr << "warning: " << CacheWhy.error().str()
                << "; running uncached\n";
    }
  }

  AnalysisCache Cache;
  ModuleVRPResult VRP = runModuleVRP(M, Opts, &Cache, PCache.get());
  if (PCache)
    PCache->commitScope();

  // The shared renderer keeps this output byte-identical to what a
  // resident predictord serves for the same source (docs/SERVING.md).
  renderPredictionReport(M, VRP, &Cache, {PredictorName, DumpRanges},
                         std::cout);

  bool AuditViolated = false;
  if (Audit) {
    // Single-file sentinel run: execute the program (no inputs) with the
    // auditor attached and print its verdict. The suite path audits
    // against the reference inputs instead (eval/SuiteRunner.cpp).
    audit::RangeAuditor Auditor;
    for (const auto &F : M.functions())
      if (const FunctionVRPResult *FR = VRP.forFunction(F.get()))
        Auditor.addFunction(*F, *FR);
    Interpreter AuditInterp(M);
    ExecutionResult AuditRun =
        AuditInterp.run({}, nullptr, 200'000'000, &Auditor);
    audit::AuditReport Report = Auditor.takeReport();
    AuditViolated = Report.totalViolations() > 0;
    if (AuditJson) {
      std::cout << "{\n  \"audit\": {\n    \"checks\": "
                << Report.totalChecks()
                << ",\n    \"violations\": " << Report.totalViolations()
                << ",\n    \"functions\": [";
      bool First = true;
      for (const auto &FA : Report.Functions) {
        if (FA.Violations == 0)
          continue;
        std::cout << (First ? "" : ",") << "\n      {\"function\": \""
                  << FA.Function << "\", \"violations\": " << FA.Violations
                  << ", \"checked\": " << FA.Checked << "}";
        First = false;
      }
      std::cout << (First ? "]" : "\n    ]") << "\n  }\n}\n";
    } else {
      std::cout << Report.str();
      if (!AuditRun.Ok)
        std::cout << "audit note: execution stopped early (" << AuditRun.Error
                  << "); the verdict covers the branches that did run\n";
    }
  }

  if (!TraceFn.empty()) {
    if (Sink.traces().empty())
      std::cout << "trace: no function named '" << TraceFn
                << "' was analyzed\n";
    else
      Sink.print(std::cout);
  }
  if (Stats) {
    if (StatsJson)
      std::cout << telemetry::toJson(telemetry::snapshot());
    else
      std::cout << "telemetry counters:\n"
                << telemetry::toText(telemetry::snapshot());
  }
  if (PCache && PCache->divergences() > 0) {
    std::cerr << "cache-verify: " << PCache->divergences()
              << " stored result(s) diverged from re-analysis\n";
    return ExitCacheDiverged;
  }
  return AuditViolated ? ExitAudit : ExitSuccess;
}

} // namespace

int main(int argc, char **argv) {
  try {
    return runTool(argc, argv);
  } catch (const std::exception &E) {
    std::cerr << "internal error: " << E.what() << "\n";
    return ExitInternal;
  } catch (...) {
    std::cerr << "internal error: unknown exception\n";
    return ExitInternal;
  }
}
