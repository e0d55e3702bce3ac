//===- vrpbench/ModuleWorkloads.cpp - Module-scale analysis workloads -----===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// module_cold: compile, analyze and finalize generated deep-DAG modules
// from scratch. Alias analysis, propagation and interprocedural
// scheduling do almost all the work, and the paper's linearity claim is
// tested here. No result cache is attached.
//
// module_incremental: re-analyze a generated depth-bounded module from
// its previous result after 1 or 10 functions changed. Almost no
// propagation runs; the cost is rebinding the unchanged functions'
// results, so it exercises the interprocedural layer differently.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/AliasAnalysis.h"
#include "analysis/CallGraph.h"
#include "analysis/PersistentCache.h"
#include "benchsuite/Synthetic.h"
#include "support/Telemetry.h"

#include <cstdio>

using namespace vrp;

namespace vrpbench {

namespace {

void finalizeAll(const Module &M, const ModuleVRPResult &R) {
  for (const auto &F : M.functions())
    if (const FunctionVRPResult *FR = R.forFunction(F.get()))
      (void)finalizePredictions(*F, *FR);
}

std::string perFunctionNote(const char *What, unsigned N, double Ms) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "%s at %u functions: %.4f ms/function",
                What, N, Ms / N);
  return Buf;
}

/// One traced compile + whole-module analysis + finalize of \p Source,
/// followed by its probes. Returns the fingerprint (0 on failure) and
/// the operation's layer self times in \p Self and counts in \p Counts.
uint64_t tracedColdOp(Tracer &T, const std::string &Source, unsigned Index,
                      std::map<std::string, double> &Self, double &OpMs,
                      std::map<std::string, double> &Counts, RunResult &R) {
  const VRPOptions Opts = benchOptions();
  Compiled C;
  ModuleVRPResult VRP;
  std::string Err;
  int Op = T.begin("op", Index + 1);
  resetCounters();
  bool Ok = compileTraced(T, Source, C, Err);
  uint64_t Runs = propagationRuns();
  if (Ok) {
    {
      Tracer::Scope S(T, "vrp.module");
      VRP = runModuleVRP(*C.IR, Opts);
    }
    Runs = propagationRuns() - Runs;
    Tracer::Scope S(T, "driver.finalize");
    finalizeAll(*C.IR, VRP);
  }
  Counts = readCounters();
  T.end(Op);
  if (!Ok) {
    R.fail("traced compile: " + Err);
    return 0;
  }
  Counts["irgen.instructions"] = static_cast<double>(instructionCount(*C.IR));
  int Probe = T.begin("probe", Index + 1);
  probeModule(T, *C.IR);
  T.end(Probe);
  Self = T.selfTimes(Op);
  splitModuleSpan(Self, T.selfTimes(Probe),
                  static_cast<double>(Runs) / C.IR->functions().size());
  OpMs = T.durationMs(Op);
  return fingerprint(*C.IR, VRP);
}

} // namespace

RunResult runModuleCold(const RunConfig &Cfg) {
  RunResult R;
  const unsigned N = Cfg.Smoke ? 120 : 500;
  // Operations cycle over 16 modules drawn from the seed, so the median
  // describes the generator's distribution rather than a few draws.
  std::vector<std::string> Sources;
  for (uint64_t K = 0; K < 16; ++K) {
    SyntheticModuleConfig Gen;
    Gen.NumFunctions = N;
    Gen.Seed = Cfg.Seed * 1000 + K;
    Sources.push_back(makeSyntheticModule(Gen));
  }
  const VRPOptions Opts = benchOptions();

  // Set-up warms the allocator and the interning pools on a module of
  // the same shape, the same for every seed.
  SyntheticModuleConfig WarmGen;
  WarmGen.NumFunctions = N;
  const std::string Warm = makeSyntheticModule(WarmGen);
  for (int I = 0; I < 3; ++I) {
    auto Start = Clock::now();
    std::string Err;
    auto C = compileOrReport(Warm, Err);
    if (!C) {
      R.fail("warm-up compile: " + Err);
      return R;
    }
    finalizeAll(*C->IR, runModuleVRP(*C->IR, Opts));
    R.SetupSeconds.push_back(msSince(Start) / 1e3);
  }

  // Every analysis of a module must reproduce its first fingerprint.
  std::vector<uint64_t> Expected(Sources.size(), 0);
  auto expect = [&](size_t K, uint64_t H, const char *What) {
    ++R.Attempted;
    if (H == 0)
      return; // Already counted as a failure.
    if (Expected[K] == 0)
      Expected[K] = H;
    else if (Expected[K] != H)
      R.fail(std::string(What) + ": module " + std::to_string(K) +
             " fingerprint differs from its first analysis");
  };

  Tracer T;
  LayerAccumulator Acc;
  auto untraced = [&](unsigned I) {
    size_t K = I % Sources.size();
    std::string Err;
    auto Start = Clock::now();
    auto C = compileOrReport(Sources[K], Err);
    ModuleVRPResult VRP;
    if (C) {
      VRP = runModuleVRP(*C->IR, Opts);
      finalizeAll(*C->IR, VRP);
    }
    double Ms = msSince(Start);
    if (!C)
      R.fail("compile: " + Err);
    expect(K, C ? fingerprint(*C->IR, VRP) : 0, "timed analysis");
    return Ms;
  };
  auto traced = [&](unsigned I) {
    size_t K = I % Sources.size();
    std::map<std::string, double> Self, Counts;
    double OpMs = 0.0;
    telemetry::setEnabled(true);
    expect(K, tracedColdOp(T, Sources[K], I, Self, OpMs, Counts, R),
           "traced replay");
    telemetry::setEnabled(false);
    Acc.addOp(Self, OpMs);
    Acc.addValues(K, Counts);
  };
  // Every module is analyzed (and, in a trace run, traced) at least once,
  // so the per-module counts do not depend on the run's length.
  runTimed(Cfg, Sources.size(), R, untraced, traced);

  if (Cfg.Trace) {
    R.Layers = Acc.finish(mean(R.OpMs));
    // Linearity probe: the same per-function layer costs on a module of
    // half the size. Equal numbers mean linear scaling.
    SyntheticModuleConfig Half;
    Half.NumFunctions = N / 2;
    Half.Seed = Cfg.Seed * 1000 + 998;
    std::map<std::string, double> Self, Counts;
    double OpMs = 0.0;
    ++R.Attempted;
    telemetry::setEnabled(true);
    tracedColdOp(T, makeSyntheticModule(Half), 1u << 30, Self, OpMs, Counts,
                 R);
    telemetry::setEnabled(false);
    for (const char *Layer : {"analysis.alias", "interproc.self", "vrp.self"}) {
      R.Notes.push_back(perFunctionNote(Layer, N / 2, Self[Layer]));
      R.Notes.push_back(perFunctionNote(Layer, N, R.Layers.SelfMs[Layer]));
    }
    T.writeJson(Cfg.WorkDir + "/trace-module_cold.json");
  }
  R.Notes.push_back("modules: " + std::to_string(Sources.size()) + " x " +
                    std::to_string(N) + " functions");
  return R;
}

RunResult runModuleIncremental(const RunConfig &Cfg) {
  RunResult R;
  SyntheticModuleConfig Base;
  Base.NumFunctions = Cfg.Smoke ? 120 : 1000;
  Base.Seed = Cfg.Seed;
  // Depth-bounded: cold and incremental results are bitwise identical
  // only when the refinement converges within the per-function budget
  // (docs/SCALING.md, "The convergence caveat").
  Base.Layers = 3;
  const std::string BaseSource = makeSyntheticModule(Base);
  const unsigned Mutations[2] = {1, 10};
  std::string Mutated[2];
  for (int K = 0; K < 2; ++K) {
    SyntheticModuleConfig Gen = Base;
    Gen.MutateCount = Mutations[K];
    Mutated[K] = makeSyntheticModule(Gen);
  }
  const VRPOptions Opts = benchOptions();

  // Set-up is the previous result every re-analysis starts from.
  std::unique_ptr<CompiledProgram> Prev;
  ModuleVRPResult PrevR;
  std::string Err;
  for (int I = 0; I < 3; ++I) {
    auto Start = Clock::now();
    Prev = compileOrReport(BaseSource, Err);
    if (!Prev) {
      R.fail("base compile: " + Err);
      return R;
    }
    PrevR = runModuleVRP(*Prev->IR, Opts);
    R.SetupSeconds.push_back(msSince(Start) / 1e3);
  }

  // Fingerprints of every re-analysis, checked after the timed phase
  // against a cold analysis of the same mutated module.
  std::vector<uint64_t> Seen[2];
  std::vector<double> LatencyMs[2];
  unsigned Cone[2] = {0, 0};
  auto untraced = [&](unsigned I) {
    auto Start = Clock::now();
    auto C = compileOrReport(Mutated[I % 2], Err);
    ModuleVRPResult Inc;
    if (C) {
      Inc = runModuleVRPIncremental(*C->IR, Opts, *Prev->IR, PrevR);
      finalizeAll(*C->IR, Inc);
    }
    double Ms = msSince(Start);
    ++R.Attempted;
    if (!C) {
      R.fail("compile: " + Err);
      return Ms;
    }
    Seen[I % 2].push_back(fingerprint(*C->IR, Inc));
    LatencyMs[I % 2].push_back(Ms);
    Cone[I % 2] = Inc.FunctionsReanalyzed;
    return Ms;
  };

  std::map<std::string, const FunctionVRPResult *> PrevByName;
  for (const auto &F : Prev->IR->functions())
    PrevByName[F->name()] = PrevR.forFunction(F.get());
  VRPOptions Intra = Opts;
  Intra.Interprocedural = false;
  Tracer T;
  LayerAccumulator Acc;
  auto traced = [&](unsigned I) {
    telemetry::setEnabled(true);
    Compiled C;
    ModuleVRPResult Inc;
    int Op = T.begin("op", I + 1);
    resetCounters();
    bool Ok = compileTraced(T, Mutated[I % 2], C, Err);
    uint64_t Runs = propagationRuns();
    if (Ok) {
      {
        Tracer::Scope S(T, "interproc.incremental");
        Inc = runModuleVRPIncremental(*C.IR, Opts, *Prev->IR, PrevR);
      }
      Runs = propagationRuns() - Runs;
      Tracer::Scope S(T, "driver.finalize");
      finalizeAll(*C.IR, Inc);
    }
    std::map<std::string, double> Counts = readCounters();
    T.end(Op);
    ++R.Attempted;
    if (!Ok) {
      telemetry::setEnabled(false);
      R.fail("traced compile: " + Err);
      return;
    }
    Seen[I % 2].push_back(fingerprint(*C.IR, Inc));
    // Probes: the layers inside the incremental run, measured on the
    // functions it actually re-analyzed.
    int Probe = T.begin("probe", I + 1);
    {
      Tracer::Scope S(T, "probe.alias");
      for (const Function *F : Inc.Reanalyzed)
        (void)AliasInfo::analyze(*F);
    }
    {
      Tracer::Scope S(T, "probe.callgraph");
      CallGraph CG(*C.IR);
      (void)CG.numWaves();
    }
    {
      Tracer::Scope S(T, "probe.intra");
      for (const Function *F : Inc.Reanalyzed)
        (void)propagateRanges(*F, Intra);
    }
    {
      Tracer::Scope S(T, "probe.roundtrip");
      for (const auto &F : C.IR->functions()) {
        auto It = PrevByName.find(F->name());
        FunctionVRPResult Out;
        if (It != PrevByName.end() && It->second)
          (void)PersistentCache::deserialize(
              PersistentCache::serialize(*It->second), *F, Out);
      }
    }
    T.end(Probe);
    telemetry::setEnabled(false);
    std::map<std::string, double> Self = T.selfTimes(Op);
    splitModuleSpan(Self, T.selfTimes(Probe),
                    Inc.Reanalyzed.empty()
                        ? 1.0
                        : static_cast<double>(Runs) / Inc.Reanalyzed.size(),
                    "interproc.incremental");
    Acc.addOp(Self, T.durationMs(Op));
    Counts["irgen.instructions"] = static_cast<double>(instructionCount(*C.IR));
    Acc.addValues(I % 2, Counts);
  };
  runTimed(Cfg, 6, R, untraced, traced);
  if (Cfg.Trace) {
    R.Layers = Acc.finish(mean(R.OpMs));
    T.writeJson(Cfg.WorkDir + "/trace-module_incremental.json");
  }

  // Correctness: every re-analysis equals the cold analysis of the same
  // mutated module, bit for bit.
  for (int K = 0; K < 2; ++K) {
    auto Cold = compileOrReport(Mutated[K], Err);
    if (!Cold) {
      R.fail("cold compile: " + Err);
      continue;
    }
    uint64_t Want = fingerprint(*Cold->IR, runModuleVRP(*Cold->IR, Opts));
    for (uint64_t Got : Seen[K])
      if (Got != Want)
        R.fail("K=" + std::to_string(Mutations[K]) +
               ": incremental result differs from the cold analysis");
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  "K=%u: median %.3f ms over %zu re-analyses, cone %u",
                  Mutations[K], percentile(LatencyMs[K], 0.5),
                  LatencyMs[K].size(), Cone[K]);
    R.Notes.push_back(Buf);
  }
  return R;
}

} // namespace vrpbench
