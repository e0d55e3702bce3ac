//===- bench/module_scaling.cpp - Whole-module scheduler scaling ----------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// Three claims about the SCC-wave interprocedural scheduler
// (interproc/InterproceduralVRP.cpp) and the IR it runs on, measured on
// generated modules (benchsuite/Synthetic.h):
//
//  1. Linearity at module scale: expression evaluations per function stay
//     flat as the module grows to 10^4 functions (10^5 with
//     VRP_MODULE_SCALING_FULL=1) — the whole-module analog of the paper's
//     Figure 5.
//  2. Incremental re-analysis: after mutating K functions, re-analysis
//     from the previous result visits only the invalidated cone and —
//     on a depth-bounded module, where the refinement converges inside
//     the per-function budget — reproduces the cold result bit for bit.
//  3. Verification stays linear while an earlier module is alive (the
//     incremental shape): verifyModule + verifySSA time per instruction
//     is flat from 250 to 4000 functions. Interned constants are shared
//     by every live module, so any per-constant use list would make it
//     grow with the size of the other module.
//
// Emits BENCH_module_scaling.json; exits nonzero if the incremental
// fingerprint diverges from cold. docs/SCALING.md explains how to read
// the numbers.
//
//===----------------------------------------------------------------------===//

#include "analysis/PersistentCache.h"
#include "benchsuite/Synthetic.h"
#include "driver/Pipeline.h"
#include "ir/Verifier.h"
#include "ssa/SSAVerifier.h"
#include "support/Format.h"
#include "support/ResultStore.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

using namespace vrp;

namespace {

double wallSeconds(std::chrono::steady_clock::time_point Start,
                   std::chrono::steady_clock::time_point End) {
  return std::chrono::duration<double>(End - Start).count();
}

VRPOptions interprocOpts() {
  VRPOptions Opts;
  Opts.Interprocedural = true;
  return Opts;
}

std::unique_ptr<CompiledProgram> compileCfg(const SyntheticModuleConfig &Cfg) {
  DiagnosticEngine Diags;
  auto C = compileProgram(makeSyntheticModule(Cfg), Diags, interprocOpts());
  if (!C.ok()) {
    std::cerr << "generator program rejected: " << C.error().str() << "\n";
    std::exit(1);
  }
  return std::move(C.value());
}

/// FNV-1a over every function's exact result serialization, module order.
uint64_t fingerprint(const Module &M, const ModuleVRPResult &R) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (const auto &F : M.functions())
    if (const FunctionVRPResult *FR = R.forFunction(F.get()))
      H = store::fnv1a64(PersistentCache::serialize(*FR), H);
  return H;
}

struct CurvePoint {
  unsigned Functions = 0;
  double Seconds = 0.0;
  uint64_t ExprEvals = 0;
  uint64_t SubOps = 0;
  double EvalsPerFunction = 0.0;
  unsigned Waves = 0;
  unsigned Sweeps = 0;
};

struct VerifyPoint {
  unsigned Functions = 0;
  uint64_t Instructions = 0;
  double Seconds = 0.0;
  double NsPerInstruction = 0.0;
};

struct IncrementalPoint {
  unsigned Mutated = 0;
  unsigned Cone = 0;
  double ColdSeconds = 0.0;
  double IncrementalSeconds = 0.0;
  double Speedup = 1.0;
  bool Identical = false;
};

} // namespace

int main() {
  const bool Full = std::getenv("VRP_MODULE_SCALING_FULL") != nullptr;

  // --- Phase 1: linearity curve over deep-DAG modules -------------------
  std::vector<unsigned> Sizes = {1000, 3000, 10000};
  if (Full) {
    Sizes.push_back(30000);
    Sizes.push_back(100000);
  }

  std::cout << "==== Whole-module scheduler scaling ====\n\n"
            << (Full ? "full sweep\n\n" : "");

  // Warm the interned-constant pool and allocator outside the timings.
  {
    SyntheticModuleConfig Warm;
    Warm.NumFunctions = 100;
    auto C = compileCfg(Warm);
    (void)runModuleVRP(*C->IR, interprocOpts());
  }

  std::vector<CurvePoint> Curve;
  for (unsigned N : Sizes) {
    SyntheticModuleConfig Cfg;
    Cfg.NumFunctions = N;
    Cfg.Seed = 7;
    auto C = compileCfg(Cfg); // Generation + compilation are untimed.
    auto Start = std::chrono::steady_clock::now();
    ModuleVRPResult R = runModuleVRP(*C->IR, interprocOpts());
    auto End = std::chrono::steady_clock::now();

    CurvePoint P;
    P.Functions = static_cast<unsigned>(C->IR->functions().size());
    P.Seconds = wallSeconds(Start, End);
    P.ExprEvals = R.Total.ExprEvaluations;
    P.SubOps = R.Total.SubOps;
    P.EvalsPerFunction = static_cast<double>(P.ExprEvals) / P.Functions;
    P.Waves = R.Waves;
    P.Sweeps = R.Rounds;
    Curve.push_back(P);
  }

  TextTable CurveTable({"functions", "seconds", "expr evals", "evals/fn",
                        "waves", "sweeps"});
  for (const CurvePoint &P : Curve)
    CurveTable.addRow({std::to_string(P.Functions),
                       formatDouble(P.Seconds, 3),
                       std::to_string(P.ExprEvals),
                       formatDouble(P.EvalsPerFunction, 1),
                       std::to_string(P.Waves), std::to_string(P.Sweeps)});
  CurveTable.print(std::cout);

  // --- Phase 2: cold vs incremental after mutating K functions ----------
  // Depth-bounded (layered) module: the refinement converges inside the
  // per-function budget, which is the precondition for bitwise
  // cold-vs-incremental identity (see docs/SCALING.md).
  SyntheticModuleConfig Base;
  Base.NumFunctions = Full ? 20000 : 5000;
  Base.Seed = 7;
  Base.Layers = 3;
  auto Prev = compileCfg(Base);
  ModuleVRPResult PrevR = runModuleVRP(*Prev->IR, interprocOpts());

  std::cout << "\nincremental re-analysis, " << Base.NumFunctions
            << " functions, depth-bounded to " << Base.Layers
            << " layers:\n\n";

  std::vector<IncrementalPoint> Incr;
  bool AllIdentical = true;
  for (unsigned K : {1u, 10u, 100u}) {
    SyntheticModuleConfig Mut = Base;
    Mut.MutateCount = K;
    auto Next = compileCfg(Mut);

    auto ColdStart = std::chrono::steady_clock::now();
    ModuleVRPResult Cold = runModuleVRP(*Next->IR, interprocOpts());
    auto ColdEnd = std::chrono::steady_clock::now();

    auto IncStart = std::chrono::steady_clock::now();
    ModuleVRPResult Inc = runModuleVRPIncremental(*Next->IR, interprocOpts(),
                                                  *Prev->IR, PrevR);
    auto IncEnd = std::chrono::steady_clock::now();

    IncrementalPoint P;
    P.Mutated = K;
    P.Cone = Inc.FunctionsReanalyzed;
    P.ColdSeconds = wallSeconds(ColdStart, ColdEnd);
    P.IncrementalSeconds = wallSeconds(IncStart, IncEnd);
    P.Speedup = P.IncrementalSeconds > 0
                    ? P.ColdSeconds / P.IncrementalSeconds
                    : 1.0;
    P.Identical = fingerprint(*Next->IR, Inc) == fingerprint(*Next->IR, Cold);
    AllIdentical = AllIdentical && P.Identical && P.Cone >= K &&
                   P.Cone < Base.NumFunctions;
    Incr.push_back(P);
  }

  TextTable IncrTable({"mutated", "cone", "cold s", "incremental s",
                       "speedup", "results"});
  for (const IncrementalPoint &P : Incr)
    IncrTable.addRow({std::to_string(P.Mutated), std::to_string(P.Cone),
                      formatDouble(P.ColdSeconds, 3),
                      formatDouble(P.IncrementalSeconds, 3),
                      formatDouble(P.Speedup, 1) + "x",
                      P.Identical ? "identical" : "DIVERGED"});
  IncrTable.print(std::cout);
  std::cout << "\nincremental results "
            << (AllIdentical ? "match cold bit-for-bit"
                             : "DIVERGED from cold (BUG)")
            << "\n";

  std::cout << "K=1 incremental vs cold: "
            << formatDouble(Incr.front().Speedup, 1) << "x (target >= 10x)\n";

  // --- Phase 3: verification cost per instruction -----------------------
  // Each module is verified while an earlier module of the same size is
  // alive, as in an incremental run, and no other: phase 2's module goes
  // first. Best of three, compile untimed.
  PrevR = ModuleVRPResult();
  Prev.reset();
  std::vector<VerifyPoint> Verify;
  for (unsigned N : {250u, 1000u, 4000u}) {
    SyntheticModuleConfig Cfg;
    Cfg.NumFunctions = N;
    Cfg.Seed = 7;
    auto Earlier = compileCfg(Cfg);
    SyntheticModuleConfig Mut = Cfg;
    Mut.MutateCount = 1;
    auto C = compileCfg(Mut);
    VerifyPoint P;
    P.Functions = static_cast<unsigned>(C->IR->functions().size());
    for (const auto &F : C->IR->functions())
      P.Instructions += F->numInstructions();
    P.Seconds = 1e30;
    for (int Rep = 0; Rep < 3; ++Rep) {
      std::vector<std::string> Problems;
      auto Start = std::chrono::steady_clock::now();
      bool Ok = verifyModule(*C->IR, Problems, /*ExpectPhis=*/true) &&
                verifySSA(*C->IR, Problems);
      auto End = std::chrono::steady_clock::now();
      if (!Ok) {
        std::cerr << "generated module failed verification\n";
        return 1;
      }
      P.Seconds = std::min(P.Seconds, wallSeconds(Start, End));
    }
    P.NsPerInstruction = P.Seconds * 1e9 / P.Instructions;
    Verify.push_back(P);
  }
  double MinNs = Verify.front().NsPerInstruction, MaxNs = MinNs;
  for (const VerifyPoint &P : Verify) {
    MinNs = std::min(MinNs, P.NsPerInstruction);
    MaxNs = std::max(MaxNs, P.NsPerInstruction);
  }
  const double VerifySpread = MaxNs / MinNs;

  std::cout << "\nverification with an earlier module alive:\n\n";
  TextTable VerifyTable({"functions", "instructions", "verify s",
                         "ns/instruction"});
  for (const VerifyPoint &P : Verify)
    VerifyTable.addRow({std::to_string(P.Functions),
                        std::to_string(P.Instructions),
                        formatDouble(P.Seconds, 4),
                        formatDouble(P.NsPerInstruction, 1)});
  VerifyTable.print(std::cout);
  std::cout << "\nspread of ns/instruction across sizes: "
            << formatDouble(VerifySpread, 2) << "x (target <= 1.5x)\n";

  std::ofstream Json("BENCH_module_scaling.json");
  Json << "{\n  \"bench\": \"module_scaling\",\n"
       << "  \"full_sweep\": " << (Full ? "true" : "false") << ",\n"
       << "  \"linearity\": [\n";
  for (size_t I = 0; I < Curve.size(); ++I) {
    const CurvePoint &P = Curve[I];
    Json << "    {\"functions\": " << P.Functions
         << ", \"seconds\": " << formatDouble(P.Seconds, 6)
         << ", \"expr_evaluations\": " << P.ExprEvals
         << ", \"subrange_ops\": " << P.SubOps
         << ", \"evals_per_function\": "
         << formatDouble(P.EvalsPerFunction, 3)
         << ", \"waves\": " << P.Waves << ", \"sweeps\": " << P.Sweeps
         << "}" << (I + 1 < Curve.size() ? "," : "") << "\n";
  }
  Json << "  ],\n  \"incremental\": {\n    \"functions\": "
       << Base.NumFunctions << ",\n    \"layers\": " << Base.Layers
       << ",\n    \"runs\": [\n";
  for (size_t I = 0; I < Incr.size(); ++I) {
    const IncrementalPoint &P = Incr[I];
    Json << "      {\"mutated\": " << P.Mutated << ", \"cone\": " << P.Cone
         << ", \"cold_seconds\": " << formatDouble(P.ColdSeconds, 6)
         << ", \"incremental_seconds\": "
         << formatDouble(P.IncrementalSeconds, 6)
         << ", \"speedup_incremental_vs_cold\": "
         << formatDouble(P.Speedup, 4) << ", \"results_identical\": "
         << (P.Identical ? "true" : "false") << "}"
         << (I + 1 < Incr.size() ? "," : "") << "\n";
  }
  Json << "    ]\n  },\n  \"verify\": {\n    \"runs\": [\n";
  for (size_t I = 0; I < Verify.size(); ++I) {
    const VerifyPoint &P = Verify[I];
    Json << "      {\"functions\": " << P.Functions
         << ", \"instructions\": " << P.Instructions
         << ", \"seconds\": " << formatDouble(P.Seconds, 6)
         << ", \"ns_per_instruction\": "
         << formatDouble(P.NsPerInstruction, 2) << "}"
         << (I + 1 < Verify.size() ? "," : "") << "\n";
  }
  Json << "    ],\n    \"spread\": " << formatDouble(VerifySpread, 4)
       << "\n  }\n}\n";
  std::cout << "\nwrote BENCH_module_scaling.json\n";
  return AllIdentical ? 0 : 1;
}
