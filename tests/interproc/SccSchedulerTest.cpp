//===- tests/interproc/SccSchedulerTest.cpp - SCC-wave scheduler tests ----===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// The interprocedural SCC-wave scheduler: bitwise determinism across
// thread counts, incremental re-analysis of exactly the invalidated cone,
// positional rebinding of unchanged results, dead-call-site jump-function
// hygiene, and the wave-boundary fault clock for deadline degradation.
//
//===----------------------------------------------------------------------===//

#include "analysis/PersistentCache.h"
#include "benchsuite/Programs.h"
#include "benchsuite/Synthetic.h"
#include "driver/Pipeline.h"
#include "ir/IRPrinter.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace vrp;

namespace {

std::unique_ptr<CompiledProgram> compile(const std::string &Source,
                                         const VRPOptions &Opts = {}) {
  DiagnosticEngine Diags;
  auto C = compileToSSA(Source, Diags, Opts);
  EXPECT_TRUE(C) << Diags.firstError();
  return C;
}

VRPOptions interprocOpts(unsigned Threads = 1) {
  VRPOptions Opts;
  Opts.Interprocedural = true;
  Opts.Threads = Threads;
  return Opts;
}

/// Pointer-free fingerprint of a whole module result: every function's
/// exact serialization, in module order. Two runs are "bitwise identical"
/// iff these strings match.
std::string fingerprint(const Module &M, const ModuleVRPResult &R) {
  std::string Out;
  for (const auto &F : M.functions()) {
    const FunctionVRPResult *FR = R.forFunction(F.get());
    EXPECT_NE(FR, nullptr) << F->name();
    if (!FR)
      continue;
    Out += "@" + F->name() + "\n";
    Out += PersistentCache::serialize(*FR);
  }
  return Out;
}

std::set<std::string> degradedNames(const Module &M,
                                    const ModuleVRPResult &R) {
  std::set<std::string> Names;
  for (const auto &F : M.functions()) {
    const FunctionVRPResult *FR = R.forFunction(F.get());
    if (FR && FR->Degraded)
      Names.insert(F->name());
  }
  return Names;
}

std::set<std::string> namesOf(const std::vector<const Function *> &Fns) {
  std::set<std::string> Names;
  for (const Function *F : Fns)
    Names.insert(F->name());
  return Names;
}

TEST(SccSchedulerTest, SyntheticModuleAnalyzesEveryFunction) {
  SyntheticModuleConfig Cfg;
  Cfg.NumFunctions = 80;
  Cfg.Seed = 3;
  auto C = compile(makeSyntheticModule(Cfg));
  ModuleVRPResult R = runModuleVRP(*C->IR, interprocOpts());

  const unsigned N = static_cast<unsigned>(C->IR->functions().size());
  EXPECT_EQ(R.PerFunction.size(), N);
  // A cold run's cone is the whole module.
  EXPECT_EQ(R.FunctionsReanalyzed, N);
  EXPECT_EQ(R.Reanalyzed.size(), N);
  // The chain topology makes the condensation genuinely layered.
  EXPECT_GE(R.Waves, 4u);
  EXPECT_GE(R.Rounds, 1u);
  EXPECT_EQ(R.FunctionsDegraded, 0u);
}

TEST(SccSchedulerTest, BitwiseIdenticalAcrossThreadCounts) {
  SyntheticModuleConfig Cfg;
  Cfg.NumFunctions = 120;
  Cfg.Seed = 11;
  Cfg.RecursiveEvery = 8;     // Dense mutual-recursion mix.
  Cfg.SelfRecursiveEvery = 7; // Plus self-recursion.
  auto C = compile(makeSyntheticModule(Cfg));
  const Module &M = *C->IR;

  ModuleVRPResult R1 = runModuleVRP(M, interprocOpts(1));
  std::string F1 = fingerprint(M, R1);
  for (unsigned Threads : {2u, 4u}) {
    ModuleVRPResult Rt = runModuleVRP(M, interprocOpts(Threads));
    EXPECT_EQ(Rt.Rounds, R1.Rounds) << Threads;
    EXPECT_EQ(Rt.Waves, R1.Waves) << Threads;
    EXPECT_EQ(Rt.FunctionsDegraded, R1.FunctionsDegraded) << Threads;
    EXPECT_EQ(fingerprint(M, Rt), F1) << Threads << " threads diverged";
  }
}

// Satellite regression: a provably dead call site must not inject its
// argument into the callee's merged parameter range. The old driver
// floored every site's weight at 1e-6, so the poisoned constant survived
// as a second subrange.
TEST(SccSchedulerTest, DeadCallSiteDoesNotPoisonJumpFunction) {
  auto C = compile(R"(
    fn callee(v) {
      if (v > 50) { return 100; }
      return v;
    }
    fn main() {
      var x = 10;
      if (x > 100) {
        return callee(1000);
      }
      return callee(5);
    }
  )");
  ModuleVRPResult R = runModuleVRP(*C->IR, interprocOpts());

  const Function *Callee = C->IR->findFunction("callee");
  const FunctionVRPResult *FR = R.forFunction(Callee);
  ASSERT_NE(FR, nullptr);
  ValueRange V = FR->rangeOf(Callee->param(0));
  ASSERT_TRUE(V.isRanges()) << V.str();
  // Only the live site's [5,5] — not [5,5] ∪ [1000,1000].
  ASSERT_EQ(V.subRanges().size(), 1u) << V.str();
  EXPECT_EQ(V.subRanges().front().Lo.Offset, 5);
  EXPECT_EQ(V.subRanges().front().Hi.Offset, 5);
}

// The return-function side of the same fix: a dead returning block must
// not leak its value into the caller's call-result range.
TEST(SccSchedulerTest, DeadReturnBlockDoesNotPoisonReturnRange) {
  auto C = compile(R"(
    fn g(v) {
      if (v > 100) { return 1000000; }
      return v;
    }
    fn main() {
      var r = g(5);
      if (r > 500) { return 1; }
      return 0;
    }
  )");
  ModuleVRPResult R = runModuleVRP(*C->IR, interprocOpts());

  const Function *Main = C->IR->findFunction("main");
  const FunctionVRPResult *FR = R.forFunction(Main);
  ASSERT_NE(FR, nullptr);
  const CondBrInst *Branch = nullptr;
  for (const auto &B : Main->blocks())
    if (const auto *CBr = dyn_cast_or_null<CondBrInst>(B->terminator()))
      Branch = CBr;
  ASSERT_NE(Branch, nullptr);
  // r == 5 exactly; under the old flooring r carried a 1000000 subrange
  // and the branch kept a nonzero taken probability.
  ASSERT_TRUE(FR->Branches.at(Branch).FromRanges);
  EXPECT_EQ(FR->Branches.at(Branch).ProbTrue, 0.0);
}

// Satellite regression: the deadline is probed only at wave boundaries,
// on the coordinating thread, so the degraded set for a given boundary is
// identical at every thread count. "module-deadline:2" is the fault clock:
// it expires the deadline at the third boundary probe regardless of how
// fast the wall clock runs.
TEST(SccSchedulerTest, DeadlineDegradedSetIsScheduleIndependent) {
  SyntheticModuleConfig Cfg;
  Cfg.NumFunctions = 60;
  Cfg.Seed = 5;
  auto C = compile(makeSyntheticModule(Cfg));
  const Module &M = *C->IR;

  auto runWithFault = [&](unsigned Threads) {
    fault::configure("module-deadline:2");
    ModuleVRPResult R = runModuleVRP(M, interprocOpts(Threads));
    fault::reset();
    return degradedNames(M, R);
  };

  std::set<std::string> Serial = runWithFault(1);
  EXPECT_FALSE(Serial.empty());
  EXPECT_LT(Serial.size(), M.functions().size()); // Waves 0-1 completed.
  EXPECT_EQ(runWithFault(2), Serial);
  EXPECT_EQ(runWithFault(4), Serial);
}

TEST(SccSchedulerTest, IncrementalUnchangedModuleReanalyzesNothing) {
  SyntheticModuleConfig Cfg;
  Cfg.NumFunctions = 40;
  Cfg.Seed = 9;
  std::string Source = makeSyntheticModule(Cfg);
  auto Prev = compile(Source);
  auto Next = compile(Source); // Same text, distinct Module object.

  ModuleVRPResult RPrev = runModuleVRP(*Prev->IR, interprocOpts());

  std::string Path = ::testing::TempDir() + "scc_sched_unchanged.vrpcache";
  std::remove(Path.c_str());
  auto PCache = PersistentCache::open(Path, /*Verify=*/false);
  ASSERT_NE(PCache, nullptr);

  telemetry::reset();
  telemetry::setEnabled(true);
  ModuleVRPResult RInc = runModuleVRPIncremental(
      *Next->IR, interprocOpts(), *Prev->IR, RPrev, nullptr, PCache.get());
  telemetry::Snapshot S = telemetry::snapshot();
  telemetry::setEnabled(false);

  // Nothing changed, so the cone is empty: no function was re-analyzed
  // and the persistent cache was never even consulted.
  EXPECT_EQ(RInc.FunctionsReanalyzed, 0u);
  EXPECT_TRUE(RInc.Reanalyzed.empty());
  EXPECT_EQ(S.counter(telemetry::Counter::PersistentCacheHits), 0u);
  EXPECT_EQ(S.counter(telemetry::Counter::PersistentCacheMisses), 0u);
  EXPECT_EQ(S.counter(telemetry::Counter::IncrementalFunctionsReused),
            Prev->IR->functions().size());
  // And the rebound results are bitwise identical to the previous run's.
  EXPECT_EQ(fingerprint(*Next->IR, RInc), fingerprint(*Prev->IR, RPrev));
}

TEST(SccSchedulerTest, IncrementalReanalyzesExactlyTheInvalidatedCone) {
  const char *PrevSource = R"(
    fn leaf(v) {
      if (v > 50) { return 100; }
      return v;
    }
    fn top(n) { return leaf(n) + 1; }
    fn main() { return top(7); }
  )";
  // Only top's body changes; its return range shifts, so main (whose
  // call-result context changed) re-analyzes too. leaf's jump function —
  // fed by top's unchanged parameter — is untouched, so leaf stays out
  // of the cone.
  const char *NextSource = R"(
    fn leaf(v) {
      if (v > 50) { return 100; }
      return v;
    }
    fn top(n) { return leaf(n) + 2; }
    fn main() { return top(7); }
  )";
  auto Prev = compile(PrevSource);
  auto Next = compile(NextSource);

  ModuleVRPResult RPrev = runModuleVRP(*Prev->IR, interprocOpts());

  std::string Path = ::testing::TempDir() + "scc_sched_cone.vrpcache";
  std::remove(Path.c_str());
  auto PCache = PersistentCache::open(Path, /*Verify=*/false);
  ASSERT_NE(PCache, nullptr);

  telemetry::reset();
  telemetry::setEnabled(true);
  ModuleVRPResult RInc = runModuleVRPIncremental(
      *Next->IR, interprocOpts(), *Prev->IR, RPrev, nullptr, PCache.get());
  telemetry::Snapshot S = telemetry::snapshot();
  telemetry::setEnabled(false);

  EXPECT_EQ(namesOf(RInc.Reanalyzed),
            (std::set<std::string>{"main", "top"}));
  EXPECT_EQ(RInc.FunctionsReanalyzed, 2u);
  // The cache saw exactly the cone: one lookup per re-analyzed function,
  // zero for the functions outside it.
  EXPECT_EQ(S.counter(telemetry::Counter::PersistentCacheHits) +
                S.counter(telemetry::Counter::PersistentCacheMisses),
            2u);

  // leaf's result is the previous one, rebound bitwise.
  const FunctionVRPResult *LeafInc =
      RInc.forFunction(Next->IR->findFunction("leaf"));
  const FunctionVRPResult *LeafPrev =
      RPrev.forFunction(Prev->IR->findFunction("leaf"));
  ASSERT_NE(LeafInc, nullptr);
  ASSERT_NE(LeafPrev, nullptr);
  EXPECT_EQ(PersistentCache::serialize(*LeafInc),
            PersistentCache::serialize(*LeafPrev));

  // And the whole incremental result matches a cold run of the new module.
  ModuleVRPResult RCold = runModuleVRP(*Next->IR, interprocOpts());
  EXPECT_EQ(fingerprint(*Next->IR, RInc), fingerprint(*Next->IR, RCold));
}

TEST(SccSchedulerTest, IncrementalMatchesColdRunOnSyntheticModule) {
  SyntheticModuleConfig Base;
  Base.NumFunctions = 80;
  Base.Seed = 17;
  // Bound the DAG depth so the refinement converges inside the
  // per-function budget: bitwise cold-vs-incremental identity is only a
  // theorem at convergence (an incremental run seeded from converged
  // tables refines deeper than a budget-truncated cold run can).
  Base.Layers = 3;
  SyntheticModuleConfig MutatedCfg = Base;
  MutatedCfg.MutateCount = 2;

  std::vector<std::string> MutatedNames;
  auto Prev = compile(makeSyntheticModule(Base));
  auto Next = compile(makeSyntheticModule(MutatedCfg, &MutatedNames));
  ASSERT_EQ(MutatedNames.size(), 2u);

  ModuleVRPResult RPrev = runModuleVRP(*Prev->IR, interprocOpts());
  ModuleVRPResult RInc = runModuleVRPIncremental(*Next->IR, interprocOpts(),
                                                 *Prev->IR, RPrev);
  ModuleVRPResult RCold = runModuleVRP(*Next->IR, interprocOpts());

  // The cone contains the mutated functions...
  std::set<std::string> Cone = namesOf(RInc.Reanalyzed);
  for (const std::string &Name : MutatedNames)
    EXPECT_TRUE(Cone.count(Name)) << Name << " missing from cone";
  // ...and is a strict subset of the module.
  EXPECT_GT(RInc.FunctionsReanalyzed, 0u);
  EXPECT_LT(RInc.FunctionsReanalyzed, Next->IR->functions().size());
  // Incremental output is bitwise what a cold run computes.
  EXPECT_EQ(fingerprint(*Next->IR, RInc), fingerprint(*Next->IR, RCold));
}

TEST(SccSchedulerTest, ContentHashShortCircuitPreservesBitwiseIdentity) {
  // The incremental path keys changed-function detection on each
  // function's structural hash instead of a per-function text diff. The
  // hash must draw exactly the same changed/unchanged line a text
  // comparison draws — reuse counts and bitwise cold-vs-incremental
  // identity both still hold.
  SyntheticModuleConfig Base;
  Base.NumFunctions = 60;
  Base.Seed = 23;
  Base.Layers = 3;
  SyntheticModuleConfig MutatedCfg = Base;
  MutatedCfg.MutateCount = 1;

  std::vector<std::string> MutatedNames;
  auto Prev = compile(makeSyntheticModule(Base));
  auto Next = compile(makeSyntheticModule(MutatedCfg, &MutatedNames));
  ASSERT_EQ(MutatedNames.size(), 1u);

  ModuleVRPResult RPrev = runModuleVRP(*Prev->IR, interprocOpts());

  telemetry::reset();
  telemetry::setEnabled(true);
  ModuleVRPResult RInc = runModuleVRPIncremental(*Next->IR, interprocOpts(),
                                                 *Prev->IR, RPrev);
  telemetry::Snapshot S = telemetry::snapshot();
  telemetry::setEnabled(false);

  // Every function outside the invalidated cone was matched by hash and
  // reused without re-analysis.
  EXPECT_EQ(S.counter(telemetry::Counter::IncrementalFunctionsReused),
            Next->IR->functions().size() - RInc.FunctionsReanalyzed);
  EXPECT_GT(S.counter(telemetry::Counter::IncrementalFunctionsReused), 0u);
  // The mutated function's hash changed, so it was re-analyzed.
  std::set<std::string> Cone = namesOf(RInc.Reanalyzed);
  EXPECT_TRUE(Cone.count(MutatedNames[0])) << MutatedNames[0];

  // And the short-circuit is invisible in the output: bitwise identical
  // to the cold run.
  ModuleVRPResult RCold = runModuleVRP(*Next->IR, interprocOpts());
  EXPECT_EQ(fingerprint(*Next->IR, RInc), fingerprint(*Next->IR, RCold));
}

// The alias half of the incremental fingerprint. f's IR text is the same
// in both modules, but g starts storing to the global f loads, so f is no
// longer its exclusive writer. Only the alias environment tells f apart:
// f must be re-analyzed, and the result must equal a cold run bitwise.
TEST(SccSchedulerTest, IncrementalReanalyzesLoaderWhenAnotherFunctionStores) {
  const char *PrevSource = R"(
    var flag = 3;
    fn f() {
      if (flag > 5) { return 1; }
      return 0;
    }
    fn g(v) { return v + 1; }
    fn main() { return f() + g(7); }
  )";
  const char *NextSource = R"(
    var flag = 3;
    fn f() {
      if (flag > 5) { return 1; }
      return 0;
    }
    fn g(v) {
      flag = v;
      return v + 1;
    }
    fn main() { return f() + g(7); }
  )";
  auto Prev = compile(PrevSource);
  auto Next = compile(NextSource);
  const Function *PrevF = Prev->IR->findFunction("f");
  const Function *NextF = Next->IR->findFunction("f");
  std::ostringstream PrevText, NextText;
  printFunction(*PrevF, PrevText);
  printFunction(*NextF, NextText);
  ASSERT_EQ(PrevText.str(), NextText.str());

  ModuleVRPResult RPrev = runModuleVRP(*Prev->IR, interprocOpts());
  ModuleVRPResult RInc = runModuleVRPIncremental(*Next->IR, interprocOpts(),
                                                 *Prev->IR, RPrev);
  ModuleVRPResult RCold = runModuleVRP(*Next->IR, interprocOpts());

  EXPECT_TRUE(namesOf(RInc.Reanalyzed).count("f"));
  EXPECT_EQ(fingerprint(*Next->IR, RInc), fingerprint(*Next->IR, RCold));
  // Reusing f's result would have been wrong: with no writer, f's branch
  // was range-predicted from flag's initial value; with g writing, the
  // load is ⊥ and the branch falls back to the heuristics.
  const auto &PrevBranches = RPrev.forFunction(PrevF)->Branches;
  const auto &NextBranches = RInc.forFunction(NextF)->Branches;
  ASSERT_EQ(PrevBranches.size(), 1u);
  ASSERT_EQ(NextBranches.size(), 1u);
  EXPECT_TRUE(PrevBranches.begin()->second.FromRanges);
  EXPECT_FALSE(NextBranches.begin()->second.FromRanges);
}

// Two float constants that agree to six decimals print alike
// (`0.000005`). A fingerprint over printed IR text matched them and
// reused the old @main result (51.5% instead of 54.5%); the structural
// hash compares constants by bit pattern.
TEST(SccSchedulerTest, IncrementalReanalyzesFloatConstantThatPrintsAlike) {
  auto source = [](const char *Threshold) {
    return std::string(R"(
      fn main() {
        var hits = 0;
        for (var i = 0; i < 100; i = i + 1) {
          var x = float(i) * 0.0000001;
          if (x < )") + Threshold + R"() {
            hits = hits + 1;
          }
        }
        return hits;
      }
    )";
  };
  auto Prev = compile(source("0.0000051"));
  auto Next = compile(source("0.0000054"));
  ModuleVRPResult RPrev = runModuleVRP(*Prev->IR, interprocOpts());
  ModuleVRPResult RInc = runModuleVRPIncremental(*Next->IR, interprocOpts(),
                                                 *Prev->IR, RPrev);
  ModuleVRPResult RCold = runModuleVRP(*Next->IR, interprocOpts());

  EXPECT_EQ(namesOf(RInc.Reanalyzed), (std::set<std::string>{"main"}));
  EXPECT_EQ(fingerprint(*Next->IR, RInc), fingerprint(*Next->IR, RCold));
}

// Rebinding copies numeric range handles as they are and re-interns
// symbolic slices with their symbols remapped. In qsort, main and
// quicksort carry symbolic bounds; editing swap's return value leaves
// main outside the cone, so main's symbolic ranges are rebound. Every
// rebound symbol must name a value of the new module; after the previous
// module is destroyed, the rebound results must still serialize exactly
// as a cold run's (the ASan stage of scripts/check.sh catches a symbol
// left pointing into the destroyed module).
TEST(SccSchedulerTest, RebindRemapsSymbolicBoundsOntoTheNewModule) {
  const BenchmarkProgram *Qsort = findProgram("qsort");
  ASSERT_NE(Qsort, nullptr);
  std::string NextSource = Qsort->Source;
  const std::string SwapReturn = "  return 0;\n}\nfn quicksort";
  size_t At = NextSource.find(SwapReturn);
  ASSERT_NE(At, std::string::npos);
  NextSource.replace(At, SwapReturn.size(), "  return 1;\n}\nfn quicksort");

  auto Prev = compile(Qsort->Source);
  auto Next = compile(NextSource);
  auto RPrev = std::make_unique<ModuleVRPResult>(
      runModuleVRP(*Prev->IR, interprocOpts()));
  ModuleVRPResult RInc = runModuleVRPIncremental(*Next->IR, interprocOpts(),
                                                 *Prev->IR, *RPrev);
  std::set<std::string> Cone = namesOf(RInc.Reanalyzed);
  EXPECT_TRUE(Cone.count("swap"));
  EXPECT_FALSE(Cone.count("main"));

  unsigned SymbolicRebound = 0;
  for (const auto &F : Next->IR->functions()) {
    if (Cone.count(F->name()))
      continue;
    std::set<const Value *> Own;
    for (unsigned I = 0; I < F->numParams(); ++I)
      Own.insert(F->param(I));
    for (const auto &B : F->blocks())
      for (const auto &I : B->instructions())
        Own.insert(I.get());
    const FunctionVRPResult *FR = RInc.forFunction(F.get());
    ASSERT_NE(FR, nullptr) << F->name();
    for (const auto &[V, VR] : FR->Ranges) {
      ASSERT_TRUE(Own.count(V)) << F->name();
      if (!VR.hasSymbolicBounds())
        continue;
      ++SymbolicRebound;
      for (const SubRange &S : VR.subRanges()) {
        ASSERT_TRUE(!S.Lo.Sym || Own.count(S.Lo.Sym)) << F->name();
        ASSERT_TRUE(!S.Hi.Sym || Own.count(S.Hi.Sym)) << F->name();
      }
    }
  }
  EXPECT_GT(SymbolicRebound, 0u);

  RPrev.reset();
  Prev.reset();
  ModuleVRPResult RCold = runModuleVRP(*Next->IR, interprocOpts());
  for (const auto &F : Next->IR->functions())
    EXPECT_EQ(PersistentCache::serialize(*RInc.forFunction(F.get())),
              PersistentCache::serialize(*RCold.forFunction(F.get())))
        << F->name();
}

// A previous result offered for a structurally different function is
// refused, and the function is re-analyzed. f's previous result here was
// computed for `x - 1` while both modules' f compute `x + 1`: equal
// fingerprints lead the driver to try the rebind, and only the opcode
// check tells the functions apart.
TEST(SccSchedulerTest, RebindRefusesAStructurallyDifferentFunction) {
  auto source = [](const char *Op) {
    return std::string("fn f(x) { if (x ") + Op +
           " 1 > 5) { return 1; } return 0; }\n"
           "fn main() { return f(5); }\n";
  };
  auto Prev = compile(source("+"));
  auto Other = compile(source("-"));
  auto Next = compile(source("+"));
  const Function *PrevF = Prev->IR->findFunction("f");
  const Function *OtherF = Other->IR->findFunction("f");
  const Function *NextF = Next->IR->findFunction("f");

  ModuleVRPResult RPrev = runModuleVRP(*Prev->IR, interprocOpts());
  ModuleVRPResult ROther = runModuleVRP(*Other->IR, interprocOpts());
  FunctionVRPResult Out;
  EXPECT_TRUE(PersistentCache::rebind(*RPrev.forFunction(PrevF), *NextF, Out));
  EXPECT_FALSE(
      PersistentCache::rebind(*ROther.forFunction(OtherF), *NextF, Out));

  RPrev.PerFunction[PrevF] = *ROther.forFunction(OtherF);
  ModuleVRPResult RInc = runModuleVRPIncremental(*Next->IR, interprocOpts(),
                                                 *Prev->IR, RPrev);
  ModuleVRPResult RCold = runModuleVRP(*Next->IR, interprocOpts());
  EXPECT_TRUE(namesOf(RInc.Reanalyzed).count("f"));
  EXPECT_EQ(fingerprint(*Next->IR, RInc), fingerprint(*Next->IR, RCold));
}

// The store census walks the whole module, so the driver builds it once
// per module state: once for a cold run, and once per module (previous
// and new) for an incremental one. Building it per function or per
// propagation run would make module analysis quadratic.
TEST(SccSchedulerTest, StoreCensusIsBuiltOncePerModule) {
  for (unsigned N : {50u, 400u}) {
    SyntheticModuleConfig Base;
    Base.NumFunctions = N;
    Base.Seed = 29;
    Base.Layers = 3;
    SyntheticModuleConfig MutatedCfg = Base;
    MutatedCfg.MutateCount = 2;
    auto Prev = compile(makeSyntheticModule(Base));
    auto Next = compile(makeSyntheticModule(MutatedCfg));

    telemetry::reset();
    telemetry::setEnabled(true);
    ModuleVRPResult RPrev = runModuleVRP(*Prev->IR, interprocOpts());
    uint64_t Cold =
        telemetry::snapshot().counter(telemetry::Counter::AliasCensusBuilds);
    telemetry::reset();
    (void)runModuleVRPIncremental(*Next->IR, interprocOpts(), *Prev->IR,
                                  RPrev);
    uint64_t Incremental =
        telemetry::snapshot().counter(telemetry::Counter::AliasCensusBuilds);
    telemetry::setEnabled(false);

    EXPECT_EQ(Cold, 1u) << N << " functions";
    EXPECT_EQ(Incremental, 2u) << N << " functions";
  }
}

} // namespace
