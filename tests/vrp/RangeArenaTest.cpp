//===- tests/vrp/RangeArenaTest.cpp - Per-analysis range arenas -----------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// Range storage belongs to the analysis that made it: handles from two
// arenas compare by content, a result keeps its storage alive past later
// analyses, an incremental result outlives its predecessor, incremental
// runs from one base add nothing to its arena and so count alike, one
// result can be read, and one base run from, on several threads at once,
// and no entry point leaks an arena or writes to the caller's default
// arena.
//
//===----------------------------------------------------------------------===//

#include "analysis/PersistentCache.h"
#include "benchsuite/Programs.h"
#include "benchsuite/Synthetic.h"
#include "driver/Pipeline.h"
#include "eval/SuiteRunner.h"
#include "serve/Service.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace vrp;

namespace {

std::unique_ptr<CompiledProgram> compile(const std::string &Source) {
  DiagnosticEngine Diags;
  auto C = compileToSSA(Source, Diags, VRPOptions());
  EXPECT_TRUE(C) << Diags.firstError();
  return C;
}

VRPOptions interprocOpts() {
  VRPOptions Opts;
  Opts.Interprocedural = true;
  return Opts;
}

/// Every function's exact serialization, by name.
std::map<std::string, std::string> serializeAll(const Module &M,
                                                const ModuleVRPResult &R) {
  std::map<std::string, std::string> Out;
  for (const auto &F : M.functions()) {
    const FunctionVRPResult *FR = R.forFunction(F.get());
    EXPECT_NE(FR, nullptr) << F->name();
    if (FR)
      Out[F->name()] = PersistentCache::serialize(*FR);
  }
  return Out;
}

ValueRange numeric(int64_t Lo, int64_t Hi) {
  return ValueRange::ranges({SubRange::numeric(1.0, Lo, Hi, 1)}, 4);
}

SyntheticModuleConfig depthBounded(unsigned NumFunctions, uint64_t Seed) {
  SyntheticModuleConfig Cfg;
  Cfg.NumFunctions = NumFunctions;
  Cfg.Seed = Seed;
  // Cold and incremental results are bitwise equal only when the
  // refinement converges inside the per-function budget.
  Cfg.Layers = 3;
  return Cfg;
}

TEST(RangeArenaTest, EqualsComparesContentAcrossArenas) {
  auto A = std::make_shared<RangeArena>();
  auto B = std::make_shared<RangeArena>();
  ValueRange InA, OtherInB, SameInB;
  {
    RangeArena::Scope S(A);
    InA = numeric(0, 9);
  }
  {
    RangeArena::Scope S(B);
    OtherInB = numeric(20, 29);
    SameInB = numeric(0, 9);
  }
  // Both arenas handed out their first slice id: the ids collide, the
  // contents do not.
  ASSERT_EQ(InA.sliceId(), OtherInB.sliceId());
  ASSERT_EQ(InA.arena(), A.get());
  ASSERT_EQ(OtherInB.arena(), B.get());
  EXPECT_FALSE(InA.equals(OtherInB));
  EXPECT_FALSE(InA.sameSupport(OtherInB));
  // Equal content in two arenas is equal.
  EXPECT_TRUE(InA.equals(SameInB, 0.0));
  EXPECT_TRUE(InA.sameSupport(SameInB));
}

TEST(RangeArenaTest, SymbolsCompareByValueAcrossArenas) {
  Param N(IRType::Int, "n", 0, nullptr), M(IRType::Int, "m", 1, nullptr);
  auto symRange = [](const Value *Sym) {
    return ValueRange::ranges(
        {SubRange(1.0, Bound(Sym, 0), Bound(Sym, 4), 1)}, 4);
  };
  auto A = std::make_shared<RangeArena>();
  auto B = std::make_shared<RangeArena>();
  ValueRange NInA, NInB, MInB;
  {
    RangeArena::Scope S(A);
    NInA = symRange(&N); // Slice 1 in A...
  }
  {
    RangeArena::Scope S(B);
    MInB = symRange(&M); // ...but slice 1 in B names m, and n is slice 2.
    NInB = symRange(&N);
  }
  EXPECT_TRUE(NInA.equals(NInB, 0.0));
  EXPECT_TRUE(NInA.sameSupport(NInB));
  EXPECT_FALSE(NInA.equals(MInB));
  EXPECT_FALSE(NInA.sameSupport(MInB));
}

TEST(RangeArenaTest, ResultKeepsItsRangesAcrossLaterAnalyses) {
  auto C = compile(makeSyntheticModule(depthBounded(40, 5)));
  ModuleVRPResult Kept = runModuleVRP(*C->IR, interprocOpts());
  std::map<std::string, std::string> Before = serializeAll(*C->IR, Kept);

  for (uint64_t Seed : {6, 7, 8}) {
    auto Other = compile(makeSyntheticModule(depthBounded(40, Seed)));
    ModuleVRPResult R = runModuleVRP(*Other->IR, interprocOpts());
    EXPECT_NE(R.Arena, Kept.Arena);
  }
  EXPECT_EQ(serializeAll(*C->IR, Kept), Before);
}

TEST(RangeArenaTest, StandaloneResultOwnsItsArena) {
  auto C = compile(makeSyntheticModule(depthBounded(10, 3)));
  const Function *F = C->IR->functions().front().get();
  uint64_t DefaultInterns = RangeArena::defaultArena().interns();
  unsigned Live = RangeArena::liveCount();
  std::string Bytes;
  {
    FunctionVRPResult R = propagateRanges(*F, VRPOptions());
    ASSERT_NE(R.Arena, nullptr);
    EXPECT_EQ(RangeArena::liveCount(), Live + 1);
    Bytes = PersistentCache::serialize(R);
    FunctionVRPResult Restored;
    ASSERT_TRUE(PersistentCache::deserialize(Bytes, *F, Restored));
    EXPECT_NE(Restored.Arena, R.Arena);
    EXPECT_EQ(PersistentCache::serialize(Restored), Bytes);
  }
  EXPECT_EQ(RangeArena::liveCount(), Live);
  EXPECT_EQ(RangeArena::defaultArena().interns(), DefaultInterns);
}

TEST(RangeArenaTest, IncrementalResultOutlivesItsPredecessor) {
  SyntheticModuleConfig Base = depthBounded(60, 23);
  SyntheticModuleConfig Mutated = Base;
  Mutated.MutateCount = 3;
  const std::string NextSource = makeSyntheticModule(Mutated);

  auto Next = compile(NextSource);
  ModuleVRPResult Inc;
  std::weak_ptr<RangeArena> PrevArena;
  {
    auto Prev = compile(makeSyntheticModule(Base));
    ModuleVRPResult PrevR = runModuleVRP(*Prev->IR, interprocOpts());
    Inc = runModuleVRPIncremental(*Next->IR, interprocOpts(), *Prev->IR,
                                  PrevR);
    // The run interned into an arena of its own.
    EXPECT_NE(Inc.Arena, PrevR.Arena);
    EXPECT_LT(Inc.FunctionsReanalyzed, Next->IR->functions().size());
    PrevArena = PrevR.Arena;
  } // The previous result and its module die here...
  // ...but not the previous arena: rebound results still read it.
  EXPECT_FALSE(PrevArena.expired());

  auto Cold = compile(NextSource);
  ModuleVRPResult ColdR = runModuleVRP(*Cold->IR, interprocOpts());
  EXPECT_EQ(serializeAll(*Next->IR, Inc), serializeAll(*Cold->IR, ColdR));
}

TEST(RangeArenaTest, IncrementalRunsFromOneBaseInternAlike) {
  // qsort's loops carry symbolic bounds (i <= j, i < n). Symbolic slices
  // are never deduplicated, so every run interns them anew.
  const BenchmarkProgram *QSort = findProgram("qsort");
  ASSERT_NE(QSort, nullptr);
  std::string NextSource = QSort->Source;
  const std::string Old = "rnd() % 100000";
  const size_t At = NextSource.find(Old);
  ASSERT_NE(At, std::string::npos);
  NextSource.replace(At, Old.size(), "rnd() % 99999");

  auto Base = compile(QSort->Source);
  ModuleVRPResult BaseR = runModuleVRP(*Base->IR, interprocOpts());
  auto Cold = compile(NextSource);
  const std::map<std::string, std::string> ColdBytes =
      serializeAll(*Cold->IR, runModuleVRP(*Cold->IR, interprocOpts()));

  struct Interns {
    uint64_t Hits, Misses, PayloadBytes;
  };
  auto incrementalRun = [&] {
    auto Next = compile(NextSource);
    telemetry::reset();
    telemetry::setEnabled(true);
    ModuleVRPResult Inc = runModuleVRPIncremental(*Next->IR, interprocOpts(),
                                                  *Base->IR, BaseR);
    telemetry::Snapshot S = telemetry::snapshot();
    telemetry::setEnabled(false);
    EXPECT_NE(Inc.Arena, BaseR.Arena);
    EXPECT_GT(Inc.FunctionsReanalyzed, 0u);
    EXPECT_EQ(serializeAll(*Next->IR, Inc), ColdBytes);
    return Interns{S.counter(telemetry::Counter::RangeInternHits),
                   S.counter(telemetry::Counter::RangeInternMisses),
                   S.counter(telemetry::Counter::RangeArenaPayloadBytes)};
  };
  const Interns First = incrementalRun();
  const Interns Second = incrementalRun();

  // Each run interns into an arena of its own and adds nothing to the
  // base's, so the second run cannot find what the first one added:
  // identical runs count identically...
  EXPECT_EQ(Second.Hits, First.Hits);
  EXPECT_EQ(Second.Misses, First.Misses);
  EXPECT_EQ(Second.PayloadBytes, First.PayloadBytes);
  // ...and both intern the symbolic slices, which are never shared.
  EXPECT_GT(First.Misses, 0u);
}

TEST(RangeArenaTest, EntryPointsFreeTheirArenasAndLeaveTheDefaultAlone) {
  const RangeArena &Default = RangeArena::defaultArena();
  const unsigned Live = RangeArena::liveCount();
  const uint64_t DefaultInterns = Default.interns();

  {
    auto Prev = compile(makeSyntheticModule(depthBounded(30, 41)));
    SyntheticModuleConfig Mutated = depthBounded(30, 41);
    Mutated.MutateCount = 2;
    auto Next = compile(makeSyntheticModule(Mutated));
    ModuleVRPResult PrevR = runModuleVRP(*Prev->IR, interprocOpts());
    ModuleVRPResult Inc = runModuleVRPIncremental(
        *Next->IR, interprocOpts(), *Prev->IR, PrevR);
    // The cold run's arena, and the incremental run's, which holds it.
    EXPECT_EQ(RangeArena::liveCount(), Live + 2);
    // Reads that intern a constant's range write to the reader's arena,
    // never to the result's.
    auto Reader = std::make_shared<RangeArena>();
    RangeArena::Scope ReaderScope(Reader);
    for (const auto &F : Next->IR->functions())
      for (const auto &B : F->blocks())
        for (const auto &I : B->instructions())
          for (unsigned Op = 0; Op < I->numOperands(); ++Op)
            (void)Inc.forFunction(F.get())->rangeOf(I->operand(Op));
    EXPECT_GT(Reader->interns(), 0u);
  }
  EXPECT_EQ(RangeArena::liveCount(), Live);

  std::vector<const BenchmarkProgram *> Programs = allPrograms();
  Programs.resize(3);
  VRPOptions Opts = interprocOpts();
  Opts.Audit = true;
  SuiteEvaluation Suite = evaluateSuite(Programs, Opts);
  EXPECT_EQ(Suite.Benchmarks.size(), 3u);
  EXPECT_EQ(RangeArena::liveCount(), Live);

  Status Why;
  std::unique_ptr<serve::Service> Service =
      serve::Service::create(serve::ServiceConfig(), &Why);
  ASSERT_NE(Service, nullptr);
  serve::Request Req;
  Req.Id = 1;
  Req.Method = "predict";
  Req.Source = Programs.front()->Source;
  Req.DumpRanges = true;
  EXPECT_EQ(Service->handle(Req).Status, serve::RespStatus::Ok);
  Req.Method = "analyze";
  EXPECT_EQ(Service->handle(Req).Status, serve::RespStatus::Ok);
  EXPECT_EQ(RangeArena::liveCount(), Live);

  EXPECT_EQ(Default.interns(), DefaultInterns);
}

TEST(RangeArenaTest, ConcurrentReadersOfOneResultAgree) {
  // An analysis writes its arena from one thread, but a finished result
  // may be read from any, and reading a constant operand interns its
  // range into the reader's own arena, never the result's. Four readers
  // at once must each see what one reader of an identical analysis sees.
  const std::string Source = makeSyntheticModule(depthBounded(80, 17));
  auto readAll = [](const Module &M, const ModuleVRPResult &R) {
    std::string Bytes;
    for (const auto &F : M.functions()) {
      const FunctionVRPResult *FR = R.forFunction(F.get());
      for (const auto &B : F->blocks())
        for (const auto &I : B->instructions())
          for (unsigned Op = 0; Op < I->numOperands(); ++Op)
            Bytes += FR->rangeOf(I->operand(Op)).str() + "\n";
      Bytes += PersistentCache::serialize(*FR);
    }
    return Bytes;
  };

  auto RefProgram = compile(Source);
  const std::string Expected =
      readAll(*RefProgram->IR, runModuleVRP(*RefProgram->IR, interprocOpts()));

  auto C = compile(Source);
  const ModuleVRPResult R = runModuleVRP(*C->IR, interprocOpts());
  constexpr unsigned Readers = 4;
  std::vector<std::string> Seen(Readers);
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Readers; ++T)
    Threads.emplace_back([&, T] {
      while (!Go.load())
        std::this_thread::yield();
      Seen[T] = readAll(*C->IR, R);
    });
  Go.store(true);
  for (std::thread &T : Threads)
    T.join();
  for (unsigned T = 0; T < Readers; ++T)
    EXPECT_EQ(Seen[T], Expected) << "reader " << T;
}

TEST(RangeArenaTest, IncrementalRunsFromOneBaseOnTwoThreads) {
  // Each run interns into an arena of its own and only reads the base's,
  // including the constants of the base results it rebinds and seeds
  // its tables from. Two runs from one base at once must each match a
  // cold run.
  SyntheticModuleConfig BaseCfg = depthBounded(60, 29);
  SyntheticModuleConfig Mutated = BaseCfg;
  Mutated.MutateCount = 3;
  const std::string NextSource = makeSyntheticModule(Mutated);

  auto Base = compile(makeSyntheticModule(BaseCfg));
  const ModuleVRPResult BaseR = runModuleVRP(*Base->IR, interprocOpts());
  auto Cold = compile(NextSource);
  const std::map<std::string, std::string> ColdBytes =
      serializeAll(*Cold->IR, runModuleVRP(*Cold->IR, interprocOpts()));

  constexpr unsigned Runs = 2;
  std::vector<std::unique_ptr<CompiledProgram>> Next;
  for (unsigned T = 0; T < Runs; ++T)
    Next.push_back(compile(NextSource));
  std::vector<std::map<std::string, std::string>> Seen(Runs);
  std::vector<size_t> Reanalyzed(Runs, 0);
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Runs; ++T)
    Threads.emplace_back([&, T] {
      while (!Go.load())
        std::this_thread::yield();
      ModuleVRPResult Inc = runModuleVRPIncremental(
          *Next[T]->IR, interprocOpts(), *Base->IR, BaseR);
      Reanalyzed[T] = Inc.FunctionsReanalyzed;
      Seen[T] = serializeAll(*Next[T]->IR, Inc);
    });
  Go.store(true);
  for (std::thread &T : Threads)
    T.join();
  for (unsigned T = 0; T < Runs; ++T) {
    EXPECT_GT(Reanalyzed[T], 0u) << "run " << T;
    EXPECT_LT(Reanalyzed[T], Next[T]->IR->functions().size()) << "run " << T;
    EXPECT_EQ(Seen[T], ColdBytes) << "run " << T;
  }
}

} // namespace
