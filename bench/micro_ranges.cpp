//===- bench/micro_ranges.cpp - Range operation microbenchmarks -----------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// google-benchmark microbenchmarks of the range-arithmetic kernel: the
// per-suboperation costs behind Figure 6 ("evaluation sub-operations take
// essentially constant time").
//
// Three families:
//  - Numeric (BM_Range{Add,Mul,Meet,CmpProb,Assert}): one RangeOps
//    instance across iterations, as in fixpoint iteration. RangeOps caches
//    nothing across calls, so every iteration runs the batched SoA kernel
//    plus canonicalize/intern: the cost of one expression evaluation.
//  - Symbolic (BM_Range*Symbolic): bounds of the form n+k, which take the
//    symbolic-bound slow path.
//  - Union (BM_RangeUnionCoalesce): canonicalization alone.
//
//===----------------------------------------------------------------------===//

#include "ir/Value.h"
#include "support/RNG.h"
#include "vrp/RangeOps.h"

#include <benchmark/benchmark.h>

using namespace vrp;

namespace {

/// Builds a deterministic random range with \p Subs subranges.
ValueRange makeRange(RNG &Rng, unsigned Subs, unsigned Cap) {
  std::vector<SubRange> Pieces;
  for (unsigned I = 0; I < Subs; ++I) {
    int64_t Lo = Rng.nextInRange(-1000, 1000);
    int64_t Span = Rng.nextInRange(0, 400);
    int64_t Stride = Span == 0 ? 0 : Rng.nextInRange(1, 8);
    if (Stride > 0)
      Span -= Span % Stride;
    Pieces.push_back(SubRange::numeric(1.0 / Subs, Lo, Lo + Span,
                                       Span == 0 ? 0 : Stride));
  }
  return ValueRange::ranges(std::move(Pieces), Cap);
}

/// Builds a range whose bounds are offsets from SSA symbol \p Sym
/// (e.g. {0.5[n-4 : n-1], 0.5[n+1 : n+8]}): the kernel slow path.
ValueRange makeSymRange(RNG &Rng, const Value *Sym, unsigned Subs,
                        unsigned Cap) {
  std::vector<SubRange> Pieces;
  int64_t Lo = -Rng.nextInRange(1, 50);
  for (unsigned I = 0; I < Subs; ++I) {
    int64_t Span = Rng.nextInRange(0, 20);
    Pieces.push_back(SubRange(1.0 / Subs, Bound(Sym, Lo),
                              Bound(Sym, Lo + Span), Span == 0 ? 0 : 1));
    Lo += Span + Rng.nextInRange(1, 10);
  }
  return ValueRange::ranges(std::move(Pieces), Cap);
}

void BM_RangeAdd(benchmark::State &State) {
  VRPOptions Opts;
  Opts.MaxSubRanges = static_cast<unsigned>(State.range(0));
  RangeStats Stats;
  RangeOps Ops(Opts, Stats);
  RNG Rng(42);
  ValueRange A = makeRange(Rng, Opts.MaxSubRanges, Opts.MaxSubRanges);
  ValueRange B = makeRange(Rng, Opts.MaxSubRanges, Opts.MaxSubRanges);
  for (auto _ : State)
    benchmark::DoNotOptimize(Ops.add(A, B));
}
BENCHMARK(BM_RangeAdd)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_RangeMul(benchmark::State &State) {
  VRPOptions Opts;
  RangeStats Stats;
  RangeOps Ops(Opts, Stats);
  RNG Rng(43);
  ValueRange A = makeRange(Rng, 4, 4);
  ValueRange B = makeRange(Rng, 4, 4);
  for (auto _ : State)
    benchmark::DoNotOptimize(Ops.mul(A, B));
}
BENCHMARK(BM_RangeMul);

void BM_RangeMeet(benchmark::State &State) {
  VRPOptions Opts;
  RangeStats Stats;
  RangeOps Ops(Opts, Stats);
  RNG Rng(44);
  std::vector<std::pair<ValueRange, double>> Entries;
  for (unsigned I = 0; I < 4; ++I)
    Entries.push_back({makeRange(Rng, 3, 4), 0.25});
  for (auto _ : State)
    benchmark::DoNotOptimize(Ops.meetWeighted(Entries));
}
BENCHMARK(BM_RangeMeet);

void BM_RangeCmpProb(benchmark::State &State) {
  VRPOptions Opts;
  RangeStats Stats;
  RangeOps Ops(Opts, Stats);
  RNG Rng(45);
  ValueRange A = makeRange(Rng, 4, 4);
  ValueRange B = makeRange(Rng, 4, 4);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        Ops.cmpProb(CmpPred::LT, A, B, nullptr, nullptr));
}
BENCHMARK(BM_RangeCmpProb);

void BM_RangeAssert(benchmark::State &State) {
  VRPOptions Opts;
  RangeStats Stats;
  RangeOps Ops(Opts, Stats);
  RNG Rng(46);
  ValueRange A = makeRange(Rng, 4, 4);
  ValueRange Bound = ValueRange::intConstant(100);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        Ops.applyAssert(A, CmpPred::LT, Bound, nullptr));
}
BENCHMARK(BM_RangeAssert);

// Symbolic-bound coverage: bounds of the form n+k route every pair
// through the slow path (symbol materialization, symRank ordering).

void BM_RangeAddSymbolic(benchmark::State &State) {
  VRPOptions Opts;
  RangeStats Stats;
  RNG Rng(47);
  Param N(IRType::Int, "n", 0, nullptr);
  ValueRange A = makeSymRange(Rng, &N, 3, 4);
  ValueRange B = makeRange(Rng, 2, 4);
  for (auto _ : State) {
    RangeOps Ops(Opts, Stats);
    benchmark::DoNotOptimize(Ops.add(A, B));
  }
}
BENCHMARK(BM_RangeAddSymbolic);

void BM_RangeMeetSymbolic(benchmark::State &State) {
  VRPOptions Opts;
  RangeStats Stats;
  RNG Rng(48);
  Param N(IRType::Int, "n", 0, nullptr);
  std::vector<std::pair<ValueRange, double>> Entries;
  for (unsigned I = 0; I < 3; ++I)
    Entries.push_back({makeSymRange(Rng, &N, 2, 4), 1.0 / 3});
  for (auto _ : State) {
    RangeOps Ops(Opts, Stats);
    benchmark::DoNotOptimize(Ops.meetWeighted(Entries));
  }
}
BENCHMARK(BM_RangeMeetSymbolic);

void BM_RangeCmpProbSymbolic(benchmark::State &State) {
  VRPOptions Opts;
  RangeStats Stats;
  RNG Rng(49);
  Param N(IRType::Int, "n", 0, nullptr);
  // i in [0 : n-1] vs n itself: the classic loop-test comparison.
  std::vector<SubRange> Pieces{
      SubRange(1.0, Bound(nullptr, 0), Bound(&N, -1), 1)};
  ValueRange A = ValueRange::ranges(std::move(Pieces), 4);
  ValueRange B = ValueRange::bottom();
  for (auto _ : State) {
    RangeOps Ops(Opts, Stats);
    benchmark::DoNotOptimize(Ops.cmpProb(CmpPred::LT, A, B, nullptr, &N));
  }
}
BENCHMARK(BM_RangeCmpProbSymbolic);

// Union/normalize: canonicalization of an over-cap piece set (sort,
// same-shape merge, renormalize, hull coalesce) — the path behind every
// kernel result and the old `ranges()` hot spot.

void BM_RangeUnionCoalesce(benchmark::State &State) {
  RNG Rng(50);
  std::vector<SubRange> Pieces;
  for (unsigned I = 0; I < 12; ++I) {
    int64_t Lo = Rng.nextInRange(-1000, 1000);
    int64_t Span = Rng.nextInRange(0, 100);
    Pieces.push_back(
        SubRange::numeric(1.0 / 12, Lo, Lo + Span, Span == 0 ? 0 : 1));
  }
  for (auto _ : State) {
    std::vector<SubRange> Copy = Pieces;
    benchmark::DoNotOptimize(ValueRange::ranges(std::move(Copy), 4));
  }
}
BENCHMARK(BM_RangeUnionCoalesce);

} // namespace

BENCHMARK_MAIN();
