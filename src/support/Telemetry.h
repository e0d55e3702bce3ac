//===- support/Telemetry.h - Pipeline metrics and timers --------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Low-overhead counters and scoped monotonic-clock timers for every
/// pipeline pass. The design goals, in priority order:
///
///  1. Near-zero cost while disabled (the default): every hook is one
///     relaxed atomic load and a predictable branch. Disabled-mode
///     overhead on the full evaluation suite is asserted <2% by
///     bench/micro_telemetry.
///  2. Deterministic counters under parallelism: each thread counts into
///     its own shard; a thread's shard is folded into a retired
///     accumulator when the thread exits, and `snapshot()` merges the
///     retired accumulator with the live shards by commutative summation.
///     Counter totals therefore depend only on the work performed — which
///     the parallel evaluation engine guarantees is schedule-independent
///     — so the non-timing half of a stats report is bitwise identical at
///     any thread count.
///  3. Honest timings: wall-clock is inherently nondeterministic, so
///     `toJson()` segregates every timer under a single top-level
///     `"timings"` key that reproducibility checks (scripts/check.sh,
///     TelemetryDeterminismTest) strip before comparing.
///
/// Shard slots are single-writer (the owning thread); `snapshot()` reads
/// them with relaxed loads, so concurrent reporting is race-free without
/// paying for atomic read-modify-write on the hot path.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_SUPPORT_TELEMETRY_H
#define VRP_SUPPORT_TELEMETRY_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace vrp {
namespace telemetry {

/// Everything the pipeline counts, one slot per pass-level event. Names
/// (counterName) follow the enum in snake_case and are stable JSON keys.
enum class Counter : unsigned {
  // Front end / middle end, one per pass run.
  ParseRuns,
  SemaRuns,
  IRGenRuns,
  SSAConstructions,
  AssertionInsertions,
  VerifyRuns,
  // Analysis-cache efficiency.
  AnalysisCacheHits,
  AnalysisCacheMisses,
  AnalysisCacheInvalidations,
  // The propagation engine.
  PropagationRuns,
  PropagationSteps,
  ExprEvaluations,
  PhiEvaluations,
  BranchEvaluations,
  SubRangeOps,
  Meets,
  Widenings,
  DerivationsTried,
  DerivationsMatched,
  // Fallback / degradation events.
  BallLarusFallbackBranches,
  BudgetDegradations,
  DerivationStalls,
  // Lattice bookkeeping.
  RangeNormalizations,
  TraceEventsRecorded,
  // Soundness sentinel (vrp/Audit.h) and quarantine.
  AuditChecks,
  SoundnessViolations,
  FunctionsQuarantined,
  // Suite supervision (eval/SuiteRunner.h).
  SupervisorRetries,
  // Persistent result cache (analysis/PersistentCache.h).
  PersistentCacheHits,
  PersistentCacheMisses,
  PersistentCacheEvictions,
  PersistentCacheBytesWritten,
  // Arena/SoA range storage (vrp/RangeArena.h) and the range kernels.
  // All are functions of the analysis work alone — interning resolves
  // first-writer races to the same id, payload bytes exclude chunk
  // padding, and each analysis interns into an arena of its own (an
  // incremental run continues its predecessor's) — so they stay inside
  // the deterministic (non-timing) half of the report.
  RangeInternHits,
  RangeInternMisses,
  RangeArenaPayloadBytes,
  RangeKernelFastPath,
  RangeKernelSlowPath,
  // Retired, always 0: RangeOps no longer memoizes whole operations. Kept
  // because the benchmark harness (vrpbench/Harness.cpp) still reads it.
  RangeOpMemoHits,
  // Interprocedural SCC-wave scheduler (interproc/InterproceduralVRP.cpp).
  // Sweeps, waves and the (re-)analyzed / reused function counts are pure
  // functions of the module and the dirty set, so they sit in the
  // deterministic half of the report.
  InterprocSweeps,
  InterprocWaves,
  InterprocFunctionsReanalyzed,
  IncrementalFunctionsReused,
  // Floating-point interval kernels and probabilistic load aliasing
  // (docs/DOMAINS.md). Deterministic: pure functions of the analysis work.
  FPRangeKernelOps,
  FPCmpDecided,
  AliasForwardedLoads,
  AliasWeightedLoads,
  AliasBottomLoads,
  AliasCensusBuilds,
  // Fleet supervision (serve/Supervisor.h). Unlike everything above,
  // these count *fault* events — crashes, timeouts, failovers — so they
  // are inherently schedule-dependent and live in the
  // determinism-EXEMPT half of any report (docs/TELEMETRY.md).
  ServeWorkerRestarts,
  ServeReroutes,
  ServeBreakerOpen,
  ServeHeartbeatTimeouts,

  NumCounters ///< Sentinel; keep last.
};

/// Scoped wall-clock timers, one per pipeline stage.
enum class Timer : unsigned {
  Parse,
  Sema,
  IRGen,
  SSAConstruction,
  AssertionInsertion,
  Verify,
  Propagation,
  Finalize,

  NumTimers ///< Sentinel; keep last.
};

constexpr unsigned NumCounters = static_cast<unsigned>(Counter::NumCounters);
constexpr unsigned NumTimers = static_cast<unsigned>(Timer::NumTimers);

/// Stable snake_case identifier (used as the JSON key).
const char *counterName(Counter C);
const char *timerName(Timer T);

namespace detail {

/// One thread's slice of the counters. Slots are relaxed atomics written
/// only by the owning thread (plain-add codegen via load+store) so that a
/// concurrent snapshot is formally race-free.
struct Shard {
  std::atomic<uint64_t> Counters[NumCounters];
  std::atomic<uint64_t> TimerNanos[NumTimers];
  std::atomic<uint64_t> TimerCalls[NumTimers];

  Shard() {
    for (auto &C : Counters)
      C.store(0, std::memory_order_relaxed);
    for (auto &T : TimerNanos)
      T.store(0, std::memory_order_relaxed);
    for (auto &T : TimerCalls)
      T.store(0, std::memory_order_relaxed);
  }
};

extern std::atomic<bool> Enabled;

/// This thread's shard, registering it on first use. The shard is folded
/// into the retired accumulator when the thread exits.
Shard &localShard();

/// Single-writer increment: a relaxed load+store pair compiles to a plain
/// add while staying race-free against snapshot()'s relaxed loads.
inline void bump(std::atomic<uint64_t> &Slot, uint64_t N) {
  Slot.store(Slot.load(std::memory_order_relaxed) + N,
             std::memory_order_relaxed);
}

} // namespace detail

/// True when collection is armed. The hot-path hooks check this inline.
inline bool enabled() {
  return detail::Enabled.load(std::memory_order_relaxed);
}

/// Arms or disarms collection process-wide.
void setEnabled(bool On);

/// Adds \p N to \p C in this thread's shard. Free when disabled.
inline void count(Counter C, uint64_t N = 1) {
  if (!enabled())
    return;
  detail::bump(detail::localShard().Counters[static_cast<unsigned>(C)], N);
}

/// Accumulates elapsed wall-clock into a Timer slot for the enclosing
/// scope. Reads the monotonic clock only while telemetry is enabled.
class ScopedTimer {
public:
  explicit ScopedTimer(Timer T) : T(T), Active(enabled()) {
    if (Active)
      Start = std::chrono::steady_clock::now();
  }
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;
  ~ScopedTimer() {
    if (!Active)
      return;
    auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
    detail::Shard &S = detail::localShard();
    detail::bump(S.TimerNanos[static_cast<unsigned>(T)],
                 static_cast<uint64_t>(Ns));
    detail::bump(S.TimerCalls[static_cast<unsigned>(T)], 1);
  }

private:
  Timer T;
  bool Active;
  std::chrono::steady_clock::time_point Start;
};

/// A merged view of every shard (live and retired).
struct Snapshot {
  std::array<uint64_t, NumCounters> Counters{};
  std::array<uint64_t, NumTimers> TimerNanos{};
  std::array<uint64_t, NumTimers> TimerCalls{};

  uint64_t counter(Counter C) const {
    return Counters[static_cast<unsigned>(C)];
  }

  Snapshot &operator+=(const Snapshot &R) {
    for (unsigned I = 0; I < NumCounters; ++I)
      Counters[I] += R.Counters[I];
    for (unsigned I = 0; I < NumTimers; ++I) {
      TimerNanos[I] += R.TimerNanos[I];
      TimerCalls[I] += R.TimerCalls[I];
    }
    return *this;
  }
};

/// Deterministic merge of all shards: the retired accumulator plus every
/// live shard, summed slot-wise (addition is commutative, so the merge
/// order — and hence the thread schedule — cannot affect the result).
Snapshot snapshot();

/// Zeroes every shard and the retired accumulator. Collection state
/// (enabled/disabled) is unchanged.
void reset();

/// Renders the counter half of \p S as a text table (name, value).
std::string toText(const Snapshot &S);

/// Renders \p S as JSON: a "counters" object in enum order, then —
/// exactly when \p IncludeTimings — a trailing "timings" object with
/// {ns, calls} per timer. Everything outside "timings" is bitwise
/// deterministic for deterministic workloads.
std::string toJson(const Snapshot &S, bool IncludeTimings = true);

} // namespace telemetry
} // namespace vrp

#endif // VRP_SUPPORT_TELEMETRY_H
