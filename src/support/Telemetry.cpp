//===- support/Telemetry.cpp - Pipeline metrics and timers ----------------===//

#include "support/Telemetry.h"

#include <mutex>
#include <sstream>
#include <vector>

namespace vrp {
namespace telemetry {

const char *counterName(Counter C) {
  switch (C) {
  case Counter::ParseRuns:
    return "parse_runs";
  case Counter::SemaRuns:
    return "sema_runs";
  case Counter::IRGenRuns:
    return "irgen_runs";
  case Counter::SSAConstructions:
    return "ssa_constructions";
  case Counter::AssertionInsertions:
    return "assertion_insertions";
  case Counter::VerifyRuns:
    return "verify_runs";
  case Counter::AnalysisCacheHits:
    return "analysis_cache_hits";
  case Counter::AnalysisCacheMisses:
    return "analysis_cache_misses";
  case Counter::AnalysisCacheInvalidations:
    return "analysis_cache_invalidations";
  case Counter::PropagationRuns:
    return "propagation_runs";
  case Counter::PropagationSteps:
    return "propagation_steps";
  case Counter::ExprEvaluations:
    return "expr_evaluations";
  case Counter::PhiEvaluations:
    return "phi_evaluations";
  case Counter::BranchEvaluations:
    return "branch_evaluations";
  case Counter::SubRangeOps:
    return "subrange_ops";
  case Counter::Meets:
    return "meets";
  case Counter::Widenings:
    return "widenings";
  case Counter::DerivationsTried:
    return "derivations_tried";
  case Counter::DerivationsMatched:
    return "derivations_matched";
  case Counter::BallLarusFallbackBranches:
    return "ball_larus_fallback_branches";
  case Counter::BudgetDegradations:
    return "budget_degradations";
  case Counter::DerivationStalls:
    return "derivation_stalls";
  case Counter::RangeNormalizations:
    return "range_normalizations";
  case Counter::TraceEventsRecorded:
    return "trace_events_recorded";
  case Counter::AuditChecks:
    return "audit_checks";
  case Counter::SoundnessViolations:
    return "soundness_violations";
  case Counter::FunctionsQuarantined:
    return "functions_quarantined";
  case Counter::SupervisorRetries:
    return "supervisor_retries";
  case Counter::PersistentCacheHits:
    return "pcache_hits";
  case Counter::PersistentCacheMisses:
    return "pcache_misses";
  case Counter::PersistentCacheEvictions:
    return "pcache_evictions";
  case Counter::PersistentCacheBytesWritten:
    return "pcache_bytes_written";
  case Counter::RangeInternHits:
    return "range_intern_hits";
  case Counter::RangeInternMisses:
    return "range_intern_misses";
  case Counter::RangeArenaPayloadBytes:
    return "range_arena_payload_bytes";
  case Counter::RangeKernelFastPath:
    return "range_kernel_fast_path";
  case Counter::RangeKernelSlowPath:
    return "range_kernel_slow_path";
  case Counter::RangeOpMemoHits:
    return "range_op_memo_hits";
  case Counter::InterprocSweeps:
    return "interproc_sweeps";
  case Counter::InterprocWaves:
    return "interproc_waves";
  case Counter::InterprocFunctionsReanalyzed:
    return "interproc_functions_reanalyzed";
  case Counter::IncrementalFunctionsReused:
    return "incremental_functions_reused";
  case Counter::FPRangeKernelOps:
    return "fp_range_kernel_ops";
  case Counter::FPCmpDecided:
    return "fp_cmp_decided";
  case Counter::AliasForwardedLoads:
    return "alias_forwarded_loads";
  case Counter::AliasWeightedLoads:
    return "alias_weighted_loads";
  case Counter::AliasBottomLoads:
    return "alias_bottom_loads";
  case Counter::AliasCensusBuilds:
    return "alias_census_builds";
  case Counter::ServeWorkerRestarts:
    return "serve_worker_restarts";
  case Counter::ServeReroutes:
    return "serve_reroutes";
  case Counter::ServeBreakerOpen:
    return "serve_breaker_open";
  case Counter::ServeHeartbeatTimeouts:
    return "serve_heartbeat_timeouts";
  case Counter::NumCounters:
    break;
  }
  return "unknown_counter";
}

const char *timerName(Timer T) {
  switch (T) {
  case Timer::Parse:
    return "parse";
  case Timer::Sema:
    return "sema";
  case Timer::IRGen:
    return "irgen";
  case Timer::SSAConstruction:
    return "ssa_construction";
  case Timer::AssertionInsertion:
    return "assertion_insertion";
  case Timer::Verify:
    return "verify";
  case Timer::Propagation:
    return "propagation";
  case Timer::Finalize:
    return "finalize";
  case Timer::NumTimers:
    break;
  }
  return "unknown_timer";
}

namespace detail {

std::atomic<bool> Enabled{false};

namespace {

/// All shard bookkeeping lives behind one mutex: the shard list, the
/// retired accumulator, and reset(). The hot path (bump) never takes it.
struct Registry {
  std::mutex M;
  std::vector<Shard *> Live;
  Snapshot Retired;
};

Registry &registry() {
  static Registry R;
  return R;
}

void foldInto(Snapshot &Out, const Shard &S) {
  for (unsigned I = 0; I < NumCounters; ++I)
    Out.Counters[I] += S.Counters[I].load(std::memory_order_relaxed);
  for (unsigned I = 0; I < NumTimers; ++I) {
    Out.TimerNanos[I] += S.TimerNanos[I].load(std::memory_order_relaxed);
    Out.TimerCalls[I] += S.TimerCalls[I].load(std::memory_order_relaxed);
  }
}

void zeroShard(Shard &S) {
  for (auto &C : S.Counters)
    C.store(0, std::memory_order_relaxed);
  for (auto &T : S.TimerNanos)
    T.store(0, std::memory_order_relaxed);
  for (auto &T : S.TimerCalls)
    T.store(0, std::memory_order_relaxed);
}

/// Owns one thread's shard; on thread exit folds it into Retired so its
/// counts survive (pool workers come and go between snapshots).
struct ShardHandle {
  Shard S;
  ShardHandle() {
    Registry &R = registry();
    std::lock_guard<std::mutex> L(R.M);
    R.Live.push_back(&S);
  }
  ~ShardHandle() {
    Registry &R = registry();
    std::lock_guard<std::mutex> L(R.M);
    foldInto(R.Retired, S);
    for (auto It = R.Live.begin(); It != R.Live.end(); ++It) {
      if (*It == &S) {
        R.Live.erase(It);
        break;
      }
    }
  }
};

} // namespace

Shard &localShard() {
  thread_local ShardHandle Handle;
  return Handle.S;
}

} // namespace detail

void setEnabled(bool On) {
  detail::Enabled.store(On, std::memory_order_relaxed);
}

Snapshot snapshot() {
  detail::Registry &R = detail::registry();
  std::lock_guard<std::mutex> L(R.M);
  Snapshot Out = R.Retired;
  for (const detail::Shard *S : R.Live)
    detail::foldInto(Out, *S);
  return Out;
}

void reset() {
  detail::Registry &R = detail::registry();
  std::lock_guard<std::mutex> L(R.M);
  R.Retired = Snapshot{};
  // Zero live shards in place: their owning threads cache the pointer,
  // so the storage must stay put.
  for (detail::Shard *S : R.Live)
    detail::zeroShard(*S);
}

std::string toText(const Snapshot &S) {
  std::ostringstream OS;
  for (unsigned I = 0; I < NumCounters; ++I)
    OS << counterName(static_cast<Counter>(I)) << " " << S.Counters[I]
       << "\n";
  return OS.str();
}

std::string toJson(const Snapshot &S, bool IncludeTimings) {
  std::ostringstream OS;
  OS << "{\n  \"counters\": {\n";
  for (unsigned I = 0; I < NumCounters; ++I) {
    OS << "    \"" << counterName(static_cast<Counter>(I))
       << "\": " << S.Counters[I];
    OS << (I + 1 < NumCounters ? ",\n" : "\n");
  }
  OS << "  }";
  if (IncludeTimings) {
    OS << ",\n  \"timings\": {\n";
    for (unsigned I = 0; I < NumTimers; ++I) {
      OS << "    \"" << timerName(static_cast<Timer>(I)) << "\": {\"ns\": "
         << S.TimerNanos[I] << ", \"calls\": " << S.TimerCalls[I] << "}";
      OS << (I + 1 < NumTimers ? ",\n" : "\n");
    }
    OS << "  }";
  }
  OS << "\n}\n";
  return OS.str();
}

} // namespace telemetry
} // namespace vrp
