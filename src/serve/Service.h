//===- serve/Service.h - Resident analysis service --------------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport-independent core of predictord: a resident object that
/// keeps the expensive state of a one-shot predictor_tool run alive
/// across requests — the persistent result cache stays open (its
/// single-writer lock held for the daemon's lifetime), and clean
/// responses are memoized so a repeated source costs a hash lookup.
///
/// handle() is the whole request lifecycle:
///
///   - `ping` / `stats` answer from resident state without analysis;
///   - `predict` compiles the source and renders the *identical* report
///     predictor_tool prints for the same file — bitwise, enforced by
///     scripts/check.sh — via driver/Pipeline's renderPredictionReport;
///   - `analyze` returns the same per-branch decisions (driver/Pipeline's
///     reportedBranches) as deterministic JSON (hex-float probabilities,
///     module order);
///   - failures come back as structured error responses carrying the
///     pipeline's category/site/message, never as a dropped connection;
///   - a transient fault (injected, or an escaped exception) is retried
///     exactly once after a short backoff — the same supervision policy
///     eval/SuiteRunner applies to its workers;
///   - each request's persistent-cache inserts buffer under a private
///     scope and commit only after the request succeeded, so concurrent
///     requests never interleave half-finished results into the store.
///
/// Thread safety: handle() may be called from any number of worker
/// threads concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_SERVE_SERVICE_H
#define VRP_SERVE_SERVICE_H

#include "serve/Protocol.h"
#include "support/Status.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace vrp {
class PersistentCache;
} // namespace vrp

namespace vrp::serve {

struct ServiceConfig {
  /// Persistent result cache path; empty = uncached. Unlike
  /// predictor_tool (which warns and runs uncached), a daemon asked to
  /// serve from a cache it cannot lock refuses to start.
  std::string CachePath;
  /// Memoize clean (ok, undegraded-by-policy, deadline-free) responses.
  bool ResponseMemo = true;
  /// Deadline applied to requests that do not carry their own; 0 = none.
  uint64_t DefaultDeadlineMs = 0;
};

/// Monotonic service counters (surfaced by `stats`).
struct ServiceCounters {
  uint64_t Requests = 0;
  uint64_t Failures = 0;
  uint64_t DegradedResponses = 0;
  uint64_t MemoHits = 0;
  uint64_t Retries = 0; ///< Transient-fault second attempts.
};

class Service {
public:
  /// Builds the resident state; opens (and locks) the persistent cache
  /// when configured. Null + \p Why on failure.
  static std::unique_ptr<Service> create(const ServiceConfig &Config,
                                         Status *Why = nullptr);
  ~Service();

  /// Serves one request. \p ForceDegrade is the admission controller's
  /// overload verdict: the request runs under a one-step propagation
  /// budget, so every function takes the existing budget-degradation
  /// path to its Ball–Larus answer (unless the persistent cache can
  /// serve the full result for free, in which case the response is
  /// simply not degraded).
  Response handle(const Request &Req, bool ForceDegrade = false);

  ServiceCounters counters() const;
  /// Deterministic JSON of counters() plus persistent-cache statistics.
  std::string statsJson() const;

  PersistentCache *pcache() { return PCache.get(); }

private:
  Service() = default;
  Response attempt(const Request &Req, bool ForceDegrade);

  ServiceConfig Config;
  std::unique_ptr<PersistentCache> PCache;

  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> Failures{0};
  std::atomic<uint64_t> DegradedResponses{0};
  std::atomic<uint64_t> MemoHits{0};
  std::atomic<uint64_t> Retries{0};
  std::atomic<uint64_t> Seq{0}; ///< Private per-request scope numbering.

  mutable std::mutex MemoM;
  /// Memo key (method/predictor/flags/source fingerprint) -> the exact
  /// response served before, minus the echoed id.
  std::unordered_map<uint64_t, Response> Memo;
};

} // namespace vrp::serve

#endif // VRP_SERVE_SERVICE_H
