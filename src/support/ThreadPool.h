//===- support/ThreadPool.h - Fixed worker pool -----------------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size worker pool for the evaluation harness's benchmark
/// fan-out (`evaluateSuite`); one module is always analyzed on one
/// thread. Work is handed out as index ranges [0, N) and results are
/// written to index-addressed slots, so `parallelMap` returns results in
/// exactly the order a serial loop would have produced them — parallelism
/// never changes observable output, only wall-clock time.
///
/// The calling thread participates in every job, so a pool built with
/// `ThreadCount <= 1` (or when `hardware_concurrency` is unknown) spawns no
/// workers at all and degrades to a plain serial loop with no locking on
/// the hot path.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_SUPPORT_THREADPOOL_H
#define VRP_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace vrp {

/// One failed task of a parallel job: which index threw, and what.
struct TaskFailure {
  size_t Index = 0;
  std::exception_ptr Error;
};

/// Aggregate of every task failure in one parallel job. Derives from
/// std::runtime_error so callers that only care about "the job failed"
/// keep working; fault-aware callers inspect failures() for the complete
/// per-index picture instead of just the first loser.
class ParallelError : public std::runtime_error {
public:
  explicit ParallelError(std::vector<TaskFailure> Failures);

  /// Every failure, sorted by index.
  const std::vector<TaskFailure> &failures() const { return Failures_; }

  /// Renders one captured failure's message ("<unknown exception>" for
  /// non-std exceptions).
  static std::string describe(const std::exception_ptr &Error);

private:
  std::vector<TaskFailure> Failures_;
};

class ThreadPool {
public:
  /// Hard ceiling on pool size. Requests above it (e.g. an unsigned
  /// wraparound from parsing a negative CLI value) are clamped instead of
  /// exhausting the process's thread quota.
  static constexpr unsigned MaxThreads = 256;

  /// Builds a pool of \p ThreadCount total participants (the caller counts
  /// as one, so ThreadCount-1 workers are spawned; <= 1 spawns none).
  /// Counts above MaxThreads are clamped.
  explicit ThreadPool(unsigned ThreadCount);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total participants including the calling thread (>= 1).
  unsigned threadCount() const { return NumThreads; }

  /// Resolves a requested thread count against the hardware: 0 means
  /// "auto" (hardware_concurrency, or 1 when that is unknown); anything
  /// else is taken literally.
  static unsigned resolveThreadCount(unsigned Requested);

  /// Runs Body(0) .. Body(N-1), distributing indices over the pool. The
  /// caller participates and the call returns only after every index has
  /// completed. Task exceptions never abandon the job: every remaining
  /// index still runs, and the collected failures are thrown as one
  /// ParallelError. One job at a time: parallelFor must not be re-entered
  /// from inside a Body running on the same pool.
  void parallelFor(size_t N, const std::function<void(size_t)> &Body);

  /// Like parallelFor, but returns the per-index failures (sorted by
  /// index, empty on full success) instead of throwing. This is the
  /// fault-isolation primitive: evaluateSuite uses it to record failed
  /// benchmarks structurally while the rest of the fan-out completes.
  std::vector<TaskFailure>
  parallelForCollect(size_t N, const std::function<void(size_t)> &Body);

  /// parallelFor that collects Fn(I) into slot I of the result vector, so
  /// the output order matches the serial loop exactly.
  template <typename R, typename Fn>
  std::vector<R> parallelMap(size_t N, Fn &&F) {
    std::vector<R> Out(N);
    parallelFor(N, [&](size_t I) { Out[I] = F(I); });
    return Out;
  }

private:
  /// One batch of indices being distributed.
  struct Job {
    const std::function<void(size_t)> *Body = nullptr;
    size_t N = 0;
    uint64_t Seq = 0;
    std::atomic<size_t> Next{0};
    std::atomic<size_t> Done{0};
    std::vector<TaskFailure> Failures; ///< Guarded by pool mutex.
  };

  void workerLoop();
  void runJob(Job &J);

  unsigned NumThreads = 1;
  std::vector<std::thread> Workers;
  std::mutex M;
  std::condition_variable WorkCv; ///< Workers wait here for a job.
  std::condition_variable DoneCv; ///< The caller waits here for completion.
  std::shared_ptr<Job> Current;
  uint64_t JobSeq = 0;
  bool Stopping = false;
};

} // namespace vrp

#endif // VRP_SUPPORT_THREADPOOL_H
