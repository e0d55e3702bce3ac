//===- analysis/PersistentCache.h - Durable per-function VRP memo -*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent, content-addressed complement to AnalysisCache: a
/// per-function memo of complete `FunctionVRPResult`s that survives
/// process restarts (support/ResultStore.h provides the durable file;
/// docs/CACHE.md specifies the format). A warm run of runModuleVRP
/// restores a hit bitwise-identically and skips propagation entirely.
///
/// Content addressing makes staleness structurally impossible: the key is
/// a pure function of everything the propagation result depends on —
///
///   1. the function's structural hash (ir/StructuralHash.h: one walk
///      over every instruction, block and predecessor edge, constants by
///      bit pattern);
///   2. every result-affecting VRPOptions field;
///   3. the function's interprocedural context, i.e. the RESOLVED
///      parameter range of each formal and the RESOLVED return range of
///      each call site, exactly as the engine would observe them through
///      the PropagationContext hooks.
///
/// (3) is what makes incremental re-analysis sound in both dataflow
/// directions: editing a callee changes its return range, which changes
/// every caller's context fingerprint (the issue's "fold callee
/// fingerprints into the caller's key"), and editing a caller changes the
/// jump-function ranges flowing into its callees — either way exactly the
/// SCC-upward/-downward dependents re-analyze, nothing else.
///
/// Integration contract (kept by interproc/InterproceduralVRP.cpp and
/// eval/SuiteRunner.cpp):
///  - degraded results are never inserted; quarantined functions are
///    expunged before their benchmark's pending inserts commit;
///  - fault-injected runs (fault::armed()) and traced runs (Opts.Trace)
///    bypass the cache entirely;
///  - inserts buffer under the current benchmark scope
///    (fault::currentKey()) and reach disk only via commitScope() after
///    the benchmark — including its audit — succeeded;
///  - on a hit the engine's single AnalysisCache::dfs() touch is
///    replayed by the caller so AnalysisCache counters stay identical
///    cold vs. warm.
///
/// Determinism: lookups consult ResultStore's frozen-at-open snapshot, so
/// the hit/miss pattern — and therefore every derived counter — is
/// independent of thread count and schedule.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_ANALYSIS_PERSISTENTCACHE_H
#define VRP_ANALYSIS_PERSISTENTCACHE_H

#include "support/ResultStore.h"
#include "vrp/Propagation.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vrp {

class PersistentCache {
public:
  /// Store version, kept in the ResultStore header; bump on any change to
  /// serialize()'s output or the key recipe. A store written under
  /// another version is reset on open (its records count as evictions).
  /// Version 3 keys functions by structural hash instead of IR text;
  /// version 4 drops the two engine limits that became constants.
  static constexpr uint32_t FormatVersion = 4;

  /// serialize()'s own encoding version, the first line of every payload;
  /// bump on any change to serialize()'s output (and bump FormatVersion
  /// with it). Unchanged by a key-recipe change, so result fingerprints
  /// over serialize() stay comparable across one.
  static constexpr uint32_t PayloadVersion = 2;

  /// Opens (creating if absent) the cache file at \p Path. With \p Verify
  /// set, a hit does not skip analysis: the function is re-analyzed and
  /// the fresh serialization is compared byte-for-byte against the stored
  /// payload, counting a divergence on mismatch (predictor_tool
  /// --cache-verify exits 5 when any were seen). Returns null when the
  /// file cannot be opened for writing or another process holds the
  /// store's single-writer lock (support/ResultStore.h); \p Why, if
  /// non-null, then carries the structured reason.
  static std::unique_ptr<PersistentCache> open(const std::string &Path,
                                               bool Verify,
                                               Status *Why = nullptr);

  /// The content-addressed key for analyzing \p F under \p Opts in the
  /// interprocedural context \p Ctx (whose hooks are consulted for every
  /// formal parameter and call site).
  static std::string makeKey(const Function &F, const VRPOptions &Opts,
                             const PropagationContext &Ctx);

  /// Exact, deterministic serialization of a result: line-oriented text
  /// with hex-float doubles (bitwise round trips, support/Format.h) and
  /// pointer-free value references (instructions by dense id, params
  /// by index, constants by value), entries sorted so the bytes are
  /// independent of heap layout and thread schedule.
  static std::string serialize(const FunctionVRPResult &R);

  /// Rebuilds a result for \p F from serialize() output. Returns false
  /// (leaving \p Out unspecified) on any structural mismatch — the caller
  /// treats that as a miss. The ranges are interned into the active
  /// analysis's arena, or into a fresh one \p Out owns when none is
  /// active (RangeArena::joinOrCreate).
  static bool deserialize(const std::string &Payload, const Function &F,
                          FunctionVRPResult &Out);

  /// The in-memory twin of deserialize(): rebinds \p Prev, a result for
  /// a structurally identical function (equal structural hashes), onto
  /// \p F by ordinal — instruction id to instruction, parameter index to
  /// parameter — with no bytes written or read. Numeric range handles
  /// are copied as they are; only symbolic slices are interned again,
  /// with their symbols remapped, walking \p Prev's function in ordinal
  /// order so the arena sees the same sequence on every run. Makes the
  /// same structural checks as deserialize() (same block count, every id
  /// present with the same opcode, branches are CondBrInsts) and returns
  /// false on any mismatch, leaving \p Out unspecified. \p Prev's
  /// function must still be alive. The symbolic slices go to the active
  /// analysis's arena, which must hold \p Prev's (an incremental run's
  /// does), or else to a fresh arena \p Out owns that holds \p Prev's.
  static bool rebind(const FunctionVRPResult &Prev, const Function &F,
                     FunctionVRPResult &Out);

  /// Snapshot lookup. On a hit restores into \p Out and, when \p
  /// RawPayload is non-null, also hands back the stored bytes (for the
  /// verify comparison). The hit is remembered under the current scope so
  /// a later expunge() of this function can tombstone it.
  bool lookup(const std::string &Key, const Function &F,
              FunctionVRPResult &Out, std::string *RawPayload = nullptr);

  /// Buffers (Key -> serialize(R)) under the current benchmark scope.
  /// Never call with a degraded result.
  void insert(const std::string &Key, const FunctionVRPResult &R);

  /// Removes any pending insert for function \p FnName in the current
  /// scope and tombstones any snapshot hit served for it — a quarantined
  /// function's results must not survive in the store.
  void expunge(const std::string &FnName);

  /// Appends the current scope's pending records to disk (call after the
  /// benchmark — including its audit — succeeded).
  void commitScope();

  /// Drops the current scope's pending records (failed benchmark).
  void discardScope();

  /// Records one verify-mode divergence (stored payload != fresh bytes).
  void noteDivergence() { Divergences.fetch_add(1); }
  uint64_t divergences() const { return Divergences.load(); }
  bool verifyMode() const { return Verify; }

  store::ResultStoreStats stats() const { return Store->stats(); }

private:
  PersistentCache() = default;

  struct Touched {
    std::string FnName;
    std::string Key;
    std::string Payload;    ///< Pending insert bytes; empty for a hit.
    bool FromSnapshot = false;
  };

  std::unique_ptr<store::ResultStore> Store;
  bool Verify = false;
  std::atomic<uint64_t> Divergences{0};
  std::mutex M;
  /// Benchmark scope (fault::currentKey()) -> hits served and inserts
  /// pending in that scope.
  std::map<std::string, std::vector<Touched>> Scopes;
};

} // namespace vrp

#endif // VRP_ANALYSIS_PERSISTENTCACHE_H
