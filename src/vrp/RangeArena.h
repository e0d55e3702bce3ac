//===- vrp/RangeArena.h - Arena/SoA storage for subrange sets ---*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Module-lifetime structure-of-arrays storage for canonical subrange
/// sets. Every `ValueRange` of kind Ranges holds a 32-bit *slice id* into
/// this arena instead of a heap `std::vector<SubRange>`; the arena stores
/// the subrange fields in six contiguous parallel columns
/// `{Prob, LoSym, LoOff, HiSym, HiOff, Stride}` so the hot kernels in
/// RangeOps iterate flat arrays instead of pointer-bearing structs.
///
/// All-numeric slices are *interned*: inserting a row set that is bitwise
/// identical to a previously inserted one returns the existing id, so
/// φ-heavy functions share storage module-wide and range equality has an
/// id-comparison fast path. Symbolic bounds store an interned 32-bit
/// symbol ordinal (0 = numeric) rather than a `const Value *`, keeping
/// rows pointer-free; the symbol table maps ordinals back to SSA values
/// on the slow path. Symbolic slices are arena-allocated but deliberately
/// *not* deduped: their identity involves SSA pointers, and heap address
/// reuse across function lifetimes would make cross-function identity —
/// and with it the intern counters — depend on the thread schedule.
///
/// The floating-point domain (docs/DOMAINS.md) stores its weighted
/// intervals as a *parallel column family* in the same arena: three
/// contiguous columns `{Prob, Lo, Hi}` (binary64 bounds) plus a per-slice
/// NaN probability mass, with its own slice-id space and intern map. FP
/// contents are always pointer-free, so every FP slice interns
/// module-wide; the NaN mass is part of the interned content (hashed and
/// compared by bit pattern) so an FP slice id alone identifies the full
/// lattice value.
///
/// Concurrency: insertion takes a mutex; reads are lock-free. Columns are
/// chunked with stable addresses (a slice never straddles a chunk), so a
/// published slice id can be dereferenced without synchronizing with later
/// growth. Ids travel between threads only through already-synchronized
/// channels (task queues, guarded result maps), which carries the
/// happens-before needed for the row data itself.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_VRP_RANGEARENA_H
#define VRP_VRP_RANGEARENA_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace vrp {

class Value;
struct SubRange;

/// One weighted floating-point interval `P[Lo:Hi]` (closed, binary64).
/// Probability mass inside an interval is assumed uniform; NaN mass is
/// carried per *slice*, not per interval (see RangeArena::internFP).
struct FPInterval {
  double Prob = 0.0;
  double Lo = 0.0;
  double Hi = 0.0;

  FPInterval() = default;
  FPInterval(double Prob, double Lo, double Hi)
      : Prob(Prob), Lo(Lo), Hi(Hi) {}

  bool isSingleton() const { return Lo == Hi; }
};

class RangeArena {
public:
  /// Rows per chunk; also the maximum slice size. Matches the subrange
  /// count cap enforced by the PersistentCache deserializer, so any range
  /// the system can construct fits in one chunk.
  static constexpr uint32_t ChunkShift = 12;
  static constexpr uint32_t ChunkRows = 1u << ChunkShift;
  static constexpr uint32_t MaxSliceRows = ChunkRows;

  /// The process-wide arena. Ranges are interned module-wide (in fact
  /// process-wide): ids from different modules coexist harmlessly because
  /// interning keys on content.
  static RangeArena &global();

  /// SoA view of one slice: six parallel columns of length `Count`.
  /// `LoSym`/`HiSym` are symbol ordinals (0 = numeric bound).
  struct Rows {
    const double *Prob = nullptr;
    const int64_t *LoOff = nullptr;
    const int64_t *HiOff = nullptr;
    const int64_t *Stride = nullptr;
    const uint32_t *LoSym = nullptr;
    const uint32_t *HiSym = nullptr;
    uint32_t Count = 0;
    bool AllNumeric = true;
  };

  /// Interns \p N subranges as one slice and returns its id; bitwise
  /// identical content (probability compared by bit pattern, symbols by
  /// identity) returns the existing id. N == 0 returns the empty slice 0.
  uint32_t intern(const SubRange *Subs, uint32_t N);

  /// Starts a new counting epoch (registered as a telemetry reset hook).
  /// The arena's contents outlive any one telemetry run, so the intern
  /// counters are *epoch-relative*: the first intern of a given content
  /// within an epoch counts as a miss (and contributes its payload
  /// bytes), exactly as it would in a fresh process, making a run's
  /// counter totals a function of that run's work alone.
  void beginEpoch();

  /// Column view of a slice. Slice 0 yields an empty view.
  Rows rows(uint32_t SliceId) const;

  /// Materializes row \p I of a slice as a SubRange value.
  SubRange row(uint32_t SliceId, uint32_t I) const;

  uint32_t sliceSize(uint32_t SliceId) const;
  bool sliceAllNumeric(uint32_t SliceId) const;

  //===--------------------------------------------------------------------===
  // Floating-point column family (docs/DOMAINS.md)
  //===--------------------------------------------------------------------===

  /// SoA view of one FP slice: three parallel columns of length `Count`
  /// plus the slice-level NaN probability mass.
  struct FPRows {
    const double *Prob = nullptr;
    const double *Lo = nullptr;
    const double *Hi = nullptr;
    uint32_t Count = 0;
    double NaNMass = 0.0;
  };

  /// Interns \p N weighted FP intervals plus the slice's NaN probability
  /// mass as one FP slice and returns its id. FP slice ids are a separate
  /// id space from integer slice ids (a ValueRange's kind disambiguates).
  /// All FP contents are pointer-free, so every FP slice interns
  /// module-wide; \p NaNMass participates in the content hash and the
  /// dedup compare (by bit pattern), making slice id -> NaN mass
  /// injective — which id equality relies on. N == 0 with zero NaN
  /// mass returns the empty slice 0; N == 0 with positive NaN mass is the
  /// pure-NaN range and interns a rowless slice.
  uint32_t internFP(const FPInterval *Subs, uint32_t N, double NaNMass);

  /// Column view of an FP slice. Slice 0 yields an empty view.
  FPRows fpRows(uint32_t SliceId) const;

  uint32_t fpSliceSize(uint32_t SliceId) const;
  double fpNaNMass(uint32_t SliceId) const;

  /// Symbol ordinal -> SSA value (0 -> nullptr).
  const Value *symValue(uint32_t SymId) const;

private:
  RangeArena();
  RangeArena(const RangeArena &) = delete;
  RangeArena &operator=(const RangeArena &) = delete;

  struct RowChunk {
    double Prob[ChunkRows];
    int64_t LoOff[ChunkRows];
    int64_t HiOff[ChunkRows];
    int64_t Stride[ChunkRows];
    uint32_t LoSym[ChunkRows];
    uint32_t HiSym[ChunkRows];
  };

  struct SliceInfo {
    uint32_t RowBegin = 0;
    uint16_t Count = 0;
    uint16_t AllNumeric = 1;
    /// Last epoch this content was interned in (counting only; written
    /// under Mu, never read by the lock-free accessors).
    uint32_t Epoch = 0;
  };

  struct SliceChunk {
    SliceInfo Infos[ChunkRows];
  };

  struct SymChunk {
    const Value *Syms[ChunkRows];
  };

  /// FP column family: same chunked-stable-address discipline as the
  /// integer rows, but only three double columns and a per-slice NaN mass.
  struct FPRowChunk {
    double Prob[ChunkRows];
    double Lo[ChunkRows];
    double Hi[ChunkRows];
  };

  struct FPSliceInfo {
    uint32_t RowBegin = 0;
    uint16_t Count = 0;
    uint32_t Epoch = 0; ///< See SliceInfo::Epoch.
    double NaNMass = 0.0;
  };

  struct FPSliceChunk {
    FPSliceInfo Infos[ChunkRows];
  };

  static constexpr uint32_t MaxChunks = 1u << 15; // 2^27 rows / slices.

  RowChunk *rowChunk(uint32_t Index) const;
  const SliceInfo &sliceInfo(uint32_t SliceId) const;
  const FPSliceInfo &fpSliceInfo(uint32_t SliceId) const;
  uint32_t symId(const Value *V); // Under Mu.

  mutable std::mutex Mu;
  uint32_t NextRow = 0;   // Global row cursor (chunk-padded).
  uint32_t NextSlice = 1; // Slice 0 is the reserved empty slice.
  uint32_t NextSym = 1;   // Symbol 0 is the numeric bound.
  uint32_t NextFPRow = 0;   // FP row cursor (chunk-padded).
  uint32_t NextFPSlice = 1; // FP slice 0 is the reserved empty slice.
  uint32_t CurrentEpoch = 1; // Counting epoch; SliceInfo::Epoch 0 = stale.

  std::atomic<RowChunk *> RowChunks[MaxChunks];
  std::atomic<SliceChunk *> SliceChunks[MaxChunks];
  std::atomic<SymChunk *> SymChunks[MaxChunks];
  std::atomic<FPRowChunk *> FPRowChunks[MaxChunks];
  std::atomic<FPSliceChunk *> FPSliceChunks[MaxChunks];

  /// Content hash -> slice ids with that hash (collision list).
  std::unordered_map<uint64_t, std::vector<uint32_t>> InternMap;
  std::unordered_map<uint64_t, std::vector<uint32_t>> FPInternMap;
  std::unordered_map<const Value *, uint32_t> SymIds;

  /// Scratch symbol-ordinal buffers for the row being interned (guarded
  /// by Mu; member to avoid per-call allocation).
  std::vector<uint32_t> ScratchLoSym, ScratchHiSym;
};

} // namespace vrp

#endif // VRP_VRP_RANGEARENA_H
