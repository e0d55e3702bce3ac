//===- vrp/RangeArena.h - Arena/SoA storage for subrange sets ---*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structure-of-arrays storage for canonical subrange sets. Every
/// `ValueRange` of kind Ranges holds its arena and a 32-bit *slice id*
/// into it instead of a heap `std::vector<SubRange>`; the arena stores
/// the subrange fields in six contiguous parallel columns
/// `{Prob, LoSym, LoOff, HiSym, HiOff, Stride}` so the hot kernels in
/// RangeOps iterate flat arrays instead of vectors of structs.
///
/// Ownership: one arena per analysis. `runModuleVRP` and a standalone
/// `propagateRanges` each create one, and the results they return own it
/// through a `std::shared_ptr` (`FunctionVRPResult::Arena`), so the
/// storage is freed when the last result that uses it dies. An
/// incremental run gets a fresh arena that holds its predecessor's arena
/// alive, because its rebound results keep handles into that one
/// (DESIGN.md §6.1). Writers intern into the thread's *current* arena,
/// installed by a `RangeArena::Scope`; outside every scope that is the
/// thread's default arena, which unit tests and examples use and which
/// dies with its thread. A handle points at its arena, so it is read
/// through that arena from any thread for as long as the arena lives.
///
/// All-numeric slices are *interned*: inserting a row set that is bitwise
/// identical to one already in the arena returns the existing id, so
/// φ-heavy functions share storage and range equality has an
/// id-comparison fast path. Symbolic bounds store their `const Value *`
/// in the `LoSym`/`HiSym` columns (null = numeric). Symbolic slices are
/// arena-allocated but deliberately *not* deduped: their identity
/// involves SSA pointers, and heap address reuse across function
/// lifetimes would make cross-function identity — and with it the
/// intern counters — depend on allocation history.
///
/// The floating-point domain (docs/DOMAINS.md) stores its weighted
/// intervals as a *parallel column family* in the same arena: three
/// contiguous columns `{Prob, Lo, Hi}` (binary64 bounds) plus a per-slice
/// NaN probability mass, with its own slice-id space and intern table. FP
/// contents are always pointer-free, so every FP slice interns; the NaN
/// mass is part of the interned content (hashed and compared by bit
/// pattern) so an FP slice id alone identifies the full lattice value.
///
/// Concurrency: one writer per arena. An analysis interns only into the
/// arena of the thread it runs on, a finished result's arena is never
/// written again (`FunctionVRPResult::rangeOf` interns a constant's range
/// into the *caller's* current arena), and a default arena belongs to
/// one thread. So nothing here locks: a finished result may be read from
/// any number of threads at once. Columns are chunked with stable
/// addresses (a slice never straddles a chunk), so a row pointer stays
/// valid while the arena grows.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_VRP_RANGEARENA_H
#define VRP_VRP_RANGEARENA_H

#include <cstdint>
#include <memory>
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

class RangeArena : public std::enable_shared_from_this<RangeArena> {
public:
  /// Rows per chunk; also the maximum slice size. Matches the subrange
  /// count cap enforced by the PersistentCache deserializer, so any range
  /// the system can construct fits in one chunk.
  static constexpr uint32_t ChunkShift = 12;
  static constexpr uint32_t ChunkRows = 1u << ChunkShift;
  static constexpr uint32_t MaxSliceRows = ChunkRows;

  /// An empty arena that keeps \p Predecessor (if any) alive as long as
  /// it lives. Costs no chunk until the first intern.
  explicit RangeArena(std::shared_ptr<const RangeArena> Predecessor = {});
  ~RangeArena();
  RangeArena(const RangeArena &) = delete;
  RangeArena &operator=(const RangeArena &) = delete;

  /// The arena this thread interns into: the innermost Scope's, else the
  /// thread's default arena.
  static RangeArena &current();

  /// This thread's default arena, created on first use and destroyed
  /// when the thread exits; nothing reachable from an analysis entry
  /// point writes to it.
  static RangeArena &defaultArena();

  /// The innermost Scope's arena, or a fresh one holding \p Predecessor
  /// when no Scope is active on this thread: how a result made outside an
  /// analysis gets storage of its own.
  static std::shared_ptr<RangeArena>
  joinOrCreate(std::shared_ptr<const RangeArena> Predecessor = {});

  /// Number of live arenas, the threads' default arenas included once
  /// created.
  static unsigned liveCount();

  /// Makes \p A this thread's current arena until the scope ends; a null
  /// \p A keeps the current one. The caller keeps \p A alive.
  class Scope {
  public:
    explicit Scope(const std::shared_ptr<RangeArena> &A);
    Scope(std::shared_ptr<RangeArena> &&) = delete;
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    RangeArena *Prev;
  };

  /// SoA view of one slice: six parallel columns of length `Count`.
  /// `LoSym`/`HiSym` hold each bound's SSA value (null = numeric bound).
  struct Rows {
    const double *Prob = nullptr;
    const int64_t *LoOff = nullptr;
    const int64_t *HiOff = nullptr;
    const int64_t *Stride = nullptr;
    const Value *const *LoSym = nullptr;
    const Value *const *HiSym = nullptr;
    uint32_t Count = 0;
    bool AllNumeric = true;
  };

  /// Interns \p N subranges as one slice and returns its id; bitwise
  /// identical all-numeric content (probability compared by bit pattern)
  /// returns the existing id. N == 0 returns the empty slice 0.
  uint32_t intern(const SubRange *Subs, uint32_t N);

  /// Column view of a slice. Slice 0 yields an empty view.
  Rows rows(uint32_t SliceId) const;

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
  /// All FP contents are pointer-free, so every FP slice interns;
  /// \p NaNMass participates in the content hash and the dedup compare
  /// (by bit pattern), making slice id -> NaN mass injective — which id
  /// equality relies on. N == 0 with zero NaN mass returns the empty
  /// slice 0; N == 0 with positive NaN mass is the pure-NaN range and
  /// interns a rowless slice.
  uint32_t internFP(const FPInterval *Subs, uint32_t N, double NaNMass);

  /// Column view of an FP slice. Slice 0 yields an empty view.
  FPRows fpRows(uint32_t SliceId) const;

  /// Intern calls this arena has answered, hits and misses, both
  /// families.
  uint64_t interns() const { return InternCalls; }

private:
  static constexpr uint32_t MaxChunks = 1u << 15; // 2^27 rows / slices.

  /// Chunks in allocation order. A chunk never moves, so row pointers
  /// into it survive later growth of the directory.
  template <class ChunkT> class ChunkDir {
  public:
    const ChunkT &get(uint32_t Index) const { return *Chunks[Index]; }
    /// Chunk \p Index, allocated on first use. Indices grow one at a
    /// time, so \p Index is an existing chunk or the next one.
    ChunkT &getOrCreate(uint32_t Index);

  private:
    std::vector<std::unique_ptr<ChunkT>> Chunks;
  };

  /// Content hash -> slice id, open addressing with linear probing. Ids
  /// are held directly, with no node or list per hash; contents whose
  /// hashes collide take successive probe slots.
  class InternTable {
  public:
    /// The stored id under \p Hash whose content \p Same accepts, else 0.
    template <class SameFn> uint32_t find(uint64_t Hash, SameFn Same) const;
    void insert(uint64_t Hash, uint32_t Id);

  private:
    struct Slot {
      uint64_t Hash;
      uint32_t Id; ///< 0 = empty.
    };
    size_t home(uint64_t Hash) const;
    void place(Slot S); ///< Into the first empty slot of its probe run.

    std::vector<Slot> Slots; ///< Empty, or a power-of-two size.
    unsigned LogSize = 0;
    uint32_t Used = 0;
  };

  struct RowChunk {
    double Prob[ChunkRows];
    int64_t LoOff[ChunkRows];
    int64_t HiOff[ChunkRows];
    int64_t Stride[ChunkRows];
    const Value *LoSym[ChunkRows];
    const Value *HiSym[ChunkRows];
  };

  /// No default member initializers: chunks are allocated uninitialized
  /// and every field is written when its slice is created.
  struct SliceInfo {
    uint32_t RowBegin;
    uint16_t Count;
    uint16_t AllNumeric;
  };

  struct SliceChunk {
    SliceInfo Infos[ChunkRows];
  };

  /// FP column family: same chunked-stable-address discipline as the
  /// integer rows, but only three double columns and a per-slice NaN mass.
  struct FPRowChunk {
    double Prob[ChunkRows];
    double Lo[ChunkRows];
    double Hi[ChunkRows];
  };

  struct FPSliceInfo {
    uint32_t RowBegin;
    uint32_t Count;
    double NaNMass;
  };

  struct FPSliceChunk {
    FPSliceInfo Infos[ChunkRows];
  };

  const SliceInfo &sliceInfo(uint32_t SliceId) const {
    return SliceChunks.get(SliceId >> ChunkShift)
        .Infos[SliceId & (ChunkRows - 1)];
  }
  const FPSliceInfo &fpSliceInfo(uint32_t SliceId) const {
    return FPSliceChunks.get(SliceId >> ChunkShift)
        .Infos[SliceId & (ChunkRows - 1)];
  }

  /// Arena whose handles this one's users still read.
  const std::shared_ptr<const RangeArena> Predecessor;

  uint32_t NextRow = 0;   // Row cursor (chunk-padded).
  uint32_t NextSlice = 1; // Slice 0 is the reserved empty slice.
  uint32_t NextFPRow = 0;   // FP row cursor (chunk-padded).
  uint32_t NextFPSlice = 1; // FP slice 0 is the reserved empty slice.
  uint64_t InternCalls = 0;

  ChunkDir<RowChunk> RowChunks;
  ChunkDir<SliceChunk> SliceChunks;
  ChunkDir<FPRowChunk> FPRowChunks;
  ChunkDir<FPSliceChunk> FPSliceChunks;

  InternTable Interned;
  InternTable FPInterned;
};

} // namespace vrp

#endif // VRP_VRP_RANGEARENA_H
