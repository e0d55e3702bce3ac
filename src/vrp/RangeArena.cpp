//===- vrp/RangeArena.cpp - Arena/SoA storage for subrange sets ------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "vrp/RangeArena.h"

#include "support/Telemetry.h"
#include "vrp/ValueRange.h"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace vrp;

namespace {

/// Payload size of one row (the six column fields); chunk padding is
/// deliberately excluded so the telemetry byte count depends only on the
/// set of interned contents, not on interleaving order.
constexpr uint64_t RowPayloadBytes = sizeof(double) + 3 * sizeof(int64_t) +
                                     2 * sizeof(const Value *);

/// FP family: three double columns per row, plus one double of NaN mass
/// per slice (counted with the slice, not per row).
constexpr uint64_t FPRowPayloadBytes = 3 * sizeof(double);
constexpr uint64_t FPSlicePayloadBytes = sizeof(double);

inline uint64_t fnv1a(uint64_t Hash, uint64_t Word) {
  // 64-bit FNV-1a over one word, byte at a time unrolled by multiplier.
  constexpr uint64_t Prime = 1099511628211ull;
  for (int I = 0; I < 8; ++I) {
    Hash ^= (Word >> (I * 8)) & 0xff;
    Hash *= Prime;
  }
  return Hash;
}

inline uint64_t probBits(double P) {
  uint64_t Bits;
  std::memcpy(&Bits, &P, sizeof(Bits));
  return Bits;
}

/// Running out of slice ids or rows is a hard stop in every build type:
/// a wrapped id would silently alias another range.
[[noreturn]] void fatal(const char *What) {
  std::fprintf(stderr, "fatal: range arena: %s\n", What);
  std::abort();
}

std::atomic<unsigned> Live{0};

thread_local RangeArena *Active = nullptr;

} // namespace

//===----------------------------------------------------------------------===
// Chunk directory and intern table
//===----------------------------------------------------------------------===

template <class ChunkT>
ChunkT &RangeArena::ChunkDir<ChunkT>::getOrCreate(uint32_t Index) {
  assert(Index <= Chunks.size() && "chunks are allocated in order");
  if (Index == Chunks.size()) {
    if (Index >= MaxChunks)
      fatal("row or slice ids exhausted");
    // Uninitialized: every row is written before its slice id is returned.
    Chunks.emplace_back(new ChunkT);
  }
  return *Chunks[Index];
}

size_t RangeArena::InternTable::home(uint64_t Hash) const {
  // Fibonacci hashing: the product's top bits mix every bit of the hash.
  return static_cast<size_t>((Hash * 0x9E3779B97F4A7C15ull) >>
                             (64 - LogSize));
}

template <class SameFn>
uint32_t RangeArena::InternTable::find(uint64_t Hash, SameFn Same) const {
  if (Slots.empty())
    return 0;
  size_t Mask = Slots.size() - 1;
  for (size_t I = home(Hash);; I = (I + 1) & Mask) {
    const Slot &S = Slots[I];
    if (S.Id == 0)
      return 0;
    if (S.Hash == Hash && Same(S.Id))
      return S.Id;
  }
}

void RangeArena::InternTable::insert(uint64_t Hash, uint32_t Id) {
  if ((Used + 1) * 2 > Slots.size()) {
    // Keep the load factor at most 1/2.
    std::vector<Slot> Old = std::move(Slots);
    LogSize = Old.empty() ? 6 : LogSize + 1;
    Slots.assign(size_t(1) << LogSize, Slot{0, 0});
    for (const Slot &S : Old)
      if (S.Id != 0)
        place(S);
  }
  place(Slot{Hash, Id});
  ++Used;
}

void RangeArena::InternTable::place(Slot S) {
  size_t Mask = Slots.size() - 1;
  size_t I = home(S.Hash);
  while (Slots[I].Id != 0)
    I = (I + 1) & Mask;
  Slots[I] = S;
}

//===----------------------------------------------------------------------===
// Lifetime and the current arena
//===----------------------------------------------------------------------===

RangeArena::RangeArena(std::shared_ptr<const RangeArena> Predecessor)
    : Predecessor(std::move(Predecessor)) {
  ++Live;
}

RangeArena::~RangeArena() { --Live; }

RangeArena &RangeArena::defaultArena() {
  // An object, not a leaked pointer: each thread gets its own, freed
  // when the thread exits.
  thread_local RangeArena Default;
  return Default;
}

RangeArena &RangeArena::current() {
  return Active ? *Active : defaultArena();
}

std::shared_ptr<RangeArena>
RangeArena::joinOrCreate(std::shared_ptr<const RangeArena> Predecessor) {
  return Active ? Active->shared_from_this()
                : std::make_shared<RangeArena>(std::move(Predecessor));
}

unsigned RangeArena::liveCount() { return Live; }

RangeArena::Scope::Scope(const std::shared_ptr<RangeArena> &A)
    : Prev(Active) {
  if (A)
    Active = A.get();
}

RangeArena::Scope::~Scope() { Active = Prev; }

//===----------------------------------------------------------------------===
// Integer column family
//===----------------------------------------------------------------------===

uint32_t RangeArena::intern(const SubRange *Subs, uint32_t N) {
  if (N == 0)
    return 0;
  assert(N <= MaxSliceRows && "subrange set exceeds one arena chunk");

  ++InternCalls;
  bool AllNumeric = true;
  for (uint32_t I = 0; I < N; ++I)
    AllNumeric &= Subs[I].isNumeric();

  // Only pointer-free (all-numeric) contents intern. A symbolic content
  // embeds SSA pointers, and the allocator may reuse a dead function's
  // addresses for a later function's values — cross-function identity
  // would then depend on heap layout. Symbolic sets get arena rows but
  // no dedup; each insertion reports as a miss, so all three intern
  // counters stay functions of the work alone.
  uint64_t Hash = 0;
  if (AllNumeric) {
    Hash = 14695981039346656037ull ^ N;
    for (uint32_t I = 0; I < N; ++I) {
      Hash = fnv1a(Hash, probBits(Subs[I].Prob));
      Hash = fnv1a(Hash, static_cast<uint64_t>(Subs[I].Lo.Offset));
      Hash = fnv1a(Hash, static_cast<uint64_t>(Subs[I].Hi.Offset));
      Hash = fnv1a(Hash, static_cast<uint64_t>(Subs[I].Stride));
    }
    uint32_t Found = Interned.find(Hash, [&](uint32_t Candidate) {
      const SliceInfo &Info = sliceInfo(Candidate);
      if (Info.Count != N)
        return false;
      const RowChunk &C = RowChunks.get(Info.RowBegin >> ChunkShift);
      uint32_t Base = Info.RowBegin & (ChunkRows - 1);
      for (uint32_t I = 0; I < N; ++I)
        if (probBits(C.Prob[Base + I]) != probBits(Subs[I].Prob) ||
            C.LoOff[Base + I] != Subs[I].Lo.Offset ||
            C.HiOff[Base + I] != Subs[I].Hi.Offset ||
            C.Stride[Base + I] != Subs[I].Stride)
          return false;
      return true;
    });
    if (Found != 0) {
      telemetry::count(telemetry::Counter::RangeInternHits);
      return Found;
    }
  }

  // New content: allocate rows. A slice never straddles a chunk — pad the
  // cursor to the next chunk when the remainder cannot hold N rows.
  uint32_t Offset = NextRow & (ChunkRows - 1);
  if (Offset + N > ChunkRows)
    NextRow = (NextRow + ChunkRows - 1) & ~(ChunkRows - 1);
  uint32_t RowBegin = NextRow;
  RowChunk &C = RowChunks.getOrCreate(RowBegin >> ChunkShift);
  uint32_t Base = RowBegin & (ChunkRows - 1);
  for (uint32_t I = 0; I < N; ++I) {
    C.Prob[Base + I] = Subs[I].Prob;
    C.LoOff[Base + I] = Subs[I].Lo.Offset;
    C.HiOff[Base + I] = Subs[I].Hi.Offset;
    C.Stride[Base + I] = Subs[I].Stride;
    C.LoSym[Base + I] = Subs[I].Lo.Sym;
    C.HiSym[Base + I] = Subs[I].Hi.Sym;
  }
  NextRow = RowBegin + N;

  uint32_t SliceId = NextSlice++;
  SliceInfo &Info = SliceChunks.getOrCreate(SliceId >> ChunkShift)
                        .Infos[SliceId & (ChunkRows - 1)];
  Info.RowBegin = RowBegin;
  Info.Count = static_cast<uint16_t>(N);
  Info.AllNumeric = AllNumeric ? 1 : 0;
  if (AllNumeric)
    Interned.insert(Hash, SliceId);

  telemetry::count(telemetry::Counter::RangeInternMisses);
  telemetry::count(telemetry::Counter::RangeArenaPayloadBytes,
                   RowPayloadBytes * N);
  return SliceId;
}

RangeArena::Rows RangeArena::rows(uint32_t SliceId) const {
  Rows R;
  if (SliceId == 0)
    return R;
  const SliceInfo &Info = sliceInfo(SliceId);
  const RowChunk &C = RowChunks.get(Info.RowBegin >> ChunkShift);
  uint32_t Base = Info.RowBegin & (ChunkRows - 1);
  R.Prob = C.Prob + Base;
  R.LoOff = C.LoOff + Base;
  R.HiOff = C.HiOff + Base;
  R.Stride = C.Stride + Base;
  R.LoSym = C.LoSym + Base;
  R.HiSym = C.HiSym + Base;
  R.Count = Info.Count;
  R.AllNumeric = Info.AllNumeric != 0;
  return R;
}

bool RangeArena::sliceAllNumeric(uint32_t SliceId) const {
  return SliceId == 0 ? true : sliceInfo(SliceId).AllNumeric != 0;
}

//===----------------------------------------------------------------------===
// Floating-point column family
//===----------------------------------------------------------------------===

uint32_t RangeArena::internFP(const FPInterval *Subs, uint32_t N,
                              double NaNMass) {
  if (N == 0 && probBits(NaNMass) == probBits(0.0))
    return 0;
  assert(N <= MaxSliceRows && "FP interval set exceeds one arena chunk");
  ++InternCalls;

  // FP contents are pointer-free, so everything interns. The NaN mass is
  // part of the content: two slices with identical rows but different
  // NaN mass get different ids, keeping slice id -> lattice value
  // injective (id equality in ValueRange::equals depends on this).
  uint64_t Hash = 14695981039346656037ull ^ (uint64_t(N) << 32);
  Hash = fnv1a(Hash, probBits(NaNMass));
  for (uint32_t I = 0; I < N; ++I) {
    Hash = fnv1a(Hash, probBits(Subs[I].Prob));
    Hash = fnv1a(Hash, probBits(Subs[I].Lo));
    Hash = fnv1a(Hash, probBits(Subs[I].Hi));
  }

  uint32_t Found = FPInterned.find(Hash, [&](uint32_t Candidate) {
    const FPSliceInfo &Info = fpSliceInfo(Candidate);
    if (Info.Count != N || probBits(Info.NaNMass) != probBits(NaNMass))
      return false;
    if (N == 0)
      return true;
    const FPRowChunk &C = FPRowChunks.get(Info.RowBegin >> ChunkShift);
    uint32_t Base = Info.RowBegin & (ChunkRows - 1);
    for (uint32_t I = 0; I < N; ++I)
      if (probBits(C.Prob[Base + I]) != probBits(Subs[I].Prob) ||
          probBits(C.Lo[Base + I]) != probBits(Subs[I].Lo) ||
          probBits(C.Hi[Base + I]) != probBits(Subs[I].Hi))
        return false;
    return true;
  });
  if (Found != 0) {
    telemetry::count(telemetry::Counter::RangeInternHits);
    return Found;
  }

  // New content: allocate rows (none for the pure-NaN range). A slice
  // never straddles a chunk.
  uint32_t RowBegin = 0;
  if (N > 0) {
    uint32_t Offset = NextFPRow & (ChunkRows - 1);
    if (Offset + N > ChunkRows)
      NextFPRow = (NextFPRow + ChunkRows - 1) & ~(ChunkRows - 1);
    RowBegin = NextFPRow;
    FPRowChunk &C = FPRowChunks.getOrCreate(RowBegin >> ChunkShift);
    uint32_t Base = RowBegin & (ChunkRows - 1);
    for (uint32_t I = 0; I < N; ++I) {
      C.Prob[Base + I] = Subs[I].Prob;
      C.Lo[Base + I] = Subs[I].Lo;
      C.Hi[Base + I] = Subs[I].Hi;
    }
    NextFPRow = RowBegin + N;
  }

  uint32_t SliceId = NextFPSlice++;
  FPSliceInfo &Info = FPSliceChunks.getOrCreate(SliceId >> ChunkShift)
                          .Infos[SliceId & (ChunkRows - 1)];
  Info.RowBegin = RowBegin;
  Info.Count = N;
  Info.NaNMass = NaNMass;
  FPInterned.insert(Hash, SliceId);

  telemetry::count(telemetry::Counter::RangeInternMisses);
  telemetry::count(telemetry::Counter::RangeArenaPayloadBytes,
                   FPRowPayloadBytes * N + FPSlicePayloadBytes);
  return SliceId;
}

RangeArena::FPRows RangeArena::fpRows(uint32_t SliceId) const {
  FPRows R;
  if (SliceId == 0)
    return R;
  const FPSliceInfo &Info = fpSliceInfo(SliceId);
  R.Count = Info.Count;
  R.NaNMass = Info.NaNMass;
  if (Info.Count > 0) {
    const FPRowChunk &C = FPRowChunks.get(Info.RowBegin >> ChunkShift);
    uint32_t Base = Info.RowBegin & (ChunkRows - 1);
    R.Prob = C.Prob + Base;
    R.Lo = C.Lo + Base;
    R.Hi = C.Hi + Base;
  }
  return R;
}
