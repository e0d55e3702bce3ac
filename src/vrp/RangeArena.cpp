//===- vrp/RangeArena.cpp - Arena/SoA storage for subrange sets ------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "vrp/RangeArena.h"

#include "support/Telemetry.h"
#include "vrp/ValueRange.h"

#include <cassert>
#include <cstring>

using namespace vrp;

namespace {

/// Serialized payload size of one row (the six column fields); chunk
/// padding is deliberately excluded so the telemetry byte count depends
/// only on the set of interned contents, not on interleaving order.
constexpr uint64_t RowPayloadBytes = sizeof(double) + 3 * sizeof(int64_t) +
                                     2 * sizeof(uint32_t);

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

} // namespace

RangeArena::RangeArena() {
  for (auto &C : RowChunks)
    C.store(nullptr, std::memory_order_relaxed);
  for (auto &C : SliceChunks)
    C.store(nullptr, std::memory_order_relaxed);
  for (auto &C : SymChunks)
    C.store(nullptr, std::memory_order_relaxed);
  for (auto &C : FPRowChunks)
    C.store(nullptr, std::memory_order_relaxed);
  for (auto &C : FPSliceChunks)
    C.store(nullptr, std::memory_order_relaxed);
  // Materialize slice 0 (the empty slice) so sliceInfo(0) is valid.
  auto *SC = new SliceChunk();
  SliceChunks[0].store(SC, std::memory_order_release);
  auto *FSC = new FPSliceChunk();
  FPSliceChunks[0].store(FSC, std::memory_order_release);
}

RangeArena &RangeArena::global() {
  static RangeArena Arena;
  // Registered once, after the arena exists: a telemetry reset marks a
  // run boundary, so the intern counters restart epoch-relative counting.
  static bool HookRegistered =
      (telemetry::addResetHook([] { RangeArena::global().beginEpoch(); }),
       true);
  (void)HookRegistered;
  return Arena;
}

void RangeArena::beginEpoch() {
  std::lock_guard<std::mutex> Lock(Mu);
  ++CurrentEpoch;
}

RangeArena::RowChunk *RangeArena::rowChunk(uint32_t Index) const {
  return RowChunks[Index].load(std::memory_order_acquire);
}

const RangeArena::SliceInfo &RangeArena::sliceInfo(uint32_t SliceId) const {
  const SliceChunk *C =
      SliceChunks[SliceId >> ChunkShift].load(std::memory_order_acquire);
  return C->Infos[SliceId & (ChunkRows - 1)];
}

uint32_t RangeArena::symId(const Value *V) {
  if (!V)
    return 0;
  auto It = SymIds.find(V);
  if (It != SymIds.end())
    return It->second;
  uint32_t Id = NextSym++;
  assert(Id < MaxChunks * ChunkRows && "symbol table exhausted");
  uint32_t ChunkIdx = Id >> ChunkShift;
  SymChunk *C = SymChunks[ChunkIdx].load(std::memory_order_acquire);
  if (!C) {
    C = new SymChunk();
    SymChunks[ChunkIdx].store(C, std::memory_order_release);
  }
  C->Syms[Id & (ChunkRows - 1)] = V;
  SymIds.emplace(V, Id);
  return Id;
}

const Value *RangeArena::symValue(uint32_t SymId) const {
  if (SymId == 0)
    return nullptr;
  const SymChunk *C =
      SymChunks[SymId >> ChunkShift].load(std::memory_order_acquire);
  return C->Syms[SymId & (ChunkRows - 1)];
}

uint32_t RangeArena::intern(const SubRange *Subs, uint32_t N) {
  if (N == 0)
    return 0;
  assert(N <= MaxSliceRows && "subrange set exceeds one arena chunk");

  std::lock_guard<std::mutex> Lock(Mu);

  // Resolve symbol ordinals first: the content hash and the dedup compare
  // both key on ordinals, which are themselves interned by pointer
  // identity, so identical content always hashes identically.
  ScratchLoSym.clear();
  ScratchHiSym.clear();
  bool AllNumeric = true;
  for (uint32_t I = 0; I < N; ++I) {
    uint32_t LS = symId(Subs[I].Lo.Sym);
    uint32_t HS = symId(Subs[I].Hi.Sym);
    AllNumeric &= (LS == 0) & (HS == 0);
    ScratchLoSym.push_back(LS);
    ScratchHiSym.push_back(HS);
  }

  // Only pointer-free (all-numeric) contents intern module-wide. A
  // symbolic content embeds symbol ordinals keyed on SSA pointer
  // identity, and the allocator may reuse a dead function's addresses
  // for a later function's values — cross-function identity would then
  // depend on heap layout and hence on the thread schedule. Symbolic
  // sets get arena rows but no dedup; each insertion reports as a miss,
  // so all three intern counters stay functions of the work alone.
  std::vector<uint32_t> *Bucket = nullptr;
  if (AllNumeric) {
    uint64_t Hash = 14695981039346656037ull ^ N;
    for (uint32_t I = 0; I < N; ++I) {
      Hash = fnv1a(Hash, probBits(Subs[I].Prob));
      Hash = fnv1a(Hash, static_cast<uint64_t>(Subs[I].Lo.Offset));
      Hash = fnv1a(Hash, static_cast<uint64_t>(Subs[I].Hi.Offset));
      Hash = fnv1a(Hash, static_cast<uint64_t>(Subs[I].Stride));
    }

    Bucket = &InternMap[Hash];
    for (uint32_t Candidate : *Bucket) {
      const SliceInfo &Info = sliceInfo(Candidate);
      if (Info.Count != N)
        continue;
      const RowChunk *C = rowChunk(Info.RowBegin >> ChunkShift);
      uint32_t Base = Info.RowBegin & (ChunkRows - 1);
      bool Same = true;
      for (uint32_t I = 0; I < N && Same; ++I) {
        Same = probBits(C->Prob[Base + I]) == probBits(Subs[I].Prob) &&
               C->LoOff[Base + I] == Subs[I].Lo.Offset &&
               C->HiOff[Base + I] == Subs[I].Hi.Offset &&
               C->Stride[Base + I] == Subs[I].Stride;
      }
      if (Same) {
        // Epoch-relative counting: the first intern of this content
        // since the last run boundary reports as a miss with its payload
        // bytes, exactly as a fresh process would (see beginEpoch()).
        SliceChunk *SC = SliceChunks[Candidate >> ChunkShift].load(
            std::memory_order_acquire);
        SliceInfo &MutInfo = SC->Infos[Candidate & (ChunkRows - 1)];
        if (MutInfo.Epoch != CurrentEpoch) {
          MutInfo.Epoch = CurrentEpoch;
          telemetry::count(telemetry::Counter::RangeInternMisses);
          telemetry::count(telemetry::Counter::RangeArenaPayloadBytes,
                           RowPayloadBytes * N);
        } else {
          telemetry::count(telemetry::Counter::RangeInternHits);
        }
        return Candidate;
      }
    }
  }

  // New content: allocate rows. A slice never straddles a chunk — pad the
  // cursor to the next chunk when the remainder cannot hold N rows.
  uint32_t Offset = NextRow & (ChunkRows - 1);
  if (Offset + N > ChunkRows)
    NextRow = (NextRow + ChunkRows - 1) & ~(ChunkRows - 1);
  uint32_t RowBegin = NextRow;
  uint32_t ChunkIdx = RowBegin >> ChunkShift;
  assert(ChunkIdx < MaxChunks && "range arena exhausted");
  RowChunk *C = RowChunks[ChunkIdx].load(std::memory_order_acquire);
  if (!C) {
    C = new RowChunk();
    RowChunks[ChunkIdx].store(C, std::memory_order_release);
  }
  uint32_t Base = RowBegin & (ChunkRows - 1);
  for (uint32_t I = 0; I < N; ++I) {
    C->Prob[Base + I] = Subs[I].Prob;
    C->LoOff[Base + I] = Subs[I].Lo.Offset;
    C->HiOff[Base + I] = Subs[I].Hi.Offset;
    C->Stride[Base + I] = Subs[I].Stride;
    C->LoSym[Base + I] = ScratchLoSym[I];
    C->HiSym[Base + I] = ScratchHiSym[I];
  }
  NextRow = RowBegin + N;

  uint32_t SliceId = NextSlice++;
  assert(SliceId < MaxChunks * ChunkRows && "slice table exhausted");
  uint32_t SliceChunkIdx = SliceId >> ChunkShift;
  SliceChunk *SC = SliceChunks[SliceChunkIdx].load(std::memory_order_acquire);
  if (!SC) {
    SC = new SliceChunk();
    SliceChunks[SliceChunkIdx].store(SC, std::memory_order_release);
  }
  SliceInfo &Info = SC->Infos[SliceId & (ChunkRows - 1)];
  Info.RowBegin = RowBegin;
  Info.Count = static_cast<uint16_t>(N);
  Info.AllNumeric = AllNumeric ? 1 : 0;
  Info.Epoch = CurrentEpoch;
  if (Bucket)
    Bucket->push_back(SliceId);

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
  const RowChunk *C = rowChunk(Info.RowBegin >> ChunkShift);
  uint32_t Base = Info.RowBegin & (ChunkRows - 1);
  R.Prob = C->Prob + Base;
  R.LoOff = C->LoOff + Base;
  R.HiOff = C->HiOff + Base;
  R.Stride = C->Stride + Base;
  R.LoSym = C->LoSym + Base;
  R.HiSym = C->HiSym + Base;
  R.Count = Info.Count;
  R.AllNumeric = Info.AllNumeric != 0;
  return R;
}

SubRange RangeArena::row(uint32_t SliceId, uint32_t I) const {
  Rows R = rows(SliceId);
  assert(I < R.Count && "row index out of slice");
  return SubRange(R.Prob[I], Bound(symValue(R.LoSym[I]), R.LoOff[I]),
                  Bound(symValue(R.HiSym[I]), R.HiOff[I]), R.Stride[I]);
}

uint32_t RangeArena::sliceSize(uint32_t SliceId) const {
  return SliceId == 0 ? 0 : sliceInfo(SliceId).Count;
}

bool RangeArena::sliceAllNumeric(uint32_t SliceId) const {
  return SliceId == 0 ? true : sliceInfo(SliceId).AllNumeric != 0;
}

//===----------------------------------------------------------------------===
// Floating-point column family
//===----------------------------------------------------------------------===

const RangeArena::FPSliceInfo &
RangeArena::fpSliceInfo(uint32_t SliceId) const {
  const FPSliceChunk *C =
      FPSliceChunks[SliceId >> ChunkShift].load(std::memory_order_acquire);
  return C->Infos[SliceId & (ChunkRows - 1)];
}

uint32_t RangeArena::internFP(const FPInterval *Subs, uint32_t N,
                              double NaNMass) {
  if (N == 0 && probBits(NaNMass) == probBits(0.0))
    return 0;
  assert(N <= MaxSliceRows && "FP interval set exceeds one arena chunk");

  std::lock_guard<std::mutex> Lock(Mu);

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

  std::vector<uint32_t> *Bucket = &FPInternMap[Hash];
  for (uint32_t Candidate : *Bucket) {
    FPSliceChunk *SC =
        FPSliceChunks[Candidate >> ChunkShift].load(std::memory_order_acquire);
    FPSliceInfo &Info = SC->Infos[Candidate & (ChunkRows - 1)];
    if (Info.Count != N || probBits(Info.NaNMass) != probBits(NaNMass))
      continue;
    bool Same = true;
    if (N > 0) {
      const FPRowChunk *C =
          FPRowChunks[Info.RowBegin >> ChunkShift].load(
              std::memory_order_acquire);
      uint32_t Base = Info.RowBegin & (ChunkRows - 1);
      for (uint32_t I = 0; I < N && Same; ++I) {
        Same = probBits(C->Prob[Base + I]) == probBits(Subs[I].Prob) &&
               probBits(C->Lo[Base + I]) == probBits(Subs[I].Lo) &&
               probBits(C->Hi[Base + I]) == probBits(Subs[I].Hi);
      }
    }
    if (Same) {
      // Epoch-relative counting, exactly as for integer slices.
      if (Info.Epoch != CurrentEpoch) {
        Info.Epoch = CurrentEpoch;
        telemetry::count(telemetry::Counter::RangeInternMisses);
        telemetry::count(telemetry::Counter::RangeArenaPayloadBytes,
                         FPRowPayloadBytes * N + FPSlicePayloadBytes);
      } else {
        telemetry::count(telemetry::Counter::RangeInternHits);
      }
      return Candidate;
    }
  }

  // New content: allocate rows (none for the pure-NaN range). A slice
  // never straddles a chunk.
  uint32_t RowBegin = 0;
  if (N > 0) {
    uint32_t Offset = NextFPRow & (ChunkRows - 1);
    if (Offset + N > ChunkRows)
      NextFPRow = (NextFPRow + ChunkRows - 1) & ~(ChunkRows - 1);
    RowBegin = NextFPRow;
    uint32_t ChunkIdx = RowBegin >> ChunkShift;
    assert(ChunkIdx < MaxChunks && "FP range arena exhausted");
    FPRowChunk *C = FPRowChunks[ChunkIdx].load(std::memory_order_acquire);
    if (!C) {
      C = new FPRowChunk();
      FPRowChunks[ChunkIdx].store(C, std::memory_order_release);
    }
    uint32_t Base = RowBegin & (ChunkRows - 1);
    for (uint32_t I = 0; I < N; ++I) {
      C->Prob[Base + I] = Subs[I].Prob;
      C->Lo[Base + I] = Subs[I].Lo;
      C->Hi[Base + I] = Subs[I].Hi;
    }
    NextFPRow = RowBegin + N;
  }

  uint32_t SliceId = NextFPSlice++;
  assert(SliceId < MaxChunks * ChunkRows && "FP slice table exhausted");
  uint32_t SliceChunkIdx = SliceId >> ChunkShift;
  FPSliceChunk *SC =
      FPSliceChunks[SliceChunkIdx].load(std::memory_order_acquire);
  if (!SC) {
    SC = new FPSliceChunk();
    FPSliceChunks[SliceChunkIdx].store(SC, std::memory_order_release);
  }
  FPSliceInfo &Info = SC->Infos[SliceId & (ChunkRows - 1)];
  Info.RowBegin = RowBegin;
  Info.Count = static_cast<uint16_t>(N);
  Info.Epoch = CurrentEpoch;
  Info.NaNMass = NaNMass;
  Bucket->push_back(SliceId);

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
    const FPRowChunk *C =
        FPRowChunks[Info.RowBegin >> ChunkShift].load(
            std::memory_order_acquire);
    uint32_t Base = Info.RowBegin & (ChunkRows - 1);
    R.Prob = C->Prob + Base;
    R.Lo = C->Lo + Base;
    R.Hi = C->Hi + Base;
  }
  return R;
}

uint32_t RangeArena::fpSliceSize(uint32_t SliceId) const {
  return SliceId == 0 ? 0 : fpSliceInfo(SliceId).Count;
}

double RangeArena::fpNaNMass(uint32_t SliceId) const {
  return SliceId == 0 ? 0.0 : fpSliceInfo(SliceId).NaNMass;
}
