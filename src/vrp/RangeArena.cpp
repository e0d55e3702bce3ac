//===- vrp/RangeArena.cpp - Arena/SoA storage for subrange sets ------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "vrp/RangeArena.h"

#include "support/Telemetry.h"
#include "vrp/ValueRange.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
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

/// Running out of ids or rows is a hard stop in every build type: a
/// wrapped id would silently alias another range.
[[noreturn]] void fatal(const char *What) {
  std::fprintf(stderr, "fatal: range arena: %s\n", What);
  std::abort();
}

/// Arena id allocation. Id 0 belongs to the default arena; freed ids are
/// reused before fresh ones.
struct IdPool {
  std::mutex M;
  std::vector<uint16_t> Free;
  uint32_t NextFresh = 1;
  unsigned Live = 0;
};

IdPool &idPool() {
  static IdPool *Pool = new IdPool(); // Outlives every static arena.
  return *Pool;
}

uint16_t acquireId() {
  IdPool &P = idPool();
  std::lock_guard<std::mutex> Lock(P.M);
  ++P.Live;
  if (!P.Free.empty()) {
    uint16_t Id = P.Free.back();
    P.Free.pop_back();
    return Id;
  }
  if (P.NextFresh >= (1u << 16))
    fatal("more than 65535 arenas alive at once");
  return static_cast<uint16_t>(P.NextFresh++);
}

thread_local RangeArena *Active = nullptr;

} // namespace

std::atomic<RangeArena *> RangeArena::Registry[RangeArena::MaxArenas];

//===----------------------------------------------------------------------===
// Chunk directory and intern table
//===----------------------------------------------------------------------===

template <class ChunkT> RangeArena::ChunkDir<ChunkT>::~ChunkDir() {
  if (Dirs.empty())
    return;
  for (uint32_t I = 0; I < Cap; ++I)
    delete Dirs.back()[I].load(std::memory_order_relaxed);
}

template <class ChunkT>
ChunkT &RangeArena::ChunkDir<ChunkT>::getOrCreate(uint32_t Index) {
  if (Index >= MaxChunks)
    fatal("row or slice ids exhausted");
  if (Index >= Cap) {
    uint32_t NewCap = Cap == 0 ? 4 : Cap * 2;
    auto New = std::make_unique<std::atomic<ChunkT *>[]>(NewCap);
    for (uint32_t I = 0; I < Cap; ++I)
      New[I].store(Dirs.back()[I].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    Dir.store(New.get(), std::memory_order_release);
    Dirs.push_back(std::move(New));
    Cap = NewCap;
  }
  std::atomic<ChunkT *> &Slot = Dirs.back()[Index];
  ChunkT *C = Slot.load(std::memory_order_relaxed);
  if (!C) {
    C = new ChunkT; // Uninitialized: rows are written before publication.
    Slot.store(C, std::memory_order_release);
  }
  return *C;
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
// Lifetime, ids and the current arena
//===----------------------------------------------------------------------===

RangeArena::RangeArena(std::shared_ptr<const RangeArena> Predecessor)
    : Id(acquireId()), Predecessor(std::move(Predecessor)) {
  Registry[Id].store(this, std::memory_order_release);
}

RangeArena::RangeArena(DefaultTag) : Id(0) {
  IdPool &P = idPool();
  std::lock_guard<std::mutex> Lock(P.M);
  ++P.Live;
  Registry[0].store(this, std::memory_order_release);
}

RangeArena::~RangeArena() {
  assert(Id != 0 && "the default arena is never destroyed");
  Registry[Id].store(nullptr, std::memory_order_release);
  IdPool &P = idPool();
  std::lock_guard<std::mutex> Lock(P.M);
  --P.Live;
  P.Free.push_back(Id);
}

RangeArena &RangeArena::defaultArena() {
  // Never destroyed: a range in a static object may be read at exit.
  static RangeArena *Default = new RangeArena(DefaultTag{});
  return *Default;
}

RangeArena &RangeArena::current() {
  return Active ? *Active : defaultArena();
}

std::shared_ptr<RangeArena>
RangeArena::joinOrCreate(std::shared_ptr<const RangeArena> Predecessor) {
  return Active ? Active->shared_from_this()
                : std::make_shared<RangeArena>(std::move(Predecessor));
}

unsigned RangeArena::liveCount() {
  IdPool &P = idPool();
  std::lock_guard<std::mutex> Lock(P.M);
  return P.Live;
}

RangeArena::Scope::Scope(const std::shared_ptr<RangeArena> &A)
    : Prev(Active) {
  if (A)
    Active = A.get();
}

RangeArena::Scope::~Scope() { Active = Prev; }

uint64_t RangeArena::interns() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return InternCalls;
}

//===----------------------------------------------------------------------===
// Integer column family
//===----------------------------------------------------------------------===

uint32_t RangeArena::symId(const Value *V) {
  if (!V)
    return 0;
  auto It = SymIds.find(V);
  if (It != SymIds.end())
    return It->second;
  uint32_t Id = NextSym++;
  SymChunks.getOrCreate(Id >> ChunkShift).Syms[Id & (ChunkRows - 1)] = V;
  SymIds.emplace(V, Id);
  return Id;
}

const Value *RangeArena::symValue(uint32_t SymId) const {
  if (SymId == 0)
    return nullptr;
  return SymChunks.get(SymId >> ChunkShift).Syms[SymId & (ChunkRows - 1)];
}

uint32_t RangeArena::intern(const SubRange *Subs, uint32_t N) {
  if (N == 0)
    return 0;
  assert(N <= MaxSliceRows && "subrange set exceeds one arena chunk");

  std::lock_guard<std::mutex> Lock(Mu);
  ++InternCalls;

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

  // Only pointer-free (all-numeric) contents intern. A symbolic content
  // embeds symbol ordinals keyed on SSA pointer identity, and the
  // allocator may reuse a dead function's addresses for a later
  // function's values — cross-function identity would then depend on
  // heap layout and hence on the thread schedule. Symbolic sets get
  // arena rows but no dedup; each insertion reports as a miss, so all
  // three intern counters stay functions of the work alone.
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
    C.LoSym[Base + I] = ScratchLoSym[I];
    C.HiSym[Base + I] = ScratchHiSym[I];
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

  std::lock_guard<std::mutex> Lock(Mu);
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
