//===- analysis/AliasAnalysis.cpp - Probabilistic load aliasing -----------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "analysis/AliasAnalysis.h"

#include "ir/Function.h"
#include "ir/Instruction.h"
#include "ir/Module.h"
#include "support/Format.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <map>
#include <sstream>

using namespace vrp;

namespace {

/// The floor on the initial-value candidate's weight: stores at unknown
/// indices carry weight 1 each, so without a floor two such stores would
/// crowd the initial value out entirely even though neither provably
/// covers the loaded cell on every path.
constexpr double InitWeightFloor = 0.05;

/// Probability that a store at \p SIdx writes the cell a load at \p LIdx
/// reads (within one object). 1 when provably the same cell, 0 when
/// provably distinct, 1/size as the uniform-indexing estimate otherwise.
double overlapWeight(const Value *SIdx, const Value *LIdx,
                     const MemoryObject *O) {
  if (SIdx == LIdx)
    return 1.0; // Same SSA value: same cell in any execution.
  const auto *SC = dyn_cast<Constant>(SIdx);
  const auto *LC = dyn_cast<Constant>(LIdx);
  if (SC && LC && SC->isInt() && LC->isInt())
    return SC->intValue() == LC->intValue() ? 1.0 : 0.0;
  return 1.0 / static_cast<double>(std::max<int64_t>(1, O->size()));
}

/// The cell value before any store executes: the declared initializer
/// for global scalar cells, zero everywhere else (arrays zero-fill;
/// locals are reinitialized per activation) — mirrors the interpreter's
/// ObjectState construction exactly.
double initialCellValue(const Module &M, const MemoryObject *O) {
  return O->isGlobal() && O->isScalarCell() ? M.scalarInit(O) : 0.0;
}

} // namespace

StoreCensus::StoreCensus(const Module &M) {
  telemetry::count(telemetry::Counter::AliasCensusBuilds);
  for (const auto &G : M.functions())
    for (const auto &B : G->blocks())
      for (const auto &I : B->instructions())
        if (const auto *St = dyn_cast<StoreInst>(I.get())) {
          auto [It, Fresh] = SoleWriter.emplace(St->object(), G.get());
          if (!Fresh && It->second != G.get())
            It->second = nullptr;
        }
}

AliasInfo AliasInfo::analyze(const Function &F) {
  return analyze(F, StoreCensus(*F.parent()));
}

AliasInfo AliasInfo::analyze(const Function &F, const StoreCensus &Census) {
  AliasInfo Info;
  const Module &M = *F.parent();

  // This function's stores per object, in block/instruction order (the
  // candidate and dependency orders inherit this determinism).
  std::map<const MemoryObject *, std::vector<const StoreInst *>> OwnStores;
  for (const auto &B : F.blocks())
    for (const auto &I : B->instructions())
      if (const auto *St = dyn_cast<StoreInst>(I.get()))
        OwnStores[St->object()].push_back(St);

  // Tier (a): same-block store-to-load forwarding. Walk each block in
  // order tracking the latest store per object; a call invalidates
  // global objects (the callee may store to them, directly or through
  // recursion back into F).
  for (const auto &B : F.blocks()) {
    std::map<const MemoryObject *, const StoreInst *> Last;
    for (const auto &I : B->instructions()) {
      if (isa<CallInst>(I.get())) {
        for (auto It = Last.begin(); It != Last.end();)
          It = It->first->isGlobal() ? Last.erase(It) : std::next(It);
        continue;
      }
      if (const auto *St = dyn_cast<StoreInst>(I.get())) {
        Last[St->object()] = St;
        continue;
      }
      const auto *L = dyn_cast<LoadInst>(I.get());
      if (!L)
        continue;
      auto It = Last.find(L->object());
      if (It == Last.end() ||
          overlapWeight(It->second->index(), L->index(), L->object()) != 1.0)
        continue;
      LoadAliasInfo LI;
      LI.Forwarded = It->second->storedValue();
      Info.Loads.emplace(L, std::move(LI));
      Info.Deps[It->second].push_back(L);
    }
  }

  // Tier (b): weighted candidates for the remaining loads of exclusively
  // written (or never-written) objects.
  for (const auto &B : F.blocks())
    for (const auto &I : B->instructions()) {
      const auto *L = dyn_cast<LoadInst>(I.get());
      if (!L || Info.Loads.count(L))
        continue;
      const MemoryObject *O = L->object();
      if (!Census.exclusiveTo(O, &F))
        continue; // Another function stores here: the load stays ⊥.
      LoadAliasInfo LI;
      double Sum = 0.0;
      auto Own = OwnStores.find(O);
      if (Own != OwnStores.end())
        for (const StoreInst *St : Own->second) {
          double W = overlapWeight(St->index(), L->index(), O);
          if (W == 0.0)
            continue; // Provably distinct cell.
          LI.Candidates.push_back({St->storedValue(), W, 0.0});
          Info.Deps[St].push_back(L);
          Sum += W;
        }
      LI.Candidates.push_back({nullptr,
                               std::max(InitWeightFloor, 1.0 - Sum),
                               initialCellValue(M, O)});
      Info.Loads.emplace(L, std::move(LI));
    }

  return Info;
}

std::string AliasInfo::environmentText(const Function &F) {
  return environmentText(F, StoreCensus(*F.parent()));
}

std::string AliasInfo::environmentText(const Function &F,
                                       const StoreCensus &Census) {
  const Module &M = *F.parent();

  // Objects loaded by F, deduplicated, in object-id order.
  std::map<unsigned, const MemoryObject *> Loaded;
  for (const auto &B : F.blocks())
    for (const auto &I : B->instructions())
      if (const auto *L = dyn_cast<LoadInst>(I.get()))
        Loaded.emplace(L->object()->id(), L->object());

  std::ostringstream OS;
  for (const auto &[Id, O] : Loaded)
    OS << "A" << Id << ":" << O->name() << ":"
       << (Census.exclusiveTo(O, &F) ? 1 : 0) << ":" << O->size() << ":"
       << hexFloat(initialCellValue(M, O)) << "\n";
  return OS.str();
}
