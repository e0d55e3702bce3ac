//===- analysis/AliasAnalysis.h - Probabilistic load aliasing ---*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A probabilistic points-to summary for Load instructions. The paper
/// drops every load to ⊥ ("ranges become bottom", §3.5); this pass
/// recovers two tiers of information so the propagation engine can do
/// better (docs/DOMAINS.md, "Load aliasing"):
///
///  Tier (a) — store-to-load forwarding. A load whose own basic block
///  contains an earlier store to the same object at a provably identical
///  index (the same SSA value, or equal integer constants), with no
///  intervening store to that object and — for globals, which a callee
///  can reach — no intervening call, must observe exactly the stored SSA
///  value. The load's range IS the stored value's range.
///
///  Tier (b) — weighted may-alias candidates. For an object whose stores
///  all occur in the load's own function (the "exclusive writer"
///  property, checked module-wide) — or that is never stored at all —
///  every value the loaded cell can hold is either the cell's initial
///  value or one of those stores' operands, in ANY activation (globals
///  persist across calls, but only this function writes them; locals are
///  reinitialized per activation). Each store becomes a candidate
///  weighted by the probability its index overlaps the load's: 1 for a
///  provably identical index, 0 (excluded) for provably distinct
///  constants, 1/size as the uniform-indexing estimate otherwise. The
///  initial value joins with the leftover weight, floored so it is never
///  fully crowded out. The engine meets the candidates' ranges with
///  these weights instead of returning ⊥.
///
/// Objects with stores in other functions stay ⊥: the summary never
/// guesses across function boundaries, so it is sound under recursion
/// and (post-)cloning — clones that duplicate a store break exclusivity
/// and conservatively disable tier (b) for that object.
///
/// The summary depends on module-level facts outside the function's own
/// IR text (who else stores to an object; initial cell values), so every
/// content-addressed cache keyed on that text must also fold in
/// environmentText() — see PersistentCache::makeKey and the incremental
/// scheduler's changed-function fingerprint. The "who else stores" half
/// is the StoreCensus: one walk of the whole module, built once per
/// module state and shared by every function's summary and fingerprint.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_ANALYSIS_ALIASANALYSIS_H
#define VRP_ANALYSIS_ALIASANALYSIS_H

#include <string>
#include <unordered_map>
#include <vector>

namespace vrp {

class Function;
class Instruction;
class LoadInst;
class MemoryObject;
class Module;
class StoreInst;
class Value;

/// Module-wide store census: for each stored object, which function
/// writes it, or null when stores sit in more than one function. One
/// walk of every instruction in the module, so callers build it once per
/// module state and share it (read-only, hence thread-safe) across every
/// function's analyze() and environmentText().
class StoreCensus {
public:
  explicit StoreCensus(const Module &M);

  /// True when every value object \p O can hold while \p F runs was
  /// produced by \p F itself (or is the initial value).
  bool exclusiveTo(const MemoryObject *O, const Function *F) const {
    auto It = SoleWriter.find(O);
    return It == SoleWriter.end() || It->second == F;
  }

private:
  /// Stored objects only: absent means never stored.
  std::unordered_map<const MemoryObject *, const Function *> SoleWriter;
};

/// One weighted reaching-definition candidate for a load.
struct AliasCandidate {
  /// The stored SSA value, or null for the cell's initial value.
  const Value *Stored = nullptr;
  /// Index-overlap weight (see file comment); candidates with weight 0
  /// are never emitted.
  double Weight = 0.0;
  /// The initial cell value; meaningful only when Stored is null.
  double InitValue = 0.0;
};

/// What the pass knows about one load. Exactly one of the tiers applies:
/// a non-null Forwarded pointer (tier a) or a non-empty candidate list
/// (tier b).
struct LoadAliasInfo {
  const Value *Forwarded = nullptr;
  std::vector<AliasCandidate> Candidates;
};

/// The per-function alias summary. Besides F's own IR it reads one
/// module-level fact, writer exclusivity, through a StoreCensus of F's
/// module. The census must describe the module as it is when the
/// summary is built. The interprocedural driver builds one census per
/// module state: within one driver run the module changes only through
/// cloning, and cloning re-enters InterprocDriver::initState(), which
/// rebuilds the census along with the call graph.
class AliasInfo {
public:
  AliasInfo() = default;

  /// Builds the summary for \p F against \p Census, a census of F's
  /// current module. Pure and read-only: safe to run concurrently for
  /// different functions of the same (unmutated) module.
  static AliasInfo analyze(const Function &F, const StoreCensus &Census);

  /// As above, building a census of F's module first (one module walk).
  static AliasInfo analyze(const Function &F);

  /// The summary for \p L, or null when the load must stay ⊥.
  const LoadAliasInfo *infoFor(const LoadInst *L) const {
    auto It = Loads.find(L);
    return It == Loads.end() ? nullptr : &It->second;
  }

  /// Loads whose range depends on \p St (its forwarding source or one of
  /// its tier-(b) candidates). The engine re-pushes these when the store
  /// is reached on the SSA worklist, exactly as updateRange pushes SSA
  /// users. Deterministic order (block/instruction walk order).
  const std::vector<const LoadInst *> &dependentLoads(const StoreInst *St) const {
    auto It = Deps.find(St);
    return It == Deps.end() ? Empty : It->second;
  }

  /// The module-level facts this summary reads beyond \p F's own IR
  /// text, rendered deterministically: one line per object loaded in F
  /// with its exclusivity bit, size, and initial value (hex-float).
  /// Content-addressed caches keyed on the function's IR must append
  /// this so a change in another function's stores invalidates F.
  /// \p Census must describe F's current module.
  static std::string environmentText(const Function &F,
                                     const StoreCensus &Census);

  /// As above, building a census of F's module first (one module walk).
  static std::string environmentText(const Function &F);

private:
  std::unordered_map<const LoadInst *, LoadAliasInfo> Loads;
  std::unordered_map<const StoreInst *, std::vector<const LoadInst *>> Deps;
  std::vector<const LoadInst *> Empty;
};

} // namespace vrp

#endif // VRP_ANALYSIS_ALIASANALYSIS_H
