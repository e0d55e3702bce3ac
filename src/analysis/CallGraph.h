//===- analysis/CallGraph.h - Call graph and SCC order ----------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The module call graph with Tarjan SCCs. Interprocedural VRP (§3.7)
/// walks SCCs bottom-up (callees before callers) and gives ⊥ parameter
/// ranges to functions participating in recursion.
///
/// On top of the SCC order the graph exposes *waves*: a layering of the
/// condensation where wave(S) = 1 + max over callee SCCs (0 for leaves).
/// Two SCCs in the same wave share no call edge in either direction, so
/// the interprocedural scheduler gets the same result whatever order it
/// runs a wave's SCCs in.
///
/// Construction, index lookup and caller adjacency are all linear in the
/// module (function -> index is a hash map, caller sites are precomputed
/// per callee) so the graph stays cheap at 10^5-function scale.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_ANALYSIS_CALLGRAPH_H
#define VRP_ANALYSIS_CALLGRAPH_H

#include "ir/Module.h"

#include <unordered_map>
#include <vector>

namespace vrp {

/// Call graph over a module's functions.
class CallGraph {
public:
  explicit CallGraph(const Module &M);

  /// Dense module index of \p F (its position in M.functions()).
  unsigned indexOf(const Function *F) const;

  /// Call sites in \p F (every CallInst, in block order).
  const std::vector<const CallInst *> &callSites(const Function *F) const;

  /// Direct callees of \p F (with duplicates for multiple sites).
  std::vector<const Function *> callees(const Function *F) const;

  /// Call sites across the whole module that target \p Callee, in
  /// caller-function-index then block order (precomputed, O(1)).
  const std::vector<const CallInst *> &
  callerSitesOf(const Function *Callee) const;

  /// Copying variant kept for existing callers.
  std::vector<const CallInst *> callersOf(const Function *Callee) const {
    return callerSitesOf(Callee);
  }

  /// SCCs in bottom-up order: every callee's SCC appears before its
  /// callers' (reverse topological order of the condensation).
  const std::vector<std::vector<const Function *>> &sccsBottomUp() const {
    return SCCs;
  }

  unsigned numSccs() const { return static_cast<unsigned>(SCCs.size()); }

  /// SCC index (into sccsBottomUp()) of \p F.
  unsigned sccOf(const Function *F) const { return SccOf[indexOf(F)]; }
  unsigned sccOfIndex(unsigned FnIdx) const { return SccOf[FnIdx]; }

  /// Wave of SCC \p SccIdx: 0 for SCCs with no out-edges (leaf callees),
  /// otherwise 1 + the maximum wave among callee SCCs.
  unsigned waveOf(unsigned SccIdx) const { return WaveOfScc[SccIdx]; }

  /// SCC indices per wave, wave 0 first. Processing waves in order is a
  /// bottom-up schedule; SCCs within one wave are mutually independent.
  const std::vector<std::vector<unsigned>> &waves() const { return Waves; }
  unsigned numWaves() const { return static_cast<unsigned>(Waves.size()); }

  /// True when \p F is in a nontrivial SCC or calls itself.
  bool isRecursive(const Function *F) const;
  bool isRecursiveIndex(unsigned FnIdx) const;

private:
  const Module &M;
  std::vector<std::vector<const CallInst *>> Sites; ///< By function index.
  std::vector<std::vector<const CallInst *>> CallerSites; ///< By callee index.
  std::unordered_map<const Function *, unsigned> FnIndex;
  std::vector<std::vector<const Function *>> SCCs;
  std::vector<unsigned> SccOf;     ///< Function index -> SCC index.
  std::vector<unsigned> WaveOfScc; ///< SCC index -> wave.
  std::vector<std::vector<unsigned>> Waves; ///< Wave -> SCC indices.
};

} // namespace vrp

#endif // VRP_ANALYSIS_CALLGRAPH_H
