//===- vrp/RangeOps.h - Arithmetic on weighted value ranges -----*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "symbolic execution" kernel (paper §3.5): arithmetic, meets,
/// assertion intersections and probabilistic comparisons over weighted
/// range sets. Operations are pairwise over subranges (up to R² suboperations
/// per expression evaluation, counted in RangeStats::SubOps for Figure 6).
/// Unrepresentable results degrade to ⊥ — the paper's observation that
/// "many problematic ranges cannot be represented and quickly become ⊥".
///
/// Execution model: operands are arena slices (vrp/RangeArena.h). Kernels
/// run as batched loops over the SoA columns with an all-numeric fast path
/// (no symbol materialization, tuple-free canonical sort) separated from
/// the symbolic slow path, accumulate into member scratch buffers (no
/// per-call allocation at steady state), and the canonical result is
/// interned. Every call runs its kernel: nothing is cached across calls,
/// so an operation's result and its SubOps/normalization counts depend
/// only on its operands, never on what the instance evaluated before.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_VRP_RANGEOPS_H
#define VRP_VRP_RANGEOPS_H

#include "ir/Instruction.h"
#include "vrp/Options.h"
#include "vrp/ValueRange.h"

namespace vrp {

/// Range operators parameterized by options; counts suboperations into the
/// shared RangeStats. One instance serves one function analysis: its
/// scratch buffers amortize allocation across that function's fixpoint
/// iteration.
class RangeOps {
public:
  RangeOps(const VRPOptions &Opts, RangeStats &Stats)
      : Opts(Opts), Stats(Stats) {}

  //===--------------------------------------------------------------------===
  // Arithmetic
  //===--------------------------------------------------------------------===

  ValueRange add(const ValueRange &L, const ValueRange &R);
  ValueRange sub(const ValueRange &L, const ValueRange &R);
  ValueRange mul(const ValueRange &L, const ValueRange &R);
  ValueRange div(const ValueRange &L, const ValueRange &R);
  ValueRange rem(const ValueRange &L, const ValueRange &R);
  ValueRange minOp(const ValueRange &L, const ValueRange &R);
  ValueRange maxOp(const ValueRange &L, const ValueRange &R);
  ValueRange neg(const ValueRange &V);
  ValueRange absOp(const ValueRange &V);
  /// Logical not over an int value: weightedBool(P(v == 0)).
  ValueRange notOp(const ValueRange &V);
  ValueRange intToFloat(const ValueRange &V);
  ValueRange floatToInt(const ValueRange &V);

  //===--------------------------------------------------------------------===
  // Lattice
  //===--------------------------------------------------------------------===

  /// The φ meet: merges incoming ranges weighted by in-edge probabilities.
  /// Entries with ⊤ or non-positive weight are skipped (optimistic, as in
  /// SCCP); any ⊥ entry forces ⊥.
  ValueRange meetWeighted(
      const std::vector<std::pair<ValueRange, double>> &Entries);

  /// Conditions \p Src on `Src PRED Bound` holding (an assertion edge):
  /// clips subranges, rescales surviving probability mass. \p BoundVal is
  /// the bound's SSA identity for symbolic clipping (may be null).
  ValueRange applyAssert(const ValueRange &Src, CmpPred Pred,
                         const ValueRange &BoundRange,
                         const Value *BoundVal);

  //===--------------------------------------------------------------------===
  // Probabilistic comparison
  //===--------------------------------------------------------------------===

  /// P(L PRED R) under independence and intra-range uniformity. \p LVal /
  /// \p RVal are the operand SSA identities, enabling the symbolic cases
  /// (bounds of one side relative to the other side's variable). Returns
  /// nullopt when the ranges cannot decide the comparison.
  std::optional<double> cmpProb(CmpPred Pred, const ValueRange &L,
                                const ValueRange &R, const Value *LVal,
                                const Value *RVal);

private:
  /// Runs \p PairOp over every subrange pair of \p L x \p R (the batched
  /// SoA kernel) and canonicalizes the pieces.
  ValueRange binaryNumeric(
      const ValueRange &L, const ValueRange &R,
      bool (RangeOps::*PairOp)(const SubRange &, const SubRange &,
                               std::vector<SubRange> &));

  // Pairwise kernels; append result pieces, return false when the pair is
  // unrepresentable (whole result becomes ⊥).
  bool pairAdd(const SubRange &A, const SubRange &B,
               std::vector<SubRange> &Out);
  bool pairSub(const SubRange &A, const SubRange &B,
               std::vector<SubRange> &Out);
  bool pairMul(const SubRange &A, const SubRange &B,
               std::vector<SubRange> &Out);
  bool pairDiv(const SubRange &A, const SubRange &B,
               std::vector<SubRange> &Out);
  bool pairRem(const SubRange &A, const SubRange &B,
               std::vector<SubRange> &Out);
  bool pairMin(const SubRange &A, const SubRange &B,
               std::vector<SubRange> &Out);
  bool pairMax(const SubRange &A, const SubRange &B,
               std::vector<SubRange> &Out);

  /// P(a PRED b) for one subrange pair; nullopt when undecidable.
  /// \p LDistKnown / \p RDistKnown say whether each side's probabilities
  /// are trustworthy; a case that consults an untrusted distribution may
  /// only return set-level certainty (exactly 0 or 1).
  std::optional<double> pairCmpProb(CmpPred Pred, const SubRange &A,
                                    const SubRange &B, const Value *LVal,
                                    const Value *RVal, bool LDistKnown,
                                    bool RDistKnown);

  /// Exact P(A == B) for numeric subranges (strided intersection count).
  double numericEqProb(const SubRange &A, const SubRange &B);
  /// P(A < B) for numeric subranges; exact when either side is a
  /// singleton, continuous approximation otherwise.
  double numericLtProb(const SubRange &A, const SubRange &B);

  //===--------------------------------------------------------------------===
  // Floating-point kernels (docs/DOMAINS.md)
  //===--------------------------------------------------------------------===

  /// Promotes a FloatConst to its interned singleton FloatRanges form, the
  /// interval form the FP kernels read. FloatRanges pass through;
  /// everything else is ⊥.
  ValueRange fpPromote(const ValueRange &V);

  /// FP binary arithmetic: exact both-const fold, else promotion and the
  /// corner kernel.
  ValueRange fpBinary(uint8_t Tag, const ValueRange &L, const ValueRange &R);
  /// One interval pair through the corner evaluation for \p Tag;
  /// accumulates pieces into FPScratch and NaN mass into FPNaNAcc.
  void fpPairArith(uint8_t Tag, const FPInterval &A, const FPInterval &B);

  ValueRange fpUnary(uint8_t Tag, const ValueRange &V);

  /// applyAssert for an FP interval (or ⊥ float) source; \p Bound is in
  /// interval form (see fpPromote).
  ValueRange applyFPAssert(const ValueRange &Src, CmpPred Pred,
                           const ValueRange &Bound);

  /// cmpProb for two FP interval operands.
  std::optional<double> fpCmpProb(CmpPred Pred, const ValueRange &L,
                                  const ValueRange &R);
  /// P(a PRED b) for one FP interval pair under uniformity. Set-level
  /// certainties (0/1) are returned regardless of \p Trusted; anything
  /// that consults the distributions requires it.
  std::optional<double> fpPairCmpProb(CmpPred Pred, const FPInterval &A,
                                      const FPInterval &B, bool Trusted);

  const VRPOptions &Opts;
  RangeStats &Stats;

  /// Result accumulation scratch, reused across calls (operations never
  /// nest on the same instance).
  std::vector<SubRange> Scratch;

  /// FP result accumulation scratch: interval pieces plus the NaN mass
  /// produced by the running operation (same no-nesting discipline).
  std::vector<FPInterval> FPScratch;
  double FPNaNAcc = 0.0;
};

/// Number of lattice points of numeric subrange \p S strictly below \p C.
int64_t pointsBelow(const SubRange &S, int64_t C);

} // namespace vrp

#endif // VRP_VRP_RANGEOPS_H
