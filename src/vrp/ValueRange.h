//===- vrp/ValueRange.h - Weighted value range lattice ----------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's range representation (§3.4): a variable's value is a set of
/// weighted subranges `{ P[L:U:S], ... }` — probability P, lower bound L,
/// upper bound U and stride S — where each bound is either numeric or
/// symbolic (`SSA-variable + constant`, the "single common ancestor" form).
/// An even distribution is assumed within each subrange; uneven
/// distributions use multiple subranges. The lattice adds ⊤ (undetermined)
/// above and ⊥ (statically unknown) below, plus an exact float-constant
/// level so value range propagation subsumes constant propagation for
/// floats too.
///
/// Storage: a ValueRange is a 16-byte handle `{kind, dist flag, slice id,
/// float constant or arena pointer}`. The subrange rows live in the
/// analysis's RangeArena (SoA columns, interned per arena), so copying a
/// range is trivial, identical canonical sets share storage, and equality
/// has an id-comparison fast path. A handle is valid while its arena
/// lives, which for an analysis result is as long as the result does.
/// `subRanges()` returns a lightweight view that materializes `SubRange`
/// values on demand and converts implicitly to `std::vector<SubRange>`
/// for call sites that need a container.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_VRP_VALUERANGE_H
#define VRP_VRP_VALUERANGE_H

#include "ir/Value.h"
#include "support/MathUtil.h"
#include "vrp/RangeArena.h"

#include <optional>
#include <string>
#include <vector>

namespace vrp {

/// A range bound: `Sym + Offset` where Sym is null for numeric bounds.
/// Purely symbolic values are `Sym + 0`; only a single ancestor variable is
/// representable (paper §3.4), which keeps range operations simple.
struct Bound {
  const Value *Sym = nullptr;
  int64_t Offset = 0;

  Bound() = default;
  Bound(int64_t Offset) : Offset(Offset) {}
  Bound(const Value *Sym, int64_t Offset) : Sym(Sym), Offset(Offset) {}

  bool isNumeric() const { return Sym == nullptr; }

  bool operator==(const Bound &RHS) const {
    return Sym == RHS.Sym && Offset == RHS.Offset;
  }
  bool operator!=(const Bound &RHS) const { return !(*this == RHS); }

  /// Adds a numeric delta (saturating).
  Bound plus(int64_t Delta) const {
    return Bound(Sym, saturatingAdd(Offset, Delta));
  }

  std::string str() const;
};

/// One weighted subrange `P[L:U:S]`. Values are L, L+S, ..., U; S == 0
/// denotes a single value (L == U). Invariants (numeric case): L <= U, U-L
/// divisible by S when S > 0.
struct SubRange {
  double Prob = 0.0;
  Bound Lo, Hi;
  int64_t Stride = 0;

  SubRange() = default;
  SubRange(double Prob, Bound Lo, Bound Hi, int64_t Stride)
      : Prob(Prob), Lo(Lo), Hi(Hi), Stride(Stride) {}

  /// Convenience: a numeric subrange.
  static SubRange numeric(double Prob, int64_t Lo, int64_t Hi,
                          int64_t Stride) {
    return SubRange(Prob, Bound(Lo), Bound(Hi), Stride);
  }

  /// Convenience: a single-value subrange.
  static SubRange singleton(double Prob, int64_t V) {
    return numeric(Prob, V, V, 0);
  }

  bool isNumeric() const { return Lo.isNumeric() && Hi.isNumeric(); }
  bool isSingleton() const { return Lo == Hi; }

  /// True when either bound references \p V.
  bool mentions(const Value *V) const { return Lo.Sym == V || Hi.Sym == V; }

  /// Number of representable values (capped at Int64Max); nullopt for
  /// symbolic bounds.
  std::optional<int64_t> count() const {
    if (!isNumeric())
      return std::nullopt;
    if (Stride == 0 || Lo.Offset == Hi.Offset)
      return 1;
    __int128 Span = static_cast<__int128>(Hi.Offset) - Lo.Offset;
    __int128 N = Span / Stride + 1;
    return N > Int64Max ? Int64Max : static_cast<int64_t>(N);
  }

  /// Exact equality of the geometric part (probability compared with
  /// tolerance by ValueRange::equals).
  bool sameShape(const SubRange &RHS) const {
    return Lo == RHS.Lo && Hi == RHS.Hi && Stride == RHS.Stride;
  }

  /// A copy with a different probability.
  SubRange withProb(double NewProb) const {
    SubRange S = *this;
    S.Prob = NewProb;
    return S;
  }

  std::string str() const;
};

/// A read-only view over one arena slice's subranges. Materializes
/// `SubRange` values on demand from the SoA columns; converts implicitly
/// to `std::vector<SubRange>` where a container is required. The view is
/// valid while its arena lives.
class SubRangeView {
public:
  SubRangeView() = default;
  SubRangeView(const RangeArena &Arena, uint32_t SliceId)
      : R(Arena.rows(SliceId)) {}

  size_t size() const { return R.Count; }
  bool empty() const { return R.Count == 0; }

  /// True when every bound in the slice is numeric (cached per slice).
  bool allNumeric() const { return R.AllNumeric; }

  SubRange operator[](size_t I) const {
    return SubRange(R.Prob[I], Bound(R.LoSym[I], R.LoOff[I]),
                    Bound(R.HiSym[I], R.HiOff[I]), R.Stride[I]);
  }
  SubRange front() const { return (*this)[0]; }
  SubRange back() const { return (*this)[R.Count - 1]; }

  class iterator {
  public:
    using iterator_category = std::input_iterator_tag;
    using value_type = SubRange;
    using difference_type = ptrdiff_t;
    using pointer = const SubRange *;
    using reference = SubRange;

    iterator(const SubRangeView *V, size_t I) : V(V), I(I) {}
    SubRange operator*() const { return (*V)[I]; }
    iterator &operator++() {
      ++I;
      return *this;
    }
    bool operator==(const iterator &RHS) const { return I == RHS.I; }
    bool operator!=(const iterator &RHS) const { return I != RHS.I; }

  private:
    const SubRangeView *V;
    size_t I;
  };

  iterator begin() const { return iterator(this, 0); }
  iterator end() const { return iterator(this, R.Count); }

  operator std::vector<SubRange>() const {
    std::vector<SubRange> Out;
    Out.reserve(R.Count);
    for (uint32_t I = 0; I < R.Count; ++I)
      Out.push_back((*this)[I]);
    return Out;
  }

  /// Raw SoA columns, for batched kernels.
  const RangeArena::Rows &rawRows() const { return R; }

private:
  RangeArena::Rows R;
};

/// A read-only view over one FP arena slice's weighted intervals plus its
/// NaN mass. Valid while its arena lives.
class FPIntervalView {
public:
  FPIntervalView() = default;
  FPIntervalView(const RangeArena &Arena, uint32_t SliceId)
      : R(Arena.fpRows(SliceId)) {}

  size_t size() const { return R.Count; }
  bool empty() const { return R.Count == 0; }
  double nanMass() const { return R.NaNMass; }

  FPInterval operator[](size_t I) const {
    return FPInterval(R.Prob[I], R.Lo[I], R.Hi[I]);
  }
  FPInterval front() const { return (*this)[0]; }
  FPInterval back() const { return (*this)[R.Count - 1]; }

  operator std::vector<FPInterval>() const {
    std::vector<FPInterval> Out;
    Out.reserve(R.Count);
    for (uint32_t I = 0; I < R.Count; ++I)
      Out.push_back((*this)[I]);
    return Out;
  }

  /// Raw SoA columns, for batched kernels.
  const RangeArena::FPRows &rawRows() const { return R; }

private:
  RangeArena::FPRows R;
};

/// The lattice value attached to every SSA variable during propagation.
/// A 16-byte trivially-copyable handle; subrange storage lives in the
/// RangeArena the handle points at.
class ValueRange {
public:
  enum class Kind : uint8_t {
    Top,        ///< ⊤: not yet determined (optimistic initial value).
    Ranges,     ///< A weighted set of integer subranges.
    FloatConst, ///< A known IEEE double constant.
    Bottom,     ///< ⊥: cannot be determined statically.
    FloatRanges, ///< A weighted set of FP intervals + NaN mass.
  };

  ValueRange() : TheKind(Kind::Top) {}

  static ValueRange top() { return ValueRange(); }
  static ValueRange bottom() {
    ValueRange R;
    R.TheKind = Kind::Bottom;
    return R;
  }
  static ValueRange floatConstant(double V) {
    ValueRange R;
    R.TheKind = Kind::FloatConst;
    R.FloatVal = V;
    return R;
  }
  /// Builds a range set; normalizes (sorts, merges identical shapes) and
  /// coalesces down to \p MaxSubRanges. An empty set yields ⊥.
  static ValueRange ranges(std::vector<SubRange> Subs, unsigned MaxSubRanges);

  /// In-place canonicalization of \p Subs (clean, sort, merge, normalize,
  /// coalesce to \p MaxSubRanges) followed by interning — the batched
  /// back end of `ranges()`, exposed so RangeOps can feed reused scratch
  /// buffers. \p Subs is consumed (contents unspecified afterwards).
  static ValueRange canonicalize(std::vector<SubRange> &Subs,
                                 unsigned MaxSubRanges);

  /// Builds an FP range set from weighted intervals plus NaN mass;
  /// canonicalizes (drops invalid pieces, normalizes -0.0 bounds to +0.0,
  /// sorts, merges identical shapes, renormalizes jointly with the NaN
  /// mass, coalesces down to \p MaxSubRanges) and interns. An exact
  /// non-NaN singleton demotes to FloatConst; an empty set with no NaN
  /// mass yields ⊥. See docs/DOMAINS.md for the full rules.
  static ValueRange floatRanges(std::vector<FPInterval> Subs, double NaNMass,
                                unsigned MaxSubRanges);

  /// In-place back end of `floatRanges()` — \p Subs is consumed.
  static ValueRange canonicalizeFP(std::vector<FPInterval> &Subs,
                                   double NaNMass, unsigned MaxSubRanges);

  /// A single-constant integer range {1[c:c:0]}.
  static ValueRange intConstant(int64_t V);

  /// The full int64 range (used for values known to exist but unbounded —
  /// weaker than ⊥ only in that it is still a range).
  static ValueRange fullIntRange();

  /// A weighted boolean {P(true)[1:1:0], P(false)[0:0:0]} — the natural
  /// result range of a comparison, from which branch probabilities read
  /// off directly.
  static ValueRange weightedBool(double ProbTrue);

  /// Reconstructs a range verbatim — no normalization, no coalescing, no
  /// empty-set demotion (the rows are interned exactly as given). For
  /// deserializers only (analysis/PersistentCache): a restored range must
  /// be bitwise identical to the one serialized, and `ranges()` would
  /// re-normalize an already-normalized set, which is not guaranteed to
  /// be the identity on its own output's field order.
  static ValueRange restored(Kind K, double FloatVal, bool DistKnown,
                             std::vector<SubRange> Subs) {
    ValueRange R;
    if (K == Kind::Ranges)
      R = interned(Subs.data(), Subs.size());
    else if (K == Kind::FloatConst)
      R = floatConstant(FloatVal);
    R.TheKind = K;
    R.DistKnown = DistKnown;
    return R;
  }

  /// FloatRanges counterpart of `restored()`: reconstructs an FP range
  /// verbatim for the PersistentCache deserializer.
  static ValueRange restoredFP(double NaNMass, bool DistKnown,
                               std::vector<FPInterval> Subs) {
    ValueRange R = internedFP(Subs.data(), Subs.size(), NaNMass);
    R.DistKnown = DistKnown;
    return R;
  }

  Kind kind() const { return TheKind; }
  bool isTop() const { return TheKind == Kind::Top; }
  bool isBottom() const { return TheKind == Kind::Bottom; }
  bool isRanges() const { return TheKind == Kind::Ranges; }
  bool isFloatConst() const { return TheKind == Kind::FloatConst; }
  bool isFloatRanges() const { return TheKind == Kind::FloatRanges; }
  /// Either FP lattice level (exact constant or interval set).
  bool isFloatKind() const {
    return TheKind == Kind::FloatConst || TheKind == Kind::FloatRanges;
  }

  /// When false, the *set* of possible values is valid but the per-point
  /// probabilities are not (the range descends from an assertion on a ⊥
  /// value, e.g. a guarded load). Such ranges prove bounds checks and
  /// decide comparisons that are certain either way, but uncertain
  /// comparison probabilities fall back to heuristics rather than trust a
  /// fabricated uniform distribution.
  bool distributionKnown() const { return DistKnown; }
  void setDistributionKnown(bool Known) { DistKnown = Known; }

  /// The constant of a FloatConst value; 0 otherwise.
  double floatValue() const {
    return TheKind == Kind::FloatConst ? FloatVal : 0.0;
  }

  /// NaN probability mass of a FloatRanges value, read from its FP
  /// slice. 0 otherwise.
  double nanMass() const {
    return TheKind == Kind::FloatRanges ? fpIntervals().nanMass() : 0.0;
  }

  /// The FP interval set as an on-demand view over the FP arena slice.
  /// Meaningful only for FloatRanges values.
  FPIntervalView fpIntervals() const {
    return SliceId ? FPIntervalView(*Arena, SliceId) : FPIntervalView();
  }

  /// The subrange set as an on-demand view over the arena slice.
  SubRangeView subRanges() const {
    return SliceId ? SubRangeView(*Arena, SliceId) : SubRangeView();
  }

  /// The arena slice id (0 for kinds without rows). Two values with equal
  /// (arena, slice) pairs are bitwise-identical sets; unequal pairs may
  /// still compare equal under `equals()`.
  uint32_t sliceId() const { return SliceId; }

  /// The arena holding the slice; null for kinds without rows.
  const RangeArena *arena() const {
    return TheKind == Kind::Ranges || TheKind == Kind::FloatRanges ? Arena
                                                                   : nullptr;
  }

  /// True when every subrange bound is numeric (O(1), cached per slice).
  /// Non-Ranges kinds are trivially numeric (FP intervals never carry
  /// symbolic bounds; their slice ids live in the FP id space).
  bool allNumeric() const {
    return TheKind != Kind::Ranges || SliceId == 0 ||
           Arena->sliceAllNumeric(SliceId);
  }

  /// If the range is a single integer constant {1[c:c:0]}, returns it.
  std::optional<int64_t> asIntConstant() const;

  /// If the range is exactly one purely symbolic singleton {1[v:v:0]},
  /// returns v — the "copy of v" case that subsumes copy propagation.
  const Value *asCopyOf() const;

  /// True when any subrange bound is symbolic.
  bool hasSymbolicBounds() const {
    return TheKind == Kind::Ranges && !allNumeric();
  }

  /// Probability-tolerant equality (fixpoint detection).
  bool equals(const ValueRange &RHS, double Tolerance = 1e-9) const;

  /// True when both ranges have the same *support* (kind, distribution
  /// flag and subrange shapes), i.e. they differ at most in probabilities.
  /// Support growth is the signal the widening guard counts; probability
  /// refinement is not.
  bool sameSupport(const ValueRange &RHS) const;

  /// P(value != 0); nullopt when unknown (⊤/⊥/symbolic bounds straddling 0
  /// in ways we cannot count).
  std::optional<double> probNonZero() const;

  /// Debug invariant: a Ranges value's piece probabilities must sum to
  /// 1 within \p Epsilon (probability-mass conservation). No-op for
  /// ⊤/⊥/float-constant values, which carry no distribution.
  void assertNormalized(double Epsilon = 1e-9) const;

  std::string str() const;

private:
  /// A Ranges handle for \p N rows interned into the current arena.
  static ValueRange interned(const SubRange *Subs, size_t N);
  /// A FloatRanges handle for FP content interned into the current arena.
  static ValueRange internedFP(const FPInterval *Subs, size_t N,
                               double NaNMass);

  /// Same (arena, slice) pair: bitwise-identical content. The slice id
  /// alone proves nothing across arenas.
  bool sameSlice(const ValueRange &RHS) const {
    return SliceId == RHS.SliceId && Arena == RHS.Arena;
  }
  /// Row-by-row comparison of two Ranges slices: shapes exactly, and
  /// probabilities within \p ProbTolerance unless it is negative.
  bool rowsMatch(const ValueRange &RHS, double ProbTolerance) const;

  Kind TheKind;
  bool DistKnown = true;
  uint32_t SliceId = 0;
  /// The kind says which is live: FloatConst keeps its constant, Ranges
  /// and FloatRanges their arena, ⊤ and ⊥ neither.
  union {
    double FloatVal = 0.0;
    const RangeArena *Arena;
  };
};

static_assert(sizeof(ValueRange) == 16, "ValueRange must stay a flat handle");

/// Total probability mass of a subrange vector (should be ~1 after
/// normalization).
double totalProb(const std::vector<SubRange> &Subs);
double totalProb(const SubRangeView &Subs);

/// True when \p V lies on the lattice Lo + k*Stride (overflow-safe; a
/// zero stride means the single point Lo).
inline bool onLattice(int64_t Lo, int64_t Stride, int64_t V) {
  if (Stride == 0)
    return V == Lo;
  __int128 Span = static_cast<__int128>(V) - Lo;
  return Span % Stride == 0;
}

} // namespace vrp

#endif // VRP_VRP_VALUERANGE_H
