//===- eval/ErrorMetrics.h - Prediction error analysis ----------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's evaluation metric (§5): for every conditional branch
/// executed by the reference run, the deviation (in percentage points)
/// between its predicted taken-probability and the observed taken
/// fraction. Results aggregate into a cumulative error distribution — the
/// "% of branches predicted to within ±N percentage points" curves of
/// Figures 7 and 8 — both unweighted (each branch equal) and weighted by
/// branch execution count.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_EVAL_ERRORMETRICS_H
#define VRP_EVAL_ERRORMETRICS_H

#include "heuristics/Heuristics.h"
#include "profile/Interpreter.h"

#include <array>
#include <string>
#include <vector>

namespace vrp {

/// One evaluated branch.
struct BranchErrorSample {
  double ErrorPP = 0.0;  ///< |predicted - actual| in percentage points.
  uint64_t Weight = 0;   ///< Reference execution count.
};

/// Compares predictions to the reference profile. Branches the reference
/// run never executed are excluded (their "actual" behavior is undefined),
/// exactly as in the paper.
std::vector<BranchErrorSample> computeErrors(const BranchProbMap &Pred,
                                             const EdgeProfile &Reference);

/// Cumulative error distribution over the paper's buckets
/// (<1, <3, ..., <39 percentage points).
class ErrorCdf {
public:
  static constexpr unsigned NumBuckets = 20;

  /// Upper edge of bucket \p I: 1, 3, 5, ..., 39.
  static double bucketEdge(unsigned I) { return 1.0 + 2.0 * I; }

  void addSample(double ErrorPP, double Weight);

  /// Accumulates all \p Samples (weight 1 each when \p Weighted is false).
  void addSamples(const std::vector<BranchErrorSample> &Samples,
                  bool Weighted);

  /// Fraction of (weighted) branches with error < bucketEdge(I).
  double fractionWithin(unsigned I) const;

  /// Mean absolute error in percentage points.
  double meanError() const {
    return TotalWeight == 0 ? 0.0 : ErrorSum / TotalWeight;
  }

  double totalWeight() const { return TotalWeight; }

  /// Equal-weight average of per-benchmark CDFs ("each benchmark is
  /// weighted equally within its suite").
  static ErrorCdf average(const std::vector<ErrorCdf> &Cdfs);

  /// The exact accumulator state — BucketWeight[0..19], TotalWeight,
  /// ErrorSum — for checks that compare per-benchmark curves bit for bit.
  /// Only valid for accumulated (non-averaged) CDFs.
  std::array<double, NumBuckets + 2> rawState() const;

private:
  double BucketWeight[NumBuckets] = {};
  double TotalWeight = 0.0;
  double ErrorSum = 0.0;
  bool IsAverage = false;
  double AveragedFractions[NumBuckets] = {};
  double AveragedMean = 0.0;
};

} // namespace vrp

#endif // VRP_EVAL_ERRORMETRICS_H
