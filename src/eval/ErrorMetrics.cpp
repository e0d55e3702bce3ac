//===- eval/ErrorMetrics.cpp - Prediction error analysis -------------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "eval/ErrorMetrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace vrp;

std::vector<BranchErrorSample>
vrp::computeErrors(const BranchProbMap &Pred, const EdgeProfile &Reference) {
  std::vector<BranchErrorSample> Samples;
  for (const auto &[Branch, Counts] : Reference.counts()) {
    if (Counts.Total == 0)
      continue;
    auto It = Pred.find(Branch);
    // Branches missing from the prediction map (e.g. in functions the
    // predictor did not see) default to 50/50.
    double P = It == Pred.end() ? 0.5 : It->second;
    double Actual = Counts.takenFraction();
    Samples.push_back(
        {std::abs(P - Actual) * 100.0, Counts.Total});
  }
  // The profile map is keyed by branch pointer, so its iteration order
  // follows heap addresses and varies run to run. Canonicalize by value:
  // ErrorCdf accumulates ErrorSum in sample order, and floating-point
  // addition is not associative, so a stable order is what makes repeated
  // evaluations (and the parallel engine vs. the serial one) bitwise
  // reproducible. Tie order is irrelevant — equal terms sum identically.
  std::sort(Samples.begin(), Samples.end(),
            [](const BranchErrorSample &A, const BranchErrorSample &B) {
              return A.ErrorPP != B.ErrorPP ? A.ErrorPP < B.ErrorPP
                                            : A.Weight < B.Weight;
            });
  return Samples;
}

void ErrorCdf::addSample(double ErrorPP, double Weight) {
  assert(!IsAverage && "cannot add samples to an averaged CDF");
  if (Weight <= 0.0)
    return;
  for (unsigned I = 0; I < NumBuckets; ++I)
    if (ErrorPP < bucketEdge(I)) {
      BucketWeight[I] += Weight;
      break;
    }
  // Errors >= 39pp contribute to the total only.
  TotalWeight += Weight;
  ErrorSum += ErrorPP * Weight;
}

void ErrorCdf::addSamples(const std::vector<BranchErrorSample> &Samples,
                          bool Weighted) {
  for (const BranchErrorSample &S : Samples)
    addSample(S.ErrorPP, Weighted ? static_cast<double>(S.Weight) : 1.0);
}

double ErrorCdf::fractionWithin(unsigned I) const {
  assert(I < NumBuckets && "bucket out of range");
  if (IsAverage)
    return AveragedFractions[I];
  if (TotalWeight <= 0.0)
    return 0.0;
  double Cum = 0.0;
  for (unsigned B = 0; B <= I; ++B)
    Cum += BucketWeight[B];
  return Cum / TotalWeight;
}

ErrorCdf ErrorCdf::average(const std::vector<ErrorCdf> &Cdfs) {
  ErrorCdf Result;
  Result.IsAverage = true;
  if (Cdfs.empty())
    return Result;
  unsigned Counted = 0;
  for (const ErrorCdf &C : Cdfs) {
    if (C.totalWeight() <= 0.0 && !C.IsAverage)
      continue;
    for (unsigned I = 0; I < NumBuckets; ++I)
      Result.AveragedFractions[I] += C.fractionWithin(I);
    Result.AveragedMean += C.meanError();
    ++Counted;
  }
  if (Counted == 0)
    return Result;
  for (unsigned I = 0; I < NumBuckets; ++I)
    Result.AveragedFractions[I] /= Counted;
  Result.AveragedMean /= Counted;
  Result.TotalWeight = Counted;
  Result.ErrorSum = Result.AveragedMean * Counted;
  return Result;
}

std::array<double, ErrorCdf::NumBuckets + 2> ErrorCdf::rawState() const {
  assert(!IsAverage && "averaged CDFs have no accumulator state");
  std::array<double, NumBuckets + 2> S{};
  for (unsigned I = 0; I < NumBuckets; ++I)
    S[I] = BucketWeight[I];
  S[NumBuckets] = TotalWeight;
  S[NumBuckets + 1] = ErrorSum;
  return S;
}
