//===- tests/eval/EvaluationOracle.h - Exact evaluation text ----*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// A canonical one-line rendering of every deterministic field of a
// BenchmarkEvaluation: doubles as hex floats, curves as their exact
// accumulator state. Two evaluations render equal exactly when they are
// bitwise identical, so suite tests compare them through this text.
//
//===----------------------------------------------------------------------===//

#ifndef VRP_TESTS_EVAL_EVALUATIONORACLE_H
#define VRP_TESTS_EVAL_EVALUATIONORACLE_H

#include "eval/SuiteRunner.h"
#include "support/Format.h"

#include <sstream>
#include <string>

namespace vrp::oracle {

inline std::string serializeEvaluation(const BenchmarkEvaluation &Eval) {
  std::ostringstream OS;
  auto writeCdf = [&OS](const ErrorCdf &C) {
    auto S = C.rawState();
    OS << '[';
    for (size_t I = 0; I < S.size(); ++I)
      OS << (I ? "," : "") << '"' << hexFloat(S[I]) << '"';
    OS << ']';
  };
  OS << "{\"name\":\"" << jsonEscape(Eval.Name) << "\"";
  OS << ",\"ok\":" << (Eval.Ok ? "true" : "false");
  OS << ",\"error\":\"" << jsonEscape(Eval.Error) << "\"";
  OS << ",\"failure\":";
  if (Eval.Failure) {
    OS << "[" << static_cast<unsigned>(Eval.Failure->Category) << ",\""
       << jsonEscape(Eval.Failure->Stage) << "\",\""
       << jsonEscape(Eval.Failure->Message) << "\"]";
  } else {
    OS << "null";
  }
  OS << ",\"degraded_functions\":" << Eval.DegradedFunctions;
  OS << ",\"partial_profile\":" << (Eval.PartialProfile ? "true" : "false");
  OS << ",\"retried\":" << (Eval.Retried ? "true" : "false");
  OS << ",\"ref_steps\":" << Eval.RefSteps;
  OS << ",\"static_branches\":" << Eval.StaticBranches;
  OS << ",\"executed_branches\":" << Eval.ExecutedBranches;
  OS << ",\"range_fraction\":\"" << hexFloat(Eval.VRPRangeFraction) << "\"";
  OS << ",\"audit_checks\":" << Eval.AuditChecks;
  OS << ",\"soundness_violations\":" << Eval.SoundnessViolations;
  OS << ",\"quarantined_functions\":" << Eval.QuarantinedFunctions;
  OS << ",\"quarantines\":[";
  for (size_t I = 0; I < Eval.Quarantines.size(); ++I) {
    const quarantine::Record &R = Eval.Quarantines[I];
    OS << (I ? "," : "") << "[" << static_cast<unsigned>(R.Why) << ",\""
       << jsonEscape(R.Context) << "\",\"" << jsonEscape(R.Function)
       << "\",\"" << jsonEscape(R.Detail) << "\"," << R.Violations << "]";
  }
  OS << "]";
  const VRPStats &V = Eval.VRP;
  OS << ",\"vrp\":[" << V.Ranges.ExprEvaluations << "," << V.Ranges.SubOps
     << "," << V.Ranges.PhiEvaluations << "," << V.Ranges.BranchEvaluations
     << "," << V.Ranges.DerivationsTried << "," << V.Ranges.DerivationsMatched
     << "," << V.Ranges.Widenings << "," << V.FunctionsAnalyzed << ","
     << V.FunctionsDegraded << "," << V.FunctionsCloned << "," << V.Rounds
     << "," << V.Waves << "," << V.FunctionsReanalyzed << ","
     << V.RangePredictedBranches << "," << V.HeuristicBranches << ","
     << V.UnreachableBranches << "]";
  OS << ",\"cache\":[" << Eval.Cache.Hits << "," << Eval.Cache.Misses << ","
     << Eval.Cache.Invalidations << "]";
  OS << ",\"curves\":[";
  bool FirstCurve = true;
  for (const auto &[Kind, Pair] : Eval.Curves) {
    OS << (FirstCurve ? "[" : ",[") << static_cast<unsigned>(Kind) << ",";
    writeCdf(Pair.first);
    OS << ",";
    writeCdf(Pair.second);
    OS << "]";
    FirstCurve = false;
  }
  OS << "]}";
  return OS.str();
}

} // namespace vrp::oracle

#endif // VRP_TESTS_EVAL_EVALUATIONORACLE_H
