//===- eval/Reporting.cpp - Figure-style table rendering --------------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "eval/Reporting.h"

#include "support/Format.h"

#include <cstdio>

using namespace vrp;

void vrp::printCdfTable(const std::map<PredictorKind, ErrorCdf> &Curves,
                        const std::string &Caption, std::ostream &OS) {
  OS << Caption << "\n";
  std::vector<std::string> Header{"Error <"};
  for (PredictorKind Kind : allPredictors())
    Header.push_back(predictorName(Kind));
  TextTable Table(std::move(Header));

  for (unsigned I = 0; I < ErrorCdf::NumBuckets; ++I) {
    std::vector<std::string> Row{
        formatDouble(ErrorCdf::bucketEdge(I), 0) + " pp"};
    for (PredictorKind Kind : allPredictors()) {
      auto It = Curves.find(Kind);
      Row.push_back(It == Curves.end()
                        ? "-"
                        : formatPercent(It->second.fractionWithin(I)));
    }
    Table.addRow(std::move(Row));
  }
  std::vector<std::string> MeanRow{"mean err"};
  for (PredictorKind Kind : allPredictors()) {
    auto It = Curves.find(Kind);
    MeanRow.push_back(
        It == Curves.end()
            ? "-"
            : formatDouble(It->second.meanError(), 2) + " pp");
  }
  Table.addRow(std::move(MeanRow));
  Table.print(OS);
  OS << "\n";
}

namespace {

/// Minimal JSON string escaping (benchmark names are identifiers, but a
/// malformed-corpus name must not break the report). Deliberately not
/// vrp::jsonEscape: every control byte, \n included, renders as \u00xx,
/// and the stats JSON is a bitwise contract.
std::string statsJsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
      continue;
    }
    Out += C;
  }
  return Out;
}

void writeVrpStats(const VRPStats &S, const char *Indent, std::ostream &OS) {
  OS << "{\n";
  auto field = [&](const char *Key, uint64_t V, bool Last = false) {
    OS << Indent << "  \"" << Key << "\": " << V << (Last ? "\n" : ",\n");
  };
  field("expr_evaluations", S.Ranges.ExprEvaluations);
  field("subrange_ops", S.Ranges.SubOps);
  field("phi_evaluations", S.Ranges.PhiEvaluations);
  field("branch_evaluations", S.Ranges.BranchEvaluations);
  field("derivations_tried", S.Ranges.DerivationsTried);
  field("derivations_matched", S.Ranges.DerivationsMatched);
  field("widenings", S.Ranges.Widenings);
  field("functions_analyzed", S.FunctionsAnalyzed);
  field("functions_degraded", S.FunctionsDegraded);
  field("functions_cloned", S.FunctionsCloned);
  field("rounds", S.Rounds);
  field("waves", S.Waves);
  field("functions_reanalyzed", S.FunctionsReanalyzed);
  field("range_predicted_branches", S.RangePredictedBranches);
  field("heuristic_branches", S.HeuristicBranches);
  field("unreachable_branches", S.UnreachableBranches, /*Last=*/true);
  OS << Indent << "}";
}

void writeCacheStats(const AnalysisCacheStats &S, const char *Indent,
                     std::ostream &OS) {
  OS << "{\n"
     << Indent << "  \"hits\": " << S.Hits << ",\n"
     << Indent << "  \"misses\": " << S.Misses << ",\n"
     << Indent << "  \"invalidations\": " << S.Invalidations << "\n"
     << Indent << "}";
}

} // namespace

void vrp::writeSuiteStatsJson(const SuiteEvaluation &Suite,
                              const telemetry::Snapshot &Telemetry,
                              std::ostream &OS, bool IncludeTimings) {
  OS << "{\n  \"benchmarks\": [\n";
  for (size_t I = 0; I < Suite.Benchmarks.size(); ++I) {
    const BenchmarkEvaluation &B = Suite.Benchmarks[I];
    OS << "    {\n"
       << "      \"name\": \"" << statsJsonEscape(B.Name) << "\",\n"
       << "      \"ok\": " << (B.Ok ? "true" : "false") << ",\n"
       << "      \"degraded_functions\": " << B.DegradedFunctions << ",\n"
       << "      \"partial_profile\": "
       << (B.PartialProfile ? "true" : "false") << ",\n"
       << "      \"retried\": " << (B.Retried ? "true" : "false") << ",\n"
       << "      \"static_branches\": " << B.StaticBranches << ",\n"
       << "      \"audit_checks\": " << B.AuditChecks << ",\n"
       << "      \"soundness_violations\": " << B.SoundnessViolations
       << ",\n"
       << "      \"quarantined_functions\": " << B.QuarantinedFunctions
       << ",\n"
       << "      \"vrp\": ";
    writeVrpStats(B.VRP, "      ", OS);
    OS << ",\n      \"cache\": ";
    writeCacheStats(B.Cache, "      ", OS);
    OS << "\n    }" << (I + 1 < Suite.Benchmarks.size() ? "," : "") << "\n";
  }
  OS << "  ],\n";
  OS << "  \"totals\": {\n"
     << "    \"benchmarks\": " << Suite.Benchmarks.size() << ",\n"
     << "    \"failures\": " << Suite.Failures.size() << ",\n"
     << "    \"degraded_functions\": " << Suite.DegradedFunctions << ",\n"
     << "    \"audit_checks\": " << Suite.AuditChecks << ",\n"
     << "    \"soundness_violations\": " << Suite.SoundnessViolations << ",\n"
     << "    \"quarantined_functions\": " << Suite.QuarantinedFunctions
     << ",\n"
     << "    \"supervisor_retries\": " << Suite.SupervisorRetries << ",\n"
     << "    \"vrp\": ";
  writeVrpStats(Suite.VRPTotals, "    ", OS);
  OS << ",\n    \"cache\": ";
  writeCacheStats(Suite.CacheTotals, "    ", OS);
  OS << "\n  },\n";

  // Quarantined functions, in (benchmark, function) order. Empty on a
  // healthy run, so determinism diffs surface any quarantine loudly.
  OS << "  \"quarantines\": [";
  for (size_t I = 0; I < Suite.Quarantines.size(); ++I) {
    const quarantine::Record &Q = Suite.Quarantines[I];
    OS << (I == 0 ? "\n" : ",\n") << "    {\"benchmark\": \""
       << statsJsonEscape(Q.Context) << "\", \"function\": \""
       << statsJsonEscape(Q.Function) << "\", \"reason\": \""
       << quarantine::reasonName(Q.Why)
       << "\", \"violations\": " << Q.Violations << "}";
  }
  OS << (Suite.Quarantines.empty() ? "],\n" : "\n  ],\n");

  // Persistent result cache. "enabled" keeps the key present (and the
  // layout stable) on uncached runs; every counter is deterministic at
  // any thread count because lookups only consult the snapshot frozen at
  // open. Warm-start checks strip from the "pcache" line onward, since a
  // cold and a warm run legitimately differ here.
  OS << "  \"pcache\": {\"enabled\": " << (Suite.PCacheEnabled ? 1 : 0)
     << ", \"hits\": " << Suite.PCache.Hits
     << ", \"misses\": " << Suite.PCache.Misses
     << ", \"evictions\": " << Suite.PCache.Evictions
     << ", \"corrupt_records\": " << Suite.PCache.CorruptRecords
     << ", \"records\": " << Suite.PCache.Records
     << ", \"bytes_written\": " << Suite.PCache.BytesWritten
     << ", \"divergences\": " << Suite.PCacheDivergences << "},\n";

  // Process-wide telemetry counters, in enum order.
  OS << "  \"counters\": {\n";
  for (unsigned I = 0; I < telemetry::NumCounters; ++I) {
    OS << "    \""
       << telemetry::counterName(static_cast<telemetry::Counter>(I))
       << "\": " << Telemetry.Counters[I]
       << (I + 1 < telemetry::NumCounters ? ",\n" : "\n");
  }
  OS << "  }";

  // Wall-clock is nondeterministic by nature; it must stay the LAST
  // top-level key so determinism checks can strip everything from the
  // "timings" line onward.
  if (IncludeTimings) {
    OS << ",\n  \"timings\": {\n";
    for (unsigned I = 0; I < telemetry::NumTimers; ++I) {
      OS << "    \""
         << telemetry::timerName(static_cast<telemetry::Timer>(I))
         << "\": {\"ns\": " << Telemetry.TimerNanos[I]
         << ", \"calls\": " << Telemetry.TimerCalls[I] << "}"
         << (I + 1 < telemetry::NumTimers ? ",\n" : "\n");
    }
    OS << "  }";
  }
  OS << "\n}\n";
}

void vrp::printSuiteReport(const SuiteEvaluation &Suite,
                           const std::string &Title, std::ostream &OS) {
  OS << "==== " << Title << " ====\n\n";

  TextTable Summary({"benchmark", "ref steps", "branches", "executed",
                     "VRP range-predicted"});
  for (const BenchmarkEvaluation &B : Suite.Benchmarks) {
    if (!B.Ok) {
      Summary.addRow({B.Name, "FAILED: " + B.Error});
      continue;
    }
    std::string Name = B.Name;
    if (B.DegradedFunctions > 0)
      Name += " [degraded: " + std::to_string(B.DegradedFunctions) + " fn]";
    if (B.QuarantinedFunctions > 0)
      Name +=
          " [quarantined: " + std::to_string(B.QuarantinedFunctions) + " fn]";
    if (B.PartialProfile)
      Name += " [partial profile]";
    if (B.Retried)
      Name += " [retried]";
    Summary.addRow({Name, std::to_string(B.RefSteps),
                    std::to_string(B.StaticBranches),
                    std::to_string(B.ExecutedBranches),
                    formatPercent(B.VRPRangeFraction)});
  }
  Summary.print(OS);
  OS << "\n";

  if (!Suite.Failures.empty()) {
    OS << "failures (" << Suite.Failures.size() << " of "
       << Suite.Benchmarks.size() << " benchmarks):\n";
    for (const FailureInfo &F : Suite.Failures)
      OS << "  " << F.str() << "\n";
    OS << "\n";
  }
  if (Suite.DegradedFunctions > 0)
    OS << "budget degradation: " << Suite.DegradedFunctions
       << " function(s) fell back to Ball-Larus heuristics\n\n";

  if (!Suite.Quarantines.empty()) {
    OS << "soundness quarantine (" << Suite.SoundnessViolations
       << " violation(s) in " << Suite.AuditChecks << " audit checks):\n";
    for (const quarantine::Record &Q : Suite.Quarantines)
      OS << "  " << Q.str() << "\n";
    OS << "\n";
  }
  if (Suite.SupervisorRetries > 0)
    OS << "supervisor: " << Suite.SupervisorRetries
       << " benchmark(s) recovered by retry\n\n";

  printCdfTable(Suite.AveragedUnweighted,
                Title + " — unweighted (each branch equal), % of branches "
                        "predicted within the given error",
                OS);
  printCdfTable(Suite.AveragedWeighted,
                Title + " — weighted by branch execution count", OS);
}
