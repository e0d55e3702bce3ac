//===- support/Quarantine.h - Per-function quarantine records ---*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quarantine bookkeeping for the soundness sentinel (vrp/Audit.h) and the
/// suite supervisor (eval/SuiteRunner.h). A *quarantined* function is one
/// whose VRP result has been discarded at runtime — because the audit
/// observed a value outside its computed range, because a fault was
/// injected into it, or because analysis blew a budget — and whose branch
/// predictions have been rebuilt from the Ball–Larus heuristic fallback
/// alone. Quarantine is a degradation, never an abort: the containing
/// benchmark and suite keep running and report the record.
///
/// This layer is strings-only on purpose: it sits at the bottom of the
/// library stack (support/) so vrp/, eval/, and the tools can all share
/// the record type without new link edges.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_SUPPORT_QUARANTINE_H
#define VRP_SUPPORT_QUARANTINE_H

#include <cstdint>
#include <string>

namespace vrp {
namespace quarantine {

/// Why a function's VRP result was discarded.
enum class Reason {
  SoundnessViolation, ///< Audit saw a value outside its computed range.
  InjectedFault,      ///< A fault-injection site fired (testing only).
  BudgetExhausted,    ///< Propagation step budget / deadline tripped.
  DerivationStall,    ///< A loop-carried φ never stabilized.
  WorkerFailure,      ///< The evaluation worker itself failed.
};

/// Stable lowercase-with-dashes name, used in reports and JSON.
const char *reasonName(Reason R);

/// One quarantined function.
struct Record {
  Reason Why = Reason::SoundnessViolation;
  /// The enclosing unit — benchmark name in suite runs, file name in
  /// single-file runs.
  std::string Context;
  /// The function name, without the leading '@'.
  std::string Function;
  /// Human-readable specifics (first witness value, offending range, ...).
  std::string Detail;
  /// Violation count when Why == SoundnessViolation, else 0.
  uint64_t Violations = 0;

  /// One-line rendering: "@fn in ctx: reason (detail)".
  std::string str() const;
};

} // namespace quarantine
} // namespace vrp

#endif // VRP_SUPPORT_QUARANTINE_H
