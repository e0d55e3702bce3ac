//===- support/Quarantine.cpp - Per-function quarantine records -----------===//

#include "support/Quarantine.h"

namespace vrp {
namespace quarantine {

const char *reasonName(Reason R) {
  switch (R) {
  case Reason::SoundnessViolation:
    return "soundness-violation";
  case Reason::InjectedFault:
    return "injected-fault";
  case Reason::BudgetExhausted:
    return "budget-exhausted";
  case Reason::DerivationStall:
    return "derivation-stall";
  case Reason::WorkerFailure:
    return "worker-failure";
  }
  return "unknown";
}

std::string Record::str() const {
  std::string S = "@" + Function;
  if (!Context.empty())
    S += " in " + Context;
  S += ": ";
  S += reasonName(Why);
  if (Why == Reason::SoundnessViolation)
    S += " (" + std::to_string(Violations) +
         (Violations == 1 ? " violation" : " violations") + ")";
  if (!Detail.empty())
    S += ": " + Detail;
  return S;
}

} // namespace quarantine
} // namespace vrp
