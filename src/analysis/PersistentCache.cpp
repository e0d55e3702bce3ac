//===- analysis/PersistentCache.cpp - Durable per-function VRP memo -------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "analysis/PersistentCache.h"

#include "analysis/AliasAnalysis.h"
#include "ir/Function.h"
#include "ir/Instruction.h"
#include "ir/StructuralHash.h"
#include "support/FaultInjection.h"
#include "support/Format.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>

using namespace vrp;

namespace {

bool parseDouble(const std::string &Tok, double &Out) {
  if (Tok.empty())
    return false;
  char *End = nullptr;
  Out = std::strtod(Tok.c_str(), &End);
  return End && *End == '\0';
}

bool parseU64(const std::string &Tok, uint64_t &Out) {
  if (Tok.empty())
    return false;
  char *End = nullptr;
  Out = std::strtoull(Tok.c_str(), &End, 10);
  return End && *End == '\0';
}

bool parseI64(const std::string &Tok, int64_t &Out) {
  if (Tok.empty())
    return false;
  char *End = nullptr;
  Out = std::strtoll(Tok.c_str(), &End, 10);
  return End && *End == '\0';
}

using ValueEncoder = std::function<std::string(const Value *)>;

/// Pointer-free value reference for payloads: restorable from the
/// function alone (instructions by dense id, params by index, interned
/// constants by value).
std::string encodeValue(const Value *V) {
  if (!V)
    return "_";
  switch (V->kind()) {
  case Value::Kind::Instruction:
    return "i" + std::to_string(cast<Instruction>(V)->id());
  case Value::Kind::Param:
    return "p" + std::to_string(cast<Param>(V)->index());
  case Value::Kind::Constant: {
    const auto *C = cast<Constant>(V);
    return C->isInt() ? "ci" + std::to_string(C->intValue())
                      : "cf" + hexFloat(C->floatValue());
  }
  }
  return "_";
}

/// Deserialization context: the target function's values by ordinal.
struct DecodeCtx {
  const Function &F;
  std::map<unsigned, const Instruction *> ById;

  explicit DecodeCtx(const Function &Fn) : F(Fn) {
    for (const auto &B : Fn.blocks())
      for (const auto &I : B->instructions())
        ById[I->id()] = I.get();
  }

  const Value *decode(const std::string &Tok, bool &Ok) const {
    Ok = true;
    if (Tok == "_")
      return nullptr;
    if (Tok.size() < 2) {
      Ok = false;
      return nullptr;
    }
    if (Tok[0] == 'i') {
      uint64_t Id = 0;
      if (!parseU64(Tok.substr(1), Id)) {
        Ok = false;
        return nullptr;
      }
      auto It = ById.find(static_cast<unsigned>(Id));
      if (It == ById.end()) {
        Ok = false;
        return nullptr;
      }
      return It->second;
    }
    if (Tok[0] == 'p') {
      uint64_t Idx = 0;
      if (!parseU64(Tok.substr(1), Idx) || Idx >= F.numParams()) {
        Ok = false;
        return nullptr;
      }
      return F.param(static_cast<unsigned>(Idx));
    }
    if (Tok[0] == 'c' && Tok[1] == 'i') {
      int64_t V = 0;
      if (!parseI64(Tok.substr(2), V)) {
        Ok = false;
        return nullptr;
      }
      return Constant::getInt(V);
    }
    if (Tok[0] == 'c' && Tok[1] == 'f') {
      double V = 0;
      if (!parseDouble(Tok.substr(2), V)) {
        Ok = false;
        return nullptr;
      }
      return Constant::getFloat(V);
    }
    Ok = false;
    return nullptr;
  }
};

/// Renders a ValueRange as space-separated tokens; \p Enc renders
/// symbolic-bound values. Exact: every double is a hex float, every field
/// that restored() sets is present.
std::string renderRange(const ValueRange &VR, const ValueEncoder &Enc) {
  std::ostringstream OS;
  OS << "d" << (VR.distributionKnown() ? 1 : 0) << " ";
  switch (VR.kind()) {
  case ValueRange::Kind::Top:
    OS << "T";
    return OS.str();
  case ValueRange::Kind::Bottom:
    OS << "B";
    return OS.str();
  case ValueRange::Kind::FloatConst:
    OS << "F " << hexFloat(VR.floatValue());
    return OS.str();
  case ValueRange::Kind::FloatRanges: {
    FPIntervalView FPs = VR.fpIntervals();
    OS << "N " << FPs.size() << " " << hexFloat(VR.nanMass());
    for (size_t I = 0; I < FPs.size(); ++I) {
      FPInterval S = FPs[I];
      OS << " " << hexFloat(S.Prob) << " " << hexFloat(S.Lo) << " "
         << hexFloat(S.Hi);
    }
    return OS.str();
  }
  case ValueRange::Kind::Ranges:
    break;
  }
  OS << "R " << VR.subRanges().size();
  for (const SubRange &S : VR.subRanges())
    OS << " " << hexFloat(S.Prob) << " " << Enc(S.Lo.Sym) << " "
       << S.Lo.Offset << " " << Enc(S.Hi.Sym) << " " << S.Hi.Offset << " "
       << S.Stride;
  return OS.str();
}

/// Parses renderRange() output from a token stream.
bool parseRange(std::istringstream &In, const DecodeCtx &Ctx,
                ValueRange &Out) {
  std::string Tok;
  if (!(In >> Tok) || Tok.size() != 2 || Tok[0] != 'd' ||
      (Tok[1] != '0' && Tok[1] != '1'))
    return false;
  bool DistKnown = Tok[1] == '1';
  std::string KindTok;
  if (!(In >> KindTok))
    return false;
  if (KindTok == "T") {
    Out = ValueRange::restored(ValueRange::Kind::Top, 0.0, DistKnown, {});
    return true;
  }
  if (KindTok == "B") {
    Out = ValueRange::restored(ValueRange::Kind::Bottom, 0.0, DistKnown, {});
    return true;
  }
  if (KindTok == "F") {
    std::string V;
    double F = 0;
    if (!(In >> V) || !parseDouble(V, F))
      return false;
    Out = ValueRange::restored(ValueRange::Kind::FloatConst, F, DistKnown, {});
    return true;
  }
  if (KindTok == "N") {
    uint64_t N = 0;
    std::string NaNTok;
    double NaNMass = 0;
    if (!(In >> Tok) || !parseU64(Tok, N) || N > 4096 || !(In >> NaNTok) ||
        !parseDouble(NaNTok, NaNMass))
      return false;
    std::vector<FPInterval> Subs;
    Subs.reserve(N);
    for (uint64_t I = 0; I < N; ++I) {
      std::string ProbTok, LoTok, HiTok;
      FPInterval S;
      if (!(In >> ProbTok >> LoTok >> HiTok) ||
          !parseDouble(ProbTok, S.Prob) || !parseDouble(LoTok, S.Lo) ||
          !parseDouble(HiTok, S.Hi))
        return false;
      Subs.push_back(S);
    }
    Out = ValueRange::restoredFP(NaNMass, DistKnown, std::move(Subs));
    return true;
  }
  if (KindTok != "R")
    return false;
  uint64_t N = 0;
  if (!(In >> Tok) || !parseU64(Tok, N) || N > 4096)
    return false;
  std::vector<SubRange> Subs;
  Subs.reserve(N);
  for (uint64_t I = 0; I < N; ++I) {
    std::string ProbTok, LoSymTok, LoOffTok, HiSymTok, HiOffTok, StrideTok;
    if (!(In >> ProbTok >> LoSymTok >> LoOffTok >> HiSymTok >> HiOffTok >>
          StrideTok))
      return false;
    SubRange S;
    bool OkLo = false, OkHi = false;
    if (!parseDouble(ProbTok, S.Prob))
      return false;
    S.Lo.Sym = Ctx.decode(LoSymTok, OkLo);
    S.Hi.Sym = Ctx.decode(HiSymTok, OkHi);
    if (!OkLo || !OkHi || !parseI64(LoOffTok, S.Lo.Offset) ||
        !parseI64(HiOffTok, S.Hi.Offset) || !parseI64(StrideTok, S.Stride))
      return false;
    Subs.push_back(S);
  }
  Out = ValueRange::restored(ValueRange::Kind::Ranges, 0.0, DistKnown,
                             std::move(Subs));
  return true;
}

std::string fnvHex(uint64_t H) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

/// The result-affecting VRPOptions fields (docs/CACHE.md documents the
/// recipe). Threads is excluded (it only sets how many benchmarks a suite
/// runs at once); Audit/Trace/InterpreterStepLimit never change a
/// propagation result; the budget knobs that can degrade a function ARE
/// included — a tighter budget must not be satisfied from results a
/// looser one computed.
std::string optionsText(const VRPOptions &O) {
  std::ostringstream OS;
  OS << O.MaxSubRanges << "|" << O.EnableSymbolicRanges << "|"
     << O.EnableDerivation << "|" << O.EnableAssertions << "|"
     << O.WidenThreshold << "|" << O.FlowVisitLimit << "|"
     << O.DerivationRetryLimit << "|" << hexFloat(O.AssumedSymbolicCount)
     << "|" << O.Interprocedural << "|" << O.EnableCloning << "|"
     << O.Budget.PropagationStepLimit << "|" << O.Budget.DeadlineMs << "|"
     << O.EnableFPRanges << "|" << O.EnableAliasRanges;
  return OS.str();
}

/// The resolved interprocedural context, exactly as the engine would see
/// it through the hooks: one range per formal parameter, one per call
/// site in walk order. Symbolic bounds (possible only in hook outputs
/// that skipped sanitizeForCallee) render via displayName — deterministic
/// text, hashing-only. With alias ranges on, the function's alias
/// environment is appended: load results then depend on module-level
/// facts (writer exclusivity, global initializers) that F's own IR text
/// cannot capture, so a store added in *another* function must miss.
std::string contextText(const Function &F, const PropagationContext &Ctx,
                        const VRPOptions &Opts) {
  ValueEncoder Names = [](const Value *V) {
    return V ? V->displayName() : std::string("_");
  };
  std::ostringstream OS;
  for (unsigned I = 0; I < F.numParams(); ++I) {
    ValueRange R = Ctx.ParamRange ? Ctx.ParamRange(F.param(I))
                                  : ValueRange::bottom();
    OS << "P" << I << ":" << renderRange(R, Names) << "\n";
  }
  unsigned CallIdx = 0;
  for (const auto &B : F.blocks())
    for (const auto &I : B->instructions())
      if (const auto *Call = dyn_cast<CallInst>(I.get())) {
        ValueRange R = Ctx.CallResultRange ? Ctx.CallResultRange(Call)
                                           : ValueRange::bottom();
        OS << "C" << CallIdx++ << ":" << renderRange(R, Names) << "\n";
      }
  if (Opts.EnableAliasRanges)
    OS << (Ctx.Census ? AliasInfo::environmentText(F, *Ctx.Census)
                      : AliasInfo::environmentText(F));
  return OS.str();
}

} // namespace

std::unique_ptr<PersistentCache> PersistentCache::open(const std::string &Path,
                                                       bool Verify,
                                                       Status *Why) {
  auto Store = store::ResultStore::open(Path, FormatVersion, Why);
  if (!Store)
    return nullptr;
  auto PC = std::unique_ptr<PersistentCache>(new PersistentCache());
  store::ResultStoreStats S = Store->stats();
  telemetry::count(telemetry::Counter::PersistentCacheEvictions,
                   S.Evictions);
  PC->Store = std::move(Store);
  PC->Verify = Verify;
  return PC;
}

std::string PersistentCache::makeKey(const Function &F, const VRPOptions &Opts,
                                     const PropagationContext &Ctx) {
  return fnvHex(structuralHash(F)) + "-" +
         fnvHex(store::fnv1a64(optionsText(Opts))) + "-" +
         fnvHex(store::fnv1a64(contextText(F, Ctx, Opts)));
}

std::string PersistentCache::serialize(const FunctionVRPResult &R) {
  std::ostringstream OS;
  OS << "vrppc " << PayloadVersion << "\n";
  OS << "fn " << (R.F ? R.F->name() : "") << "\n";
  OS << "stats " << R.Stats.ExprEvaluations << " " << R.Stats.SubOps << " "
     << R.Stats.PhiEvaluations << " " << R.Stats.BranchEvaluations << " "
     << R.Stats.DerivationsTried << " " << R.Stats.DerivationsMatched << " "
     << R.Stats.Widenings << "\n";
  OS << "blockprob " << R.BlockProb.size() << "\n";
  for (double P : R.BlockProb)
    OS << hexFloat(P) << "\n";

  // Ranges is pointer-keyed and unordered; Branches is pointer-keyed and
  // pointer-ordered. Sort both by their pointer-free encodings so the
  // bytes are independent of heap layout (bitwise identity across runs is
  // the whole point).
  std::vector<std::pair<std::string, const ValueRange *>> Entries;
  Entries.reserve(R.Ranges.size());
  for (const auto &[V, VR] : R.Ranges)
    Entries.emplace_back(encodeValue(V), &VR);
  std::sort(Entries.begin(), Entries.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  OS << "ranges " << Entries.size() << "\n";
  for (const auto &[Key, VR] : Entries)
    OS << Key << " " << renderRange(*VR, encodeValue) << "\n";

  std::vector<std::pair<unsigned, const BranchPrediction *>> Branches;
  Branches.reserve(R.Branches.size());
  for (const auto &[Br, Pred] : R.Branches)
    Branches.emplace_back(Br->id(), &Pred);
  std::sort(Branches.begin(), Branches.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  OS << "branches " << Branches.size() << "\n";
  for (const auto &[Id, Pred] : Branches)
    OS << Id << " " << hexFloat(Pred->ProbTrue) << " "
       << (Pred->FromRanges ? 1 : 0) << " " << (Pred->Reachable ? 1 : 0)
       << "\n";
  OS << "end\n";
  return OS.str();
}

bool PersistentCache::deserialize(const std::string &Payload,
                                  const Function &F, FunctionVRPResult &Out) {
  DecodeCtx Ctx(F);
  std::istringstream In(Payload);
  std::string Line, Word;

  auto nextLine = [&](const char *Head) -> bool {
    if (!std::getline(In, Line))
      return false;
    return Line.rfind(Head, 0) == 0;
  };

  if (!nextLine("vrppc ") ||
      Line != "vrppc " + std::to_string(PayloadVersion))
    return false;
  if (!nextLine("fn ") || Line.substr(3) != F.name())
    return false;

  // Inside an analysis the restored ranges join its arena; a standalone
  // restore gets an arena of its own.
  Out = FunctionVRPResult();
  Out.F = &F;
  Out.Arena = RangeArena::joinOrCreate();
  RangeArena::Scope ArenaScope(Out.Arena);

  if (!nextLine("stats "))
    return false;
  {
    std::istringstream LS(Line.substr(6));
    if (!(LS >> Out.Stats.ExprEvaluations >> Out.Stats.SubOps >>
          Out.Stats.PhiEvaluations >> Out.Stats.BranchEvaluations >>
          Out.Stats.DerivationsTried >> Out.Stats.DerivationsMatched >>
          Out.Stats.Widenings))
      return false;
  }

  if (!nextLine("blockprob "))
    return false;
  uint64_t N = 0;
  if (!parseU64(Line.substr(10), N) || N != F.numBlocks())
    return false;
  Out.BlockProb.reserve(N);
  for (uint64_t I = 0; I < N; ++I) {
    double P = 0;
    if (!std::getline(In, Line) || !parseDouble(Line, P))
      return false;
    Out.BlockProb.push_back(P);
  }

  if (!nextLine("ranges ") || !parseU64(Line.substr(7), N) || N > (1u << 24))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    if (!std::getline(In, Line))
      return false;
    std::istringstream LS(Line);
    if (!(LS >> Word))
      return false;
    bool Ok = false;
    const Value *V = Ctx.decode(Word, Ok);
    if (!Ok || !V)
      return false;
    ValueRange VR;
    if (!parseRange(LS, Ctx, VR))
      return false;
    Out.Ranges.emplace(V, std::move(VR));
  }

  if (!nextLine("branches ") || !parseU64(Line.substr(9), N) ||
      N > (1u << 24))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    if (!std::getline(In, Line))
      return false;
    std::istringstream LS(Line);
    uint64_t Id = 0;
    std::string ProbTok;
    int FromRanges = -1, Reachable = -1;
    if (!(LS >> Id >> ProbTok >> FromRanges >> Reachable))
      return false;
    auto It = Ctx.ById.find(static_cast<unsigned>(Id));
    if (It == Ctx.ById.end())
      return false;
    const auto *Br = dyn_cast<CondBrInst>(It->second);
    if (!Br || FromRanges < 0 || FromRanges > 1 || Reachable < 0 ||
        Reachable > 1)
      return false;
    BranchPrediction Pred;
    if (!parseDouble(ProbTok, Pred.ProbTrue))
      return false;
    Pred.FromRanges = FromRanges == 1;
    Pred.Reachable = Reachable == 1;
    Out.Branches.emplace(Br, Pred);
  }

  return nextLine("end");
}

bool PersistentCache::rebind(const FunctionVRPResult &Prev, const Function &F,
                             FunctionVRPResult &Out) {
  const Function *PF = Prev.F;
  if (!PF || PF->numBlocks() != F.numBlocks() ||
      PF->numParams() != F.numParams() ||
      Prev.BlockProb.size() != F.numBlocks())
    return false;
  std::vector<const Instruction *> ById(F.numInstIds(), nullptr);
  size_t NumInsts = 0;
  for (const auto &B : F.blocks())
    for (const auto &I : B->instructions()) {
      ById[I->id()] = I.get();
      ++NumInsts;
    }
  // \p I's counterpart in F: same id, same opcode; null when absent.
  auto mapInst = [&](const Instruction *I) -> const Instruction * {
    if (I->function() != PF || I->id() >= ById.size())
      return nullptr;
    const Instruction *N = ById[I->id()];
    return N && N->opcode() == I->opcode() ? N : nullptr;
  };
  // Symbolic bounds name values of PF; numeric bounds (null) stay null.
  auto mapSym = [&](const Value *&Sym) {
    if (!Sym)
      return true;
    if (const auto *I = dyn_cast<Instruction>(Sym))
      Sym = mapInst(I);
    else if (const auto *P = dyn_cast<Param>(Sym))
      Sym = P->parent() == PF ? F.param(P->index()) : nullptr;
    return Sym != nullptr;
  };

  // Numeric handles are copied as they are and still point into Prev's
  // arena; the symbolic slices interned again below go to this run's
  // arena, which holds Prev's.
  Out = FunctionVRPResult();
  Out.F = &F;
  Out.Arena = RangeArena::joinOrCreate(Prev.Arena);
  RangeArena::Scope ArenaScope(Out.Arena);
  Out.Stats = Prev.Stats;
  Out.BlockProb = Prev.BlockProb;
  Out.Degraded = Prev.Degraded;
  Out.DegradeCause = Prev.DegradeCause;
  Out.Ranges.reserve(Prev.Ranges.size());
  size_t Bound = 0;
  auto bind = [&](const Value *Old, const Value *New) {
    auto It = Prev.Ranges.find(Old);
    if (It == Prev.Ranges.end())
      return true;
    ++Bound;
    const ValueRange &VR = It->second;
    if (!VR.hasSymbolicBounds()) {
      Out.Ranges.emplace(New, VR);
      return true;
    }
    std::vector<SubRange> Subs = VR.subRanges();
    for (SubRange &S : Subs)
      if (!mapSym(S.Lo.Sym) || !mapSym(S.Hi.Sym))
        return false;
    Out.Ranges.emplace(New, ValueRange::restored(VR.kind(), VR.floatValue(),
                                                 VR.distributionKnown(),
                                                 std::move(Subs)));
    return true;
  };
  for (unsigned I = 0; I < F.numParams(); ++I)
    if (!bind(PF->param(I), F.param(I)))
      return false;
  size_t Walked = 0;
  for (const auto &B : PF->blocks())
    for (const auto &I : B->instructions()) {
      const Instruction *N = mapInst(I.get());
      if (!N || !bind(I.get(), N))
        return false;
      ++Walked;
    }
  // Every range key must be a value of PF, and F must have nothing more.
  if (Bound != Prev.Ranges.size() || Walked != NumInsts)
    return false;

  for (const auto &[Br, Pred] : Prev.Branches) {
    const Instruction *N = mapInst(Br);
    if (!N)
      return false;
    Out.Branches.emplace(cast<CondBrInst>(N), Pred);
  }
  return true;
}

bool PersistentCache::lookup(const std::string &Key, const Function &F,
                             FunctionVRPResult &Out,
                             std::string *RawPayload) {
  const std::string *Payload = Store->lookup(Key);
  if (Payload && deserialize(*Payload, F, Out)) {
    telemetry::count(telemetry::Counter::PersistentCacheHits);
    if (RawPayload)
      *RawPayload = *Payload;
    std::lock_guard<std::mutex> L(M);
    Scopes[fault::currentKey()].push_back(
        Touched{F.name(), Key, std::string(), /*FromSnapshot=*/true});
    return true;
  }
  // A payload that fails to decode (e.g. a hash collision against a
  // structurally different function) is just a miss.
  telemetry::count(telemetry::Counter::PersistentCacheMisses);
  return false;
}

void PersistentCache::insert(const std::string &Key,
                             const FunctionVRPResult &R) {
  Touched T;
  T.FnName = R.F ? R.F->name() : "";
  T.Key = Key;
  T.Payload = serialize(R);
  std::lock_guard<std::mutex> L(M);
  Scopes[fault::currentKey()].push_back(std::move(T));
}

void PersistentCache::expunge(const std::string &FnName) {
  std::vector<std::string> Tombstones;
  {
    std::lock_guard<std::mutex> L(M);
    auto It = Scopes.find(fault::currentKey());
    if (It == Scopes.end())
      return;
    auto &Vec = It->second;
    std::vector<Touched> Kept;
    Kept.reserve(Vec.size());
    for (Touched &T : Vec) {
      if (T.FnName != FnName) {
        Kept.push_back(std::move(T));
        continue;
      }
      if (T.FromSnapshot)
        Tombstones.push_back(T.Key); // Evict the stored record too.
      // Pending inserts for the quarantined function are simply dropped.
    }
    Vec = std::move(Kept);
  }
  for (const std::string &Key : Tombstones)
    Store->appendTombstone(Key);
}

void PersistentCache::commitScope() {
  std::vector<Touched> Pending;
  {
    std::lock_guard<std::mutex> L(M);
    auto It = Scopes.find(fault::currentKey());
    if (It == Scopes.end())
      return;
    Pending = std::move(It->second);
    Scopes.erase(It);
  }
  uint64_t Bytes = 0;
  for (const Touched &T : Pending)
    if (!T.FromSnapshot)
      Bytes += Store->append(T.Key, T.Payload);
  if (Bytes)
    telemetry::count(telemetry::Counter::PersistentCacheBytesWritten, Bytes);
}

void PersistentCache::discardScope() {
  std::lock_guard<std::mutex> L(M);
  Scopes.erase(fault::currentKey());
}
