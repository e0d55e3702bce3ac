//===- serve/Service.cpp - Resident analysis service -----------------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "serve/Service.h"

#include "analysis/AnalysisCache.h"
#include "analysis/PersistentCache.h"
#include "driver/Pipeline.h"
#include "ir/IRPrinter.h"
#include "support/FaultInjection.h"
#include "support/Format.h"
#include "support/ResultStore.h"

#include <chrono>
#include <unistd.h>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <thread>

using namespace vrp;
using namespace vrp::serve;

namespace {

bool knownPredictor(const std::string &Name) {
  return Name == "vrp" || Name == "ball-larus" || Name == "90-50" ||
         Name == "random";
}

/// A failure is worth one retry when it looks transient: an injected
/// fault or an escaped exception (Internal), not a deterministic
/// rejection of the input (parse/verify) or an exhausted budget —
/// re-running those reproduces the same answer at full cost.
bool transientFailure(const Response &R) {
  if (R.Status != RespStatus::Error)
    return false;
  if (R.Message.find("injected") != std::string::npos)
    return true;
  return R.Category == errorCategoryName(ErrorCategory::Internal) &&
         R.Site != "irgen";
}

uint64_t memoKey(const Request &R, bool ForceDegrade) {
  std::string Material = R.Method;
  Material += '\0';
  Material += R.Predictor;
  Material += '\0';
  Material += R.DumpRanges ? '1' : '0';
  Material += ForceDegrade ? '1' : '0';
  Material += '\0';
  Material += std::to_string(R.StepLimit);
  Material += '\0';
  Material += R.Source;
  return store::fnv1a64(Material);
}

} // namespace

std::unique_ptr<Service> Service::create(const ServiceConfig &Config,
                                         Status *Why) {
  std::unique_ptr<Service> S(new Service());
  S->Config = Config;
  if (!Config.CachePath.empty()) {
    Status CacheWhy;
    S->PCache =
        PersistentCache::open(Config.CachePath, /*Verify=*/false, &CacheWhy);
    if (!S->PCache) {
      if (Why)
        *Why = CacheWhy.ok()
                   ? Status::failure(ErrorCategory::Internal, "service",
                                     "cannot open cache " + Config.CachePath)
                   : CacheWhy;
      return nullptr;
    }
  }
  return S;
}

Service::~Service() = default;

Response Service::handle(const Request &Req, bool ForceDegrade) {
  Requests.fetch_add(1);
  Response R;
  R.Id = Req.Id;

  if (Req.Method == "ping") {
    R.Payload = "pong";
    return R;
  }
  if (Req.Method == "stats") {
    R.Payload = statsJson();
    return R;
  }
  if (Req.Method == "health") {
    // The supervisor's heartbeat: proves the process is alive *and*
    // dispatching (a SIGSTOPped or wedged worker cannot answer). The pid
    // lets the supervisor confirm it is talking to the generation it
    // spawned, not a stale socket.
    R.Payload = "{\"pid\":" + std::to_string(::getpid()) + "}";
    return R;
  }
  if (Req.Method != "predict" && Req.Method != "analyze") {
    Failures.fetch_add(1);
    R.Status = RespStatus::Error;
    R.Category = errorCategoryName(ErrorCategory::Internal);
    R.Site = "service";
    R.Message = "unknown method '" + Req.Method + "'";
    return R;
  }
  if (!knownPredictor(Req.Predictor)) {
    Failures.fetch_add(1);
    R.Status = RespStatus::Error;
    R.Category = errorCategoryName(ErrorCategory::Internal);
    R.Site = "service";
    R.Message = "unknown predictor '" + Req.Predictor + "'";
    return R;
  }

  // Memoization covers only deterministic requests: a wall-clock
  // deadline makes the degradation pattern timing-dependent, so those
  // always recompute.
  uint64_t EffectiveDeadline =
      Req.DeadlineMs != 0 ? Req.DeadlineMs : Config.DefaultDeadlineMs;
  bool Memoizable = Config.ResponseMemo && EffectiveDeadline == 0;
  uint64_t Key = Memoizable ? memoKey(Req, ForceDegrade) : 0;
  if (Memoizable) {
    std::lock_guard<std::mutex> Lock(MemoM);
    auto It = Memo.find(Key);
    if (It != Memo.end()) {
      MemoHits.fetch_add(1);
      Response Hit = It->second;
      Hit.Id = Req.Id;
      if (Hit.Degraded)
        DegradedResponses.fetch_add(1);
      return Hit;
    }
  }

  // Every request buffers its persistent-cache inserts under a private
  // scope: concurrent requests can never interleave half-finished
  // results, and a failed attempt discards instead of committing.
  std::string Scope = "serve:" + std::to_string(Seq.fetch_add(1));
  fault::ScopedKey ScopeKey(Scope);

  R = attempt(Req, ForceDegrade);
  if (transientFailure(R)) {
    // One supervised retry with backoff, mirroring eval/SuiteRunner's
    // worker supervision. Deterministic failures never reach here.
    Retries.fetch_add(1);
    if (PCache)
      PCache->discardScope();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    R = attempt(Req, ForceDegrade);
  }
  R.Id = Req.Id;

  if (PCache) {
    if (R.Status == RespStatus::Ok)
      PCache->commitScope();
    else
      PCache->discardScope();
  }

  if (R.Status != RespStatus::Ok)
    Failures.fetch_add(1);
  if (R.Degraded)
    DegradedResponses.fetch_add(1);
  if (Memoizable && R.Status == RespStatus::Ok) {
    std::lock_guard<std::mutex> Lock(MemoM);
    Response Stored = R;
    Stored.Id = 0;
    Memo.emplace(Key, std::move(Stored));
  }
  return R;
}

Response Service::attempt(const Request &Req, bool ForceDegrade) {
  Response R;
  R.Id = Req.Id;
  try {
    if (fault::shouldFail("worker"))
      throw std::runtime_error("injected worker fault");

    VRPOptions Opts;
    Opts.Interprocedural = true;
    Opts.Budget.PropagationStepLimit = Req.StepLimit;
    Opts.Budget.DeadlineMs =
        Req.DeadlineMs != 0 ? Req.DeadlineMs : Config.DefaultDeadlineMs;
    // Overload degradation rides the existing budget machinery: a
    // one-step limit makes every analyzed function exhaust immediately
    // and take the Ball–Larus fallback, exactly as a blown --budget
    // does. A persistent-cache hit still restores the full result — a
    // warm entry costs nothing, so overload never discards it.
    if (ForceDegrade)
      Opts.Budget.PropagationStepLimit = 1;

    DiagnosticEngine Diags;
    auto Compiled = compileProgram(Req.Source, Diags, Opts);
    if (!Compiled.ok()) {
      const VrpError &E = Compiled.error();
      R.Status = RespStatus::Error;
      R.Category = errorCategoryName(E.Category);
      R.Site = E.Site;
      R.Message = E.Message;
      return R;
    }
    Module &M = *Compiled.value()->IR;

    AnalysisCache Cache;
    ModuleVRPResult VRP = runModuleVRP(M, Opts, &Cache, PCache.get());
    R.Degraded = VRP.FunctionsDegraded > 0;

    if (Req.Method == "predict") {
      std::ostringstream OS;
      renderPredictionReport(M, VRP, &Cache,
                             {Req.Predictor, Req.DumpRanges}, OS);
      R.Payload = OS.str();
      return R;
    }

    // analyze: the same per-branch decisions as machine-readable JSON.
    // Hex-float probabilities and module order keep the bytes a pure
    // function of the input.
    std::ostringstream OS;
    OS << "{\"functions\":[";
    bool FirstFn = true;
    for (const auto &F : M.functions()) {
      const FunctionVRPResult *FR = VRP.forFunction(F.get());
      if (!FR)
        continue;
      bool Any = false;
      for (const auto &B : F->blocks())
        if (isa<CondBrInst>(B->terminator()))
          Any = true;
      if (!Any)
        continue;
      OS << (FirstFn ? "" : ",") << "{\"name\":\"" << jsonEscape(F->name())
         << "\",\"degraded\":" << (FR->Degraded ? "true" : "false")
         << ",\"branches\":[";
      FirstFn = false;

      FinalPredictionMap Final = finalizePredictions(*F, *FR, &Cache);
      BranchProbMap Alt;
      if (Req.Predictor == "ball-larus")
        Alt = predictBallLarus(*F);
      else if (Req.Predictor == "90-50")
        Alt = predictNinetyFifty(*F);
      else if (Req.Predictor == "random")
        Alt = predictRandom(*F, 1234);

      bool FirstBr = true;
      for (const auto &B : F->blocks()) {
        const auto *CBr = dyn_cast_or_null<CondBrInst>(B->terminator());
        if (!CBr)
          continue;
        double Prob;
        std::string SourceTag;
        if (Req.Predictor == "vrp") {
          const FinalPrediction &P = Final.at(CBr);
          Prob = P.ProbTrue;
          SourceTag = P.Source == PredictionSource::Range ? "ranges"
                      : P.Source == PredictionSource::Heuristic
                          ? "heuristic fallback"
                          : "unreachable";
        } else {
          Prob = Alt.at(CBr);
          SourceTag = Req.Predictor;
        }
        OS << (FirstBr ? "" : ",") << "{\"line\":\""
           << jsonEscape(CBr->loc().str()) << "\",\"cond\":\""
           << jsonEscape(
                  instructionToString(*cast<Instruction>(CBr->cond())))
           << "\",\"prob\":\"" << hexFloat(Prob) << "\",\"source\":\""
           << jsonEscape(SourceTag) << "\"}";
        FirstBr = false;
      }
      OS << "]}";
    }
    OS << "],\"degraded_functions\":" << VRP.FunctionsDegraded << "}";
    R.Payload = OS.str();
    return R;
  } catch (const std::exception &E) {
    R.Status = RespStatus::Error;
    R.Degraded = false;
    R.Payload.clear();
    R.Category = errorCategoryName(ErrorCategory::Internal);
    R.Site = "service";
    R.Message = E.what();
    return R;
  } catch (...) {
    R.Status = RespStatus::Error;
    R.Degraded = false;
    R.Payload.clear();
    R.Category = errorCategoryName(ErrorCategory::Internal);
    R.Site = "service";
    R.Message = "unknown exception";
    return R;
  }
}

ServiceCounters Service::counters() const {
  ServiceCounters C;
  C.Requests = Requests.load();
  C.Failures = Failures.load();
  C.DegradedResponses = DegradedResponses.load();
  C.MemoHits = MemoHits.load();
  C.Retries = Retries.load();
  return C;
}

std::string Service::statsJson() const {
  ServiceCounters C = counters();
  std::ostringstream OS;
  OS << "{\"requests\":" << C.Requests << ",\"failures\":" << C.Failures
     << ",\"degraded\":" << C.DegradedResponses
     << ",\"memo_hits\":" << C.MemoHits << ",\"retries\":" << C.Retries;
  if (PCache) {
    store::ResultStoreStats S = PCache->stats();
    OS << ",\"pcache\":{\"hits\":" << S.Hits << ",\"misses\":" << S.Misses
       << ",\"records\":" << S.Records
       << ",\"corrupt_records\":" << S.CorruptRecords
       << ",\"bytes_written\":" << S.BytesWritten << "}";
  }
  OS << "}";
  return OS.str();
}
