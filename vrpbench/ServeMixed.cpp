//===- vrpbench/ServeMixed.cpp - predictord request mix workload ----------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// An in-process predictord Server (2 workers, response memo on, a fresh
// persistent cache primed with the 19 suite programs) answers `predict`
// requests drawn by seed: 40% exact repeats of a suite program (memo
// hit), 35% a suite program with an appended comment (memo miss, result
// cache hit) and 25% a new generated program (full compile and analysis,
// result cache insert). It is the only workload that reads and writes
// every reuse tier at once. Repeats stay below half of the mix so the
// median latency falls inside one request class, not on the gap between
// memo hits and everything else.
//
// Phase A is an open loop at a fixed rate with uniform spacing over 4
// connections; latency counts from each request's due time. Phase B is a
// closed loop over the same 4 connections and gives throughput.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/AnalysisCache.h"
#include "analysis/PersistentCache.h"
#include "benchsuite/Programs.h"
#include "benchsuite/Synthetic.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/FaultInjection.h"
#include "support/ResultStore.h"
#include "support/Telemetry.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

using namespace vrp;
using namespace vrp::serve;

namespace vrpbench {

namespace {

constexpr unsigned Connections = 4;

enum Class : unsigned { Repeat, Edit, Novel, NumClasses };
const char *const ClassNames[NumClasses] = {"repeat", "edit", "novel"};

uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Request number \p Index of the seed's stream: a pure function of both,
/// so any connection can build any request without shared state.
struct RequestSpec {
  Class Cls = Repeat;
  unsigned Program = 0;
  uint64_t Index = 0;
};

RequestSpec specFor(uint64_t Seed, uint64_t Index, size_t NumPrograms) {
  uint64_t H = mix(mix(Seed) ^ Index);
  unsigned Roll = static_cast<unsigned>(H % 100);
  RequestSpec S;
  S.Cls = Roll < 40 ? Repeat : Roll < 75 ? Edit : Novel;
  S.Program = static_cast<unsigned>((H >> 8) % NumPrograms);
  S.Index = Index;
  return S;
}

Request predictRequest(std::string Source, uint64_t Id = 0) {
  Request R;
  R.Id = Id;
  R.Method = "predict";
  R.Source = std::move(Source);
  return R;
}

struct Workload {
  uint64_t Seed = 1;
  std::vector<const BenchmarkProgram *> Programs = allPrograms();

  std::string source(const RequestSpec &S) const {
    switch (S.Cls) {
    case Repeat:
      return Programs[S.Program]->Source;
    case Edit:
      return editOf(S.Program, S.Index);
    default:
      return makeSyntheticProgram(4, mix(Seed + 0x5eed) + S.Index);
    }
  }
  std::string editOf(unsigned Program, uint64_t N) const {
    return Programs[Program]->Source + "\n// edit " + std::to_string(N) +
           "\n";
  }
  Request request(const RequestSpec &S) const {
    return predictRequest(source(S), S.Index + 1);
  }
};

struct Record {
  RequestSpec Spec;
  double LatencyMs = 0.0; ///< From the due time (phase A) or the send.
  double LagMs = 0.0;     ///< Send time minus due time (phase A).
  uint64_t Hash = 0;      ///< FNV-1a of the payload.
  bool Ok = false;
  bool Degraded = false;
  std::string Error;
};

void recordResponse(Record &Rec, const StatusOr<Response> &Resp) {
  if (!Resp.ok()) {
    Rec.Error = "transport: " + Resp.error().str();
    return;
  }
  const Response &R = Resp.value();
  Rec.Ok = R.Status == RespStatus::Ok;
  Rec.Degraded = R.Degraded;
  Rec.Hash = store::fnv1a64(R.Payload);
  if (!Rec.Ok)
    Rec.Error = std::string(respStatusName(R.Status)) + ": " + R.Message;
}

/// Fills a fresh result cache at \p Path with the suite programs' results
/// and closes it again: the store serves lookups from the records present
/// when it is opened, so the server must open a primed file.
bool primeStore(const std::string &Path, const Workload &W, RunResult &R) {
  std::remove(Path.c_str());
  ServiceConfig SC;
  SC.CachePath = Path;
  SC.ResponseMemo = false;
  Status Why;
  std::unique_ptr<Service> S = Service::create(SC, &Why);
  if (!S) {
    R.fail("cannot open " + Path + ": " + Why.error().str());
    return false;
  }
  for (const BenchmarkProgram *P : W.Programs) {
    if (S->handle(predictRequest(P->Source)).Status != RespStatus::Ok) {
      R.fail("priming " + P->Name + " failed");
      return false;
    }
  }
  return true;
}

/// A Server running on its own thread; stops and joins on destruction.
class RunningServer {
public:
  static std::unique_ptr<RunningServer> start(const std::string &Dir,
                                              const Workload &W,
                                              RunResult &R) {
    ServerConfig Config;
    Config.SocketPath = Dir + "/serve.sock";
    Config.Workers = 2;
    Config.Service.CachePath = Dir + "/serve.pcache";
    Config.Service.ResponseMemo = true;
    if (!primeStore(Config.Service.CachePath, W, R))
      return nullptr;
    Status Why;
    std::unique_ptr<Server> S = Server::create(Config, &Why);
    if (!S) {
      R.fail("server start: " + Why.error().str());
      return nullptr;
    }
    std::unique_ptr<RunningServer> RS(new RunningServer(std::move(S)));
    // Prime the response memo with the exact suite sources.
    std::unique_ptr<Client> C = Client::connect(Config.SocketPath, &Why);
    if (!C) {
      R.fail("connect: " + Why.error().str());
      return nullptr;
    }
    for (const BenchmarkProgram *P : W.Programs) {
      StatusOr<Response> Resp = C->call(predictRequest(P->Source));
      if (!Resp.ok() || Resp.value().Status != RespStatus::Ok) {
        R.fail("priming request for " + P->Name + " failed");
        return nullptr;
      }
    }
    return RS;
  }
  ~RunningServer() {
    S->requestShutdown();
    Thread.join();
  }
  RunningServer(const RunningServer &) = delete;
  RunningServer &operator=(const RunningServer &) = delete;
  Server &server() { return *S; }

private:
  explicit RunningServer(std::unique_ptr<Server> Srv)
      : S(std::move(Srv)), Thread([this] { (void)S->serve(); }) {}
  std::unique_ptr<Server> S;
  std::thread Thread;
};

/// Phase A: Count requests due at uniform spacing 1/Rate, request J on
/// connection J mod Connections.
std::vector<Record> openLoop(const std::string &Socket, const Workload &W,
                             double Rate, size_t Count) {
  std::vector<Record> Out(Count);
  const auto T0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> Threads;
  for (unsigned Conn = 0; Conn < Connections; ++Conn)
    Threads.emplace_back([&, Conn] {
      Status Why;
      std::unique_ptr<Client> C = Client::connect(Socket, &Why);
      for (size_t J = Conn; J < Count; J += Connections) {
        Record &Rec = Out[J];
        Rec.Spec = specFor(W.Seed, J, W.Programs.size());
        if (!C) {
          Rec.Error = "connect: " + Why.error().str();
          continue;
        }
        Request Req = W.request(Rec.Spec);
        auto Due = T0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(J / Rate));
        std::this_thread::sleep_until(Due);
        auto Sent = Clock::now();
        StatusOr<Response> Resp = C->call(Req);
        Rec.LatencyMs = msSince(Due);
        Rec.LagMs = std::chrono::duration<double, std::milli>(Sent - Due)
                        .count();
        recordResponse(Rec, Resp);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  return Out;
}

/// Phase B: every connection sends its next request as soon as the
/// previous one is answered, for \p Seconds. Returns requests per second.
double closedLoop(const std::string &Socket, const Workload &W,
                  double Seconds, std::vector<Record> &Out) {
  // Phase B draws from its own part of the seed's request stream.
  constexpr uint64_t Base = 1ull << 40;
  std::atomic<uint64_t> Next{0};
  std::mutex M;
  const auto Start = Clock::now();
  const auto Deadline =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Seconds));
  std::vector<std::thread> Threads;
  for (unsigned Conn = 0; Conn < Connections; ++Conn)
    Threads.emplace_back([&] {
      Status Why;
      std::unique_ptr<Client> C = Client::connect(Socket, &Why);
      std::vector<Record> Local;
      while (Clock::now() < Deadline) {
        Record Rec;
        Rec.Spec = specFor(W.Seed, Base + Next.fetch_add(1), W.Programs.size());
        if (!C) {
          Rec.Error = "connect: " + Why.error().str();
          Local.push_back(Rec);
          break;
        }
        Request Req = W.request(Rec.Spec);
        auto Sent = Clock::now();
        StatusOr<Response> Resp = C->call(Req);
        Rec.LatencyMs = msSince(Sent);
        recordResponse(Rec, Resp);
        Local.push_back(std::move(Rec));
      }
      std::lock_guard<std::mutex> Lock(M);
      Out.insert(Out.end(), Local.begin(), Local.end());
    });
  for (std::thread &T : Threads)
    T.join();
  size_t Done = 0;
  for (const Record &Rec : Out)
    Done += Rec.Ok;
  return Done / (msSince(Start) / 1e3);
}

/// The one-shot report predictor_tool prints for \p Source, hashed.
uint64_t oneShotHash(const std::string &Source, std::string &Err) {
  auto C = compileOrReport(Source, Err);
  if (!C)
    return 0;
  AnalysisCache Cache;
  ModuleVRPResult VRP = runModuleVRP(*C->IR, benchOptions(), &Cache);
  std::ostringstream OS;
  renderPredictionReport(*C->IR, VRP, &Cache, PredictionReportOptions(), OS);
  return store::fnv1a64(OS.str());
}

/// Checks every served response against the one-shot report of its
/// source. Suite programs and their edited copies share one reference
/// (checked once per program); generated programs are each analyzed
/// again, on up to Connections threads.
void verify(const Workload &W, const std::vector<Record> &Records,
            RunResult &R) {
  std::string Err;
  std::vector<uint64_t> SuiteHash(W.Programs.size());
  for (unsigned P = 0; P < W.Programs.size(); ++P) {
    SuiteHash[P] = oneShotHash(W.Programs[P]->Source, Err);
    if (SuiteHash[P] == 0 || oneShotHash(W.editOf(P, 0), Err) != SuiteHash[P])
      R.fail("reference report of " + W.Programs[P]->Name +
             " is unstable under an appended comment " + Err);
  }
  std::vector<uint64_t> Want(Records.size(), 0);
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Connections; ++T)
    Threads.emplace_back([&] {
      std::string LocalErr;
      for (size_t I = Next++; I < Records.size(); I = Next++) {
        const RequestSpec &S = Records[I].Spec;
        Want[I] = S.Cls == Novel ? oneShotHash(W.source(S), LocalErr)
                                 : SuiteHash[S.Program];
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (size_t I = 0; I < Records.size(); ++I) {
    const Record &Rec = Records[I];
    ++R.Attempted;
    if (!Rec.Ok)
      R.fail("request " + std::to_string(Rec.Spec.Index) + ": " + Rec.Error);
    else if (Rec.Degraded)
      R.fail("request " + std::to_string(Rec.Spec.Index) + " was degraded");
    else if (Rec.Hash != Want[I])
      R.fail(std::string(ClassNames[Rec.Spec.Cls]) + " request " +
             std::to_string(Rec.Spec.Index) +
             " differs from the one-shot report");
  }
}

std::string fmt(const char *Format, double A, double B = 0.0,
                double C = 0.0) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), Format, A, B, C);
  return Buf;
}

/// The traced part: phase A's request stream replayed in order. Each
/// request goes first untraced through Service::handle (its service time
/// without transport), then step by step through the service's layers
/// with spans. Both replays have their own primed result cache and memo.
void traceReplay(const RunConfig &Cfg, const Workload &W,
                 const std::vector<Record> &PhaseA, RunResult &R) {
  const VRPOptions Opts = benchOptions();
  double ClassMs[NumClasses] = {0, 0, 0};
  unsigned ClassCount[NumClasses] = {0, 0, 0};
  const std::string ReplayPath = Cfg.WorkDir + "/replay.pcache";
  if (!primeStore(ReplayPath, W, R))
    return;
  ServiceConfig SC;
  SC.CachePath = ReplayPath;
  Status SvcWhy;
  std::unique_ptr<Service> Svc = Service::create(SC, &SvcWhy);
  if (!Svc) {
    R.fail("replay service: " + SvcWhy.error().str());
    return;
  }
  for (const BenchmarkProgram *P : W.Programs)
    (void)Svc->handle(predictRequest(P->Source));
  // Untraced service time of request J.
  auto serviceMs = [&](size_t J) {
    Request Req = W.request(PhaseA[J].Spec);
    auto Start = Clock::now();
    Response Resp = Svc->handle(Req);
    double Ms = msSince(Start);
    ++R.Attempted;
    if (store::fnv1a64(Resp.Payload) != PhaseA[J].Hash)
      R.fail("Service::handle replay of request " + std::to_string(J) +
             " differs from the served response");
    ClassMs[PhaseA[J].Spec.Cls] += Ms;
    ++ClassCount[PhaseA[J].Spec.Cls];
    return Ms;
  };

  const std::string Path = Cfg.WorkDir + "/trace.pcache";
  if (!primeStore(Path, W, R))
    return;
  Status Why;
  std::unique_ptr<PersistentCache> PC =
      PersistentCache::open(Path, /*Verify=*/false, &Why);
  if (!PC) {
    R.fail("trace cache: " + Why.error().str());
    return;
  }
  Tracer T;
  LayerAccumulator Acc;
  std::unordered_map<uint64_t, std::string> Memo;
  std::vector<double> WaitMs, ProtocolMs;

  // One request through the service's steps.
  struct Handled {
    std::string Payload;
    Compiled C; ///< Empty for a memo hit.
    ModuleVRPResult VRP;
    uint64_t PropagationRuns = 0;
  };
  auto handle = [&](const Request &Req, Class Cls, uint64_t ScopeId) {
    Handled H;
    std::string Wire;
    Request Parsed;
    {
      Tracer::Scope S(T, "serve.protocol");
      Wire = serializeRequest(Req);
      parseRequest(Wire, Parsed);
    }
    uint64_t Key = store::fnv1a64(Parsed.Source);
    bool Hit;
    {
      Tracer::Scope S(T, "serve.memo");
      auto It = Memo.find(Key);
      Hit = It != Memo.end();
      if (Hit)
        H.Payload = It->second;
    }
    if (!Hit) {
      fault::ScopedKey ScopeKey("trace:" + std::to_string(ScopeId));
      std::string Err;
      if (!compileTraced(T, Parsed.Source, H.C, Err)) {
        R.fail("traced replay compile: " + Err);
        H.C.IR.reset();
        return H;
      }
      AnalysisCache Cache;
      uint64_t Runs = propagationRuns();
      {
        Tracer::Scope S(T, Cls == Edit ? "pcache.restore" : "vrp.module");
        H.VRP = runModuleVRP(*H.C.IR, Opts, &Cache, PC.get());
      }
      H.PropagationRuns = propagationRuns() - Runs;
      {
        Tracer::Scope S(T, "driver.render");
        std::ostringstream OS;
        renderPredictionReport(*H.C.IR, H.VRP, &Cache,
                               PredictionReportOptions(), OS);
        H.Payload = OS.str();
      }
      {
        Tracer::Scope S(T, "pcache.commit");
        PC->commitScope();
      }
      Memo.emplace(Key, H.Payload);
    }
    Tracer::Scope S(T, "serve.protocol");
    Response Resp, Back;
    Resp.Id = Req.Id;
    Resp.Payload = std::move(H.Payload);
    parseResponse(serializeResponse(Resp), Back);
    H.Payload = std::move(Back.Payload);
    return H;
  };

  int Prime = T.begin("prime");
  for (size_t P = 0; P < W.Programs.size(); ++P)
    (void)handle(predictRequest(W.Programs[P]->Source), Repeat, P);
  T.end(Prime);

  for (size_t J = 0; J < PhaseA.size(); ++J) {
    const double ServiceMs = serviceMs(J);
    telemetry::setEnabled(true);
    const RequestSpec &Spec = PhaseA[J].Spec;
    Request Req = W.request(Spec);
    int Op = T.begin("op", Req.Id);
    resetCounters();
    Handled H = handle(Req, Spec.Cls, W.Programs.size() + J);
    std::map<std::string, double> Counts = readCounters();
    T.end(Op);
    ++R.Attempted;
    if (store::fnv1a64(H.Payload) != PhaseA[J].Hash)
      R.fail("traced replay of request " + std::to_string(J) +
             " differs from the served response");

    int Probe = T.begin("probe", Req.Id);
    if (H.C.IR) {
      AnalysisCache Cache;
      Tracer::Scope S(T, "probe.finalize");
      for (const auto &F : H.C.IR->functions())
        if (const FunctionVRPResult *FR = H.VRP.forFunction(F.get()))
          (void)finalizePredictions(*F, *FR, &Cache);
    }
    if (H.C.IR && Spec.Cls == Novel)
      probeModule(T, *H.C.IR);
    T.end(Probe);
    telemetry::setEnabled(false);

    std::map<std::string, double> Self = T.selfTimes(Op);
    std::map<std::string, double> ProbeSelf = T.selfTimes(Probe);
    if (Self.count("vrp.module"))
      splitModuleSpan(Self, ProbeSelf,
                      static_cast<double>(H.PropagationRuns) /
                          H.C.IR->functions().size());
    double Finalize = ProbeSelf["probe.finalize"];
    if (Finalize > 0) {
      Self["driver.render"] -= Finalize;
      Self["driver.finalize"] += Finalize;
    }
    double Wait = PhaseA[J].LatencyMs - ServiceMs;
    Self["serve.wait"] = Wait;
    WaitMs.push_back(Wait);
    ProtocolMs.push_back(Self["serve.protocol"]);
    Acc.addOp(Self, T.durationMs(Op) + Wait);
    Counts["irgen.instructions"] =
        H.C.IR ? static_cast<double>(instructionCount(*H.C.IR)) : 0.0;
    Acc.addValues(J, Counts);
  }

  std::vector<double> Latency;
  for (const Record &Rec : PhaseA)
    Latency.push_back(Rec.LatencyMs);
  R.Layers = Acc.finish(mean(Latency));
  for (unsigned K = 0; K < NumClasses; ++K)
    R.Notes.push_back(std::string("serve.service_ms.") + ClassNames[K] +
                      fmt(": %.4f ms over %.0f requests",
                          ClassCount[K] ? ClassMs[K] / ClassCount[K] : 0.0,
                          ClassCount[K]));
  R.Notes.push_back(fmt("serve.wait_ms.p50: %.4f ms", percentile(WaitMs, 0.5)));
  R.Notes.push_back(
      fmt("serve.protocol_us: %.2f us", 1e3 * mean(ProtocolMs)));
  T.writeJson(Cfg.WorkDir + "/trace-serve_mixed.json");
}

} // namespace

RunResult runServeMixed(const RunConfig &Cfg) {
  RunResult R;
  Workload W;
  W.Seed = Cfg.Seed;
  const double Rate = Cfg.Smoke ? 100.0 : 250.0;
  const double PhaseASeconds = Cfg.Trace ? Cfg.Seconds / 2 : Cfg.Seconds * 0.6;
  const double PhaseBSeconds = Cfg.Seconds - PhaseASeconds;

  std::unique_ptr<RunningServer> Srv;
  for (int I = 0; I < 5; ++I) {
    Srv.reset();
    auto Start = Clock::now();
    Srv = RunningServer::start(Cfg.WorkDir, W, R);
    if (!Srv)
      return R;
    R.SetupSeconds.push_back(msSince(Start) / 1e3);
  }
  const std::string Socket = Srv->server().socketPath();

  std::vector<Record> PhaseA =
      openLoop(Socket, W, Rate, static_cast<size_t>(Rate * PhaseASeconds));
  R.PeakRssMb = peakRssMb();
  std::vector<Record> PhaseB;
  if (!Cfg.Trace)
    R.Throughput = closedLoop(Socket, W, PhaseBSeconds, PhaseB);
  ServerStats Stats = Srv->server().stats();
  Srv.reset();

  std::vector<double> Lag;
  for (const Record &Rec : PhaseA) {
    Lag.push_back(Rec.LagMs);
    if (Rec.Ok)
      R.OpMs.push_back(Rec.LatencyMs);
  }
  R.Notes.push_back(
      fmt("phase A: %.0f requests at %.0f req/s", PhaseA.size(), Rate));
  R.Notes.push_back(fmt("serve.gen_lag_ms: p50 %.4f, max %.4f",
                        percentile(Lag, 0.5), percentile(Lag, 1.0)));
  if (!Cfg.Trace)
    R.Notes.push_back(fmt("phase B: %.0f requests, %.1f req/s",
                          PhaseB.size(), R.Throughput));
  R.Notes.push_back(fmt("serve.queue_depth_max: %.0f, shed %.0f",
                        Stats.Admission.MaxDepthSeen, Stats.Admission.Shed));

  if (Cfg.Trace)
    traceReplay(Cfg, W, PhaseA, R);
  R.Layers.Values["serve.memo_hit_rate"] =
      Stats.Service.Requests
          ? static_cast<double>(Stats.Service.MemoHits) / Stats.Service.Requests
          : 0.0;

  std::vector<Record> All = std::move(PhaseA);
  All.insert(All.end(), PhaseB.begin(), PhaseB.end());
  verify(W, All, R);
  return R;
}

} // namespace vrpbench
