//===- examples/predictord.cpp - Resident prediction daemon ----------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// A long-lived branch-prediction service over a Unix domain socket
// (docs/SERVING.md). Server mode keeps the analysis pipeline and the
// persistent result cache resident and serves framed requests; client
// mode submits one request to a running daemon and prints the result.
//
//   server: predictord --socket=<path> [--threads=N] [--cache=<path>]
//                      [--max-queue=N] [--degrade-depth=N]
//                      [--max-conns=N] [--deadline=MS] [--no-memo]
//
//   fleet:  predictord --socket=<path> --workers=N [server options]
//                      [--restart-budget=K] [--restart-window-ms=MS]
//                      [--backoff-ms=MS] [--heartbeat-ms=MS]
//                      [--forward-timeout=MS] [--breaker-threshold=K]
//
//   client: predictord --socket=<path> --send=<file.vl>
//                      [--method=predict|analyze] [--predictor=NAME]
//                      [--ranges] [--budget=N] [--deadline=MS]
//           predictord --socket=<path> --ping | --stats | --shutdown
//
// Fleet mode (--workers=N, docs/SERVING.md "Fleet supervision") forks N
// crash-isolated worker processes — each a single-process server on
// <socket>.wK with pcache shard <cache>.wK — and serves the public
// socket through a supervising router that hashes each request's source
// to its home shard, retries a failed worker exactly once on a healthy
// one, and restarts crashed workers with exponential backoff.
//
// A `predict` response is byte-for-byte the report `predictor_tool
// <file.vl>` prints — the client writes the payload to stdout verbatim,
// so `diff <(predictor_tool f.vl) <(predictord --socket=S --send=f.vl)`
// is empty (scripts/check.sh enforces this), in fleet mode too.
//
// Exit codes: 0 success (server: clean drain; client: ok response),
// 1 error/shed response or request failure, 2 usage error, 3 internal
// error, 5 fleet failure (every worker exhausted its restart budget),
// 6 startup failure (socket in use, bind failure, or persistent cache
// locked by another process).
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Server.h"
#include "serve/Supervisor.h"
#include "support/Process.h"
#include "support/Signal.h"
#include "vrp/Options.h"

#include <climits>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace vrp;
using namespace vrp::serve;

namespace {

enum ExitCode : int {
  ExitSuccess = 0,
  ExitRequestFailed = 1,
  ExitUsage = 2,
  ExitInternal = 3,
  ExitFleetFailed = 5,
  ExitStartup = 6,
};

void printUsage() {
  std::cerr
      << "usage: predictord --socket=<path> [server or client options]\n"
         "server mode (default):\n"
         "  --threads=N       worker threads draining the request queue "
         "(default 1)\n"
         "  --cache=<path>    keep the persistent result cache resident; "
         "refuses to\n                    start when another process "
         "holds its lock\n"
         "  --max-queue=N     queued requests before new work is shed "
         "(default 64)\n"
         "  --degrade-depth=N queue depth at which admitted work "
         "degrades to the\n                    heuristic fallback "
         "(default 48)\n"
         "  --max-conns=N     simultaneous client connections (default "
         "64)\n"
         "  --deadline=MS     default per-request analysis deadline "
         "(0 = none)\n"
         "  --no-memo         disable response memoization\n"
         "fleet mode (--workers selects it; server options apply "
         "per worker):\n"
         "  --workers=N       fork N crash-isolated worker processes "
         "behind a\n                    supervising router on the "
         "public socket\n"
         "  --restart-budget=K    restarts per window before a worker "
         "is marked\n                        dead (default 5)\n"
         "  --restart-window-ms=MS  restart-budget window (default "
         "30000)\n"
         "  --backoff-ms=MS   first restart delay; doubles per crash "
         "(default 200)\n"
         "  --heartbeat-ms=MS health-probe interval per worker "
         "(default 500)\n"
         "  --forward-timeout=MS  per-attempt forward budget "
         "(default 2000)\n"
         "  --breaker-threshold=K consecutive failures that open a "
         "shard's\n                        circuit breaker (default 3)\n"
         "client mode (any of these selects it):\n"
         "  --send=<file.vl>  submit the file and print the response "
         "payload\n"
         "  --method=M        predict (default) or analyze\n"
         "  --predictor=NAME  vrp | ball-larus | 90-50 | random\n"
         "  --ranges          append the value-range dump (predict)\n"
         "  --budget=N        propagation step limit for this request\n"
         "  --deadline=MS     wall-clock deadline for this request\n"
         "  --ping            round-trip health check\n"
         "  --stats           print server statistics JSON\n"
         "  --shutdown        ask the server to drain and exit\n"
         "exit codes: 0 success, 1 error/shed response, 2 usage error, "
         "3 internal\n            error, 5 fleet failed (all workers "
         "dead), 6 startup/connect\n            failure\n";
}

bool parseUnsigned(const std::string &V, uint64_t &Out) {
  if (V.empty() || V.find_first_not_of("0123456789") != std::string::npos)
    return false;
  try {
    Out = std::stoull(V);
  } catch (...) {
    return false;
  }
  return true;
}

int runServer(const ServerConfig &Config) {
  Status Why;
  std::unique_ptr<Server> S = Server::create(Config, &Why);
  if (!S) {
    std::cerr << "error: " << Why.error().str() << "\n";
    return ExitStartup;
  }
  // SIGTERM/SIGINT request a graceful drain: finish admitted work,
  // answer waiting clients, remove the socket, exit 0.
  stopsignal::installHandlers();
  std::cerr << "predictord: serving on " << S->socketPath() << "\n";
  Status Rc = S->serve();
  if (!Rc.ok()) {
    std::cerr << "error: " << Rc.error().str() << "\n";
    return ExitInternal;
  }
  std::cerr << "predictord: drained\n";
  return ExitSuccess;
}

int runFleet(const FleetConfig &Config) {
  Status Why;
  std::unique_ptr<Supervisor> Sup = Supervisor::create(Config, &Why);
  if (!Sup) {
    std::cerr << "error: " << Why.error().str() << "\n";
    return ExitStartup;
  }
  stopsignal::installHandlers();
  std::cerr << "predictord: fleet of " << Config.Workers
            << " workers serving on " << Config.PublicSocket << "\n";
  Status Rc = Sup->run();
  if (!Rc.ok()) {
    std::cerr << "error: " << Rc.error().str() << "\n";
    return ExitFleetFailed;
  }
  std::cerr << "predictord: fleet drained\n";
  return ExitSuccess;
}

int runClient(const std::string &SocketPath, const Request &Req) {
  Status Why;
  std::unique_ptr<Client> C = Client::connect(SocketPath, &Why);
  if (!C) {
    std::cerr << "error: " << Why.error().str() << "\n";
    return ExitStartup;
  }
  StatusOr<Response> R = C->call(Req);
  if (!R.ok()) {
    std::cerr << "error: " << R.error().str() << "\n";
    return ExitRequestFailed;
  }
  const Response &Resp = R.value();
  switch (Resp.Status) {
  case RespStatus::Ok:
    std::cout << Resp.Payload;
    // Reports end in a newline already; bare payloads (pong, stats
    // JSON) get one so shell pipelines see a complete line.
    if (!Resp.Payload.empty() && Resp.Payload.back() != '\n')
      std::cout << "\n";
    return ExitSuccess;
  case RespStatus::Shed:
    std::cerr << "shed: " << Resp.Message << "\n";
    return ExitRequestFailed;
  case RespStatus::Error:
    std::cerr << "error: " << Resp.Category << " at " << Resp.Site << ": "
              << Resp.Message << "\n";
    return ExitRequestFailed;
  }
  return ExitInternal;
}

int runTool(int argc, char **argv) {
  ServerConfig Config;
  FleetConfig Fleet;
  unsigned FleetWorkers = 0;
  Request Req;
  Req.Method = "predict";
  std::string SendFile;
  bool ClientMode = false;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    // A number in [Lo, Hi]; anything else is a usage error that names
    // the flag and, when it has one, its range.
    auto needUnsigned = [&](size_t Prefix, uint64_t &Out, uint64_t Lo = 0,
                            uint64_t Hi = UINT64_MAX) {
      if (parseUnsigned(Arg.substr(Prefix), Out) && Out >= Lo && Out <= Hi)
        return true;
      std::cerr << "invalid " << Arg.substr(0, Prefix - 1)
                << " value: " << Arg;
      if (Lo != 0 || Hi != UINT64_MAX)
        std::cerr << " (expected " << Lo << "-" << Hi << ")";
      std::cerr << "\n";
      return false;
    };
    if (Arg.rfind("--socket=", 0) == 0)
      Config.SocketPath = Arg.substr(9);
    else if (Arg.rfind("--threads=", 0) == 0) {
      uint64_t V;
      if (!needUnsigned(10, V, 1, VRPOptions::MaxThreads))
        return ExitUsage;
      Config.Workers = static_cast<unsigned>(V);
    } else if (Arg.rfind("--cache=", 0) == 0)
      Config.Service.CachePath = Arg.substr(8);
    else if (Arg.rfind("--max-queue=", 0) == 0) {
      uint64_t V;
      if (!needUnsigned(12, V, 1))
        return ExitUsage;
      Config.Admission.MaxQueue = static_cast<size_t>(V);
    } else if (Arg.rfind("--degrade-depth=", 0) == 0) {
      uint64_t V;
      if (!needUnsigned(16, V))
        return ExitUsage;
      Config.Admission.DegradeDepth = static_cast<size_t>(V);
    } else if (Arg.rfind("--max-conns=", 0) == 0) {
      uint64_t V;
      if (!needUnsigned(12, V, 1, UINT_MAX))
        return ExitUsage;
      Config.MaxConnections = static_cast<unsigned>(V);
    } else if (Arg.rfind("--deadline=", 0) == 0) {
      uint64_t V;
      if (!needUnsigned(11, V))
        return ExitUsage;
      Config.Service.DefaultDeadlineMs = V;
      Req.DeadlineMs = V;
    } else if (Arg == "--no-memo")
      Config.Service.ResponseMemo = false;
    else if (Arg.rfind("--workers=", 0) == 0) {
      uint64_t V;
      if (!needUnsigned(10, V, 1, 64))
        return ExitUsage;
      FleetWorkers = static_cast<unsigned>(V);
    } else if (Arg.rfind("--restart-budget=", 0) == 0) {
      uint64_t V;
      if (!needUnsigned(17, V, 1, UINT_MAX))
        return ExitUsage;
      Fleet.RestartBudget = static_cast<unsigned>(V);
    } else if (Arg.rfind("--restart-window-ms=", 0) == 0) {
      if (!needUnsigned(20, Fleet.RestartWindowMs))
        return ExitUsage;
    } else if (Arg.rfind("--backoff-ms=", 0) == 0) {
      if (!needUnsigned(13, Fleet.BackoffBaseMs))
        return ExitUsage;
    } else if (Arg.rfind("--heartbeat-ms=", 0) == 0) {
      uint64_t V;
      if (!needUnsigned(15, V, 1))
        return ExitUsage;
      Fleet.HeartbeatIntervalMs = V;
    } else if (Arg.rfind("--forward-timeout=", 0) == 0) {
      uint64_t V;
      if (!needUnsigned(18, V, 1))
        return ExitUsage;
      Fleet.ForwardTimeoutMs = V;
    } else if (Arg.rfind("--breaker-threshold=", 0) == 0) {
      uint64_t V;
      if (!needUnsigned(20, V, 1, UINT_MAX))
        return ExitUsage;
      Fleet.BreakerThreshold = static_cast<unsigned>(V);
    } else if (Arg.rfind("--send=", 0) == 0) {
      SendFile = Arg.substr(7);
      ClientMode = true;
      if (SendFile.empty()) {
        std::cerr << "invalid --send value: expected a file path\n";
        return ExitUsage;
      }
    } else if (Arg.rfind("--method=", 0) == 0) {
      Req.Method = Arg.substr(9);
      if (Req.Method != "predict" && Req.Method != "analyze") {
        std::cerr << "invalid --method value: " << Arg
                  << " (expected predict or analyze)\n";
        return ExitUsage;
      }
    } else if (Arg.rfind("--predictor=", 0) == 0)
      Req.Predictor = Arg.substr(12);
    else if (Arg == "--ranges")
      Req.DumpRanges = true;
    else if (Arg.rfind("--budget=", 0) == 0) {
      if (!needUnsigned(9, Req.StepLimit))
        return ExitUsage;
    } else if (Arg == "--ping") {
      Req.Method = "ping";
      ClientMode = true;
    } else if (Arg == "--stats") {
      Req.Method = "stats";
      ClientMode = true;
    } else if (Arg == "--shutdown") {
      Req.Method = "shutdown";
      ClientMode = true;
    } else if (Arg == "--help") {
      printUsage();
      return ExitSuccess;
    } else {
      std::cerr << "unknown option: " << Arg << "\n";
      printUsage();
      return ExitUsage;
    }
  }

  if (Config.SocketPath.empty()) {
    std::cerr << "--socket=<path> is required\n";
    printUsage();
    return ExitUsage;
  }
  if (!ClientMode) {
    if (FleetWorkers == 0)
      return runServer(Config);
    // Fleet mode: the server knobs apply per worker; each worker is this
    // same binary in single-process server mode.
    Fleet.PublicSocket = Config.SocketPath;
    Fleet.Workers = FleetWorkers;
    Fleet.WorkerBinary = process::selfExePath();
    if (Fleet.WorkerBinary.empty())
      Fleet.WorkerBinary = argv[0];
    Fleet.CachePath = Config.Service.CachePath;
    Fleet.WorkerThreads = Config.Workers;
    Fleet.MaxQueue = static_cast<unsigned>(Config.Admission.MaxQueue);
    Fleet.DegradeDepth =
        static_cast<unsigned>(Config.Admission.DegradeDepth);
    Fleet.DefaultDeadlineMs = Config.Service.DefaultDeadlineMs;
    Fleet.ResponseMemo = Config.Service.ResponseMemo;
    Fleet.MaxConnections = Config.MaxConnections;
    return runFleet(Fleet);
  }

  if (!SendFile.empty()) {
    std::ifstream In(SendFile);
    if (!In) {
      std::cerr << "error: cannot open " << SendFile << "\n";
      return ExitUsage;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Req.Source = Buf.str();
  } else if (Req.Method == "predict" || Req.Method == "analyze") {
    std::cerr << "--method=" << Req.Method << " needs --send=<file.vl>\n";
    return ExitUsage;
  }
  Req.Id = 1;
  return runClient(Config.SocketPath, Req);
}

} // namespace

int main(int argc, char **argv) {
  try {
    return runTool(argc, argv);
  } catch (const std::exception &E) {
    std::cerr << "internal error: " << E.what() << "\n";
    return ExitInternal;
  } catch (...) {
    std::cerr << "internal error: unknown exception\n";
    return ExitInternal;
  }
}
