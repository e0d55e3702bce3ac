//===- tests/serve/ServerTest.cpp - Socket server tests --------------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "serve/Client.h"
#include "serve/Frame.h"
#include "support/Signal.h"

#include "gtest/gtest.h"

#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace vrp;
using namespace vrp::serve;

namespace {

const char *Source = "fn main() {\n"
                     "  var total = 0;\n"
                     "  for (var i = 0; i < 10; i = i + 1) {\n"
                     "    if (i < 5) {\n"
                     "      total = total + i;\n"
                     "    }\n"
                     "  }\n"
                     "  return total;\n"
                     "}\n";

/// A running server on a test-unique socket, drained on destruction.
struct RunningServer {
  std::unique_ptr<Server> S;
  std::thread Thread;

  explicit RunningServer(ServerConfig Config) {
    stopsignal::resetForTests();
    Status Why;
    S = Server::create(Config, &Why);
    EXPECT_TRUE(S != nullptr) << (Why.ok() ? "" : Why.error().str());
    if (S)
      Thread = std::thread([this] { EXPECT_TRUE(S->serve().ok()); });
  }
  ~RunningServer() {
    if (S)
      S->requestShutdown();
    if (Thread.joinable())
      Thread.join();
  }
};

std::string socketPath(const std::string &Name) {
  return "ServerTest_" + Name + ".sock";
}

ServerConfig baseConfig(const std::string &Name) {
  ServerConfig C;
  C.SocketPath = socketPath(Name);
  C.Workers = 2;
  return C;
}

TEST(ServerTest, ServesPredictOverTheSocket) {
  RunningServer Srv(baseConfig("predict"));
  ASSERT_TRUE(Srv.S != nullptr);
  Status Why;
  std::unique_ptr<Client> C = Client::connect(Srv.S->socketPath(), &Why);
  ASSERT_TRUE(C != nullptr) << Why.error().str();
  Request R;
  R.Id = 11;
  R.Method = "predict";
  R.Source = Source;
  StatusOr<Response> Resp = C->call(R);
  ASSERT_TRUE(Resp.ok()) << Resp.error().str();
  EXPECT_EQ(11u, Resp.value().Id);
  ASSERT_EQ(RespStatus::Ok, Resp.value().Status);
  EXPECT_NE(std::string::npos, Resp.value().Payload.find("fn @main:"));
}

TEST(ServerTest, ConcurrentClientsGetIdenticalBytes) {
  RunningServer Srv(baseConfig("concurrent"));
  ASSERT_TRUE(Srv.S != nullptr);
  constexpr unsigned N = 8;
  std::vector<std::string> Payloads(N);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([&, I] {
      std::unique_ptr<Client> C = Client::connect(Srv.S->socketPath());
      if (!C)
        return;
      Request R;
      R.Id = I;
      R.Method = "predict";
      R.Source = Source;
      StatusOr<Response> Resp = C->call(R);
      if (Resp.ok() && Resp.value().Status == RespStatus::Ok)
        Payloads[I] = Resp.value().Payload;
    });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned I = 0; I < N; ++I) {
    ASSERT_FALSE(Payloads[I].empty()) << "client " << I << " failed";
    EXPECT_EQ(Payloads[0], Payloads[I]);
  }
}

TEST(ServerTest, MalformedFrameGetsAProtocolErrorResponse) {
  RunningServer Srv(baseConfig("malformed"));
  ASSERT_TRUE(Srv.S != nullptr);
  std::unique_ptr<Client> C = Client::connect(Srv.S->socketPath());
  ASSERT_TRUE(C != nullptr);
  // Drive the framing layer directly with junk JSON.
  sockaddr_un Addr;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Srv.S->socketPath().c_str(),
               sizeof(Addr.sun_path) - 1);
  ASSERT_EQ(0, ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                         sizeof(Addr)));
  ASSERT_TRUE(writeFrame(Fd, "this is not json").ok());
  std::string Payload;
  ASSERT_EQ(FrameRead::Frame, readFrame(Fd, Payload));
  Response R;
  ASSERT_TRUE(parseResponse(Payload, R));
  EXPECT_EQ(RespStatus::Error, R.Status);
  EXPECT_EQ("protocol", R.Site);
  ::close(Fd);
  EXPECT_GE(Srv.S->stats().ProtocolErrors, 1u);
}

TEST(ServerTest, OverloadShedsInsteadOfHanging) {
  ServerConfig Config = baseConfig("overload");
  Config.Workers = 1;
  Config.Admission.MaxQueue = 2;
  Config.Admission.DegradeDepth = 1;
  Config.Service.ResponseMemo = false;
  RunningServer Srv(Config);
  ASSERT_TRUE(Srv.S != nullptr);

  constexpr unsigned Burst = 12;
  std::vector<int> Outcome(Burst, -1); // 0=ok 1=shed 2=error
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Burst; ++I)
    Threads.emplace_back([&, I] {
      std::unique_ptr<Client> C = Client::connect(Srv.S->socketPath());
      if (!C)
        return;
      Request R;
      R.Id = I;
      R.Method = "predict";
      R.Source = Source;
      StatusOr<Response> Resp = C->call(R);
      if (!Resp.ok())
        return;
      Outcome[I] = Resp.value().Status == RespStatus::Ok     ? 0
                   : Resp.value().Status == RespStatus::Shed ? 1
                                                             : 2;
    });
  for (std::thread &T : Threads)
    T.join();

  unsigned Ok = 0, Shed = 0, Unanswered = 0;
  for (unsigned I = 0; I < Burst; ++I) {
    if (Outcome[I] == 0)
      ++Ok;
    else if (Outcome[I] == 1)
      ++Shed;
    else
      ++Unanswered;
  }
  // Every request got SOME answer (join returned, nothing hung), at
  // least one was served, and with a queue of 2 against a burst of 12
  // at least one was shed with a structured response.
  EXPECT_EQ(0u, Unanswered);
  EXPECT_GE(Ok, 1u);
  EXPECT_GE(Shed, 1u);
  EXPECT_GE(Srv.S->stats().Admission.Shed, Shed);
}

TEST(ServerTest, DeadlineExpiredInQueueIsShedByTheWorker) {
  // One worker, so the second request waits in the queue while the first
  // occupies it; its 1ms deadline expires in the queue and the worker
  // must shed it with the structured reason instead of analyzing it.
  ServerConfig Config = baseConfig("queue_deadline");
  Config.Workers = 1;
  Config.Service.ResponseMemo = false;
  RunningServer Srv(Config);
  ASSERT_TRUE(Srv.S != nullptr);

  std::thread Occupier([&] {
    std::unique_ptr<Client> C = Client::connect(Srv.S->socketPath());
    if (!C)
      return;
    Request R;
    R.Id = 1;
    R.Method = "predict";
    R.Source = Source;
    (void)C->call(R);
  });
  // Let the occupier's request reach the lone worker first.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  std::unique_ptr<Client> C = Client::connect(Srv.S->socketPath());
  ASSERT_TRUE(C != nullptr);
  Request R;
  R.Id = 2;
  R.Method = "predict";
  R.Source = Source;
  R.DeadlineMs = 1;
  StatusOr<Response> Resp = C->call(R);
  Occupier.join();
  ASSERT_TRUE(Resp.ok()) << Resp.error().str();
  // Either the race was lost (the worker was free and served it inside
  // the deadline) or — the interesting path — it expired in the queue.
  if (Resp.value().Status == RespStatus::Shed) {
    EXPECT_EQ("admission", Resp.value().Site);
    EXPECT_EQ("deadline expired in queue", Resp.value().Message);
    EXPECT_GE(Srv.S->stats().Admission.ExpiredInQueue, 1u);
  }
}

TEST(ServerTest, ShutdownRequestDrainsTheServer) {
  ServerConfig Config = baseConfig("shutdown");
  Status Why;
  stopsignal::resetForTests();
  std::unique_ptr<Server> S = Server::create(Config, &Why);
  ASSERT_TRUE(S != nullptr) << (Why.ok() ? "" : Why.error().str());
  std::thread Thread([&] { EXPECT_TRUE(S->serve().ok()); });

  std::unique_ptr<Client> C = Client::connect(Config.SocketPath);
  ASSERT_TRUE(C != nullptr);
  Request R;
  R.Id = 1;
  R.Method = "shutdown";
  StatusOr<Response> Resp = C->call(R);
  ASSERT_TRUE(Resp.ok());
  EXPECT_EQ("draining", Resp.value().Payload);
  Thread.join(); // serve() returns: the drain completed.
  // The socket file is gone after a clean drain.
  EXPECT_NE(0, ::access(Config.SocketPath.c_str(), F_OK));
}

TEST(ServerTest, RequestsDuringDrainAreShedAsDraining) {
  ServerConfig Config = baseConfig("draining");
  stopsignal::resetForTests();
  Status Why;
  std::unique_ptr<Server> S = Server::create(Config, &Why);
  ASSERT_TRUE(S != nullptr);
  std::thread Thread([&] { (void)S->serve(); });
  std::unique_ptr<Client> C = Client::connect(Config.SocketPath);
  ASSERT_TRUE(C != nullptr);

  S->requestShutdown();
  // The already-open connection keeps being read until drain completes;
  // a request racing the drain is either served or shed "draining" —
  // never dropped without an answer.
  Request R;
  R.Id = 2;
  R.Method = "predict";
  R.Source = Source;
  StatusOr<Response> Resp = C->call(R);
  if (Resp.ok() && Resp.value().Status == RespStatus::Shed) {
    EXPECT_EQ("draining", Resp.value().Message);
  }
  Thread.join();
}

TEST(ServerTest, StaleSocketFileIsReclaimed) {
  // A dead server's socket file (no listener behind it) must not block
  // a restart — exactly the kill -9 recovery path.
  std::string Path = socketPath("stale");
  ::unlink(Path.c_str());
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  ASSERT_EQ(0,
            ::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)));
  ::close(Fd); // Bound then closed: the file stays, nobody listens.
  ASSERT_EQ(0, ::access(Path.c_str(), F_OK));

  ServerConfig Config;
  Config.SocketPath = Path;
  RunningServer Srv(Config);
  ASSERT_TRUE(Srv.S != nullptr);
  std::unique_ptr<Client> C = Client::connect(Path);
  EXPECT_TRUE(C != nullptr);
}

TEST(ServerTest, SecondServerOnALiveSocketRefusesToStart) {
  RunningServer First(baseConfig("live"));
  ASSERT_TRUE(First.S != nullptr);
  Status Why;
  std::unique_ptr<Server> Second =
      Server::create(baseConfig("live"), &Why);
  EXPECT_TRUE(Second == nullptr);
  ASSERT_FALSE(Why.ok());
  EXPECT_NE(std::string::npos,
            Why.error().Message.find("already listening"));
  // And the live server is unharmed — its socket still answers.
  std::unique_ptr<Client> C = Client::connect(First.S->socketPath());
  ASSERT_TRUE(C != nullptr);
  Request R;
  R.Method = "ping";
  StatusOr<Response> Resp = C->call(R);
  ASSERT_TRUE(Resp.ok());
  EXPECT_EQ("pong", Resp.value().Payload);
}

} // namespace
