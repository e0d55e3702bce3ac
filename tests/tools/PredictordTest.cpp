//===- tests/tools/PredictordTest.cpp - Daemon CLI contract ---------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// End-to-end checks of the predictord executable: exit codes (0 clean
// drain / answered requests, 2 usage, 6 startup or connect failure),
// the server/client round trip over a real socket, bitwise identity of
// `predictord --send` output with one-shot predictor_tool output, and
// refusal to start on a locked persistent cache. Binary paths are
// injected by CMake as PREDICTORD_PATH / PREDICTOR_TOOL_PATH.
//
//===----------------------------------------------------------------------===//

#include "support/ResultStore.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>

namespace {

int exitCode(int Raw) {
  if (Raw == -1)
    return -1;
  if (WIFEXITED(Raw))
    return WEXITSTATUS(Raw);
  return -1;
}

/// Runs predictord with \p Args, output to \p LogFile; returns exit code.
int runDaemon(const std::string &Args, const std::string &LogFile) {
  std::string Cmd = std::string(PREDICTORD_PATH) + " " + Args + " > " +
                    LogFile + " 2>&1";
  return exitCode(std::system(Cmd.c_str()));
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

std::string writeTemp(const std::string &Name, const std::string &Source) {
  std::string Path = ::testing::TempDir() + Name;
  std::ofstream Out(Path);
  Out << Source;
  return Path;
}

bool waitForSocket(const std::string &Path, bool Present, int Ms = 5000) {
  for (int Waited = 0; Waited < Ms; Waited += 20) {
    bool Exists = ::access(Path.c_str(), F_OK) == 0;
    if (Exists == Present)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

const char *ValidSource = R"(
fn main() {
  var total = 0;
  for (var i = 0; i < 10; i = i + 1) {
    if (i > 5) {
      total = total + i;
    }
  }
  return total;
}
)";

/// A predictord server launched in the background and drained via the
/// shutdown method on destruction.
class BackgroundServer {
public:
  explicit BackgroundServer(const std::string &Name,
                            const std::string &ExtraArgs = "") {
    Socket = ::testing::TempDir() + Name + ".sock";
    Log = ::testing::TempDir() + Name + ".server.log";
    std::remove(Socket.c_str());
    std::string Cmd = std::string(PREDICTORD_PATH) + " --socket=" + Socket +
                      " " + ExtraArgs + " > " + Log + " 2>&1 &";
    Started = std::system(Cmd.c_str()) == 0 &&
              waitForSocket(Socket, /*Present=*/true);
  }
  ~BackgroundServer() {
    if (!Started)
      return;
    std::string Cmd = std::string(PREDICTORD_PATH) + " --socket=" + Socket +
                      " --shutdown > /dev/null 2>&1";
    (void)std::system(Cmd.c_str());
    // A clean drain unlinks the socket file; waiting on that avoids
    // leaking the daemon past the test.
    waitForSocket(Socket, /*Present=*/false);
  }

  bool Started = false;
  std::string Socket;
  std::string Log;
};

class PredictordTest : public ::testing::Test {
protected:
  std::string Log = ::testing::TempDir() + "predictord_" +
                    ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name() +
                    ".log";
};

TEST_F(PredictordTest, UnknownFlagExitsTwoWithUsage) {
  EXPECT_EQ(runDaemon("--definitely-not-a-flag", Log), 2);
  EXPECT_NE(slurp(Log).find("usage"), std::string::npos) << slurp(Log);
}

TEST_F(PredictordTest, OutOfRangeFlagExitsTwoNamingItsRange) {
  const std::pair<const char *, const char *> Cases[] = {
      {"--threads=0", "invalid --threads value: --threads=0 (expected 1-256)"},
      {"--threads=257",
       "invalid --threads value: --threads=257 (expected 1-256)"},
      {"--workers=65", "invalid --workers value: --workers=65 (expected 1-64)"},
      {"--max-conns=0",
       "invalid --max-conns value: --max-conns=0 (expected 1-4294967295)"},
      {"--max-queue=0", "invalid --max-queue value: --max-queue=0 (expected "
                        "1-18446744073709551615)"},
      {"--heartbeat-ms=x",
       "invalid --heartbeat-ms value: --heartbeat-ms=x (expected "
       "1-18446744073709551615)"},
      {"--deadline=x", "invalid --deadline value: --deadline=x\n"},
  };
  for (const auto &[Flag, Message] : Cases) {
    EXPECT_EQ(runDaemon(std::string("--socket=unused.sock ") + Flag, Log), 2)
        << Flag;
    EXPECT_NE(slurp(Log).find(Message), std::string::npos) << slurp(Log);
  }
}

TEST_F(PredictordTest, UnwritableSocketDirectoryExitsSix) {
  EXPECT_EQ(
      runDaemon("--socket=/nonexistent-dir-for-predictord/d.sock", Log), 6)
      << slurp(Log);
}

TEST_F(PredictordTest, ClientWithoutServerExitsSix) {
  std::string File = writeTemp("pd_noserver.vl", ValidSource);
  std::string Socket = ::testing::TempDir() + "pd_noserver.sock";
  std::remove(Socket.c_str());
  EXPECT_EQ(runDaemon("--socket=" + Socket + " --send=" + File, Log), 6)
      << slurp(Log);
}

TEST_F(PredictordTest, LockedCacheRefusedAtStartup) {
  std::string Cache = ::testing::TempDir() + "pd_locked.pcache";
  std::remove(Cache.c_str());
  // This process holds the store's writer lock; the daemon must refuse
  // to start rather than share the append stream.
  auto Store = vrp::store::ResultStore::open(Cache, 1);
  ASSERT_NE(Store, nullptr);
  std::string Socket = ::testing::TempDir() + "pd_locked.sock";
  EXPECT_EQ(runDaemon("--socket=" + Socket + " --cache=" + Cache, Log), 6);
  EXPECT_NE(slurp(Log).find("locked"), std::string::npos) << slurp(Log);
  Store.reset();
  std::remove(Cache.c_str());
}

TEST_F(PredictordTest, ServedPredictionIsBitwiseIdenticalToOneShot) {
  BackgroundServer Srv("pd_identity");
  ASSERT_TRUE(Srv.Started) << slurp(Srv.Log);
  std::string File = writeTemp("pd_identity.vl", ValidSource);

  std::string ServedOut = ::testing::TempDir() + "pd_identity.served";
  std::string Cmd = std::string(PREDICTORD_PATH) + " --socket=" +
                    Srv.Socket + " --send=" + File + " > " + ServedOut +
                    " 2>/dev/null";
  ASSERT_EQ(exitCode(std::system(Cmd.c_str())), 0) << slurp(Srv.Log);

  std::string OneShotOut = ::testing::TempDir() + "pd_identity.oneshot";
  Cmd = std::string(PREDICTOR_TOOL_PATH) + " " + File + " > " + OneShotOut +
        " 2>/dev/null";
  ASSERT_EQ(exitCode(std::system(Cmd.c_str())), 0);

  // The serving contract: the daemon's answer is the one-shot tool's
  // stdout, byte for byte.
  EXPECT_EQ(slurp(OneShotOut), slurp(ServedOut));
}

TEST_F(PredictordTest, PingAndStatsAnswerAgainstALiveServer) {
  BackgroundServer Srv("pd_ping");
  ASSERT_TRUE(Srv.Started) << slurp(Srv.Log);
  EXPECT_EQ(runDaemon("--socket=" + Srv.Socket + " --ping", Log), 0);
  EXPECT_NE(slurp(Log).find("pong"), std::string::npos) << slurp(Log);
  EXPECT_EQ(runDaemon("--socket=" + Srv.Socket + " --stats", Log), 0);
  EXPECT_NE(slurp(Log).find("\"admission\""), std::string::npos)
      << slurp(Log);
}

TEST_F(PredictordTest, SecondServerOnTheSameSocketExitsSix) {
  BackgroundServer Srv("pd_second");
  ASSERT_TRUE(Srv.Started) << slurp(Srv.Log);
  EXPECT_EQ(runDaemon("--socket=" + Srv.Socket, Log), 6);
  EXPECT_NE(slurp(Log).find("already listening"), std::string::npos)
      << slurp(Log);
}

TEST_F(PredictordTest, ParseErrorsAreAnsweredNotFatal) {
  BackgroundServer Srv("pd_parse");
  ASSERT_TRUE(Srv.Started) << slurp(Srv.Log);
  std::string Bad = writeTemp("pd_parse.vl", "fn main( {");
  EXPECT_EQ(runDaemon("--socket=" + Srv.Socket + " --send=" + Bad, Log), 1);
  EXPECT_NE(slurp(Log).find("parse"), std::string::npos) << slurp(Log);
  // The server survived the bad request.
  EXPECT_EQ(runDaemon("--socket=" + Srv.Socket + " --ping", Log), 0);
}

} // namespace
