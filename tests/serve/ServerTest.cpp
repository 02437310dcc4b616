//===- tests/serve/ServerTest.cpp - Socket-layer daemon contract ----------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// The daemon over real loopback sockets: keep-alive, concurrent-client
// determinism, deterministic 429 backpressure, graceful SIGTERM drain,
// idle/mid-request timeouts, malformed-stream robustness, and serving
// through a fault-injected (degraded) result store. Each test stands
// up its own server on an ephemeral port.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Server.h"
#include "serve/Service.h"
#include "support/FaultInjector.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <thread>

using namespace pdt;
using namespace pdt::serve;

namespace {

ServerConfig testConfig() {
  ServerConfig C;
  C.Port = 0; // ephemeral
  C.Threads = 2;
  C.QueueCapacity = 8;
  C.IdleTimeoutMs = 2000;
  return C;
}

/// Server + service with scoped teardown so a failing assertion cannot
/// leak a listening socket into the next test.
struct TestDaemon {
  Service Svc;
  Server Daemon;

  explicit TestDaemon(ServerConfig C = testConfig(),
                      ServiceLimits L = ServiceLimits())
      : Svc(L), Daemon(C, Svc) {
    std::string Error;
    Ok = Daemon.start(&Error);
    EXPECT_TRUE(Ok) << Error;
  }
  ~TestDaemon() {
    Daemon.requestDrain();
    Daemon.waitDrained();
  }
  uint16_t port() const { return Daemon.port(); }
  bool Ok = false;
};

TEST(Server, BindsEphemeralPortAndServes) {
  TestDaemon D;
  ASSERT_TRUE(D.Ok);
  ASSERT_NE(D.port(), 0);

  Client C;
  std::string Error;
  ASSERT_TRUE(C.connectTo(D.port(), &Error)) << Error;
  ClientResponse R;
  ASSERT_TRUE(C.get("/healthz", R, &Error)) << Error;
  EXPECT_EQ(R.Status, 200);
  ASSERT_NE(R.header("Content-Type"), nullptr);
  EXPECT_EQ(*R.header("Content-Type"), "application/json");
}

TEST(Server, KeepAliveServesManyRequestsOnOneConnection) {
  TestDaemon D;
  Client C;
  std::string Error;
  ASSERT_TRUE(C.connectTo(D.port(), &Error)) << Error;
  for (int I = 0; I != 5; ++I) {
    ClientResponse R;
    ASSERT_TRUE(C.post("/v1/analyze", "{\"corpus\":\"daxpy\"}", R, &Error))
        << Error << " at request " << I;
    EXPECT_EQ(R.Status, 200);
  }
  ServerStats S = D.Daemon.stats();
  EXPECT_EQ(S.Accepted, 1u); // one connection carried all five
  EXPECT_EQ(S.Requests, 5u);
}

TEST(Server, ConcurrentClientsGetByteIdenticalPayloads) {
  TestDaemon D;
  const std::string Body = "{\"corpus\":\"dgefa_update\",\"explain\":true}";

  Client Reference;
  std::string Error;
  ASSERT_TRUE(Reference.connectTo(D.port(), &Error)) << Error;
  ClientResponse Expected;
  ASSERT_TRUE(Reference.post("/v1/analyze", Body, Expected, &Error)) << Error;
  ASSERT_EQ(Expected.Status, 200);

  constexpr int NumClients = 4, PerClient = 6;
  std::vector<std::string> Failures(NumClients);
  std::vector<std::vector<std::string>> Bodies(NumClients);
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumClients; ++T)
    Threads.emplace_back([&, T] {
      Client C;
      std::string E;
      if (!C.connectTo(D.port(), &E)) {
        Failures[T] = E;
        return;
      }
      for (int I = 0; I != PerClient; ++I) {
        ClientResponse R;
        if (!C.post("/v1/analyze", Body, R, &E)) {
          Failures[T] = E;
          return;
        }
        Bodies[T].push_back(R.Body);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (int T = 0; T != NumClients; ++T) {
    EXPECT_TRUE(Failures[T].empty()) << Failures[T];
    ASSERT_EQ(Bodies[T].size(), static_cast<size_t>(PerClient));
    for (const std::string &B : Bodies[T])
      EXPECT_EQ(B, Expected.Body) << "thread " << T;
  }
}

TEST(Server, SaturationAnswers429WithRetryAfter) {
  // One worker, zero queue: a single idle keep-alive connection pins
  // the worker, so the next connection is deterministically rejected.
  ServerConfig C = testConfig();
  C.Threads = 1;
  C.QueueCapacity = 0;
  TestDaemon D(C);

  Client Pin;
  std::string Error;
  ASSERT_TRUE(Pin.connectTo(D.port(), &Error)) << Error;
  // Prove the worker owns the connection (and stays on it after the
  // response: keep-alive).
  ClientResponse First;
  ASSERT_TRUE(Pin.get("/healthz", First, &Error)) << Error;
  ASSERT_EQ(First.Status, 200);

  // The 429 is written by the accept loop without waiting for a
  // request, so connect-then-read suffices.
  Client Rejected;
  ASSERT_TRUE(Rejected.connectTo(D.port(), &Error)) << Error;
  ClientResponse R;
  ASSERT_TRUE(Rejected.readResponse(R, &Error)) << Error;
  EXPECT_EQ(R.Status, 429);
  ASSERT_NE(R.header("Retry-After"), nullptr);
  EXPECT_EQ(*R.header("Retry-After"), "1");

  EXPECT_GE(D.Daemon.stats().Rejected429, 1u);

  // Releasing the pinned connection restores service.
  Pin.close();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Client Again;
  ASSERT_TRUE(Again.connectTo(D.port(), &Error)) << Error;
  ClientResponse R2;
  ASSERT_TRUE(Again.get("/healthz", R2, &Error)) << Error;
  EXPECT_EQ(R2.Status, 200);
}

TEST(Server, SigtermDrainsGracefully) {
  auto D = std::make_unique<TestDaemon>();
  uint16_t Port = D->port();

  // An open keep-alive connection must not wedge the drain.
  Client Idle;
  std::string Error;
  ASSERT_TRUE(Idle.connectTo(Port, &Error)) << Error;
  ClientResponse R;
  ASSERT_TRUE(Idle.get("/healthz", R, &Error)) << Error;
  ASSERT_EQ(R.Status, 200);

  Server::installSignalHandlers(&D->Daemon);
  std::raise(SIGTERM); // the real signal path, in-process
  Server::installSignalHandlers(nullptr);

  EXPECT_TRUE(D->Daemon.draining());
  D->Daemon.waitDrained(); // must return: listener closed, workers joined

  // New connections are refused after the drain.
  Client After;
  EXPECT_FALSE(After.connectTo(Port, &Error));
  D.reset();
}

TEST(Server, MidRequestStallAnswers408) {
  ServerConfig C = testConfig();
  C.IdleTimeoutMs = 200;
  TestDaemon D(C);

  Client Stalled;
  std::string Error;
  ASSERT_TRUE(Stalled.connectTo(D.port(), &Error)) << Error;
  ASSERT_TRUE(Stalled.sendRaw("POST /v1/analyze HTTP/1.1\r\n"
                              "Content-Length: 100\r\n\r\n{\"cor",
                              &Error))
      << Error;
  ClientResponse R;
  ASSERT_TRUE(Stalled.readResponse(R, &Error)) << Error;
  EXPECT_EQ(R.Status, 408);
  EXPECT_GE(D.Daemon.stats().IdleTimeouts, 1u);
}

TEST(Server, SilentIdleConnectionIsReapedWithoutAResponse) {
  ServerConfig C = testConfig();
  C.IdleTimeoutMs = 150;
  TestDaemon D(C);

  Client Idle;
  std::string Error;
  ASSERT_TRUE(Idle.connectTo(D.port(), &Error)) << Error;
  ClientResponse R;
  EXPECT_FALSE(Idle.readResponse(R, &Error)); // closed, no bytes
}

TEST(Server, MalformedStreamIsClassifiedNotFatal) {
  TestDaemon D;
  std::string Error;

  struct Case {
    const char *Wire;
    int Status;
  } Cases[] = {
      {"GARBAGE NOISE\r\n\r\n", 400},
      {"GET /x HTTP/3.0\r\n\r\n", 505},
      {"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
  };
  for (const Case &K : Cases) {
    Client C;
    ASSERT_TRUE(C.connectTo(D.port(), &Error)) << Error;
    ASSERT_TRUE(C.sendRaw(K.Wire, &Error)) << Error;
    ClientResponse R;
    ASSERT_TRUE(C.readResponse(R, &Error)) << K.Wire << ": " << Error;
    EXPECT_EQ(R.Status, K.Status) << K.Wire;
  }
  EXPECT_GE(D.Daemon.stats().ParseFailures, 3u);

  // The daemon is still healthy afterwards.
  Client C;
  ASSERT_TRUE(C.connectTo(D.port(), &Error)) << Error;
  ClientResponse R;
  ASSERT_TRUE(C.get("/healthz", R, &Error)) << Error;
  EXPECT_EQ(R.Status, 200);
}

TEST(Server, OversizedDeclaredBodyIs413BeforeTheBodyArrives) {
  ServerConfig C = testConfig();
  C.MaxBodyBytes = 2048;
  TestDaemon D(C);

  Client Big;
  std::string Error;
  ASSERT_TRUE(Big.connectTo(D.port(), &Error)) << Error;
  ASSERT_TRUE(Big.sendRaw("POST /v1/analyze HTTP/1.1\r\n"
                          "Content-Length: 1048576\r\n\r\n",
                          &Error))
      << Error;
  ClientResponse R;
  ASSERT_TRUE(Big.readResponse(R, &Error)) << Error;
  EXPECT_EQ(R.Status, 413);
}

TEST(Server, OversizedHeaderBlockIs431) {
  ServerConfig C = testConfig();
  C.MaxHeaderBytes = 512;
  TestDaemon D(C);

  std::string Wire = "GET /healthz HTTP/1.1\r\n";
  for (int I = 0; I != 64; ++I)
    Wire += "X-Padding-" + std::to_string(I) + ": aaaaaaaaaaaaaaaaaaaa\r\n";
  Wire += "\r\n";

  Client C2;
  std::string Error;
  ASSERT_TRUE(C2.connectTo(D.port(), &Error)) << Error;
  ASSERT_TRUE(C2.sendRaw(Wire, &Error)) << Error;
  ClientResponse R;
  ASSERT_TRUE(C2.readResponse(R, &Error)) << Error;
  EXPECT_EQ(R.Status, 431);
}

TEST(Server, TruncatedRequestThenDisconnectLeavesServerHealthy) {
  TestDaemon D;
  std::string Error;
  {
    Client Truncated;
    ASSERT_TRUE(Truncated.connectTo(D.port(), &Error)) << Error;
    ASSERT_TRUE(
        Truncated.sendRaw("POST /v1/analyze HTTP/1.1\r\nContent-", &Error));
  } // destructor closes mid-header

  Client C;
  ASSERT_TRUE(C.connectTo(D.port(), &Error)) << Error;
  ClientResponse R;
  ASSERT_TRUE(C.post("/v1/analyze", "{\"corpus\":\"daxpy\"}", R, &Error))
      << Error;
  EXPECT_EQ(R.Status, 200);
}

TEST(Server, Expect100ContinueGetsAnInterimResponse) {
  TestDaemon D;
  Client C;
  std::string Error;
  ASSERT_TRUE(C.connectTo(D.port(), &Error)) << Error;
  const std::string Body = "{\"corpus\":\"daxpy\"}";
  ASSERT_TRUE(C.sendRaw("POST /v1/analyze HTTP/1.1\r\n"
                        "Expect: 100-continue\r\n"
                        "Content-Length: " +
                            std::to_string(Body.size()) + "\r\n\r\n",
                        &Error))
      << Error;
  ClientResponse Interim;
  ASSERT_TRUE(C.readResponse(Interim, &Error)) << Error;
  ASSERT_EQ(Interim.Status, 100);
  ASSERT_TRUE(C.sendRaw(Body, &Error)) << Error;
  ClientResponse Final;
  ASSERT_TRUE(C.readResponse(Final, &Error)) << Error;
  EXPECT_EQ(Final.Status, 200);
}

TEST(Server, RequestLatencyLandsInTheServeHistogram) {
  Metrics::reset();
  Metrics::enable();
  {
    TestDaemon D;
    Client C;
    std::string Error;
    ASSERT_TRUE(C.connectTo(D.port(), &Error)) << Error;
    ClientResponse R;
    ASSERT_TRUE(C.post("/v1/analyze", "{\"corpus\":\"daxpy\"}", R, &Error))
        << Error;
    ASSERT_EQ(R.Status, 200);
  }
  MetricsSnapshot S = Metrics::snapshot();
  Metrics::stop();
  EXPECT_GE(S.histogram(Histo::ServeRequestNs).Count, 1u);
  EXPECT_GE(S.counter(Metric::ServeRequests), 1u);
  EXPECT_GE(S.counter(Metric::ServeConnections), 1u);
  EXPECT_GE(S.counter(Metric::ServeAnalyses), 1u);
}

TEST(Server, ServesIdenticallyWhileTheStoreIsDegraded) {
  // Arm the store through the environment, break its writes with the
  // I/O fault injector, and require byte-identical analysis responses:
  // persistence degrades to memory, serving must not notice.
  namespace fs = std::filesystem;
  fs::path Dir =
      fs::temp_directory_path() / "pdt_serve_store_degraded_test";
  fs::remove_all(Dir);
  fs::create_directories(Dir);

  TestDaemon D;
  Client C;
  std::string Error;
  ASSERT_TRUE(C.connectTo(D.port(), &Error)) << Error;
  const std::string Body = "{\"corpus\":\"dgefa_update\"}";
  ClientResponse Healthy;
  ASSERT_TRUE(C.post("/v1/analyze", Body, Healthy, &Error)) << Error;
  ASSERT_EQ(Healthy.Status, 200);

  ::setenv("PDT_STORE", "on", 1);
  ::setenv("PDT_STORE_DIR", Dir.string().c_str(), 1);
  FaultInjector::armIo(IoFaultKind::Write, 1);
  ClientResponse Degraded;
  bool SendOk = C.post("/v1/analyze", Body, Degraded, &Error);
  FaultInjector::disarm();
  ::unsetenv("PDT_STORE");
  ::unsetenv("PDT_STORE_DIR");
  fs::remove_all(Dir);

  ASSERT_TRUE(SendOk) << Error;
  EXPECT_EQ(Degraded.Status, 200);
  EXPECT_EQ(Degraded.Body, Healthy.Body);
}

} // namespace
