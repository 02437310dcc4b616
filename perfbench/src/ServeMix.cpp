//===- perfbench/src/ServeMix.cpp - depserved under independent users -----===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// serve_mix: independent users of the analysis service. The request
// bodies come from a fixed seeded population with skewed popularity:
// mostly tiny corpus kernels, KernelGen kernels from the paper's strata
// (some of them renamed or shifted copies of others), programs just
// above the per-build pool threshold, and a few batches.
//
// Timed run: the request sequence back to back through the server's
// request path in process (HTTP parse, Service::handle, response
// serialization); every answer must be byte-equal to the one a fresh
// in-process Service gave in setup. Traced run: an in-process Server
// (one worker) driven over loopback by an open-loop generator (seeded
// Poisson arrivals, each request timed from the moment it was due)
// gives the socket-side figures: latency at a fixed offered rate, the
// highest rate on a geometric ladder whose p99 stays under the latency
// limit without a growing backlog, admission-queue waits, round trips,
// and the generator's own health.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"
#include "Layers.h"
#include "Tracer.h"

#include "driver/Corpus.h"
#include "serve/AccessLog.h"
#include "serve/Client.h"
#include "serve/Http.h"
#include "serve/Server.h"
#include "serve/Service.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <set>

#include <time.h>
#include <unistd.h>

using namespace pb;
using namespace pdt;

namespace {

/// One server worker and one client connection keep the open loop to
/// two busy threads: on a shared 4-vCPU host, loading all four cores
/// invites the hypervisor to steal them, and the steal then dominates
/// every latency figure.
/// The fixed offered rate latency_p50/p99 are measured at.
constexpr double FixedRateRps = 1000;
/// max_rate_rps: the p99 limit and the ladder (5% steps from 500/s).
constexpr double LatencyLimitUs = 10000;
constexpr double LadderBase = 500;
constexpr double LadderStep = 1.05;
/// A probe whose last tenth of requests found, at the median, more than
/// this many due but unsent requests has a growing backlog (a host
/// stall makes a brief spike, not a median).
constexpr double BacklogLimit = 8;
/// Generator health: a run whose own sleep overshoot (not waiting for
/// a busy connection) exceeds this at p99 measured the generator, not
/// the server, and is retried. Virtual machines deschedule a sleeping
/// or even spinning thread for milliseconds at a time, so the limit
/// sits at half the latency limit.
constexpr double GeneratorLateLimitUs = 5000;
/// Requests whose content counts for gen.repeat_frac and the traced
/// in-process phases.
constexpr size_t SampleRequests = 4000;
/// Requests of the sequence one setup sends to warm the service, so a
/// setup lasts long enough that one host stall barely moves setup_s.
constexpr size_t WarmupRequests = 3000;

struct Member {
  std::string Target;
  std::string Body;
  /// Canonical content (renamed/shifted copies share it).
  std::string Content;
  /// Kernel sources for the in-process layer decomposition.
  std::vector<std::pair<std::string, std::string>> Kernels;
};

std::string sourceBody(const std::string &Source) {
  return "{\"source\":\"" + json::escape(Source) + "\"}";
}

/// The seeded population and its request sequence.
struct Population {
  std::vector<Member> Members;
  std::vector<uint32_t> Sequence;
};

Population buildPopulation(uint64_t Seed) {
  Population P;
  std::mt19937_64 Rng(mixSeed(Seed, 0x7000));
  std::vector<std::vector<uint32_t>> Classes(4);
  auto Add = [&P, &Classes](unsigned Class, Member M) {
    Classes[Class].push_back(P.Members.size());
    P.Members.push_back(std::move(M));
  };

  // Class 0: tiny corpus kernels (at most 26 pairs each).
  AnalyzerOptions Serial;
  Serial.NumThreads = 1;
  std::vector<const CorpusKernel *> Tiny;
  for (const CorpusKernel &K : corpus()) {
    AnalysisResult R = analyzeSource(K.Source, K.Name, Serial);
    if (R.Parsed && R.Stats.ReferencePairs <= 26)
      Tiny.push_back(&K);
  }
  for (const CorpusKernel *K : Tiny)
    Add(0, {"/v1/analyze", "{\"corpus\":\"" + K->Name + "\"}",
            "corpus:" + K->Name, {{K->Name, K->Source}}});

  // Class 1: KernelGen kernels from the ZIV..CoupledMIV and
  // SymbolicBound strata, plus renamed or shifted copies of them.
  std::vector<NestModel> Fuzz;
  for (unsigned K = 0; K != 64; ++K)
    Fuzz.push_back(fuzzNest(mixSeed(Seed, 0x7100), K / 8, K % 8));
  for (unsigned K = 0; K != 32; ++K) {
    const NestModel &Base = Fuzz[Rng() % 64];
    Fuzz.push_back(K % 2 ? Base.renamed("c")
                         : Base.shifted(1 + static_cast<int64_t>(Rng() % 4)));
  }
  for (size_t K = 0; K != Fuzz.size(); ++K) {
    std::string Source = Fuzz[K].render("a");
    Add(1, {"/v1/analyze", sourceBody(Source), Fuzz[K].canonicalKey(),
            {{"fuzz-" + std::to_string(K), Source}}});
  }

  // Class 2: medium programs, just above the 32-pair per-build pool
  // threshold: KernelGen nests with their own arrays, added until the
  // program has more than 32 pairs.
  for (unsigned K = 0; K != 32; ++K) {
    std::vector<NestModel> Nests;
    std::string Source;
    for (unsigned N = 0; N != 64; ++N) {
      Nests.push_back(fuzzNest(mixSeed(Seed, 0x7200 + K), N / 8, N % 8));
      Source = programFromModels("medium", Nests, "m").Source;
      if (analyzeSource(Source, "medium", Serial).Stats.ReferencePairs > 32)
        break;
    }
    Add(2, {"/v1/analyze", sourceBody(Source), Source,
            {{"medium-" + std::to_string(K), Source}}});
  }

  // Class 3: a few batches of tiny and generated kernels.
  for (unsigned K = 0; K != 8; ++K) {
    Member M;
    M.Target = "/v1/batch";
    M.Body = "{\"kernels\":[";
    for (unsigned J = 0; J != 3; ++J) {
      const Member &Part = P.Members[Classes[J % 2][Rng() % Classes[J % 2].size()]];
      M.Body += (J ? "," : "") + Part.Body;
      M.Content += Part.Content + "|";
      M.Kernels.push_back(Part.Kernels.front());
    }
    M.Body += "]}";
    Add(3, std::move(M));
  }

  // Skewed popularity: a class by fixed shares, then a Zipf(1) rank
  // within the tiny class, in corpus order so every seed has the same
  // hot kernels. The generated classes are drawn uniformly, so no seed
  // makes one unusually cheap or costly kernel the hot one; their
  // renamed and shifted copies still repeat content.
  static const double Share[] = {0.55, 0.30, 0.10, 0.05};
  std::vector<std::vector<double>> Cumulative(4);
  for (unsigned C = 0; C != 4; ++C) {
    double Sum = 0;
    for (size_t R = 0; R != Classes[C].size(); ++R)
      Cumulative[C].push_back(Sum += C == 0 ? 1.0 / static_cast<double>(R + 1)
                                            : 1.0);
  }
  std::uniform_real_distribution<double> U(0, 1);
  P.Sequence.resize(1 << 16);
  for (uint32_t &Slot : P.Sequence) {
    double X = U(Rng);
    unsigned C = 0;
    while (C != 3 && X >= Share[C])
      X -= Share[C++];
    double Y = U(Rng) * Cumulative[C].back();
    size_t R = std::lower_bound(Cumulative[C].begin(), Cumulative[C].end(), Y) -
               Cumulative[C].begin();
    Slot = Classes[C][std::min(R, Classes[C].size() - 1)];
  }
  return P;
}

serve::ServiceLimits serviceLimits() {
  serve::ServiceLimits L;
  // No budget: nothing may degrade.
  L.DeadlineMs = 0;
  L.MaxPairs = 0;
  L.JobThreads = 1;
  return L;
}

serve::HttpRequest httpRequest(const Member &M) {
  serve::HttpRequest Req;
  Req.Method = "POST";
  Req.Target = M.Target;
  Req.Version = "HTTP/1.1";
  Req.Headers.push_back({"Content-Type", "application/json"});
  Req.Body = M.Body;
  return Req;
}

std::string wireBytes(const Member &M) {
  return "POST " + M.Target +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(M.Body.size()) + "\r\n\r\n" + M.Body;
}

/// Everything one setup builds; torn down in reverse order.
struct ServeEnv {
  ServeEnv() = default;
  ServeEnv(const ServeEnv &) = delete;
  ServeEnv &operator=(const ServeEnv &) = delete;

  Population Pop;
  std::vector<std::string> Expected;
  std::unique_ptr<serve::Service> Svc;
  std::unique_ptr<serve::Server> Srv;
  std::unique_ptr<serve::Client> Conn;

  ~ServeEnv() {
    Conn.reset();
    if (Srv) {
      Srv->requestDrain();
      Srv->waitDrained();
    }
  }
};

/// The server's request path without the socket: parse the request
/// bytes, route them through the service, serialize the response.
serve::HttpResponse answerInProcess(serve::Service &Svc,
                                    const std::string &Wire) {
  serve::RequestParser Parser;
  if (Parser.feed(Wire) != serve::RequestParser::State::Complete)
    return serve::errorResponse(Parser.errorStatus(), Parser.errorDetail());
  serve::HttpResponse Resp = Svc.handle(Parser.request());
  Resp.serialize();
  return Resp;
}

/// \p WithServer also starts the socket server and connects the client.
std::unique_ptr<ServeEnv> setUp(uint64_t Seed, bool WithServer) {
  auto E = std::make_unique<ServeEnv>();
  E->Pop = buildPopulation(Seed);
  // The reference answers, from a fresh in-process service.
  serve::Service Reference(serviceLimits());
  for (const Member &M : E->Pop.Members) {
    serve::HttpResponse Resp = Reference.handle(httpRequest(M));
    if (Resp.Status != 200)
      throw std::runtime_error("reference service answered " +
                               std::to_string(Resp.Status) + " for " +
                               M.Body.substr(0, 80));
    E->Expected.push_back(Resp.Body);
  }
  for (std::string &Body : E->Expected)
    Body += SabotageReferences ? "\n" : "";
  if (Reference.counters().DegradedResults)
    throw std::runtime_error("reference analyses degraded");

  E->Svc = std::make_unique<serve::Service>(serviceLimits());
  for (const Member &M : E->Pop.Members)
    if (answerInProcess(*E->Svc, wireBytes(M)).Status != 200)
      throw std::runtime_error("warmup request failed");
  // Then the head of the request sequence, so the measured requests
  // start from a warm process.
  for (size_t K = 0; K != WarmupRequests; ++K)
    if (answerInProcess(*E->Svc, wireBytes(E->Pop.Members[E->Pop.Sequence[K]]))
            .Status != 200)
      throw std::runtime_error("warmup request failed");
  if (!WithServer)
    return E;
  serve::ServerConfig Config;
  Config.Port = 0;
  Config.Threads = 1;
  Config.QueueCapacity = 16;
  Config.IdleTimeoutMs = 600000;
  E->Srv = std::make_unique<serve::Server>(Config, *E->Svc);
  std::string Error;
  if (!E->Srv->start(&Error))
    throw std::runtime_error("server did not start: " + Error);
  E->Conn = std::make_unique<serve::Client>();
  if (!E->Conn->connectTo(E->Srv->port(), &Error))
    throw std::runtime_error("cannot connect: " + Error);
  // Warm the connection with every member (bodies are checked on every
  // measured request).
  for (const Member &M : E->Pop.Members) {
    serve::ClientResponse Resp;
    if (!E->Conn->request("POST", M.Target, M.Body, Resp, &Error) ||
        Resp.Status != 200)
      throw std::runtime_error("warmup request failed: " + Error);
  }
  return E;
}

void sleepUntil(int64_t Ns) {
  timespec TS;
  TS.tv_sec = Ns / 1000000000;
  TS.tv_nsec = Ns % 1000000000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &TS, nullptr) == EINTR) {
  }
}

struct LoadResult {
  std::vector<double> LatUs;
  std::vector<double> LateUs;
  uint64_t BacklogMax = 0;
  /// Backlogs the last tenth of the requests found.
  std::vector<double> BacklogEnd;
  uint64_t Failed = 0;
  double WallS = 0;
  std::vector<std::string> Errors;

  /// The p99 of each window of 1000 consecutive requests (10 samples
  /// beyond it), medianed over the windows: one descheduling stall of
  /// the host moves one window, not the figure.
  double p99() const {
    if (LatUs.size() < 2000)
      return quantile(LatUs, 0.99);
    std::vector<double> PerWindow;
    for (size_t W = 0; W + 1000 <= LatUs.size(); W += 1000)
      PerWindow.push_back(quantile(
          std::vector<double>(LatUs.begin() + W, LatUs.begin() + W + 1000),
          0.99));
    return median(PerWindow);
  }
  bool healthy() const { return quantile(LateUs, 0.99) <= GeneratorLateLimitUs; }
};

/// Sends \p N requests starting at sequence slot \p Offset. With
/// \p Rate > 0 they arrive open-loop as a Poisson process of that
/// rate; with Rate == 0 they go back to back (closed loop).
/// \p FreshConnections opens one connection per request.
LoadResult drive(ServeEnv &E, double Rate, size_t N, uint64_t Offset,
                 uint64_t ArrivalSeed, Tracer *T, bool FreshConnections) {
  std::vector<int64_t> Due(N, 0);
  if (Rate > 0) {
    std::mt19937_64 Rng(ArrivalSeed);
    std::exponential_distribution<double> Gap(Rate);
    double At = 0;
    for (int64_t &D : Due) {
      At += Gap(Rng);
      D = static_cast<int64_t>(At * 1e9);
    }
  }
  LoadResult Out;
  serve::Client Fresh;
  int64_t T0 = nowNs() + 2000000;
  int64_t FreeAt = T0;
  for (size_t K = 0; K != N; ++K) {
    int64_t DueAt = Rate > 0 ? T0 + Due[K] : std::max(T0, nowNs());
    if (nowNs() < DueAt)
      sleepUntil(DueAt);
    int64_t Send = nowNs();
    Out.LateUs.push_back(static_cast<double>(Send - std::max(DueAt, FreeAt)) /
                         1000.0);
    if (Rate > 0) {
      size_t DueCount =
          std::upper_bound(Due.begin(), Due.end(), Send - T0) - Due.begin();
      uint64_t Backlog = DueCount > K + 1 ? DueCount - K - 1 : 0;
      Out.BacklogMax = std::max(Out.BacklogMax, Backlog);
      if (K >= N - N / 10)
        Out.BacklogEnd.push_back(static_cast<double>(Backlog));
    }
    uint32_t Index = E.Pop.Sequence[(Offset + K) % E.Pop.Sequence.size()];
    const Member &M = E.Pop.Members[Index];
    serve::ClientResponse Resp;
    std::string Error;
    bool Sent;
    {
      Tracer::Scope S(T, "serve.request");
      if (FreshConnections) {
        Sent = Fresh.connectTo(E.Srv->port(), &Error) &&
               Fresh.request("POST", M.Target, M.Body, Resp, &Error,
                             {{"Connection", "close"}});
        Fresh.close();
      } else {
        Sent = E.Conn->request("POST", M.Target, M.Body, Resp, &Error);
      }
    }
    FreeAt = nowNs();
    Out.LatUs.push_back(static_cast<double>(FreeAt - DueAt) / 1000.0);
    std::string Problem;
    if (!Sent) {
      Problem = "transport error: " + Error;
      E.Conn->connectTo(E.Srv->port());
    } else if (Resp.Status != 200) {
      Problem = "status " + std::to_string(Resp.Status);
    } else if (Resp.Body != E.Expected[Index]) {
      Problem = "response body differs from the reference for " +
                M.Body.substr(0, 60);
    }
    if (!Problem.empty()) {
      ++Out.Failed;
      if (Out.Errors.size() < 4)
        Out.Errors.push_back(Problem);
    }
  }
  Out.WallS = static_cast<double>(nowNs() - T0) / 1e9;
  return Out;
}

void account(RunResult &R, const LoadResult &L) {
  R.Attempted += L.LatUs.size();
  R.Failed += L.Failed;
  for (const std::string &E : L.Errors)
    R.error(E);
}

/// An open-loop phase that is retried once when the generator, not the
/// server, fell behind; a second unhealthy attempt invalidates the run.
LoadResult openLoop(ServeEnv &E, RunResult &R, double Rate, size_t N,
                    uint64_t &Offset, uint64_t &ArrivalSeed, Tracer *T,
                    bool FreshConnections = false) {
  for (unsigned Attempt = 0;; ++Attempt) {
    LoadResult L = drive(E, Rate, N, Offset, ArrivalSeed++, T, FreshConnections);
    Offset += N;
    account(R, L);
    if (L.healthy())
      return L;
    std::cerr << "pdtbench: generator p99 lateness "
              << quantile(L.LateUs, 0.99) << " us at " << Rate << "/s\n";
    if (Attempt == 1)
      throw std::runtime_error("invalid run: the load generator fell behind");
  }
}

double rung(int K) { return LadderBase * std::pow(LadderStep, K); }

/// The highest rung of the ladder LadderBase * LadderStep^k whose probe
/// meets the p99 limit with no growing backlog, by bisection between
/// "under the ladder" and 1.5x the saturated rate. A rung counts as
/// missed only when two probes of it miss, so one host stall does not
/// decide the figure. 0 when no probe met the limit, including when the
/// saturated rate leaves no rung worth probing.
double ladderMaxRate(ServeEnv &E, RunResult &R, uint64_t &Offset,
                     uint64_t &ArrivalSeed, double BudgetS) {
  int64_t Deadline = nowNs() + static_cast<int64_t>(BudgetS * 1e9);
  LoadResult Sat = drive(E, 0, 500, Offset, 0, nullptr, false);
  Offset += 500;
  account(R, Sat);
  int Lo = -1;
  int Hi = static_cast<int>(std::ceil(
      std::log(1.5 * 500 / Sat.WallS / LadderBase) / std::log(LadderStep)));
  std::set<int> MissedOnce;
  while (Hi - Lo > 1 && nowNs() < Deadline) {
    int Mid = (Lo + Hi) / 2;
    double Rate = rung(Mid);
    size_t N = std::max<size_t>(1000, static_cast<size_t>(Rate * 0.5));
    LoadResult Probe = drive(E, Rate, N, Offset, ArrivalSeed++, nullptr, false);
    Offset += N;
    account(R, Probe);
    bool Pass = Probe.Failed == 0 && Probe.p99() <= LatencyLimitUs &&
                median(Probe.BacklogEnd) <= BacklogLimit;
    std::cerr << "pdtbench: " << N << " requests at " << Rate << "/s: p99 "
              << Probe.p99() << " us, final backlog "
              << median(Probe.BacklogEnd)
              << (Pass ? ", meets the limit\n" : ", misses the limit\n");
    if (Pass)
      Lo = Mid;
    else if (!MissedOnce.insert(Mid).second)
      Hi = Mid;
  }
  return Lo >= 0 ? rung(Lo) : 0;
}

/// The timed run sends the request sequence back to back through the
/// server's request path in process: HTTP parse, Service::handle,
/// response serialization. The socket round trip is left to the traced
/// run: on a shared virtual machine every loopback request waits on two
/// cross-CPU wakeups whose latency follows the hypervisor, which moved
/// the open-loop p99 between 1.2 and 17 ms and the ladder's maximum rate
/// from below its lowest rung (500/s) to 4300/s from run to run on the
/// same code.
void runTimed(const RunOptions &O, RunResult &R) {
  std::vector<double> Setups;
  std::unique_ptr<ServeEnv> E;
  for (unsigned K = 0; K != SetupRepeats; ++K) {
    E.reset();
    int64_t T0 = nowNs();
    E = setUp(O.Seed, /*WithServer=*/false);
    Setups.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }
  std::vector<std::string> Wire;
  for (const Member &M : E->Pop.Members)
    Wire.push_back(wireBytes(M));

  // Windows of 1000 requests: the p99 of each has ten samples beyond it.
  std::vector<double> Lat, P99s;
  double BusyS = 0;
  uint64_t Pairs0 = E->Svc->counters().ReferencePairs;
  int64_t Deadline = nowNs() + static_cast<int64_t>(O.Seconds * 1e9);
  for (size_t K = 0; nowNs() < Deadline || K % 1000 != 0; ++K) {
    uint32_t Index = E->Pop.Sequence[K % E->Pop.Sequence.size()];
    int64_t T0 = nowNs();
    serve::HttpResponse Resp = answerInProcess(*E->Svc, Wire[Index]);
    double Us = static_cast<double>(nowNs() - T0) / 1000.0;
    Lat.push_back(Us);
    BusyS += Us / 1e6;
    ++R.Attempted;
    if (Resp.Status != 200 || Resp.Body != E->Expected[Index]) {
      ++R.Failed;
      R.error("answer to " + E->Pop.Members[Index].Body.substr(0, 60) +
              " differs from the reference");
    }
    if (K % 1000 == 999)
      P99s.push_back(quantile(
          std::vector<double>(Lat.end() - 1000, Lat.end()), 0.99));
  }

  EndToEnd End;
  End.SetupS = median(Setups);
  End.PairsPerS =
      static_cast<double>(E->Svc->counters().ReferencePairs - Pairs0) / BusyS;
  End.LatencyP50Us = median(Lat);
  End.LatencyP99Us = median(P99s);
  End.MaxRateRps = static_cast<double>(Lat.size()) / BusyS;
  End.emit(R);
  std::cerr << "pdtbench: " << Lat.size() << " requests in " << P99s.size()
            << " windows\n";
}

/// queue_ns of every access-log line, in us.
std::vector<double> queueWaitsUs(const std::string &Path) {
  std::vector<double> Out;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    std::optional<json::Value> V = json::parse(Line);
    if (!V || !V->isObject())
      continue;
    if (std::optional<uint64_t> Q = V->uintAt("queue_ns"))
      Out.push_back(static_cast<double>(*Q) / 1000.0);
  }
  return Out;
}

void runTraced(const RunOptions &O, RunResult &R, Tracer &T) {
  std::unique_ptr<ServeEnv> E = setUp(O.Seed, /*WithServer=*/true);
  PerLayer L;
  const Population &Pop = E->Pop;
  uint64_t Offset = 0, ArrivalSeed = mixSeed(O.Seed, 0x7300);
  int64_t Deadline = nowNs() + static_cast<int64_t>(O.Seconds * 1e9);
  size_t LegN = static_cast<size_t>(FixedRateRps * O.Seconds * 0.1);

  // Tracing overhead at the fixed rate: untraced, then with a span per
  // request and the metrics registry armed.
  LoadResult Plain = openLoop(*E, R, FixedRateRps, LegN, Offset, ArrivalSeed,
                              nullptr);
  Metrics::enable("");
  LoadResult Traced = openLoop(*E, R, FixedRateRps, LegN, Offset, ArrivalSeed, &T);
  Metrics::stop();
  L.OverheadFrac =
      quantile(Traced.LatUs, 0.5) / quantile(Plain.LatUs, 0.5) - 1.0;
  L.OpenUsP50 = quantile(Plain.LatUs, 0.5);
  L.OpenUsP99 = Plain.p99();
  L.LadderMaxRps = ladderMaxRate(*E, R, Offset, ArrivalSeed, O.Seconds * 0.3);
  L.LateUsP99 = quantile(Plain.LateUs, 0.99);
  L.BacklogMax = Plain.BacklogMax;

  // Admission-queue waits from the access log: one connection per
  // request, so every request is a connection's first. The kept-alive
  // connection would hold the worker, so it closes meanwhile.
  E->Conn->close();
  std::string LogPath =
      O.WorkDir + "/access-" + std::to_string(::getpid()) + ".jsonl";
  uint64_t Rejected0 = E->Srv->stats().Rejected429;
  if (!serve::AccessLog::start(LogPath))
    throw std::runtime_error("cannot write " + LogPath);
  openLoop(*E, R, FixedRateRps, LegN / 2, Offset, ArrivalSeed, &T, true);
  serve::AccessLog::stop();
  L.QueueUsP99 = quantile(queueWaitsUs(LogPath), 0.99);
  ::unlink(LogPath.c_str());
  L.Rejected429 = E->Srv->stats().Rejected429 - Rejected0;
  if (std::string Error; !E->Conn->connectTo(E->Srv->port(), &Error))
    throw std::runtime_error("cannot reconnect: " + Error);
  serve::ServerStats SS = E->Srv->stats();
  serve::ServiceCounters SC = E->Svc->counters();
  T.counters("server", {{"accepted", static_cast<double>(SS.Accepted)},
                        {"rejected_429", static_cast<double>(SS.Rejected429)},
                        {"requests", static_cast<double>(SS.Requests)}});
  T.counters("service", {{"requests", static_cast<double>(SC.Requests)},
                         {"analyses", static_cast<double>(SC.Analyses)},
                         {"pairs", static_cast<double>(SC.ReferencePairs)},
                         {"degraded", static_cast<double>(SC.DegradedResults)}});

  // Unloaded round trips on one connection.
  std::vector<double> Rtt;
  for (size_t K = 0; K != SampleRequests / 2; ++K) {
    uint32_t Index = Pop.Sequence[K];
    const Member &M = Pop.Members[Index];
    serve::ClientResponse Resp;
    int64_t T0 = nowNs();
    bool Sent;
    {
      Tracer::Scope S(&T, "serve.rtt");
      Sent = E->Conn->request("POST", M.Target, M.Body, Resp);
    }
    Rtt.push_back(static_cast<double>(nowNs() - T0) / 1000.0);
    ++R.Attempted;
    if (!Sent || Resp.Status != 200 || Resp.Body != E->Expected[Index]) {
      ++R.Failed;
      R.error("unloaded round trip failed or differs from the reference");
    }
  }
  L.RttUsP50 = quantile(Rtt, 0.5);
  L.RttUsP99 = quantile(Rtt, 0.99);

  // In process: the HTTP parser on recorded request bytes, then
  // Service::handle on a fresh service over the same request mix.
  std::vector<std::string> Wire;
  for (const Member &M : Pop.Members)
    Wire.push_back(wireBytes(M));
  {
    Tracer::Scope S(&T, "serve.http_parse");
    uint64_t Parsed = 0;
    for (unsigned Rep = 0; Rep != 20; ++Rep)
      for (const std::string &Bytes : Wire) {
        serve::RequestParser Parser;
        if (Parser.feed(Bytes) != serve::RequestParser::State::Complete)
          R.error("recorded request bytes do not parse");
        ++Parsed;
      }
    S.units(Parsed);
  }
  serve::Service InProcess(serviceLimits());
  std::vector<double> Handle;
  for (size_t K = 0; K != SampleRequests / 2; ++K) {
    uint32_t Index = Pop.Sequence[K];
    serve::HttpRequest Req = httpRequest(Pop.Members[Index]);
    int64_t T0 = nowNs();
    serve::HttpResponse Resp;
    {
      Tracer::Scope S(&T, "serve.handle");
      Resp = InProcess.handle(Req);
    }
    Handle.push_back(static_cast<double>(nowNs() - T0) / 1000.0);
    ++R.Attempted;
    if (Resp.Status != 200 || Resp.Body != E->Expected[Index]) {
      ++R.Failed;
      R.error("in-process answer differs from the reference");
    }
  }
  L.HandleUsP50 = quantile(Handle, 0.5);
  L.HandleUsP99 = quantile(Handle, 0.99);
  L.TransportUs = L.RttUsP50 - L.HandleUsP50;
  L.PoolSpawnUs = poolSpawnUs();

  // Every kernel of the population through the layers; exact counts
  // from the first pass.
  Metrics::enable("");
  ProgramCounts Counts;
  AnalyzerOptions Options;
  Options.NumThreads = 1;
  uint64_t OpId = 0;
  for (unsigned Pass = 0; Pass == 0 || nowNs() < Deadline; ++Pass) {
    for (const Member &M : Pop.Members) {
      if (M.Target != "/v1/analyze")
        continue;
      const auto &[Name, Source] = M.Kernels.front();
      T.setOp(++OpId);
      std::string Error;
      {
        Tracer::Scope OpSpan(&T, "op");
        decomposeProgram(Source, Name, Options, &T, /*Store=*/false,
                         Pass == 0 ? &Counts : nullptr, Error);
      }
      ++R.Attempted;
      if (!Error.empty()) {
        ++R.Failed;
        R.error(Error);
      }
    }
  }
  Metrics::stop();

  Counts.fill(L);
  ProgramCounts Requests;
  for (size_t K = 0; K != SampleRequests; ++K)
    Requests.noteContent(Pop.Members[Pop.Sequence[K]].Content);
  L.RepeatFrac = static_cast<double>(Requests.Repeats) / Requests.Items;
  L.fromTracer(T);
  L.emit(R);
}

} // namespace

void pb::runServeMix(const RunOptions &O, RunResult &R, Tracer *T) {
  if (T)
    runTraced(O, R, *T);
  else
    runTimed(O, R);
}

uint64_t pb::serveMixInputDigest(uint64_t Seed) {
  Population P = buildPopulation(Seed);
  uint64_t H = fnv1a("");
  for (const Member &M : P.Members)
    H = fnv1a(M.Target + " " + M.Body + "\n", H);
  for (uint32_t S : P.Sequence)
    H = fnv1a(std::to_string(S) + ",", H);
  return H;
}
