//===- tests/support/FlightRecorderTest.cpp - Flight-ring tests -----------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// The flight recorder's ring invariants under contention: bounded
// memory, monotonic counts, overwrite accounting, and — the one that
// justifies the lock-free design — snapshot() never returning a torn
// event while writers keep overwriting or rings change hands. Also
// ring reuse across thread lifetimes, the Chrome-trace dump format, and
// the Span gate that feeds the store with only the bounded policy or
// both policies armed.
//
//===----------------------------------------------------------------------===//

#include "support/FlightRecorder.h"

#include "support/EventLog.h"
#include "support/Json.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace pdt;

namespace {

/// Label table for self-checking spans. Span I carries Kind tag
/// I % NumLabels, Name == labels()[Kind] and Category ==
/// labels()[(Kind + 1) % NumLabels]; a torn slot (half one write, half
/// another) breaks the relation. NumLabels is prime and larger than
/// every ring here, so the write a slot is torn against carries another
/// tag.
constexpr int NumLabels = 4093;

const std::vector<std::string> &labels() {
  static const std::vector<std::string> L = [] {
    std::vector<std::string> Out;
    for (int I = 0; I != NumLabels; ++I)
      Out.push_back("flight.selfcheck." + std::to_string(I));
    return Out;
  }();
  return L;
}

bool intact(const TraceEvent &E) {
  return E.Kind >= 0 && E.Kind < NumLabels &&
         E.Name == labels()[E.Kind].c_str() &&
         E.Category == labels()[(E.Kind + 1) % NumLabels].c_str();
}

/// Records \p N self-checking spans on the calling thread, tags Base,
/// Base + 1, ... (mod NumLabels).
void recordSelfChecking(uint64_t N, uint64_t Base = 0) {
  for (uint64_t I = 0; I != N; ++I) {
    int Kind = static_cast<int>((Base + I) % NumLabels);
    Span S(labels()[Kind].c_str(), labels()[(Kind + 1) % NumLabels].c_str(),
           Kind);
  }
}

/// Smallest ring start() grants: 64 slots.
constexpr size_t MinRingBytes = 64 * sizeof(TraceEvent);

class FlightRecorderTest : public testing::Test {
protected:
  void TearDown() override { FlightRecorder::stop(); }
};

TEST_F(FlightRecorderTest, RecordsBelowCapacityWithoutLoss) {
  FlightRecorder::start(MinRingBytes);
  recordSelfChecking(40);
  std::vector<TraceEvent> Events = FlightRecorder::snapshot();
  ASSERT_EQ(Events.size(), 40u);
  for (uint64_t I = 0; I != Events.size(); ++I) {
    EXPECT_EQ(Events[I].Kind, static_cast<int>(I)) << "order lost";
    EXPECT_TRUE(intact(Events[I]));
  }
  FlightRecorder::Stats S = FlightRecorder::stats();
  EXPECT_EQ(S.Recorded, 40u);
  EXPECT_EQ(S.Overwritten, 0u);
  EXPECT_EQ(S.Threads, 1u);
}

TEST_F(FlightRecorderTest, OverwriteKeepsTheMostRecentWindow) {
  FlightRecorder::start(MinRingBytes);
  const uint64_t Cap = FlightRecorder::stats().SlotsPerThread;
  ASSERT_EQ(Cap, 64u);
  recordSelfChecking(3 * Cap);
  std::vector<TraceEvent> Events = FlightRecorder::snapshot();
  // Once wrapped, snapshot() yields Cap - 1 events: it cannot prove
  // the writer is quiescent, so the oldest slot — the one an
  // unpublished in-flight write would be reusing — is always dropped.
  ASSERT_EQ(Events.size(), Cap - 1);
  // The surviving window is exactly the most recent Cap - 1 events,
  // in order.
  for (uint64_t I = 0; I != Cap - 1; ++I)
    EXPECT_EQ(Events[I].Kind, static_cast<int>(2 * Cap + 1 + I));
  FlightRecorder::Stats S = FlightRecorder::stats();
  EXPECT_EQ(S.Recorded, 3 * Cap);
  EXPECT_EQ(S.Overwritten, 2 * Cap);
}

TEST_F(FlightRecorderTest, MemoryStaysBoundedAtTheConfiguredCap) {
  const size_t Bytes = 4096;
  FlightRecorder::start(Bytes);
  recordSelfChecking(100000);
  FlightRecorder::Stats S = FlightRecorder::stats();
  EXPECT_EQ(S.Threads, 1u);
  EXPECT_EQ(S.SlotsPerThread, Bytes / sizeof(TraceEvent));
  EXPECT_LE(S.BytesInUse, S.Threads * Bytes);
  EXPECT_EQ(S.BytesInUse,
            uint64_t(S.Threads) * S.SlotsPerThread * sizeof(TraceEvent));
}

// A ring whose thread exited goes back to a free list for the next
// thread, so flight memory follows the peak number of live recording
// threads, not how many threads ever existed: 20 pools of 4 workers
// (the caller plus 3 helpers each) need 4 rings, not 61.
TEST_F(FlightRecorderTest, RingsAreReusedAcrossThreadLifetimes) {
  FlightRecorder::start(4096);
  for (int Round = 0; Round != 20; ++Round) {
    ThreadPool Pool(4);
    std::atomic<unsigned> Started{0};
    // One item per worker, each held until all four are running, so
    // every helper records (bounded, should a helper never wake).
    Pool.parallelFor(4, [&Started](size_t, unsigned) {
      Span S("FlightRecorderTest::pooled", "test");
      Started.fetch_add(1);
      auto Deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (Started.load() != 4 &&
             std::chrono::steady_clock::now() < Deadline)
        std::this_thread::yield();
    });
  }
  FlightRecorder::Stats S = FlightRecorder::stats();
  EXPECT_LE(S.Threads, 4u);
  EXPECT_EQ(S.BytesInUse,
            uint64_t(S.Threads) * S.SlotsPerThread * sizeof(TraceEvent));
}

TEST_F(FlightRecorderTest, StartDiscardsThePreviousWindowAndResizes) {
  FlightRecorder::start(MinRingBytes);
  recordSelfChecking(50);
  FlightRecorder::start(2 * MinRingBytes);
  EXPECT_TRUE(FlightRecorder::snapshot().empty())
      << "start() must discard previously buffered events";
  recordSelfChecking(10);
  FlightRecorder::Stats S = FlightRecorder::stats();
  EXPECT_EQ(S.SlotsPerThread, 128u);
  EXPECT_EQ(S.Recorded, 10u);
}

// The contention matrix the header promises: N writer threads racing
// one snapshotting reader; every returned event must satisfy the
// self-check relation (no torn slots) and per-thread order must hold.
class FlightRecorderContentionTest
    : public FlightRecorderTest,
      public testing::WithParamInterface<unsigned> {};

TEST_P(FlightRecorderContentionTest, SnapshotNeverTearsUnderContention) {
  const unsigned Writers = GetParam();
  const uint64_t PerThread = 20000;
  FlightRecorder::start(MinRingBytes);

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> SnapshotsTaken{0};
  std::thread Reader([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      for (const TraceEvent &E : FlightRecorder::snapshot()) {
        // A torn event breaks the payload relation; failing inside the
        // reader thread would be lost, so abort instead.
        if (!intact(E))
          std::abort();
      }
      SnapshotsTaken.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Writers start once the reader is running, so snapshots overlap
  // every write. No writer exits before every writer has recorded, so
  // none can inherit another's ring and each keeps its own window.
  while (SnapshotsTaken.load() == 0)
    std::this_thread::yield();
  std::atomic<unsigned> Finished{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Writers; ++T)
    Threads.emplace_back([&, T] {
      recordSelfChecking(PerThread, uint64_t(T) * 997);
      Finished.fetch_add(1);
      while (Finished.load() != Writers)
        std::this_thread::yield();
    });
  for (std::thread &T : Threads)
    T.join();
  Stop.store(true, std::memory_order_relaxed);
  Reader.join();
  EXPECT_GT(SnapshotsTaken.load(), 0u);

  // Quiescent now: the final snapshot must hold the last window of
  // every writer (Cap - 1 events per wrapped ring — the oldest slot is
  // always dropped as potentially in-flight), in per-thread order.
  std::vector<TraceEvent> Events = FlightRecorder::snapshot();
  FlightRecorder::Stats S = FlightRecorder::stats();
  EXPECT_EQ(S.Threads, Writers);
  EXPECT_EQ(S.Recorded, uint64_t(Writers) * PerThread);
  EXPECT_EQ(S.Overwritten, uint64_t(Writers) * (PerThread - 64));
  ASSERT_EQ(Events.size(), uint64_t(Writers) * 63);
  for (size_t I = 1; I != Events.size(); ++I) {
    if (Events[I].Tid == Events[I - 1].Tid) {
      EXPECT_EQ(Events[I].Kind, (Events[I - 1].Kind + 1) % NumLabels)
          << "per-thread window not contiguous at " << I;
    }
  }
  for (const TraceEvent &E : Events)
    ASSERT_TRUE(intact(E)) << "torn event survived";
}

// The same no-tear guarantee while rings change hands: pools are
// created and destroyed under a snapshotting reader, so exited
// helpers' rings are reused by the next pool's helpers mid-read.
TEST_P(FlightRecorderContentionTest, SnapshotNeverTearsWhileRingsAreReused) {
  const unsigned Workers = GetParam();
  FlightRecorder::start(MinRingBytes);

  // The pool's own spans carry no payload; everything else must be an
  // intact self-checking span.
  auto Valid = [](const TraceEvent &E) {
    if (E.Kind == TraceEvent::NoTag)
      return std::strcmp(E.Category, "pool") == 0 &&
             std::strncmp(E.Name, "ThreadPool::", 12) == 0;
    return intact(E);
  };
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> SnapshotsTaken{0};
  std::thread Reader([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      for (const TraceEvent &E : FlightRecorder::snapshot())
        if (!Valid(E))
          std::abort();
      SnapshotsTaken.fetch_add(1, std::memory_order_relaxed);
    }
  });

  while (SnapshotsTaken.load() == 0)
    std::this_thread::yield();
  for (unsigned Round = 0; Round != 20; ++Round) {
    ThreadPool Pool(Workers);
    Pool.parallelFor(4 * Workers, [Round](size_t Item, unsigned) {
      recordSelfChecking(500, Round * 131 + Item * 17);
    });
  }
  Stop.store(true, std::memory_order_relaxed);
  Reader.join();

  FlightRecorder::Stats S = FlightRecorder::stats();
  EXPECT_LE(S.Threads, Workers) << "exited threads' rings were not reused";
  for (const TraceEvent &E : FlightRecorder::snapshot()) {
    ASSERT_TRUE(Valid(E)) << "torn event survived";
  }
}

INSTANTIATE_TEST_SUITE_P(Contention, FlightRecorderContentionTest,
                         testing::Values(1u, 4u, 8u));

TEST_F(FlightRecorderTest, SpanGateFeedsRingsWithoutFullTracing) {
  FlightRecorder::start(MinRingBytes);
  ASSERT_FALSE(Trace::enabled()) << "full tracing must stay disarmed";
  ASSERT_TRUE(Trace::capturing())
      << "the bounded policy must open the Span gate";
  { Span S("FlightRecorderTest::span", "test"); }
  std::vector<TraceEvent> Events = FlightRecorder::snapshot();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_STREQ(Events[0].Name, "FlightRecorderTest::span");
  EXPECT_TRUE(Trace::snapshot().empty())
      << "flight-only spans must not reach the full trace buffers";
  FlightRecorder::stop();
  EXPECT_FALSE(Trace::capturing());
}

// With both policies armed keep-all holds: the trace keeps every span
// and the flight view is each thread's newest SlotsPerThread.
TEST_F(FlightRecorderTest, FullTraceKeepsAllAndFlightSeesItsTail) {
  Trace::start("");
  FlightRecorder::start(MinRingBytes);
  recordSelfChecking(200);
  std::vector<TraceEvent> Full = Trace::snapshot();
  std::vector<TraceEvent> Tail = FlightRecorder::snapshot();
  FlightRecorder::Stats S = FlightRecorder::stats();
  Trace::stop();
  ASSERT_EQ(Full.size(), 200u);
  ASSERT_EQ(Tail.size(), 64u);
  for (uint64_t I = 0; I != Tail.size(); ++I)
    EXPECT_EQ(Tail[I].Kind, static_cast<int>(136 + I));
  EXPECT_EQ(S.Recorded, 200u);
  EXPECT_EQ(S.Overwritten, 136u);
}

TEST_F(FlightRecorderTest, DumpIsValidChromeTraceWithHeader) {
  FlightRecorder::start(MinRingBytes);
  { Span S("FlightRecorderTest::dumped", "test"); }
  std::string Error;
  std::optional<json::Value> Dump =
      json::parse(FlightRecorder::toJson("unit-test"), &Error);
  ASSERT_TRUE(Dump.has_value()) << Error;
  const json::Value *Header = Dump->find("flightRecorder");
  ASSERT_NE(Header, nullptr);
  EXPECT_EQ(Header->stringAt("reason"), "unit-test");
  EXPECT_EQ(Header->uintAt("recorded"), 1u);
  ASSERT_NE(Header->find("build"), nullptr);
  const json::Value *Events = Dump->find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  bool FoundSpan = false;
  for (const json::Value &E : Events->asArray())
    FoundSpan |= E.stringAt("name") == "FlightRecorderTest::dumped";
  EXPECT_TRUE(FoundSpan);
}

TEST_F(FlightRecorderTest, PostmortemDumpsAndJournals) {
  const char *Path = "flight_postmortem_test.json";
  std::remove(Path);
  EventLog::start("");
  FlightRecorder::start(MinRingBytes, Path);
  { Span S("FlightRecorderTest::postmortem", "test"); }
  EXPECT_TRUE(FlightRecorder::postmortem("unit-test"));

  std::ifstream File(Path);
  ASSERT_TRUE(File.good()) << "postmortem must write the configured path";
  std::stringstream Buffer;
  Buffer << File.rdbuf();
  std::optional<json::Value> Dump = json::parse(Buffer.str());
  ASSERT_TRUE(Dump.has_value());
  EXPECT_EQ(Dump->find("flightRecorder")->stringAt("reason"), "unit-test");

  bool Journaled = false;
  for (const std::string &Line : EventLog::recentLines())
    Journaled |= Line.find("flight-dump") != std::string::npos;
  EXPECT_TRUE(Journaled) << "postmortem must leave a journal event";
  EventLog::stop();
  std::remove(Path);
}

} // namespace
