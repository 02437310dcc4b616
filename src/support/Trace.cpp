//===- support/Trace.cpp - Scoped spans as Chrome trace events ------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/CrashSafety.h"
#include "support/Env.h"
#include "support/FlightRecorder.h"
#include "support/Metrics.h"
#include "support/RequestContext.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

using namespace pdt;

std::atomic<uint8_t> Trace::Mode{Trace::Off};

namespace {

/// Per-thread span cap under keep-all. Long fuzz campaigns used to
/// grow the rings without bound; the cap turns that into counted drops.
constexpr uint32_t DefaultMaxSpansPerThread = 1u << 20;
std::atomic<uint32_t> MaxSpansCap{DefaultMaxSpansPerThread};
/// Multi-writer (any capped thread), so a real fetch_add — the path is
/// already off the happy path when it runs.
std::atomic<uint64_t> DroppedSpanCount{0};

/// Slots a keep-all ring starts with; it doubles from there.
constexpr size_t InitialKeepAllSlots = 1024;
/// The smallest bounded ring FlightRecorder::start grants.
constexpr size_t MinBoundedSlots = 64;

/// One thread's spans. Single writer (the owning thread): it stores
/// slot Count % Slots.size(), then publishes Count + 1 with a release
/// store — no lock and no read-modify-write on the record path. Count
/// is monotonic. Under keep-all the owner grows the ring before it
/// fills, so Count < Slots.size() and no slot is ever overwritten;
/// under bounded the slots wrap. M guards only reallocation (growth by
/// the owner) against snapshots.
struct SpanRing {
  std::mutex M;
  std::vector<TraceEvent> Slots;
  std::atomic<uint64_t> Count{0};
  uint32_t Tid = 0;
};

/// The one span store: the registered rings, the free list, and each
/// policy's arming state and outputs.
struct SpanStore {
  std::mutex M;
  /// Every ring registered since the last reset; index == Tid.
  std::vector<std::shared_ptr<SpanRing>> Rings;
  /// Registered rings whose thread exited. A thread registering under
  /// the bounded policy takes one before it allocates: the ring keeps
  /// its Tid and its old spans stay readable until overwritten.
  std::vector<std::shared_ptr<SpanRing>> Free;
  /// Bumped by every reset; a thread holding a ring of an older epoch
  /// registers again on its next span.
  std::atomic<uint64_t> Epoch{1};
  std::atomic<bool> BoundedArmed{false};
  bool KeepAllArmed = false;
  /// What the current epoch's rings hold: a trace (keep-all armed at
  /// the reset) and/or a flight window (bounded armed since it).
  bool TraceView = false, FlightView = false;
  size_t BoundedSlots =
      FlightRecorder::DefaultBytesPerThread / sizeof(TraceEvent);
  std::string TracePath;
  std::string DumpPath = "pdt-flight.json";

  /// Drops every ring. Callers hold M.
  void reset() {
    Rings.clear();
    Free.clear();
    TraceView = KeepAllArmed;
    FlightView = BoundedArmed.load(std::memory_order_relaxed);
    Epoch.fetch_add(1, std::memory_order_release);
  }
};

SpanStore &store() {
  // Immortal (leaked on purpose, still reachable for LeakSanitizer):
  // exit-time flush hooks — the PDT_REPORT writer, crash flushes — may
  // run after this TU's static destructors would have fired.
  static SpanStore *S = new SpanStore;
  return *S;
}

/// The calling thread's ring. Destroyed at thread exit, it hands the
/// ring to the free list; it keeps its own reference, so a span
/// recorded later in the exiting thread's teardown still lands.
struct RingRef {
  std::shared_ptr<SpanRing> Ring;
  uint64_t Epoch = 0;

  ~RingRef() {
    if (!Ring)
      return;
    SpanStore &S = store();
    std::lock_guard<std::mutex> Lock(S.M);
    if (Epoch == S.Epoch.load(std::memory_order_relaxed))
      S.Free.push_back(Ring);
  }
};

thread_local RingRef ThreadRing;

/// Gives \p Ref a ring in the current epoch: a free one under the
/// bounded policy, a fresh one otherwise. False when the store was
/// disarmed meanwhile.
bool attach(SpanStore &S, RingRef &Ref) {
  std::lock_guard<std::mutex> Lock(S.M);
  bool Bounded = S.BoundedArmed.load(std::memory_order_relaxed);
  if (!S.KeepAllArmed && !Bounded)
    return false;
  if (!S.KeepAllArmed && !S.Free.empty()) {
    Ref.Ring = std::move(S.Free.back());
    S.Free.pop_back();
  } else {
    auto Ring = std::make_shared<SpanRing>();
    Ring->Slots.resize(S.KeepAllArmed ? InitialKeepAllSlots : S.BoundedSlots);
    Ring->Tid = static_cast<uint32_t>(S.Rings.size());
    S.Rings.push_back(Ring);
    Ref.Ring = std::move(Ring);
  }
  Ref.Epoch = S.Epoch.load(std::memory_order_relaxed);
  return true;
}

/// The trace view (every span) or the flight view (each ring's newest
/// BoundedSlots), merged and sorted. Holds a ring's mutex only so growth
/// cannot reallocate under the copy; writers keep running.
std::vector<TraceEvent> collect(bool Flight) {
  SpanStore &S = store();
  std::vector<std::shared_ptr<SpanRing>> Rings;
  uint64_t Window = ~uint64_t(0);
  {
    std::lock_guard<std::mutex> Lock(S.M);
    if (!(Flight ? S.FlightView : S.TraceView))
      return {};
    Window = Flight ? S.BoundedSlots : Window;
    Rings = S.Rings;
  }
  std::vector<TraceEvent> All;
  for (const std::shared_ptr<SpanRing> &Ring : Rings) {
    std::lock_guard<std::mutex> Lock(Ring->M);
    const uint64_t Cap = Ring->Slots.size();
    uint64_t End = Ring->Count.load(std::memory_order_acquire);
    uint64_t Begin = End - std::min(End, std::min(Cap, Window));
    size_t Mark = All.size();
    for (uint64_t I = Begin; I != End; ++I)
      All.push_back(Ring->Slots[I % Cap]);
    // The writer kept running during the copy: any slot whose index it
    // could have reused — published overwrites up to End2, plus the one
    // unpublished write of index End2 that may be in flight — must be
    // discarded, or we could return a torn event. Under keep-all
    // End2 < Cap, so nothing is discarded.
    uint64_t End2 = Ring->Count.load(std::memory_order_acquire);
    uint64_t FirstSafe = End2 >= Cap ? End2 - Cap + 1 : 0;
    if (FirstSafe > Begin)
      All.erase(All.begin() + Mark,
                All.begin() + Mark + (std::min(FirstSafe, End) - Begin));
  }
  // Per thread, parents start no later than their children and end no
  // earlier, so (start ascending, duration descending) lists every
  // parent before its children.
  std::sort(All.begin(), All.end(),
            [](const TraceEvent &A, const TraceEvent &B) {
              if (A.Tid != B.Tid)
                return A.Tid < B.Tid;
              if (A.StartNs != B.StartNs)
                return A.StartNs < B.StartNs;
              return A.DurationNs > B.DurationNs;
            });
  return All;
}

/// Escapes a span name for a JSON string literal (names are literals
/// under our control, but a stray quote must not corrupt the file).
void appendEscaped(std::string &Out, const char *S) {
  for (; *S; ++S) {
    if (*S == '"' || *S == '\\')
      Out += '\\';
    Out += *S;
  }
}

} // namespace

namespace {

/// The span clock. steady_clock::now() costs ~30 ns per read through
/// the vDSO, which alone would blow the < 5% armed-overhead budget
/// (two reads per span, two more per latency sample). On x86-64 we
/// read the invariant TSC instead (~12 ns with RDTSCP, whose
/// wait-for-prior-instructions ordering keeps program-order reads
/// monotonic, so span nesting survives) and convert with a ratio
/// calibrated once against steady_clock. Everywhere else — and should
/// calibration degenerate — steady_clock remains the source.
struct SpanClock {
  std::chrono::steady_clock::time_point Anchor;
#if defined(__x86_64__) || defined(__i386__)
  bool UseTsc = false;
  uint64_t Tsc0 = 0;
  double NsPerTick = 0.0;
#endif

  SpanClock() {
    Anchor = std::chrono::steady_clock::now();
#if defined(__x86_64__) || defined(__i386__)
    unsigned Aux;
    Tsc0 = __rdtscp(&Aux);
    // ~1 ms calibration spin: plenty to estimate the tick rate to a
    // fraction of a percent, and paid once at arming time (start()
    // touches the clock before any span can).
    std::chrono::steady_clock::time_point T1;
    do {
      T1 = std::chrono::steady_clock::now();
    } while (T1 - Anchor < std::chrono::milliseconds(1));
    uint64_t Tsc1 = __rdtscp(&Aux);
    if (Tsc1 > Tsc0) {
      NsPerTick = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      T1 - Anchor)
                      .count() /
                  static_cast<double>(Tsc1 - Tsc0);
      UseTsc = NsPerTick > 0.0;
    }
#endif
  }
};

const SpanClock &spanClock() {
  static const SpanClock C;
  return C;
}

} // namespace

int64_t Trace::nowNs() {
  const SpanClock &C = spanClock();
#if defined(__x86_64__) || defined(__i386__)
  if (C.UseTsc) {
    unsigned Aux;
    return static_cast<int64_t>(
        static_cast<double>(__rdtscp(&Aux) - C.Tsc0) * C.NsPerTick);
  }
#endif
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - C.Anchor)
      .count();
}

void Trace::publishMode(bool KeepAllArmed, bool BoundedArmed) {
  Mode.store(KeepAllArmed ? KeepAll : BoundedArmed ? Bounded : Off,
             std::memory_order_relaxed);
}

void Trace::setMaxSpansPerThread(uint32_t Cap) {
  MaxSpansCap.store(Cap ? Cap : DefaultMaxSpansPerThread,
                    std::memory_order_relaxed);
}

uint32_t Trace::maxSpansPerThread() {
  return MaxSpansCap.load(std::memory_order_relaxed);
}

uint64_t Trace::droppedSpans() {
  return DroppedSpanCount.load(std::memory_order_relaxed);
}

void Trace::record(const char *Name, const char *Category, int16_t Kind,
                   int64_t StartNs, int64_t EndNs) {
  uint8_t M = Mode.load(std::memory_order_relaxed);
  if (M == Off)
    return;
  SpanStore &S = store();
  RingRef &Ref = ThreadRing;
  if (Ref.Epoch != S.Epoch.load(std::memory_order_acquire) &&
      !attach(S, Ref))
    return;
  SpanRing &Ring = *Ref.Ring;
  uint64_t N = Ring.Count.load(std::memory_order_relaxed);
  if (M == KeepAll) {
    uint32_t Cap = MaxSpansCap.load(std::memory_order_relaxed);
    if (N >= Cap) {
      // At the cap: the span is dropped, not silently — the count feeds
      // the run report's "monitor" section and the trace.dropped_spans
      // metric.
      DroppedSpanCount.fetch_add(1, std::memory_order_relaxed);
      Metrics::count(Metric::TraceSpanDrops);
      return;
    }
    if (N + 1 == Ring.Slots.size()) {
      // Grow before the last slot is taken, so a keep-all ring never
      // fills and never wraps (one slot past the cap keeps that true at
      // the cap). Growth is structural: the mutex keeps snapshots off
      // the reallocation.
      size_t Size = Ring.Slots.size();
      std::lock_guard<std::mutex> Lock(Ring.M);
      Ring.Slots.resize(
          std::max(std::min<size_t>(2 * Size, size_t(Cap) + 1), Size + 1));
    }
  }
  // RequestContext::current() is the request attribution: one
  // thread-local read per span, resolved to the ID only at dump time.
  const size_t Size = Ring.Slots.size();
  Ring.Slots[N < Size ? N : N % Size] = {
      Name,    Category, Ring.Tid,       Kind, RequestContext::current(),
      StartNs, EndNs - StartNs};
  Ring.Count.store(N + 1, std::memory_order_release);
}

void Trace::start(std::string Path) {
  // Anchor the clock before the first span can observe it.
  nowNs();
  SpanStore &S = store();
  std::lock_guard<std::mutex> Lock(S.M);
  S.KeepAllArmed = true;
  S.reset();
  S.TracePath = std::move(Path);
  DroppedSpanCount.store(0, std::memory_order_relaxed);
  publishMode(true, S.BoundedArmed.load(std::memory_order_relaxed));
}

bool Trace::stop() {
  SpanStore &S = store();
  std::string Path;
  {
    std::lock_guard<std::mutex> Lock(S.M);
    S.KeepAllArmed = false;
    publishMode(false, S.BoundedArmed.load(std::memory_order_relaxed));
    Path = S.TracePath;
  }
  if (Path.empty())
    return true;
  return writeTo(Path);
}

void Trace::clear() {
  SpanStore &S = store();
  std::lock_guard<std::mutex> Lock(S.M);
  S.reset();
}

std::vector<TraceEvent> Trace::snapshot() { return collect(/*Flight=*/false); }

bool FlightRecorder::enabled() {
  return store().BoundedArmed.load(std::memory_order_relaxed);
}

void FlightRecorder::start(size_t BytesPerThread, std::string DumpPath) {
  // Anchor the span clock before the first ring write can observe it.
  Trace::nowNs();
  SpanStore &S = store();
  std::lock_guard<std::mutex> Lock(S.M);
  S.BoundedSlots = std::max(BytesPerThread / sizeof(TraceEvent),
                            MinBoundedSlots);
  if (!DumpPath.empty())
    S.DumpPath = std::move(DumpPath);
  S.BoundedArmed.store(true, std::memory_order_relaxed);
  // A running full trace owns the store: the flight view is its tail.
  if (S.KeepAllArmed)
    S.FlightView = true;
  else
    S.reset();
  Trace::publishMode(S.KeepAllArmed, true);
}

void FlightRecorder::stop() {
  SpanStore &S = store();
  std::lock_guard<std::mutex> Lock(S.M);
  S.BoundedArmed.store(false, std::memory_order_relaxed);
  Trace::publishMode(S.KeepAllArmed, false);
}

std::vector<TraceEvent> FlightRecorder::snapshot() {
  return collect(/*Flight=*/true);
}

FlightRecorder::Stats FlightRecorder::stats() {
  SpanStore &S = store();
  Stats Out;
  std::lock_guard<std::mutex> Lock(S.M);
  Out.SlotsPerThread = static_cast<uint32_t>(S.BoundedSlots);
  if (!S.FlightView)
    return Out;
  Out.Threads = static_cast<uint32_t>(S.Rings.size());
  for (const std::shared_ptr<SpanRing> &Ring : S.Rings) {
    std::lock_guard<std::mutex> RingLock(Ring->M);
    uint64_t Count = Ring->Count.load(std::memory_order_relaxed);
    Out.Recorded += Count;
    Out.Overwritten += Count > S.BoundedSlots ? Count - S.BoundedSlots : 0;
    Out.BytesInUse += Ring->Slots.size() * sizeof(TraceEvent);
  }
  return Out;
}

std::string FlightRecorder::dumpPath() {
  SpanStore &S = store();
  std::lock_guard<std::mutex> Lock(S.M);
  return S.DumpPath;
}

std::string Trace::toJson(const std::vector<TraceEvent> &Events) {
  std::string Out;
  Out.reserve(Events.size() * 96 + 256);
  Out += "{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n";
  appendEventsJson(Out, Events);
  Out += "\n]\n}\n";
  return Out;
}

void Trace::appendEventsJson(std::string &Out,
                             const std::vector<TraceEvent> &Events) {
  uint32_t MaxTid = 0;
  for (const TraceEvent &E : Events)
    MaxTid = std::max(MaxTid, E.Tid);
  bool First = true;
  for (uint32_t Tid = 0; Tid <= MaxTid; ++Tid) {
    if (!First)
      Out += ",\n";
    First = false;
    Out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " +
           std::to_string(Tid) + ", \"args\": {\"name\": \"pdt-thread-" +
           std::to_string(Tid) + "\"}}";
  }

  // Worst case: the 49 literal chars plus ten-digit tid and two
  // 20-digit fixed-point times — keep comfortable headroom, snprintf
  // truncation here would drop the closing brace and corrupt the file.
  char Number[160];
  for (const TraceEvent &E : Events) {
    if (!First)
      Out += ",\n";
    First = false;
    Out += "{\"name\": \"";
    appendEscaped(Out, E.Name);
    Out += "\", \"cat\": \"";
    appendEscaped(Out, E.Category ? E.Category : "pdt");
    // "ts"/"dur" are microseconds; three decimals keep the nanosecond
    // resolution exactly, so nesting survives the round-trip.
    std::snprintf(Number, sizeof(Number),
                  "\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"ts\": %lld.%03lld, \"dur\": %lld.%03lld",
                  E.Tid, static_cast<long long>(E.StartNs / 1000),
                  static_cast<long long>(E.StartNs % 1000),
                  static_cast<long long>(E.DurationNs / 1000),
                  static_cast<long long>(E.DurationNs % 1000));
    Out += Number;
    if (E.Req != RequestContext::None) {
      // Resolved at dump time; a recycled token renders without the
      // tag rather than with a stale ID.
      std::string Id = RequestContext::idFor(E.Req);
      if (!Id.empty()) {
        Out += ", \"args\": {\"req\": \"";
        appendEscaped(Out, Id.c_str());
        Out += "\"}";
      }
    }
    Out += '}';
  }
}

bool Trace::writeTo(const std::string &Path) {
  std::ofstream File(Path);
  if (!File)
    return false;
  File << toJson(snapshot());
  File.flush();
  return File.good();
}

void Trace::initFromEnvironment() {
  static bool Done = false;
  if (Done)
    return;
  Done = true;
  // The cap applies to any armed full trace (PDT_TRACE here or a
  // programmatic start), so parse it before the arming decision.
  if (std::optional<int64_t> Cap =
          envInt("PDT_TRACE_MAX_SPANS", 1024, int64_t(1) << 28))
    setMaxSpansPerThread(static_cast<uint32_t>(*Cap));
  std::optional<std::string> Path = envPath("PDT_TRACE");
  if (!Path)
    return;
  Trace::start(std::move(*Path));
  std::atexit([] { Trace::stop(); });
  // An aborting run skips atexit; the crash-flush registry covers
  // std::terminate and SIGABRT so the trace survives those too.
  registerCrashFlush("PDT_TRACE", [] {
    if (Trace::enabled())
      Trace::stop();
  });
}

namespace {
/// Arms PDT_TRACE before main so whole-process runs need no code
/// changes. Reading one env var at static-init time is safe: no other
/// pdt state is touched unless the variable is actually set.
[[maybe_unused]] const bool TraceEnvInitialized =
    (Trace::initFromEnvironment(), true);
} // namespace
