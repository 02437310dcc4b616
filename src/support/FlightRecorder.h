//===- support/FlightRecorder.h - Bounded last-N span rings -----*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The always-on flight recorder: the bounded policy of the one span
/// store (support/Trace.h). Each recording thread's ring holds a fixed
/// number of TraceEvents and new spans overwrite the oldest, so memory
/// stays bounded no matter how long the process runs — the black-box
/// counterpart to PDT_TRACE's keep-all policy. Armed via
/// PDT_FLIGHT=on[,bytes[,path]] or FlightRecorder::start(); spans flow
/// in through the same pdt::Span gate as full tracing.
///
/// Ring invariants (checked by FlightRecorderTest under 1/4/8-thread
/// contention and across thread lifetimes):
///
///   * single writer per ring: the owning thread stores the slot, then
///     publishes Count with a release store — no locks, no RMW on the
///     record path;
///   * Count is monotonic; Overwritten == max(0, Count - SlotsPerThread);
///   * snapshot() copies each ring's window [Count - min(Count, Cap),
///     Count) under an acquire load, then re-reads Count and discards
///     any slot a writer could have reused during the copy, so a
///     returned event is never torn;
///   * a ring whose thread exited is reused by the next thread to
///     register, keeping its old spans until overwritten, so memory in
///     use is exactly Threads * SlotsPerThread * sizeof(TraceEvent),
///     Threads being the peak number of live recording threads
///     (bench_x9_monitor asserts the configured bound).
///
/// While a full trace is armed its rings are the flight rings, and the
/// flight view is each ring's last SlotsPerThread spans.
///
/// Dumps are Chrome-trace JSON (same event format as PDT_TRACE, plus a
/// "flightRecorder" header with stats and build info), written on
/// demand (dump()), on crash (CrashSafety hook), or by the watchdog's
/// postmortem() when a stage stalls. start, stop, enabled, snapshot,
/// stats and dumpPath are defined next to the store in Trace.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SUPPORT_FLIGHTRECORDER_H
#define PDT_SUPPORT_FLIGHTRECORDER_H

#include "support/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pdt {

class FlightRecorder {
public:
  /// Default per-thread ring size (bytes): a few thousand spans per
  /// thread, enough to reconstruct the last build around a stall.
  static constexpr size_t DefaultBytesPerThread = 256 * 1024;

  /// True while the bounded policy is armed.
  static bool enabled();

  /// Arms the recorder: every thread that records a span from now on
  /// gets a ring of \p BytesPerThread bytes (at least 64 slots).
  /// \p DumpPath (empty keeps the previous / default "pdt-flight.json")
  /// is where postmortem dumps land. Discards previously buffered
  /// events unless a full trace is armed.
  static void start(size_t BytesPerThread = DefaultBytesPerThread,
                    std::string DumpPath = "");

  /// Disarms; buffered events stay readable until the next start().
  static void stop();

  /// The surviving window of every ring (its last SlotsPerThread
  /// spans), merged and sorted by (thread, start time, longest-first)
  /// like Trace::snapshot().
  static std::vector<TraceEvent> snapshot();

  struct Stats {
    uint64_t Recorded = 0;    ///< Spans ever pushed (monotonic).
    uint64_t Overwritten = 0; ///< Spans that left the window.
    uint64_t BytesInUse = 0;  ///< Slots allocated across all rings.
    uint32_t Threads = 0;     ///< Rings (peak live recording threads).
    uint32_t SlotsPerThread = 0;
  };
  static Stats stats();

  /// Renders the current window as a Chrome-trace JSON document with a
  /// "flightRecorder" stats header. \p Reason tags why the dump was
  /// taken ("on-demand", "crash", "watchdog-stall", ...).
  static std::string toJson(const char *Reason = "on-demand");

  /// Writes toJson(\p Reason) to \p Path; false on I/O failure.
  static bool dump(const std::string &Path, const char *Reason = "on-demand");

  /// The postmortem path: dumps to the configured dump path and emits
  /// an error-severity journal event carrying \p Reason. Used by the
  /// crash hook and the watchdog.
  static bool postmortem(const char *Reason);

  /// Where postmortem dumps go.
  static std::string dumpPath();

  /// Parses a PDT_FLIGHT spec: "on", "off", "on,<bytes>[k|m]",
  /// "on,<bytes>,<path>". Returns false (leaving outputs untouched)
  /// on malformed input. Exposed for EnvTest.
  static bool parseSpec(const std::string &Spec, bool &On,
                        size_t &BytesPerThread, std::string &DumpPath);

  /// Arms from PDT_FLIGHT and chains the crash-dump hook. Called once
  /// before main; exposed for tests.
  static void initFromEnvironment();
};

} // namespace pdt

#endif // PDT_SUPPORT_FLIGHTRECORDER_H
