//===- support/FlightRecorder.cpp - Flight dumps and PDT_FLIGHT -----------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FlightRecorder.h"

#include "support/BuildInfo.h"
#include "support/CrashSafety.h"
#include "support/EventLog.h"
#include "support/Metrics.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace pdt;

namespace {

/// Parses the bytes component of a PDT_FLIGHT spec: decimal digits
/// with an optional k/K (KiB) or m/M (MiB) suffix.
bool parseBytes(const std::string &S, size_t &Out) {
  if (S.empty())
    return false;
  size_t Mult = 1;
  std::string Digits = S;
  char Last = Digits.back();
  if (Last == 'k' || Last == 'K')
    Mult = 1024, Digits.pop_back();
  else if (Last == 'm' || Last == 'M')
    Mult = 1024 * 1024, Digits.pop_back();
  if (Digits.empty() || Digits.size() > 12)
    return false;
  size_t Value = 0;
  for (char C : Digits) {
    if (!std::isdigit(static_cast<unsigned char>(C)))
      return false;
    Value = Value * 10 + static_cast<size_t>(C - '0');
  }
  Value *= Mult;
  // At least one slot beyond any sane span, at most 1 GiB per thread.
  if (Value < sizeof(TraceEvent) || Value > (size_t(1) << 30))
    return false;
  Out = Value;
  return true;
}

} // namespace

bool FlightRecorder::parseSpec(const std::string &Spec, bool &On,
                               size_t &BytesPerThread,
                               std::string &DumpPath) {
  // Split on commas: "on[,bytes[,path]]" or "off".
  std::vector<std::string> Parts;
  size_t Pos = 0;
  while (true) {
    size_t Comma = Spec.find(',', Pos);
    Parts.push_back(Spec.substr(Pos, Comma - Pos));
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  if (Parts.empty() || Parts.size() > 3)
    return false;
  if (Parts[0] == "off")
    return Parts.size() == 1 ? (On = false, true) : false;
  if (Parts[0] != "on")
    return false;
  size_t Bytes = 0;
  if (Parts.size() >= 2 && !parseBytes(Parts[1], Bytes))
    return false;
  if (Parts.size() == 3 && Parts[2].empty())
    return false;
  On = true;
  if (Bytes)
    BytesPerThread = Bytes;
  if (Parts.size() == 3)
    DumpPath = Parts[2];
  return true;
}

std::string FlightRecorder::toJson(const char *Reason) {
  std::vector<TraceEvent> Events = snapshot();
  Stats S = stats();
  std::string Out;
  Out.reserve(Events.size() * 96 + 512);
  Out += "{\n\"displayTimeUnit\": \"ns\",\n";
  Out += "\"flightRecorder\": {\"reason\": \"";
  Out += Reason ? Reason : "on-demand";
  Out += "\", \"recorded\": " + std::to_string(S.Recorded);
  Out += ", \"overwritten\": " + std::to_string(S.Overwritten);
  Out += ", \"threads\": " + std::to_string(S.Threads);
  Out += ", \"slots_per_thread\": " + std::to_string(S.SlotsPerThread);
  Out += ", \"bytes_in_use\": " + std::to_string(S.BytesInUse);
  Out += ", \"build\": " + buildInfoJson();
  Out += "},\n\"traceEvents\": [\n";
  Trace::appendEventsJson(Out, Events);
  Out += "\n]\n}\n";
  return Out;
}

bool FlightRecorder::dump(const std::string &Path, const char *Reason) {
  std::ofstream File(Path);
  if (!File)
    return false;
  File << toJson(Reason);
  File.flush();
  if (!File.good())
    return false;
  Metrics::count(Metric::FlightDumps);
  return true;
}

bool FlightRecorder::postmortem(const char *Reason) {
  std::string Path = dumpPath();
  bool Ok = dump(Path, Reason);
  EventLog::event(EventSeverity::Error, "monitor", "flight-dump",
                  std::string(Reason ? Reason : "postmortem") +
                      (Ok ? " -> " + Path : " (write failed)"));
  return Ok;
}

void FlightRecorder::initFromEnvironment() {
  static bool Done = false;
  if (Done)
    return;
  Done = true;
  const char *Spec = std::getenv("PDT_FLIGHT");
  if (!Spec || !*Spec)
    return;
  bool On = false;
  size_t Bytes = DefaultBytesPerThread;
  std::string Path;
  if (!parseSpec(Spec, On, Bytes, Path)) {
    std::fprintf(stderr,
                 "pdt: warning: malformed PDT_FLIGHT value '%s' "
                 "(expected on[,bytes[,path]] or off); flight recorder "
                 "stays disarmed\n",
                 Spec);
    return;
  }
  if (!On)
    return;
  FlightRecorder::start(Bytes, std::move(Path));
  // A crashing run is exactly when the black box matters: dump the
  // surviving window before the process dies.
  registerCrashFlush("PDT_FLIGHT", [] {
    if (FlightRecorder::enabled())
      FlightRecorder::postmortem("crash");
  });
}

namespace {
/// Arms PDT_FLIGHT before main, mirroring Trace/Metrics.
[[maybe_unused]] const bool FlightEnvInitialized =
    (FlightRecorder::initFromEnvironment(), true);
} // namespace
