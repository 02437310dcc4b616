//===- support/JsonlSink.h - Crash-safe JSONL file writer -------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one writer behind the event journal (pdt-events-v1), the
/// sampler's time series (pdt-timeseries-v1) and the serving access log
/// (pdt-access-v1): a header line naming the schema and the build, then
/// every line handed to the kernel in a single write() before
/// returning. A SIGABRT one instruction later still leaves the line in
/// the file (neither is an fsync). Not synchronized: each owner calls
/// it under its own mutex.
///
//===----------------------------------------------------------------------===//

#ifndef PDT_SUPPORT_JSONLSINK_H
#define PDT_SUPPORT_JSONLSINK_H

#include <string>
#include <string_view>

namespace pdt {

class JsonlSink {
public:
  JsonlSink() = default;
  ~JsonlSink() { close(); }
  JsonlSink(const JsonlSink &) = delete;
  JsonlSink &operator=(const JsonlSink &) = delete;

  /// Closes any open file, (re)creates \p Path and writes the header
  ///   {"schema": "<Schema>"<Fields>, "build": {...}[, "start": "<iso8601>"]}
  /// where \p Fields is a pre-rendered run of `, "key": value` members
  /// and the UTC start stamp is present when \p StampStart. False when
  /// the file cannot be opened.
  bool open(const std::string &Path, const char *Schema,
            const std::string &Fields = "", bool StampStart = true);

  /// Writes \p Line, which must end in a newline, in one write(),
  /// retrying on EINTR. A failing file (disk full, backing store gone)
  /// drops the line rather than block the caller. No-op when closed.
  void write(std::string_view Line);

  void close();
  bool isOpen() const { return Fd >= 0; }

private:
  int Fd = -1;
};

} // namespace pdt

#endif // PDT_SUPPORT_JSONLSINK_H
