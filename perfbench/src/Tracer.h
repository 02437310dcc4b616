//===- perfbench/src/Tracer.h - The benchmark's own span recorder -*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its own calls into each
/// layer's public functions (nothing inside the program is
/// instrumented). Each span keeps its name, start, end, parent span
/// and the id of the operation it belongs to, plus a work-unit count
/// (bytes parsed, pairs prepared, ...) for per-unit costs. Counter
/// snapshots are recorded at the same operation boundaries. Everything
/// stays in memory until the run ends and is then written as Chrome
/// trace JSON (load it in Perfetto or chrome://tracing).
///
/// Self time of a span is its duration minus the time its child spans
/// cover; children nest strictly on one thread, so that is the sum of
/// the direct children's durations.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pb {

class Tracer {
public:
  struct SpanRec {
    const char *Name;
    int64_t StartNs;
    int64_t EndNs;
    int32_t Parent; ///< Index in the same thread's buffer; -1 for roots.
    uint64_t Op;
    uint64_t Units;
  };
  struct CounterRec {
    std::string Name;
    int64_t AtNs;
    std::vector<std::pair<std::string, double>> Values;
  };
  struct Totals {
    uint64_t Calls = 0;
    int64_t TotalNs = 0;
    int64_t SelfNs = 0;
    uint64_t Units = 0;
  };

  /// RAII span; a null tracer makes it a no-op so call sites need no
  /// branches.
  class Scope {
  public:
    Scope(Tracer *T, const char *Name, uint64_t Units = 0);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    /// Sets the work units once they are known.
    void units(uint64_t U);

  private:
    Tracer *T;
    int32_t Index = -1;
  };

  Tracer();
  ~Tracer();

  /// Tags the calling thread's following spans and counters with
  /// operation \p Op.
  void setOp(uint64_t Op);

  /// Records a counter snapshot at the current operation boundary.
  void counters(const std::string &Name,
                std::vector<std::pair<std::string, double>> Values);

  /// Per-name call count, total and self time, and work units over all
  /// threads.
  std::map<std::string, Totals> totals() const;

  /// Writes every span and counter as Chrome trace-event JSON.
  bool writeChromeTrace(const std::string &Path) const;

private:
  struct ThreadBuf;
  ThreadBuf &buffer();

  int64_t Epoch;
  mutable std::mutex Mutex;
  std::vector<std::unique_ptr<ThreadBuf>> Buffers;
};

} // namespace pb

#endif // PERFBENCH_TRACER_H
