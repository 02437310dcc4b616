//===- bench/BenchMeta.h - Uniform bench JSON metadata ----------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// Every BENCH_*.json carries the same "meta" header so results from
// different machines, build types, and sanitizer configurations are
// never compared apples-to-oranges: build type, sanitizer flags, the
// effective thread count, and a wall-clock timestamp.
//
// Also the timing helpers the graph-build benches share: the edge
// rendering their identity checks compare, and the median of
// interleaved per-rep ratios their speedup and overhead gates read.
//
//===----------------------------------------------------------------------===//

#ifndef PDT_BENCH_BENCHMETA_H
#define PDT_BENCH_BENCHMETA_H

#include "core/DependenceGraph.h"
#include "support/BuildInfo.h"
#include "support/Env.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

// Injected by bench/CMakeLists.txt; the fallbacks keep the header
// usable from ad-hoc builds.
#ifndef PDT_BENCH_BUILD_TYPE
#define PDT_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PDT_BENCH_SANITIZE
#define PDT_BENCH_SANITIZE 0
#endif

namespace pdt {

/// The uniform "meta" member (no trailing comma or newline); emit as
/// the first member of every bench JSON object:
///   Json << "{\n" << benchMetaJson("x3_graph_throughput") << ",\n" ...
inline std::string benchMetaJson(const char *BenchName) {
  char Time[32] = "unknown";
  std::time_t Now = std::time(nullptr);
  if (std::tm *UTC = std::gmtime(&Now))
    std::strftime(Time, sizeof(Time), "%Y-%m-%dT%H:%M:%SZ", UTC);

  std::string Out;
  Out += "  \"meta\": {\n";
  Out += std::string("    \"bench\": \"") + BenchName + "\",\n";
  Out += "    \"build_type\": \"" PDT_BENCH_BUILD_TYPE "\",\n";
  Out += std::string("    \"sanitizers\": ") +
         (PDT_BENCH_SANITIZE ? "\"address,undefined\"" : "\"none\"") + ",\n";
  Out += "    \"build\": " + buildInfoJson() + ",\n";
  Out += "    \"threads\": " +
         std::to_string(ThreadPool::defaultThreadCount()) + ",\n";
  Out += std::string("    \"timestamp\": \"") + Time + "\"\n";
  Out += "  }";
  return Out;
}

/// Where a bench JSON artifact lands: inside PDT_BENCH_DIR (created
/// on demand) when set, the current directory otherwise. Every bench
/// routes its BENCH_*.json through this so one environment variable
/// collects a whole run's artifacts — ctest working directories,
/// CI output folders, the committed ledger directory.
inline std::string benchOutputPath(const char *FileName) {
  std::optional<std::string> Dir = envPath("PDT_BENCH_DIR");
  if (!Dir)
    return FileName;
  std::error_code EC;
  std::filesystem::create_directories(*Dir, EC);
  // On failure fall through: the ofstream open reports the real error.
  return *Dir + "/" + FileName;
}

/// One dependence edge per line, rendered without graph identity, so
/// edge lists from different builders or configurations compare byte
/// for byte.
inline std::string renderEdges(const std::vector<Dependence> &Edges) {
  std::string Out;
  for (const Dependence &D : Edges) {
    Out += dependenceKindName(D.Kind);
    Out += ' ';
    Out += std::to_string(D.Source);
    Out += "->";
    Out += std::to_string(D.Sink);
    Out += ' ';
    Out += D.Vector.str();
    Out += D.Carrier ? " @" + D.Carrier->getIndexName() : " indep";
    Out += D.Exact ? " exact" : " assumed";
    Out += '\n';
  }
  return Out;
}

inline double seconds(std::chrono::steady_clock::duration D) {
  return std::chrono::duration<double>(D).count();
}

inline double median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2.0;
}

/// One timed leg of an armed-vs-disarmed comparison.
struct Leg {
  double Secs = 0;
  std::string EdgeReport;
};

/// Times the disarmed and armed legs (\p TimeOne(false) and
/// \p TimeOne(true)) interleaved rep by rep and returns the median of
/// the per-rep armed/disarmed ratios, minus one.
///
/// Two choices matter on a shared box whose load drifts. Interleaving
/// means each ratio compares two adjacent runs that saw (nearly) the
/// same machine state, so drift divides out of every sample; a
/// sequential A-then-B timing attributes a background hiccup entirely
/// to one leg. And the median of those ratios is robust to the
/// occasional rep that a scheduler hiccup inflates — best-of-N, the
/// usual benchmark statistic, compares two extreme order statistics
/// whose gap on these workloads is wider than the overhead being
/// measured. Also fills \p Disarmed / \p Armed with each leg's fastest
/// rep for reporting and the edge-identity check.
template <typename TimeFn>
double medianOverhead(unsigned Reps, TimeFn TimeOne, Leg &Disarmed,
                      Leg &Armed) {
  std::vector<double> Ratios;
  Ratios.reserve(Reps);
  for (unsigned R = 0; R != Reps; ++R) {
    Leg D = TimeOne(/*Arm=*/false);
    Leg A = TimeOne(/*Arm=*/true);
    if (D.Secs > 0)
      Ratios.push_back(A.Secs / D.Secs);
    if (Disarmed.EdgeReport.empty() || D.Secs < Disarmed.Secs)
      Disarmed = std::move(D);
    if (Armed.EdgeReport.empty() || A.Secs < Armed.Secs)
      Armed = std::move(A);
  }
  return Ratios.empty() ? 0.0 : median(std::move(Ratios)) - 1.0;
}

} // namespace pdt

#endif // PDT_BENCH_BENCHMETA_H
