//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the command-line options, the result
/// pdtbench prints as its last stdout line, a steady clock, quantiles
/// and a content hash.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pb {

class Tracer;

/// One invocation: `pdtbench --workload W --seed N --seconds S --trace T`.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory for run artifacts (trace dumps, store segments); inside
  /// the checkout.
  std::string WorkDir = ".bench_build/run";
  /// Print the seed's input digest and exact counts instead of timing
  /// (used by the benchmark's own determinism test).
  bool InputsOnly = false;
};

/// What one run reports. Metrics keep insertion order.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Output-check violations (a wrong answer, not a slow one).
  std::vector<std::string> Errors;
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
    bool Integral;
  };
  std::vector<Metric> Metrics;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit, false});
  }
  void addCount(const std::string &Name, uint64_t Value,
                const std::string &Unit = "count") {
    Metrics.push_back({Name, static_cast<double>(Value), Unit, true});
  }
  /// Records a failed output check (kept to the first few messages).
  void error(const std::string &Message);
  bool correct() const { return Errors.empty() && Failed == 0; }
  /// The one-line JSON object pdtbench prints last.
  std::string json() const;
};

/// Test hook (--sabotage-references): every reference answer is
/// corrupted, so a run whose output checks work must fail them.
extern bool SabotageReferences;

/// Setups per timed run; setup_s is their median.
constexpr unsigned SetupRepeats = 5;

/// The end-to-end metrics every workload reports, in declaration
/// order (ok_frac comes from the run's attempted/failed counts).
struct EndToEnd {
  double SetupS = 0;
  double PairsPerS = 0;
  double LatencyP50Us = 0;
  double LatencyP99Us = 0;
  double MaxRateRps = 0;
  void emit(RunResult &R) const;
};

/// Nanoseconds on the steady clock.
int64_t nowNs();

/// Linear-interpolated quantile (Q in [0, 1]) of \p Values; 0 when
/// empty.
double quantile(std::vector<double> Values, double Q);
double median(std::vector<double> Values);

/// Peak resident set of this process (VmHWM), in MiB.
double peakRssMb();

/// 64-bit FNV-1a, chainable through \p H.
uint64_t fnv1a(std::string_view S, uint64_t H = 1469598103934665603ull);

/// splitmix64 of (Seed, Stream): independent per-purpose seeds.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream);

/// The workloads (each defined in its own file). Each fills \p R;
/// \p T is non-null for the traced run.
void runBulkBuild(const RunOptions &O, RunResult &R, Tracer *T);
void runStoreRebuild(const RunOptions &O, RunResult &R, Tracer *T);
void runServeMix(const RunOptions &O, RunResult &R, Tracer *T);

/// A digest of the seed-determined inputs of workload \p O.Workload
/// (printed by --inputs-only).
uint64_t inputDigest(const RunOptions &O);
uint64_t bulkBuildInputDigest(uint64_t Seed);
uint64_t storeRebuildInputDigest(uint64_t Seed);
uint64_t serveMixInputDigest(uint64_t Seed);

} // namespace pb

#endif // PERFBENCH_BENCH_H
