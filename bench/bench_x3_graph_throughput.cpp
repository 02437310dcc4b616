//===- bench/bench_x3_graph_throughput.cpp ------------------------------------===//
//
// Experiment X3: dependence-graph construction throughput. The paper's
// pitch is that partition-based testing is cheap enough to run on
// every reference pair in a program; this bench quantifies how many
// pairs per second the graph builder sustains on a large synthetic
// program, and what the bucketed + cached + multithreaded pipeline
// buys over the seed implementation (which re-lowered both references
// of every pair from scratch inside a serial O(n^2) loop).
//
// Three configurations are measured over the identical program:
//
//   * seed:      the original per-pair path (prepareAccessPair inside
//                the pair loop, no bucketing), reconstructed here;
//   * serial:    the new pipeline at 1 thread (cache + buckets only);
//   * parallel:  the new pipeline at --threads workers (default 4).
//
// The bench hard-asserts that all three produce identical graphs and
// equal TestStats, then writes BENCH_graph_throughput.json and a
// companion pdt-report-v1 document (BENCH_x3_report.json: the legs'
// wall times and ns per pair as workload values) that depprof history
// append turns into a comparable perf-ledger line. The full
// run times the configurations in interleaved reps and gates on the
// median per-rep speedup of parallel over seed (>= 2x). Run with
// --smoke for a sub-second workload (wired as the bench_smoke ctest).
//
// --ablation instead measures the batched SoA fast path against the
// scalar testers (core/PairBatch.h) on a ZIV/strong-SIV-heavy
// workload: both configurations run at the same thread count, must
// produce byte-identical edges and equal TestStats, and each emits a
// full pdt-report-v1 document (BENCH_x3_ablation_{scalar,batched}.json)
// so depprof can diff them and append the batched run to the
// BENCH_HISTORY.jsonl perf ledger. The non-smoke run gates on the
// median per-rep speedup of batched over scalar (>= 1.5x).
//
//===----------------------------------------------------------------------===//

#include "BenchMeta.h"

#include "driver/RunReport.h"
#include "core/AccessLoweringCache.h"
#include "core/DependenceGraph.h"
#include "core/DependenceTester.h"
#include "core/PairBatch.h"
#include "driver/Analyzer.h"
#include "driver/WorkloadGenerator.h"
#include "support/Metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <random>
#include <string>
#include <vector>

using namespace pdt;

namespace {

/// The seed implementation of DependenceGraph::build, kept verbatim as
/// the baseline: serial all-pairs loop, full per-pair lowering through
/// testAccessPair, no bucketing and no cache.
std::vector<Dependence> buildSeedEdges(const Program &P,
                                       const SymbolRangeMap &Symbols,
                                       TestStats *Stats) {
  std::vector<ArrayAccess> Accesses = collectAccesses(P);
  std::set<std::string> VaryingScalars = collectVaryingScalars(P);
  std::vector<Dependence> Edges;

  for (unsigned I = 0, E = Accesses.size(); I != E; ++I) {
    for (unsigned J = I, E2 = E; J != E2; ++J) {
      const ArrayAccess &A = Accesses[I];
      const ArrayAccess &B = Accesses[J];
      bool SelfPair = I == J;
      if (SelfPair && !A.IsWrite)
        continue;
      if (A.Ref->getArrayName() != B.Ref->getArrayName())
        continue;
      if (!A.IsWrite && !B.IsWrite)
        continue;

      DependenceTestResult R =
          testAccessPair(A, B, Symbols, Stats, &VaryingScalars);
      if (R.isIndependent())
        continue;

      std::vector<const DoLoop *> Common = commonLoops(A, B);
      for (const DependenceVector &V : R.Vectors) {
        for (const OrientedVector &O : orientVectors(V)) {
          Dependence D;
          D.Source = O.Reversed ? J : I;
          D.Sink = O.Reversed ? I : J;
          if (!O.CarriedLevel && O.Reversed)
            continue;
          if (SelfPair && (!O.CarriedLevel || O.Reversed))
            continue;
          D.Vector = O.Vector;
          D.CarriedLevel = O.CarriedLevel;
          D.Carrier = O.CarriedLevel ? Common[*O.CarriedLevel] : nullptr;
          D.Exact = R.Exact;
          const ArrayAccess &Src = Accesses[D.Source];
          const ArrayAccess &Snk = Accesses[D.Sink];
          if (Src.IsWrite && Snk.IsWrite)
            D.Kind = DependenceKind::Output;
          else if (Src.IsWrite)
            D.Kind = DependenceKind::Flow;
          else if (Snk.IsWrite)
            D.Kind = DependenceKind::Anti;
          else
            D.Kind = DependenceKind::Input;
          Edges.push_back(std::move(D));
        }
      }
    }
  }
  return Edges;
}

/// One configuration's timings (one wall time per rep) plus the edges
/// and statistics of its first rep.
struct Measurement {
  std::vector<double> RepSecs;
  std::string EdgeReport;
  TestStats Stats;

  double secs() const { return median(RepSecs); }
};

/// The median over reps of \p Num's time divided by \p Den's time in
/// the same rep: the speedup of \p Den over \p Num (see
/// medianOverhead in BenchMeta.h for why median-of-paired-ratios and
/// not best-of-N).
double medianSpeedup(const Measurement &Num, const Measurement &Den) {
  std::vector<double> Ratios;
  for (size_t R = 0; R != Num.RepSecs.size(); ++R)
    if (Den.RepSecs[R] > 0)
      Ratios.push_back(Num.RepSecs[R] / Den.RepSecs[R]);
  return median(std::move(Ratios));
}

using BuildFn = std::function<std::pair<std::vector<Dependence>, TestStats>()>;

/// Runs every configuration once per rep, interleaved, rotating which
/// one goes first so no configuration always runs on the coolest or
/// warmest machine.
std::vector<Measurement> timeInterleaved(unsigned Reps,
                                         const std::vector<BuildFn> &Runs) {
  std::vector<Measurement> Out(Runs.size());
  for (unsigned R = 0; R != Reps; ++R) {
    for (size_t K = 0; K != Runs.size(); ++K) {
      size_t C = (K + R) % Runs.size();
      Measurement &M = Out[C];
      auto Start = std::chrono::steady_clock::now();
      auto [Edges, Stats] = Runs[C]();
      M.RepSecs.push_back(seconds(std::chrono::steady_clock::now() - Start));
      if (R == 0) {
        M.EdgeReport = renderEdges(Edges);
        M.Stats = Stats;
      }
    }
  }
  return Out;
}

/// The batched-vs-scalar ablation: identical workload, identical
/// thread count, only the PairBatch mode override differs.
int runAblation(bool Smoke, unsigned Threads, unsigned NumNests) {
  unsigned Reps = Smoke ? 1 : 11;
  std::mt19937_64 Rng(0x5EEDBA7C4);
  std::string Source = generateBatchHeavyProgramSource(Rng, NumNests);

  AnalyzerOptions Opt;
  Opt.NumThreads = 1;
  AnalysisResult Base = analyzeSource(Source, "x3-ablation-workload", Opt);
  if (!Base.Parsed) {
    std::cerr << "ablation workload failed to parse\n";
    return 1;
  }
  const Program &Prog = *Base.Prog;
  SymbolRangeMap Symbols;

  auto Configured = [&](BatchMode Mode) -> BuildFn {
    return [&, Mode] {
      setBatchModeOverride(Mode);
      TestStats S;
      DependenceGraph G =
          DependenceGraph::build(Prog, Symbols, &S, false, Threads);
      setBatchModeOverride(std::nullopt);
      return std::pair(G.dependences(), S);
    };
  };
  std::vector<Measurement> Legs = timeInterleaved(
      Reps, {Configured(BatchMode::Off), Configured(BatchMode::On)});
  const Measurement &Scalar = Legs[0];
  const Measurement &Batched = Legs[1];

  // The whole point of the fast path: routing must not change results.
  if (Batched.EdgeReport != Scalar.EdgeReport) {
    std::cerr << "FAIL: batched and scalar graphs differ\n";
    return 1;
  }
  if (!(Batched.Stats == Scalar.Stats)) {
    std::cerr << "FAIL: batched and scalar TestStats differ\n";
    return 1;
  }
  uint64_t ScalarRouting = Scalar.Stats.BatchedZIV +
                           Scalar.Stats.BatchedStrongSIV +
                           Scalar.Stats.ScalarFallback;
  if (ScalarRouting != 0) {
    std::cerr << "FAIL: scalar configuration reported batched routing\n";
    return 1;
  }
  if (Batched.Stats.BatchedZIV == 0 || Batched.Stats.BatchedStrongSIV == 0) {
    std::cerr << "FAIL: batch-heavy workload produced no batched verdicts\n";
    return 1;
  }
  if (NumNests >= 11 && Batched.Stats.ScalarFallback == 0) {
    std::cerr << "FAIL: coupled nests did not reach the scalar fallback\n";
    return 1;
  }

  uint64_t Pairs = Scalar.Stats.ReferencePairs;
  double ScalarPps = Pairs / Scalar.secs();
  double BatchedPps = Pairs / Batched.secs();
  double Speedup = medianSpeedup(Scalar, Batched);

  std::printf("x3 batched-vs-scalar ablation: %u nests, %llu tested pairs, "
              "%u threads, median of %u interleaved reps\n",
              NumNests, static_cast<unsigned long long>(Pairs), Threads, Reps);
  std::printf("  scalar:   %8.1f ms  %10.0f pairs/sec\n", Scalar.secs() * 1e3,
              ScalarPps);
  std::printf("  batched:  %8.1f ms  %10.0f pairs/sec  (%.2fx)\n",
              Batched.secs() * 1e3, BatchedPps, Speedup);
  std::printf("  routing: ziv %llu, strong-siv %llu, scalar fallback %llu\n",
              static_cast<unsigned long long>(Batched.Stats.BatchedZIV),
              static_cast<unsigned long long>(Batched.Stats.BatchedStrongSIV),
              static_cast<unsigned long long>(Batched.Stats.ScalarFallback));

  // One fresh, metrics-armed build per configuration so each report
  // carries its own counters (Metrics are process-global; reset
  // between renders). Stats and Counter-class metrics are identical
  // across the two documents by construction — only the Sched-class
  // "routing" section and memo/pool splits may differ, which is
  // exactly what the depprof_ablation_diff ctest exercises.
  auto EmitReport = [&](const char *FileName, const char *Config,
                        BatchMode Mode) {
    setBatchModeOverride(Mode);
    Metrics::reset();
    if (!Metrics::enabled())
      Metrics::enable();
    TestStats S;
    auto Start = std::chrono::steady_clock::now();
    DependenceGraph::build(Prog, Symbols, &S, false, Threads);
    int64_t WallNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
    setBatchModeOverride(std::nullopt);
    RunReport::reset();
    RunReport::noteTool("bench_x3_graph_throughput");
    RunReport::noteWorkload("mode", "ablation");
    RunReport::noteWorkload("config", Config);
    RunReport::noteWorkload("nests", static_cast<uint64_t>(NumNests));
    RunReport::noteStats(S);
    RunReport::noteWallNs(WallNs);
    if (!RunReport::writeTo(benchOutputPath(FileName))) {
      std::cerr << "FAIL: cannot write " << FileName << "\n";
      return false;
    }
    return true;
  };
  if (!EmitReport("BENCH_x3_ablation_scalar.json", "scalar", BatchMode::Off) ||
      !EmitReport("BENCH_x3_ablation_batched.json", "batched", BatchMode::On))
    return 1;

  std::ofstream Json(benchOutputPath("BENCH_graph_ablation.json"));
  Json << "{\n"
       << benchMetaJson("x3_graph_ablation") << ",\n"
       << "  \"workload\": {\"nests\": " << NumNests
       << ", \"tested_pairs\": " << Pairs
       << ", \"smoke\": " << (Smoke ? "true" : "false") << "},\n"
       << "  \"threads\": " << Threads << ",\n"
       << "  \"scalar_ms\": " << Scalar.secs() * 1e3 << ",\n"
       << "  \"batched_ms\": " << Batched.secs() * 1e3 << ",\n"
       << "  \"scalar_pairs_per_sec\": " << ScalarPps << ",\n"
       << "  \"batched_pairs_per_sec\": " << BatchedPps << ",\n"
       << "  \"speedup_batched_vs_scalar\": " << Speedup << ",\n"
       << "  \"batched_ziv\": " << Batched.Stats.BatchedZIV << ",\n"
       << "  \"batched_strong_siv\": " << Batched.Stats.BatchedStrongSIV
       << ",\n"
       << "  \"scalar_fallback\": " << Batched.Stats.ScalarFallback << ",\n"
       << "  \"graphs_identical\": true,\n"
       << "  \"stats_identical\": true\n"
       << "}\n";

  if (!Smoke && Speedup < 1.5) {
    std::cerr << "FAIL: batched path only " << Speedup
              << "x over scalar (need >= 1.5x)\n";
    return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  RunReport::noteTool("bench_x3_graph_throughput");
  bool Smoke = false;
  bool Ablation = false;
  unsigned Threads = 4;
  unsigned NumNests = 64;
  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--smoke"))
      Smoke = true;
    else if (!std::strcmp(argv[I], "--ablation"))
      Ablation = true;
    else if (!std::strcmp(argv[I], "--threads") && I + 1 != argc)
      Threads = std::strtoul(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--nests") && I + 1 != argc)
      NumNests = std::strtoul(argv[++I], nullptr, 10);
    else {
      std::cerr << "usage: " << argv[0]
                << " [--smoke] [--ablation] [--threads N] [--nests N]\n";
      return 2;
    }
  }
  if (Ablation)
    return runAblation(Smoke, Threads, Smoke ? 12 : NumNests);
  if (Smoke)
    NumNests = 4;
  unsigned Reps = Smoke ? 1 : 11;

  // A large synthetic program: stencil statements over shared arrays,
  // so same-array buckets are big and the pair population is dense.
  std::mt19937_64 Rng(0xBADC0FFEE);
  std::string Source = generateRandomProgramSource(Rng, NumNests,
                                                   /*MaxDepth=*/3,
                                                   /*StmtsPerNest=*/3);

  // Parse and normalize once; every configuration rebuilds the graph
  // from the same Program under the same symbol assumptions.
  AnalyzerOptions Opt;
  Opt.NumThreads = 1;
  AnalysisResult Base = analyzeSource(Source, "x3-workload", Opt);
  if (!Base.Parsed) {
    std::cerr << "workload failed to parse\n";
    return 1;
  }
  const Program &Prog = *Base.Prog;
  SymbolRangeMap Symbols;
  Symbols.try_emplace("n", Interval(1, std::nullopt));

  unsigned NumAccesses = collectAccesses(Prog).size();
  if (!Smoke && NumAccesses < 500) {
    std::cerr << "workload too small: " << NumAccesses << " accesses\n";
    return 1;
  }

  std::vector<Measurement> Legs = timeInterleaved(
      Reps, {[&] {
               TestStats S;
               std::vector<Dependence> Edges =
                   buildSeedEdges(Prog, Symbols, &S);
               return std::pair(std::move(Edges), S);
             },
             [&] {
               TestStats S;
               DependenceGraph G =
                   DependenceGraph::build(Prog, Symbols, &S, false, 1);
               return std::pair(G.dependences(), S);
             },
             [&] {
               TestStats S;
               DependenceGraph G =
                   DependenceGraph::build(Prog, Symbols, &S, false, Threads);
               return std::pair(G.dependences(), S);
             }});
  const Measurement &Seed = Legs[0];
  const Measurement &Serial = Legs[1];
  const Measurement &Parallel = Legs[2];

  // Hard equivalence: all three paths must agree edge for edge and
  // counter for counter.
  if (Serial.EdgeReport != Seed.EdgeReport ||
      Parallel.EdgeReport != Seed.EdgeReport) {
    std::cerr << "FAIL: graph mismatch between configurations\n";
    return 1;
  }
  if (!(Serial.Stats == Seed.Stats) || !(Parallel.Stats == Seed.Stats)) {
    std::cerr << "FAIL: TestStats mismatch between configurations\n";
    return 1;
  }

  uint64_t Pairs = Seed.Stats.ReferencePairs;
  double SeedPps = Pairs / Seed.secs();
  double SerialPps = Pairs / Serial.secs();
  double ParallelPps = Pairs / Parallel.secs();
  double SpeedupSerial = medianSpeedup(Seed, Serial);
  double SpeedupParallel = medianSpeedup(Seed, Parallel);
  double ThreadScaling = medianSpeedup(Serial, Parallel);

  std::printf("x3 graph throughput: %u accesses, %llu tested pairs, %llu edges\n",
              NumAccesses, static_cast<unsigned long long>(Pairs),
              static_cast<unsigned long long>(std::count(
                  Seed.EdgeReport.begin(), Seed.EdgeReport.end(), '\n')));
  std::printf("  seed path:          %8.1f ms  %10.0f pairs/sec\n",
              Seed.secs() * 1e3, SeedPps);
  std::printf("  cached serial:      %8.1f ms  %10.0f pairs/sec  (%.2fx vs seed)\n",
              Serial.secs() * 1e3, SerialPps, SpeedupSerial);
  std::printf("  cached %u-thread:    %8.1f ms  %10.0f pairs/sec  (%.2fx vs seed, %.2fx vs serial)\n",
              Threads, Parallel.secs() * 1e3, ParallelPps, SpeedupParallel,
              ThreadScaling);

  std::ofstream Json(benchOutputPath("BENCH_graph_throughput.json"));
  Json << "{\n"
       << benchMetaJson("x3_graph_throughput") << ",\n"
       << "  \"workload\": {\"nests\": " << NumNests
       << ", \"accesses\": " << NumAccesses << ", \"tested_pairs\": " << Pairs
       << ", \"smoke\": " << (Smoke ? "true" : "false") << "},\n"
       << "  \"threads\": " << Threads << ",\n"
       << "  \"seed_ms\": " << Seed.secs() * 1e3 << ",\n"
       << "  \"serial_ms\": " << Serial.secs() * 1e3 << ",\n"
       << "  \"parallel_ms\": " << Parallel.secs() * 1e3 << ",\n"
       << "  \"seed_pairs_per_sec\": " << SeedPps << ",\n"
       << "  \"serial_pairs_per_sec\": " << SerialPps << ",\n"
       << "  \"parallel_pairs_per_sec\": " << ParallelPps << ",\n"
       << "  \"speedup_serial_vs_seed\": " << SpeedupSerial << ",\n"
       << "  \"speedup_parallel_vs_seed\": " << SpeedupParallel << ",\n"
       << "  \"thread_scaling\": " << ThreadScaling << ",\n"
       << "  \"graphs_identical\": true,\n"
       << "  \"stats_identical\": true\n"
       << "}\n";

  // Companion pdt-report-v1 document for the perf ledger (depprof
  // history append keeps its Time-class keys): the median-rep wall
  // times and per-pair costs of the three legs as workload values, on
  // top of one metrics-armed serial build's stats and counters.
  Metrics::reset();
  if (!Metrics::enabled())
    Metrics::enable();
  TestStats ReportStats;
  DependenceGraph::build(Prog, Symbols, &ReportStats, false, 1);
  auto Ns = [](double Secs) { return static_cast<uint64_t>(Secs * 1e9); };
  RunReport::reset();
  RunReport::noteTool("bench_x3_graph_throughput");
  RunReport::noteWorkload("mode", "throughput");
  RunReport::noteWorkload("config", Smoke ? "smoke" : "full");
  RunReport::noteWorkload("nests", static_cast<uint64_t>(NumNests));
  RunReport::noteWorkload("threads", static_cast<uint64_t>(Threads));
  RunReport::noteWorkload("seed_wall_ns", Ns(Seed.secs()));
  RunReport::noteWorkload("serial_wall_ns", Ns(Serial.secs()));
  RunReport::noteWorkload("parallel_wall_ns", Ns(Parallel.secs()));
  RunReport::noteWorkload("serial_ns_per_pair", Ns(Serial.secs() / Pairs));
  RunReport::noteWorkload("parallel_ns_per_pair",
                          Ns(Parallel.secs() / Pairs));
  RunReport::noteStats(ReportStats);
  RunReport::noteWallNs(static_cast<int64_t>(Ns(Serial.secs())));
  if (!RunReport::writeTo(benchOutputPath("BENCH_x3_report.json"))) {
    std::cerr << "FAIL: cannot write BENCH_x3_report.json\n";
    return 1;
  }

  if (!Smoke && SpeedupParallel < 2.0) {
    std::cerr << "FAIL: parallel pipeline only " << SpeedupParallel
              << "x over the seed path (need >= 2x)\n";
    return 1;
  }
  return 0;
}
