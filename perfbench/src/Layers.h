//===- perfbench/src/Layers.h - Per-layer decomposition ----------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's per-layer numbers. decomposeProgram drives one
/// program through each layer's public entry points in turn — parser,
/// analysis passes, access collection, the driver, the graph builder,
/// and the AccessLoweringCache / tester / ResultStore calls the builder
/// makes per access and per pair — each call under its own span, so the
/// span totals give a cost per unit of work for every layer.
///
/// PerLayer holds every per-layer metric the benchmark declares; a
/// workload that never exercises a layer reports 0 for it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Bench.h"
#include "Inputs.h"
#include "Tracer.h"

#include "core/TestStats.h"
#include "driver/Analyzer.h"

#include <cstdint>
#include <set>
#include <string>

namespace pb {

struct PerLayer {
  // Costs from span totals.
  double ParserNsPerByte = 0, NormalizeUs = 0, IvsubUs = 0, CollectUs = 0,
         AnalyzeUs = 0, LowerNsPerAccess = 0, PrepareNsPerPair = 0,
         TestPairNs = 0, EmitNsPerEdge = 0, BuildNsPerPair = 0,
         DecideNsPerPair = 0, StoreCanonNs = 0, StoreLookupNs = 0,
         StoreInsertNs = 0;
  // Exact counts over the run's fixed input set.
  uint64_t Accesses = 0, Pairs = 0, Edges = 0, DegradedPairs = 0;
  double IndependentFrac = 0, MemoHitRatio = 0, StoreHitRatio = 0,
         BatchedFrac = 0;
  pdt::TestStats Stats;
  // Support, serving and generator layers.
  double PoolSpawnUs = 0, StoreOpenMs = 0, HttpParseNs = 0, HandleUsP50 = 0,
         HandleUsP99 = 0, RttUsP50 = 0, RttUsP99 = 0, TransportUs = 0,
         QueueUsP99 = 0, OpenUsP50 = 0, OpenUsP99 = 0, LadderMaxRps = 0;
  uint64_t Rejected429 = 0;
  double LateUsP99 = 0;
  uint64_t BacklogMax = 0;
  double RepeatFrac = 0;
  // The trace itself.
  double OverheadFrac = 0, UnattributedFrac = 0;

  /// Fills the span-derived costs and trace.unattributed_frac.
  void fromTracer(const Tracer &T);
  /// Emits every per-layer metric, in declaration order.
  void emit(RunResult &R) const;
};

/// Exact counts of the programs a traced run decomposes.
struct ProgramCounts {
  pdt::TestStats Stats;
  uint64_t Accesses = 0, Pairs = 0, Edges = 0, DegradedEdges = 0;
  uint64_t MemoHits = 0, MemoMisses = 0;
  uint64_t StoreKeys = 0, StoreKeysPresent = 0;
  /// Nests (or requests) seen, and how many repeated earlier content.
  uint64_t Items = 0, Repeats = 0;
  std::set<std::string> SeenContent;

  void noteContent(const std::string &Key);
  /// Copies the counts into \p L.
  void fill(PerLayer &L) const;
};

/// Runs \p Source through every layer, each call under its own span
/// (inside the caller's operation span); a null \p T runs the same
/// calls unrecorded. \p Counts (may be null) gets the program's exact
/// counts. With \p Store the ResultStore calls are measured too
/// (canonicalize, lookup, and inserts under keys no real query uses);
/// the compute spans then bypass the store. Returns the
/// real analyzeProgram result for output checks.
pdt::AnalysisResult decomposeProgram(const std::string &Source,
                                     const std::string &Name,
                                     const pdt::AnalyzerOptions &Options,
                                     Tracer *T, bool Store,
                                     ProgramCounts *Counts,
                                     std::string &Error);

/// Workers of the pool support.pool_spawn_us times: the most a request
/// may use under the benchmark's cap of two server-side threads. The
/// timed runs pin one worker (PDT_THREADS=1, JobThreads=1), which starts
/// no helper thread, so this probe is the only place the benchmark runs
/// the multi-worker ThreadPool / JobGraph path.
constexpr unsigned PoolWorkers = 2;

/// Median time to construct a ThreadPool of PoolWorkers, run a
/// two-kernel parse -> analyze JobGraph of empty jobs on it, and join
/// it, in us.
double poolSpawnUs();

} // namespace pb

#endif // PERFBENCH_LAYERS_H
