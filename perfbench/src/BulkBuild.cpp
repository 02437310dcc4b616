//===- perfbench/src/BulkBuild.cpp - Whole-program analysis workload ------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// bulk_build: whole-program analysis the way a compiler front end runs
// it. One caller, a serial graph build (NumThreads = 1), a distinct
// ~4k-pair program per operation, no store, no sockets, no pool: pair
// preparation, memo keys and edge emission do the work.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "ClosedLoop.h"

using namespace pb;
using namespace pdt;

namespace {

constexpr uint64_t SetupBase = 1000000;
/// Programs one setup generates and analyzes to warm the process
/// (about half a second, so one host stall barely moves setup_s).
constexpr unsigned WarmupPrograms = 24;

ClosedLoopSpec bulkSpec(uint64_t Seed) {
  ClosedLoopSpec Spec;
  Spec.Input = [Seed](uint64_t Index) { return bulkProgram(Seed, Index); };
  Spec.Options.NumThreads = 1;
  Spec.Setup = [Seed, Options = Spec.Options](unsigned K) {
    int64_t T0 = nowNs();
    for (unsigned W = 0; W != WarmupPrograms; ++W) {
      ProgramInput In = bulkProgram(Seed, SetupBase + K * WarmupPrograms + W);
      AnalysisResult A = analyzeSource(In.Source, In.Name, Options);
      if (!analysisProblem(A).empty())
        throw std::runtime_error("bulk_build warmup: " + analysisProblem(A));
    }
    return static_cast<double>(nowNs() - T0) / 1e9;
  };
  return Spec;
}

} // namespace

void pb::runBulkBuild(const RunOptions &O, RunResult &R, Tracer *T) {
  ClosedLoopSpec Spec = bulkSpec(O.Seed);
  runClosedLoop(O, R, T, Spec);
}

uint64_t pb::bulkBuildInputDigest(uint64_t Seed) {
  return programsDigest(bulkSpec(Seed).Input, 4);
}
