//===- perfbench/src/ClosedLoop.h - One caller, one program at a time -*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shape bulk_build and store_rebuild share: one calling thread
/// analyzes one seeded program per operation and waits for it (a
/// closed loop). The timed run measures analyzeSource calls and checks
/// every result; the traced run measures tracing overhead on repeated
/// programs and then decomposes fresh seeded programs layer by layer.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CLOSEDLOOP_H
#define PERFBENCH_CLOSEDLOOP_H

#include "Bench.h"
#include "Inputs.h"
#include "Layers.h"

#include "driver/Analyzer.h"

#include <functional>
#include <string>
#include <vector>

namespace pb {

struct ClosedLoopSpec {
  /// Operation \p Index's program.
  std::function<ProgramInput(uint64_t Index)> Input;
  pdt::AnalyzerOptions Options;
  /// Setup number \p K (inputs, store, warmup); leaves the workload
  /// ready to run. Returns its duration in seconds.
  std::function<double(unsigned K)> Setup;
  /// Extra per-operation output check; empty string when correct.
  std::function<std::string(const ProgramInput &, const pdt::AnalysisResult &,
                            uint64_t Op)>
      ExtraCheck;
  /// Canonical nest content setup has already analyzed (counts as seen
  /// for gen.repeat_frac).
  std::vector<std::string> SeenContent;
  /// The decomposition measures ResultStore calls too.
  bool Store = false;
  /// Filled by the workload before the traced run reports.
  PerLayer Layers;
};

void runClosedLoop(const RunOptions &O, RunResult &R, Tracer *T,
                   ClosedLoopSpec &Spec);

/// Digest of programs [0, N) of \p Input.
uint64_t programsDigest(const std::function<ProgramInput(uint64_t)> &Input,
                        unsigned N);

} // namespace pb

#endif // PERFBENCH_CLOSEDLOOP_H
