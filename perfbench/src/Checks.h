//===- perfbench/src/Checks.h - Output checks against references -*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's correctness checks. None of them asks the analyzer
/// under test for the expected answer:
///
///   * sampled pairs: every dependence the brute-force Oracle finds
///     (constant bounds), or that the reference Interpreter observes
///     when executing the pair's nests with their symbols instantiated,
///     must be admitted by an edge of the graph;
///   * digests: a graph and its result-bearing counters hash to one
///     value, so a store-served build can be compared with a
///     store-bypassed rebuild.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "Inputs.h"

#include "driver/Analyzer.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pb {

struct PairCheckCounts {
  uint64_t ViaOracle = 0;
  uint64_t ViaInterpreter = 0;
  /// Drawn pairs whose reference would cost too much (huge iteration
  /// spaces); another pair is drawn instead.
  uint64_t TooCostly = 0;
};

/// The access pairs DependenceGraph::build tests, in its (I, J) order:
/// same array, at least one write unless \p IncludeInput, a reference
/// against itself only when it writes.
std::vector<std::pair<unsigned, unsigned>>
candidatePairs(const std::vector<pdt::ArrayAccess> &Accesses,
               bool IncludeInput);

/// Checks \p Want pairs of \p R, drawn with \p SampleSeed, against the
/// Oracle or the Interpreter. Returns an empty string when every
/// reference dependence is admitted, else a description of the first
/// violation.
std::string checkSampledPairs(const ProgramInput &In,
                              const pdt::AnalysisResult &R,
                              uint64_t SampleSeed, unsigned Want,
                              PairCheckCounts &Counts);

/// Hash of the graph report and the result-bearing counters.
uint64_t analysisDigest(const pdt::AnalysisResult &R);

/// Empty when \p R parsed, contained no pipeline failure and has no
/// degraded edge; else what went wrong.
std::string analysisProblem(const pdt::AnalysisResult &R);

} // namespace pb

#endif // PERFBENCH_CHECKS_H
