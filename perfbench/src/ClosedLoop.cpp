//===- perfbench/src/ClosedLoop.cpp - One caller, one program at a time ---===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "ClosedLoop.h"

#include "Checks.h"
#include "Tracer.h"

#include "support/Metrics.h"

#include <iostream>

using namespace pb;
using namespace pdt;

namespace {

/// Index ranges of the input stream, so the phases never share a
/// program by accident.
constexpr uint64_t OverheadBase = 500000;
constexpr uint64_t DecomposeBase = 600000;
constexpr unsigned OverheadPrograms = 6;
/// Programs per pass of the traced run's decomposition.
constexpr unsigned DecomposePrograms = 3;
/// Pairs checked against a reference per operation.
constexpr unsigned PairsPerCheck = 6;

/// Runs the output checks on one operation's result; returns the
/// first problem.
std::string checkOperation(const ClosedLoopSpec &Spec, const RunOptions &O,
                           const ProgramInput &In, const AnalysisResult &A,
                           uint64_t Op, PairCheckCounts &Counts) {
  if (std::string P = analysisProblem(A); !P.empty())
    return In.Name + ": " + P;
  if (std::string E = checkSampledPairs(In, A, mixSeed(O.Seed, 0x5000 + Op),
                                        PairsPerCheck, Counts);
      !E.empty())
    return E;
  return Spec.ExtraCheck ? Spec.ExtraCheck(In, A, Op) : "";
}

void noteOutcome(RunResult &R, const std::string &Problem) {
  ++R.Attempted;
  if (!Problem.empty()) {
    ++R.Failed;
    R.error(Problem);
  }
}

void finishChecks(RunResult &R, const PairCheckCounts &Counts) {
  std::cerr << "pdtbench: pairs checked: " << Counts.ViaOracle
            << " by the Oracle, " << Counts.ViaInterpreter
            << " by the Interpreter (" << Counts.TooCostly
            << " draws too costly to check)\n";
  if (Counts.ViaOracle + Counts.ViaInterpreter == 0)
    R.error("no pair could be checked against a reference");
}

void runTimed(const RunOptions &O, RunResult &R, ClosedLoopSpec &Spec) {
  std::vector<double> Setups;
  for (unsigned K = 0; K != SetupRepeats; ++K)
    Setups.push_back(Spec.Setup(K));

  // Per operation: latency, and pairs analyzed per second of it.
  std::vector<double> LatUs, PairRates;
  uint64_t Pairs = 0;
  PairCheckCounts Counts;
  int64_t Deadline = nowNs() + static_cast<int64_t>(O.Seconds * 1e9);
  for (uint64_t Op = 0; nowNs() < Deadline; ++Op) {
    ProgramInput In = Spec.Input(Op);
    int64_t T0 = nowNs();
    AnalysisResult A = analyzeSource(In.Source, In.Name, Spec.Options);
    double Seconds = static_cast<double>(nowNs() - T0) / 1e9;
    LatUs.push_back(Seconds * 1e6);
    PairRates.push_back(static_cast<double>(A.Stats.ReferencePairs) / Seconds);
    Pairs += A.Stats.ReferencePairs;
    noteOutcome(R, checkOperation(Spec, O, In, A, Op, Counts));
  }
  finishChecks(R, Counts);

  // Medians over operations, so a host stall moves a few operations,
  // not the figure.
  EndToEnd E;
  E.SetupS = median(Setups);
  E.PairsPerS = median(PairRates);
  E.LatencyP50Us = quantile(LatUs, 0.5);
  E.LatencyP99Us = quantile(LatUs, 0.99);
  E.MaxRateRps = E.LatencyP50Us > 0 ? 1e6 / E.LatencyP50Us : 0;
  E.emit(R);
  std::cerr << "pdtbench: " << LatUs.size() << " operations, "
            << static_cast<double>(Pairs) / std::max<size_t>(1, LatUs.size())
            << " pairs each\n";
}

void runTraced(const RunOptions &O, RunResult &R, Tracer &T,
               ClosedLoopSpec &Spec) {
  Spec.Setup(0);
  int64_t Deadline = nowNs() + static_cast<int64_t>(O.Seconds * 1e9);
  PairCheckCounts Counts;
  uint64_t OpId = 0;

  // Tracing overhead: each program decomposed once to warm every cache,
  // then once untraced and once traced (alternating which goes first),
  // with the same spans and Metrics registry the decomposition below
  // records.
  std::vector<double> Ratios;
  for (unsigned K = 0; K != OverheadPrograms; ++K) {
    ProgramInput In = Spec.Input(OverheadBase + K);
    std::string Error;
    decomposeProgram(In.Source, In.Name, Spec.Options, nullptr, Spec.Store,
                     nullptr, Error);
    noteOutcome(R, Error);
    double Untraced = 0, Traced = 0;
    for (unsigned Leg = 0; Leg != 2; ++Leg) {
      bool Tracing = (Leg + K) % 2 == 1;
      Error.clear();
      int64_t T0 = nowNs();
      if (Tracing) {
        Metrics::enable("");
        T.setOp(++OpId);
        Tracer::Scope OpSpan(&T, "op");
        decomposeProgram(In.Source, In.Name, Spec.Options, &T, Spec.Store,
                         nullptr, Error);
        Metrics::stop();
      } else {
        decomposeProgram(In.Source, In.Name, Spec.Options, nullptr,
                         Spec.Store, nullptr, Error);
      }
      (Tracing ? Traced : Untraced) = static_cast<double>(nowNs() - T0);
      noteOutcome(R, Error);
    }
    Ratios.push_back(Traced / Untraced - 1.0);
  }

  // Layer by layer over fresh programs every pass, so store_rebuild's
  // passes keep its mix of stored and fresh nests; exact counts come
  // from the first pass, costs from every pass.
  Metrics::enable("");
  ProgramCounts Counts0;
  Counts0.SeenContent.insert(Spec.SeenContent.begin(), Spec.SeenContent.end());
  for (unsigned Pass = 0; Pass == 0 || nowNs() < Deadline; ++Pass) {
    for (unsigned K = 0; K != DecomposePrograms; ++K) {
      uint64_t Index = DecomposeBase + Pass * DecomposePrograms + K;
      ProgramInput In = Spec.Input(Index);
      T.setOp(++OpId);
      std::string Error;
      AnalysisResult A;
      {
        Tracer::Scope OpSpan(&T, "op");
        A = decomposeProgram(In.Source, In.Name, Spec.Options, &T, Spec.Store,
                             Pass == 0 ? &Counts0 : nullptr, Error);
      }
      T.counters("stats",
                 {{"pairs", static_cast<double>(A.Stats.ReferencePairs)},
                  {"independent",
                   static_cast<double>(A.Stats.IndependentPairs)}});
      if (Pass == 0) {
        for (const Nest &N : In.Nests)
          Counts0.noteContent(N.CanonKey);
        if (Error.empty())
          Error = checkOperation(Spec, O, In, A, Index, Counts);
      }
      noteOutcome(R, Error);
    }
  }
  Metrics::stop();
  finishChecks(R, Counts);

  PerLayer &L = Spec.Layers;
  L.fromTracer(T);
  Counts0.fill(L);
  L.OverheadFrac = median(Ratios);
  L.emit(R);
}

} // namespace

void pb::runClosedLoop(const RunOptions &O, RunResult &R, Tracer *T,
                       ClosedLoopSpec &Spec) {
  if (T)
    runTraced(O, R, *T, Spec);
  else
    runTimed(O, R, Spec);
}

uint64_t
pb::programsDigest(const std::function<ProgramInput(uint64_t)> &Input,
                   unsigned N) {
  uint64_t H = fnv1a("");
  for (uint64_t K = 0; K != N; ++K) {
    H = fnv1a(Input(K).Source, H);
    H = fnv1a(Input(DecomposeBase + K).Source, H);
  }
  return H;
}
