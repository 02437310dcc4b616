//===- perfbench/src/StoreRebuild.cpp - Incremental re-analysis workload --===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// store_rebuild: incremental CI re-analysis with the persistent result
// store on. Setup activates a fresh store directory, populates it with
// a pool of decide-heavy nests, and reopens it the way the next CI
// process would. Each operation then analyzes a program whose nests
// are 80% renamed or shifted copies of stored nests (store reads) and
// 20% fresh ones (deciders run, records are appended). The build is
// serial: with two workers the figures followed the host's CPU steal
// (p99 spread 0.42 against 0.14 serial over the same seeds).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Checks.h"
#include "ClosedLoop.h"

#include "core/ResultStore.h"

#include <filesystem>
#include <memory>

#include <unistd.h>

using namespace pb;
using namespace pdt;

namespace {

namespace fs = std::filesystem;

constexpr uint64_t SetupBase = 1000000;
/// Every sixteenth operation is rebuilt with the store bypassed and
/// must hash identically.
constexpr uint64_t DigestEvery = 16;

struct StoreState {
  explicit StoreState(uint64_t Seed) : Inputs(Seed) {}
  StoreState(const StoreState &) = delete;
  StoreState &operator=(const StoreState &) = delete;
  ~StoreState() {
    ResultStore::deactivate();
    std::error_code EC;
    for (const std::string &Dir : Dirs)
      fs::remove_all(Dir, EC);
  }
  StoreInputs Inputs;
  std::vector<std::string> Dirs;
  std::vector<double> OpenMs;
};

ClosedLoopSpec storeSpec(const std::string &WorkDir,
                         std::shared_ptr<StoreState> State) {
  ClosedLoopSpec Spec;
  Spec.Store = true;
  // Content the store already holds when the timed operations start.
  for (const ProgramInput &In : State->Inputs.populatePrograms())
    for (const Nest &N : In.Nests)
      Spec.SeenContent.push_back(N.CanonKey);
  Spec.Options.NumThreads = 1;
  Spec.Input = [State](uint64_t Index) {
    return State->Inputs.program(Index);
  };
  Spec.Setup = [State, WorkDir, Options = Spec.Options](unsigned K) {
    std::string Dir = WorkDir + "/store-" + std::to_string(::getpid()) + "-" +
                      std::to_string(K);
    std::error_code EC;
    fs::remove_all(Dir, EC);
    State->Dirs.push_back(Dir);
    std::string Generation = analyzerOptionsFingerprint(Options);
    int64_t T0 = nowNs();
    if (!ResultStore::activate(Dir, Generation))
      throw std::runtime_error("the persistent store is compiled out");
    for (const ProgramInput &In : State->Inputs.populatePrograms()) {
      AnalysisResult A = analyzeSource(In.Source, In.Name, Options);
      if (!analysisProblem(A).empty())
        throw std::runtime_error("store populate: " + analysisProblem(A));
    }
    // The next CI process opens the populated store.
    for (unsigned Reopen = 0; Reopen != 3; ++Reopen) {
      ResultStore::deactivate();
      int64_t O0 = nowNs();
      ResultStore::activate(Dir, Generation);
      State->OpenMs.push_back(static_cast<double>(nowNs() - O0) / 1e6);
    }
    if (!ResultStore::active() || ResultStore::active()->broken())
      throw std::runtime_error("store at " + Dir + " cannot persist");
    ProgramInput Warm = State->Inputs.program(SetupBase + K);
    AnalysisResult A = analyzeSource(Warm.Source, Warm.Name, Options);
    if (!analysisProblem(A).empty())
      throw std::runtime_error("store warmup: " + analysisProblem(A));
    return static_cast<double>(nowNs() - T0) / 1e9;
  };
  Spec.ExtraCheck = [Options = Spec.Options](const ProgramInput &In,
                                             const AnalysisResult &A,
                                             uint64_t Op) -> std::string {
    if (Op % DigestEvery != 0)
      return "";
    // The bypass guard is per thread, so the reference build is serial.
    StoreBypassGuard Bypass;
    AnalyzerOptions Serial = Options;
    Serial.NumThreads = 1;
    AnalysisResult Fresh = analyzeSource(In.Source, In.Name, Serial);
    if (analysisDigest(Fresh) != analysisDigest(A))
      return In.Name + ": the store-served graph differs from a "
                       "store-bypassed rebuild";
    return "";
  };
  return Spec;
}

} // namespace

void pb::runStoreRebuild(const RunOptions &O, RunResult &R, Tracer *T) {
  auto State = std::make_shared<StoreState>(O.Seed);
  ClosedLoopSpec Spec = storeSpec(O.WorkDir, State);
  if (T) {
    Spec.Layers.PoolSpawnUs = poolSpawnUs();
    // runClosedLoop runs the setup first; the open time is read back
    // through the state before the layers are emitted.
    Spec.Setup = [Setup = Spec.Setup, &Spec, State](unsigned K) {
      double S = Setup(K);
      Spec.Layers.StoreOpenMs = median(State->OpenMs);
      return S;
    };
  }
  runClosedLoop(O, R, T, Spec);
}

uint64_t pb::storeRebuildInputDigest(uint64_t Seed) {
  auto State = std::make_shared<StoreState>(Seed);
  uint64_t H = programsDigest(storeSpec("", State).Input, 4);
  for (const ProgramInput &In : State->Inputs.populatePrograms())
    H = fnv1a(In.Source, H);
  return H;
}
