//===- perfbench/src/main.cpp - pdtbench entry point ----------------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// pdtbench --workload bulk_build|serve_mix|store_rebuild --seed N
//          --seconds S --trace 0|1 [--workdir DIR] [--inputs-only]
//          [--sabotage-references]
//
// Runs one workload in this process and prints, as the last stdout
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1 (which
// also writes a Chrome trace to DIR). --inputs-only prints a digest of
// the seed's inputs instead; --sabotage-references corrupts every
// reference answer so the benchmark's tests can see the checks fail.
// Exit status: 0 when every output check passed, 1 when one failed, 2
// when the run could not be made.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Tracer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include <csignal>
#include <sys/prctl.h>
#include <unistd.h>

extern char **environ;

using namespace pb;

namespace {

int usage(const char *Why) {
  std::cerr << "pdtbench: " << Why
            << "\nusage: pdtbench --workload bulk_build|serve_mix|store_rebuild"
               " --seed N --seconds S --trace 0|1 [--workdir DIR]"
               " [--inputs-only] [--sabotage-references]\n";
  return 2;
}

/// The program receives only the generated inputs: no PDT_* setting of
/// the caller's environment may change what is measured. Analysis
/// threads inside the service are pinned to one.
void sanitizeEnvironment() {
  std::vector<std::string> Names;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "PDT_", 4) == 0)
      Names.emplace_back(*E, std::strchr(*E, '=') - *E);
  for (const std::string &Name : Names)
    ::unsetenv(Name.c_str());
  ::setenv("PDT_THREADS", "1", 1);
}

} // namespace

uint64_t pb::inputDigest(const RunOptions &O) {
  if (O.Workload == "bulk_build")
    return bulkBuildInputDigest(O.Seed);
  if (O.Workload == "store_rebuild")
    return storeRebuildInputDigest(O.Seed);
  return serveMixInputDigest(O.Seed);
}

int main(int Argc, char **Argv) {
  RunOptions O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    char *End = nullptr;
    if (A == "--inputs-only") {
      O.InputsOnly = true;
    } else if (A == "--sabotage-references") {
      SabotageReferences = true;
    } else if (!(V = Next())) {
      return usage(("missing value for " + A).c_str());
    } else if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, &End, 10);
      if (*End)
        return usage("bad --seed");
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, &End);
      if (*End || !(O.Seconds > 0))
        return usage("bad --seconds");
    } else if (A == "--trace") {
      if (std::string(V) != "0" && std::string(V) != "1")
        return usage("bad --trace");
      O.Trace = std::string(V) == "1";
    } else if (A == "--workdir") {
      O.WorkDir = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (O.Workload != "bulk_build" && O.Workload != "serve_mix" &&
      O.Workload != "store_rebuild")
    return usage("unknown --workload");

  sanitizeEnvironment();
  std::signal(SIGPIPE, SIG_IGN);
  // Wake sleeping generator threads within microseconds of their due
  // time instead of the default 50us timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  if (O.InputsOnly) {
    std::printf("%s %016llx\n", O.Workload.c_str(),
                static_cast<unsigned long long>(inputDigest(O)));
    return 0;
  }

  std::error_code EC;
  std::filesystem::create_directories(O.WorkDir, EC);
  if (EC)
    return usage(("cannot create " + O.WorkDir).c_str());

  RunResult R;
  std::unique_ptr<Tracer> T;
  if (O.Trace)
    T = std::make_unique<Tracer>();
  try {
    if (O.Workload == "bulk_build")
      runBulkBuild(O, R, T.get());
    else if (O.Workload == "serve_mix")
      runServeMix(O, R, T.get());
    else
      runStoreRebuild(O, R, T.get());
  } catch (const std::exception &E) {
    std::cerr << "pdtbench: " << O.Workload << " could not run: " << E.what()
              << "\n";
    return 2;
  }
  if (T) {
    std::string Path = O.WorkDir + "/trace-" + O.Workload + "-" +
                       std::to_string(O.Seed) + ".json";
    if (T->writeChromeTrace(Path))
      std::cerr << "pdtbench: trace written to " << Path << "\n";
    else
      std::cerr << "pdtbench: cannot write " << Path << "\n";
  }
  for (const std::string &E : R.Errors)
    std::cerr << "pdtbench: output check failed: " << E << "\n";
  std::cout << R.json() << std::endl;
  return R.correct() ? 0 : 1;
}
