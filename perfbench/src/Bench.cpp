//===- perfbench/src/Bench.cpp - Shared benchmark plumbing ----------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace pb;

bool pb::SabotageReferences = false;

void RunResult::error(const std::string &Message) {
  if (Errors.size() < 8)
    Errors.push_back(Message);
  else if (Errors.size() == 8)
    Errors.push_back("(further output-check failures elided)");
}

std::string RunResult::json() const {
  std::ostringstream OS;
  OS << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    char Num[64];
    if (M.Integral)
      std::snprintf(Num, sizeof(Num), "%llu",
                    static_cast<unsigned long long>(M.Value));
    else if (!std::isfinite(M.Value))
      std::snprintf(Num, sizeof(Num), "0");
    else
      std::snprintf(Num, sizeof(Num), "%.17g", M.Value);
    OS << (I ? ", " : "") << "\"" << pdt::json::escape(M.Name)
       << "\": {\"value\": " << Num << ", \"unit\": \""
       << pdt::json::escape(M.Unit) << "\"}";
  }
  OS << "}}";
  return OS.str();
}

void EndToEnd::emit(RunResult &R) const {
  R.add("setup_s", SetupS, "s");
  R.add("pairs_per_s", PairsPerS, "1/s");
  R.add("latency_p50_us", LatencyP50Us, "us");
  R.add("latency_p99_us", LatencyP99Us, "us");
  R.add("max_rate_rps", MaxRateRps, "1/s");
  R.add("peak_rss_mb", peakRssMb(), "MiB");
  R.add("ok_frac",
        R.Attempted ? 1.0 - static_cast<double>(R.Failed) / R.Attempted : 0,
        "frac");
}

int64_t pb::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double pb::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

double pb::median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

double pb::peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("VmHWM:", 0) == 0) {
      std::istringstream LS(Line.substr(6));
      double Kb = 0;
      LS >> Kb;
      return Kb / 1024.0;
    }
  }
  return 0;
}

uint64_t pb::fnv1a(std::string_view S, uint64_t H) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

uint64_t pb::mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ull + Stream + 0x632be59bd9b4e019ull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}
