//===- core/PairBatch.cpp - Batched SoA pair-testing plan -----------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/PairBatch.h"

#include "core/AccessLoweringCache.h"
#include "support/Env.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <climits>

using namespace pdt;

namespace {

std::optional<BatchMode> &overrideSlot() {
  thread_local std::optional<BatchMode> Slot;
  return Slot;
}

} // namespace

BatchMode pdt::batchMode() {
  if (const std::optional<BatchMode> &Override = overrideSlot())
    return *Override;
  if (std::optional<std::string> Value =
          envChoice("PDT_BATCH", {"on", "off", "auto"})) {
    if (*Value == "on")
      return BatchMode::On;
    if (*Value == "off")
      return BatchMode::Off;
  }
  return BatchMode::Auto;
}

void pdt::setBatchModeOverride(std::optional<BatchMode> Mode) {
  overrideSlot() = Mode;
}

bool AccessLoweringCache::planBatchedPair(const FlatPair &Pair,
                                          size_t PairIdx,
                                          PairBatchPlan &Plan) const {
  // Mismatched dimensionality and nonlinear dimensions take the scalar
  // path, which handles both conservatively.
  if (Pair.DimMismatch || Pair.hasNonlinear())
    return false;
  unsigned Depth = Pair.Depth;
  // The coupled-level bitmask below holds 64 levels; deeper nests
  // are fantasy input, handled scalar.
  if (Depth > 64)
    return false;
  // A provably-empty nest short-circuits to EmptyNest independence
  // before any per-subscript test fires; only the scalar path
  // replays that exactly.
  const NestPrefix &Nest = Prefixes[Pair.Prefix];
  if (Nest.AnyEmpty)
    return false;

  size_t EntriesMark = Plan.Coeff.size();
  auto Rollback = [&] {
    Plan.Coeff.resize(EntriesMark);
    Plan.Const.resize(EntriesMark);
    Plan.Span.resize(EntriesMark);
    Plan.Level.resize(EntriesMark);
    Plan.IsSIV.resize(EntriesMark);
    Plan.ExactEntry.resize(EntriesMark);
    return false;
  };

  // Each dimension's tagged equation Src(i) - Dst(i') is read off the
  // flat forms with the checks the scalar dispatcher would trip on:
  // negating Dst overflows at INT64_MIN, symbol and constant
  // differences may overflow. Any of them routes the pair scalar,
  // where it raises and degrades exactly as before.
  const LoweredAccess &LA = Lowered[Pair.I];
  const LoweredAccess &LB = Lowered[Pair.J];
  uint64_t UsedLevels = 0;
  for (unsigned Dim = 0, E = LA.Dims.size(); Dim != E; ++Dim) {
    const FlatDim &Src = LA.Dims[Dim];
    const FlatDim &Dst = LB.Dims[Dim];
    // A retagged non-common index is a #src/#snk symbol, which never
    // cancels: symbolic, for the SymbolicZIV/SymbolicSIV machinery.
    if (Src.Levels > Depth || Dst.Levels > Depth)
      return Rollback();
    if (Dst.Const == INT64_MIN)
      return Rollback();
    // Symbol terms must cancel exactly (Dst's INT64_MIN cannot be
    // negated; equal coefficients are then never INT64_MIN either).
    if (Src.SymEnd - Src.SymBegin != Dst.SymEnd - Dst.SymBegin ||
        !std::equal(LA.Syms.begin() + Src.SymBegin,
                    LA.Syms.begin() + Src.SymEnd,
                    LB.Syms.begin() + Dst.SymBegin))
      return Rollback();
    for (uint32_t K = Dst.SymBegin; K != Dst.SymEnd; ++K)
      if (LB.Syms[K].second == INT64_MIN)
        return Rollback();
    // C == INT64_MIN risks UB in the kernel's division and negation.
    std::optional<int64_t> C = checkedAdd(Src.Const, -Dst.Const);
    if (!C || *C == INT64_MIN)
      return Rollback();

    const int64_t *SrcCoeffs = LA.coeffs(Dim);
    const int64_t *DstCoeffs = LB.coeffs(Dim);
    unsigned SrcTerms = 0, DstTerms = 0, SrcLevel = 0, DstLevel = 0;
    for (unsigned Level = 0; Level != Src.Levels; ++Level)
      if (SrcCoeffs[Level]) {
        ++SrcTerms;
        SrcLevel = Level;
      }
    for (unsigned Level = 0; Level != Dst.Levels; ++Level)
      if (DstCoeffs[Level]) {
        if (DstCoeffs[Level] == INT64_MIN)
          return Rollback();
        ++DstTerms;
        DstLevel = Level;
      }

    if (SrcTerms + DstTerms == 0) {
      // ZIV: independent iff C != 0, encoded for the shared kernel
      // as {a=1, Span=0}: C % 1 == 0 always, |C/1| > 0 iff C != 0.
      Plan.Coeff.push_back(1);
      Plan.Const.push_back(*C);
      Plan.Span.push_back(0);
      Plan.Level.push_back(0);
      Plan.IsSIV.push_back(0);
      Plan.ExactEntry.push_back(1);
      continue;
    }
    // Strong SIV is <a*i + c1, a*i' + c2>: one index, the same on both
    // sides, with equal coefficients. Anything else is weak-zero SIV
    // (one term), RDIV, MIV or weak/general SIV.
    if (SrcTerms != 1 || DstTerms != 1 || SrcLevel != DstLevel ||
        SrcCoeffs[SrcLevel] != DstCoeffs[DstLevel])
      return Rollback();
    unsigned Level = SrcLevel;
    // Two dimensions constraining the same index form a coupled
    // group, which the Delta test owns.
    if (UsedLevels & (uint64_t(1) << Level))
      return Rollback();
    UsedLevels |= uint64_t(1) << Level;

    const Interval &DistRange = Nest.Distance[Level];
    if (DistRange.isEmpty())
      return Rollback(); // Unreachable given the nest check; scalar.
    Plan.Coeff.push_back(SrcCoeffs[Level]);
    Plan.Const.push_back(*C);
    Plan.Span.push_back(DistRange.upper() ? *DistRange.upper() : INT64_MAX);
    Plan.Level.push_back(Level);
    Plan.IsSIV.push_back(1);
    Plan.ExactEntry.push_back(DistRange.isFinite() ? 1 : 0);
  }

  Plan.Pairs.push_back({PairIdx, Pair.I, Pair.J,
                        static_cast<uint32_t>(EntriesMark),
                        static_cast<uint32_t>(Plan.Coeff.size() - EntriesMark),
                        Depth});
  return true;
}
