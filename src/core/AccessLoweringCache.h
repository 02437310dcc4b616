//===- core/AccessLoweringCache.h - Per-access lowering cache ---*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pair preparation on a flat, interned form. The constructor interns,
/// once per build, every index and symbol name to a dense id and every
/// distinct loop prefix (content-interned by index ids, bounds and
/// step, so identical nests in different places share one) to a
/// prefix id owning one analyzed LoopNestContext. lowerAccess then
/// reduces each access to flat affine forms per subscript dimension:
/// a constant, one coefficient per own-stack level, a sorted
/// (symbol id, coeff) run, and a nonlinear flag.
///
/// Preparing a pair (FlatPair) is then the common-prefix depth plus a
/// borrowed prefix context: indices of the shared loops stay indices,
/// every other index is a retagged (side, level) extra whose range
/// comes from the access's own prefix context. It touches no strings
/// and no maps and allocates nothing. The batch planner reads the flat
/// form directly, and the testDependence memo is keyed on it (a
/// structural hash with full-content equality, probed without building
/// a key object).
///
/// Only a memo miss and the public preparePair materialize
/// SubscriptPair / LinearExpr / LoopNestContext, and they build exactly
/// what prepareAccessPair builds from scratch (the golden, determinism
/// and equivalence tests pin this down).
///
//===----------------------------------------------------------------------===//

#ifndef PDT_CORE_ACCESSLOWERINGCACHE_H
#define PDT_CORE_ACCESSLOWERINGCACHE_H

#include "analysis/LoopNest.h"
#include "core/DependenceTester.h"
#include "ir/AccessCollector.h"
#include "ir/LinearExpr.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pdt {

struct PairBatchPlan;

/// One pair's flat preparation: everything the batch planner, the memo
/// probe and the scalar tester need, borrowed from the cache.
struct FlatPair {
  unsigned I = 0, J = 0;
  /// Depth of the common loop nest (a prefix of both stacks).
  unsigned Depth = 0;
  /// Interned prefix of the common nest; its context is the pair's.
  uint32_t Prefix = 0;
  /// Dimensions that are nonlinear on either side and take no part.
  unsigned NonlinearDims = 0;
  /// References had different dimensionality; only Depth is set.
  bool DimMismatch = false;

  bool hasNonlinear() const { return NonlinearDims != 0; }
};

class AccessLoweringCache {
public:
  /// Interns the names and loop prefixes of \p Accesses under symbol
  /// assumptions \p Symbols and lowers every access. \p VaryingScalars
  /// (may be null) names scalars whose mention makes a subscript
  /// nonlinear. The accesses vector (and VaryingScalars when
  /// deferring) must outlive the cache. With \p DeferLowering the
  /// constructor still interns everything but lowers nothing; the
  /// caller schedules lowerAccess per access (the job-graph builder
  /// lowers each array's accesses as that bucket's pipeline starts).
  AccessLoweringCache(const std::vector<ArrayAccess> &Accesses,
                      const SymbolRangeMap &Symbols,
                      const std::set<std::string> *VaryingScalars,
                      bool DeferLowering = false);
  ~AccessLoweringCache();

  /// Lowers one access (idempotent is NOT required: call exactly once
  /// per access, before any pair involving it is tested). Distinct
  /// accesses may be lowered concurrently.
  void lowerAccess(unsigned Access);

  bool isLowered(unsigned Access) const { return Lowered[Access].Ready; }

  /// The flat preparation of accesses \p I and \p J (both lowered).
  /// Thread-safe (const), allocation-free.
  FlatPair prepareFlat(unsigned I, unsigned J) const;

  /// Classifies the pair's subscripts and, when every dimension is a
  /// batchable constant-difference ZIV or separable strong SIV,
  /// appends its entries and a PairRecord (tagged \p PairIdx) to
  /// \p Plan. Returns false — leaving \p Plan untouched — when any
  /// dimension needs the scalar path. Thread-safe for distinct plans.
  bool planBatchedPair(const FlatPair &Pair, size_t PairIdx,
                       PairBatchPlan &Plan) const;
  bool planBatchedPair(unsigned I, unsigned J, size_t PairIdx,
                       PairBatchPlan &Plan) const {
    return isLowered(I) && isLowered(J) &&
           planBatchedPair(prepareFlat(I, J), PairIdx, Plan);
  }

  /// Materializes the same PreparedPair prepareAccessPair(Accesses[I],
  /// Accesses[J], ...) would build. Returns std::nullopt when the
  /// references have different dimensionality. Thread-safe (const).
  std::optional<PreparedPair> preparePair(unsigned I, unsigned J) const;

  /// Tests the prepared pair: memo hits replay the cached result and
  /// statistics without materializing anything; misses build the
  /// from-scratch inputs and run testDependence. Produces exactly
  /// testAccessPair's result and statistics. Thread-safe (const).
  DependenceTestResult testPair(const FlatPair &Pair,
                                TestStats *Stats = nullptr) const;
  DependenceTestResult testPair(unsigned I, unsigned J,
                                TestStats *Stats = nullptr) const {
    return testPair(prepareFlat(I, J), Stats);
  }

private:
  /// One subscript dimension of a lowered access.
  struct FlatDim {
    int64_t Const = 0;
    /// Run [SymBegin, SymEnd) of LoweredAccess::Syms, sorted by id.
    uint32_t SymBegin = 0, SymEnd = 0;
    /// One past the deepest own-stack level with a nonzero
    /// coefficient: every index is common when Levels <= Depth.
    uint32_t Levels = 0;
    bool Linear = false;
  };

  /// The pair-independent lowering of one array access.
  struct LoweredAccess {
    /// Interned prefix of the access's loop stack at each depth
    /// 0..stack size (the last is the access's own nest).
    std::vector<uint32_t> PrefixAt;
    std::vector<FlatDim> Dims;
    /// Dims.size() x stack depth coefficients, row-major. An index
    /// name repeated in the stack keeps its coefficient at its
    /// outermost level, where name lookup resolves it.
    std::vector<int64_t> Coeffs;
    std::vector<std::pair<uint32_t, int64_t>> Syms;
    /// lowerAccess completed for this entry (always true after an
    /// eager construction; deferred entries flip it as their lowering
    /// job runs).
    bool Ready = false;

    unsigned depth() const { return PrefixAt.size() - 1; }
    const int64_t *coeffs(unsigned Dim) const {
      return Coeffs.data() + size_t(Dim) * depth();
    }
  };

  /// One distinct loop prefix and its analyzed context.
  struct NestPrefix {
    /// LoopNestContext(loops, Symbols).
    LoopNestContext Ctx;
    /// Interned index name per level.
    std::vector<uint32_t> Name;
    /// Ctx.indexRange / Ctx.distanceRange of each level's name.
    std::vector<Interval> Range;
    std::vector<Interval> Distance;
    /// Some index range is provably empty.
    bool AnyEmpty = false;
  };

  uint32_t nameId(const std::string &Name) const;

  /// Builds the pair's Src or Dst form over the common nest, retagging
  /// non-common indices as \p Suffix symbols.
  LinearExpr materialize(const LoweredAccess &L, unsigned Dim,
                         unsigned Depth, const char *Suffix) const;
  /// The from-scratch subscripts of \p Pair, and its context: the
  /// borrowed prefix context, or \p Storage when some index was
  /// retagged (its range joins the symbol assumptions).
  const LoopNestContext &materialize(const FlatPair &Pair,
                                     std::vector<SubscriptPair> &Subscripts,
                                     LoopNestContext &Storage) const;

  /// Serializes the pair's flat content into \p Key: the memo key.
  void encodeKey(const FlatPair &Pair, std::vector<int64_t> &Key) const;

  /// testDependence keyed by the pair's flat content, with the cached
  /// statistics delta replayed into \p Stats on hits.
  DependenceTestResult memoizedTestDependence(const FlatPair &Pair,
                                              TestStats *Stats) const;

  const std::vector<ArrayAccess> &Accesses;
  SymbolRangeMap Symbols;
  const std::set<std::string> *VaryingScalars = nullptr;
  std::vector<LoweredAccess> Lowered;

  // Interning tables, filled by the constructor and read-only after.
  std::vector<std::string> Names;
  std::unordered_map<std::string, uint32_t> NameIds;
  std::vector<NestPrefix> Prefixes;

  /// Memoized testDependence results. Distinct access pairs often
  /// prepare to identical flat content — stencil programs repeat the
  /// same shapes across statements and nests — so the algorithm runs
  /// once per distinct form. The cached statistics delta is replayed
  /// into the caller's sink on every hit, keeping merged counters
  /// exactly equal to an uncached run (TestStats merging is
  /// additive). Sharded by key hash to keep worker contention low.
  struct MemoizedResult {
    DependenceTestResult Result;
    TestStats Delta;
  };
  struct MemoShard;
  static constexpr unsigned NumMemoShards = 16;
  std::unique_ptr<MemoShard[]> Memo;
};

} // namespace pdt

#endif // PDT_CORE_ACCESSLOWERINGCACHE_H
