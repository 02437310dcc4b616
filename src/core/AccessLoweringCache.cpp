//===- core/AccessLoweringCache.cpp - Per-access lowering cache -----------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/AccessLoweringCache.h"

#include "core/Partition.h"
#include "ir/AST.h"
#include "support/Casting.h"
#include "support/Failure.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <mutex>

using namespace pdt;

namespace {

/// The memo key's structural hash: a multiply-xorshift fold over the
/// flat content words.
size_t hashWords(const int64_t *Words, size_t Count) {
  uint64_t H = 0x9E3779B97F4A7C15ull ^ Count;
  for (size_t K = 0; K != Count; ++K) {
    H ^= static_cast<uint64_t>(Words[K]);
    H *= 0xBF58476D1CE4E5B9ull;
    H ^= H >> 29;
  }
  return static_cast<size_t>(H);
}

/// A memo probe: the scratch key plus its precomputed hash, looked up
/// without copying the key.
struct KeyView {
  const int64_t *Data;
  size_t Size;
  size_t Hash;
};

struct KeyHash {
  using is_transparent = void;
  size_t operator()(const std::vector<int64_t> &K) const {
    return hashWords(K.data(), K.size());
  }
  size_t operator()(const KeyView &V) const { return V.Hash; }
};

struct KeyEqual {
  using is_transparent = void;
  bool operator()(const std::vector<int64_t> &A,
                  const std::vector<int64_t> &B) const {
    return A == B;
  }
  bool operator()(const KeyView &A, const std::vector<int64_t> &B) const {
    return std::equal(A.Data, A.Data + A.Size, B.begin(), B.end());
  }
  bool operator()(const std::vector<int64_t> &A, const KeyView &B) const {
    return (*this)(B, A);
  }
};

/// Calls \p F on every variable name \p E mentions.
template <typename Fn> void forEachVarName(const Expr *E, Fn &&F) {
  switch (E->getKind()) {
  case Expr::Kind::IntLiteral:
    return;
  case Expr::Kind::VarRef:
    F(cast<VarRef>(E)->getName());
    return;
  case Expr::Kind::Unary:
    forEachVarName(cast<UnaryExpr>(E)->getOperand(), F);
    return;
  case Expr::Kind::Binary:
    forEachVarName(cast<BinaryExpr>(E)->getLHS(), F);
    forEachVarName(cast<BinaryExpr>(E)->getRHS(), F);
    return;
  case Expr::Kind::ArrayElement: {
    const auto *A = cast<ArrayElement>(E);
    for (unsigned Dim = 0; Dim != A->getNumDims(); ++Dim)
      forEachVarName(A->getSubscript(Dim), F);
    return;
  }
  }
}

} // namespace

/// One lock-striped bucket of the testDependence memo table.
struct AccessLoweringCache::MemoShard {
  std::mutex M;
  std::unordered_map<std::vector<int64_t>, MemoizedResult, KeyHash, KeyEqual>
      Table;
};

AccessLoweringCache::~AccessLoweringCache() = default;

AccessLoweringCache::AccessLoweringCache(
    const std::vector<ArrayAccess> &Accesses, const SymbolRangeMap &Symbols,
    const std::set<std::string> *VaryingScalars, bool DeferLowering)
    : Accesses(Accesses), Symbols(Symbols), VaryingScalars(VaryingScalars),
      Memo(std::make_unique<MemoShard[]>(NumMemoShards)) {
  // Counted up front in both modes so the lowering counter never
  // depends on how many buckets the deferred schedule actually
  // reaches.
  Metrics::count(Metric::AccessesLowered, Accesses.size());
  Lowered.resize(Accesses.size());

  // Everything is interned here, single-threaded, so the (possibly
  // concurrent) lowering jobs only read the tables.
  auto Intern = [this](const std::string &Name) {
    auto [It, New] = NameIds.try_emplace(Name, Names.size());
    if (New)
      Names.push_back(Name);
    return It->second;
  };
  auto EncodeBound = [&Intern](const LinearExpr &E,
                               std::vector<int64_t> &Out) {
    Out.push_back(E.getConstant());
    for (const auto *Terms : {&E.indexTerms(), &E.symbolTerms()}) {
      Out.push_back(Terms->size());
      for (const auto &[Name, Coeff] : *Terms) {
        Out.push_back(Intern(Name));
        Out.push_back(Coeff);
      }
    }
  };

  // Loop prefixes: each (parent prefix, DoLoop) path is analyzed once,
  // then content-interned on (parent prefix, loop content), so nests
  // with identical index names, bounds and steps share one prefix.
  std::map<std::pair<uint32_t, const DoLoop *>, uint32_t> PathPrefix;
  std::map<std::vector<int64_t>, uint32_t> LoopContent;
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> ContentPrefix;
  Prefixes.emplace_back();
  Prefixes[0].Ctx = LoopNestContext(std::vector<LoopBounds>(), Symbols);
  for (unsigned Access = 0, E = Accesses.size(); Access != E; ++Access) {
    const ArrayAccess &A = Accesses[Access];
    for (unsigned Dim = 0; Dim != A.Ref->getNumDims(); ++Dim)
      forEachVarName(A.Ref->getSubscript(Dim), Intern);
    std::vector<uint32_t> &PrefixAt = Lowered[Access].PrefixAt;
    PrefixAt.assign(1, 0);
    for (unsigned Level = 0; Level != A.LoopStack.size(); ++Level) {
      const DoLoop *Loop = A.LoopStack[Level];
      uint32_t Parent = PrefixAt.back();
      auto [PathIt, NewPath] =
          PathPrefix.try_emplace({Parent, Loop}, 0);
      if (NewPath) {
        std::set<std::string> OuterIndices;
        for (unsigned Outer = 0; Outer != Level; ++Outer)
          OuterIndices.insert(A.LoopStack[Outer]->getIndexName());
        LoopBounds B = analyzeLoopBounds(Loop, OuterIndices);
        std::vector<int64_t> Content{Intern(B.Index), B.Affine, B.Step};
        EncodeBound(B.Lower, Content);
        EncodeBound(B.Upper, Content);
        uint32_t ContentId =
            LoopContent.try_emplace(std::move(Content), LoopContent.size())
                .first->second;
        auto [It, NewPrefix] =
            ContentPrefix.try_emplace({Parent, ContentId}, Prefixes.size());
        if (NewPrefix) {
          NestPrefix P;
          std::vector<LoopBounds> Loops = Prefixes[Parent].Ctx.loops();
          Loops.push_back(std::move(B));
          P.Ctx = LoopNestContext(std::move(Loops), Symbols);
          P.Name = Prefixes[Parent].Name;
          P.Name.push_back(Intern(Loop->getIndexName()));
          for (const LoopBounds &L : P.Ctx.loops()) {
            P.Range.push_back(P.Ctx.indexRange(L.Index));
            P.Distance.push_back(P.Ctx.distanceRange(L.Index));
            P.AnyEmpty |= P.Range.back().isEmpty();
          }
          Prefixes.push_back(std::move(P));
        }
        PathIt->second = It->second;
      }
      PrefixAt.push_back(PathIt->second);
    }
  }

  if (DeferLowering)
    return;
  for (unsigned I = 0, E = Accesses.size(); I != E; ++I)
    lowerAccess(I);
}

uint32_t AccessLoweringCache::nameId(const std::string &Name) const {
  auto It = NameIds.find(Name);
  assert(It != NameIds.end() && "name was not interned");
  return It->second;
}

void AccessLoweringCache::lowerAccess(unsigned Access) {
  Span LowerSpan("AccessLoweringCache::lower", "cache");
  const ArrayAccess &Source = Accesses[Access];
  LoweredAccess &L = Lowered[Access];
  const NestPrefix &Own = Prefixes[L.PrefixAt.back()];
  unsigned Depth = L.depth();
  std::set<std::string> OwnIndices;
  for (const DoLoop *Loop : Source.LoopStack)
    OwnIndices.insert(Loop->getIndexName());

  unsigned NumDims = Source.Ref->getNumDims();
  L.Dims.assign(NumDims, FlatDim());
  L.Coeffs.assign(size_t(NumDims) * Depth, 0);
  for (unsigned Dim = 0; Dim != NumDims; ++Dim) {
    std::optional<LinearExpr> Linear;
    try {
      Linear = buildLinearExpr(Source.Ref->getSubscript(Dim), OwnIndices);
    } catch (const AnalysisError &) {
      // Coefficient overflow while lowering: the dimension is as
      // untestable as a nonlinear subscript — treat it as one.
      Linear.reset();
    }
    // A scalar assigned somewhere in the program is not a
    // loop-invariant symbol; the subscript is effectively nonlinear.
    if (Linear && VaryingScalars)
      for (const auto &[Name, Coeff] : Linear->symbolTerms())
        if (VaryingScalars->count(Name)) {
          Linear.reset();
          break;
        }
    if (!Linear)
      continue;

    FlatDim &D = L.Dims[Dim];
    D.Linear = true;
    D.Const = Linear->getConstant();
    int64_t *Coeffs = L.Coeffs.data() + size_t(Dim) * Depth;
    for (const auto &[Name, Coeff] : Linear->indexTerms()) {
      // The outermost level of that name: where LinearExpr's by-name
      // terms (and levelOf) resolve it.
      uint32_t Id = nameId(Name);
      unsigned Level = std::find(Own.Name.begin(), Own.Name.end(), Id) -
                       Own.Name.begin();
      assert(Level < Depth && "index term outside the access's own stack");
      Coeffs[Level] = Coeff;
      D.Levels = std::max(D.Levels, Level + 1);
    }
    D.SymBegin = L.Syms.size();
    for (const auto &[Name, Coeff] : Linear->symbolTerms())
      L.Syms.emplace_back(nameId(Name), Coeff);
    D.SymEnd = L.Syms.size();
    std::sort(L.Syms.begin() + D.SymBegin, L.Syms.end());
  }
  L.Ready = true;
}

FlatPair AccessLoweringCache::prepareFlat(unsigned I, unsigned J) const {
  const ArrayAccess &A = Accesses[I];
  const ArrayAccess &B = Accesses[J];
  assert(A.Ref && B.Ref && "null access");
  assert(A.Ref->getArrayName() == B.Ref->getArrayName() &&
         "testing accesses to different arrays");
  FlatPair Pair;
  Pair.I = I;
  Pair.J = J;
  unsigned MaxDepth = std::min(A.LoopStack.size(), B.LoopStack.size());
  while (Pair.Depth != MaxDepth &&
         A.LoopStack[Pair.Depth] == B.LoopStack[Pair.Depth])
    ++Pair.Depth;
  Pair.Prefix = Lowered[I].PrefixAt[Pair.Depth];
  if (A.Ref->getNumDims() != B.Ref->getNumDims()) {
    Pair.DimMismatch = true;
    return Pair;
  }
  const LoweredAccess &LA = Lowered[I];
  const LoweredAccess &LB = Lowered[J];
  assert(LA.Ready && LB.Ready && "pair prepared before its accesses");
  for (unsigned Dim = 0, E = LA.Dims.size(); Dim != E; ++Dim)
    if (!LA.Dims[Dim].Linear || !LB.Dims[Dim].Linear)
      ++Pair.NonlinearDims;
  return Pair;
}

namespace {

/// Calls \p F(Side, Access, Level) for every retagged term of the pair:
/// a nonzero coefficient of an own-stack level at or deeper than the
/// common depth, on a linear side of any dimension — also when the other side
/// is nonlinear, exactly as the from-scratch preparation registers the
/// renamed ranges. (A nonlinear side has Levels == 0.)
template <typename LoweredT, typename Fn>
void forEachRetagged(const LoweredT &LA, const LoweredT &LB, unsigned Depth,
                     Fn &&F) {
  for (unsigned Dim = 0, E = LA.Dims.size(); Dim != E; ++Dim) {
    for (unsigned Side = 0; Side != 2; ++Side) {
      const LoweredT &L = Side ? LB : LA;
      const auto &D = L.Dims[Dim];
      const int64_t *Coeffs = L.coeffs(Dim);
      for (unsigned Level = Depth; Level < D.Levels; ++Level)
        if (Coeffs[Level])
          F(Side, L, Level);
    }
  }
}

constexpr const char *SideSuffix[2] = {"#src", "#snk"};

} // namespace

LinearExpr AccessLoweringCache::materialize(const LoweredAccess &L,
                                            unsigned Dim, unsigned Depth,
                                            const char *Suffix) const {
  const FlatDim &D = L.Dims[Dim];
  const NestPrefix &Own = Prefixes[L.PrefixAt.back()];
  const int64_t *Coeffs = L.coeffs(Dim);
  LinearExpr Result(D.Const);
  for (uint32_t K = D.SymBegin; K != D.SymEnd; ++K)
    Result = Result + LinearExpr::symbol(Names[L.Syms[K].first],
                                         L.Syms[K].second);
  for (unsigned Level = 0; Level != D.Levels; ++Level) {
    if (!Coeffs[Level])
      continue;
    const std::string &Name = Names[Own.Name[Level]];
    Result = Result + (Level < Depth
                           ? LinearExpr::index(Name, Coeffs[Level])
                           : LinearExpr::symbol(Name + Suffix, Coeffs[Level]));
  }
  return Result;
}

const LoopNestContext &
AccessLoweringCache::materialize(const FlatPair &Pair,
                                 std::vector<SubscriptPair> &Subscripts,
                                 LoopNestContext &Storage) const {
  const LoweredAccess &LA = Lowered[Pair.I];
  const LoweredAccess &LB = Lowered[Pair.J];
  for (unsigned Dim = 0, E = LA.Dims.size(); Dim != E; ++Dim)
    if (LA.Dims[Dim].Linear && LB.Dims[Dim].Linear)
      Subscripts.emplace_back(materialize(LA, Dim, Pair.Depth, SideSuffix[0]),
                              materialize(LB, Dim, Pair.Depth, SideSuffix[1]),
                              Dim);

  // The pair context is the common prefix's under Symbols plus the
  // ranges of the retagged indices; with none, borrow it outright.
  const LoopNestContext &Common = Prefixes[Pair.Prefix].Ctx;
  std::optional<SymbolRangeMap> AllSymbols;
  forEachRetagged(LA, LB, Pair.Depth,
                  [&](unsigned Side, const LoweredAccess &L, unsigned Level) {
                    if (!AllSymbols)
                      AllSymbols = Symbols;
                    const NestPrefix &Own = Prefixes[L.PrefixAt.back()];
                    AllSymbols->insert_or_assign(
                        Names[Own.Name[Level]] + SideSuffix[Side],
                        Own.Range[Level]);
                  });
  if (!AllSymbols)
    return Common;
  Storage = LoopNestContext(Common.loops(), std::move(*AllSymbols));
  return Storage;
}

std::optional<PreparedPair> AccessLoweringCache::preparePair(unsigned I,
                                                             unsigned J) const {
  FlatPair Pair = prepareFlat(I, J);
  if (Pair.DimMismatch)
    return std::nullopt;
  PreparedPair Prepared;
  LoopNestContext Storage;
  const LoopNestContext &Ctx =
      materialize(Pair, Prepared.Subscripts, Storage);
  if (&Ctx == &Storage)
    Prepared.Ctx = std::move(Storage);
  else
    Prepared.Ctx = Ctx;
  Prepared.HasNonlinear = Pair.hasNonlinear();
  for (const SubscriptPartition &P : partitionSubscripts(Prepared.Subscripts))
    if (!P.isSeparable())
      Prepared.HasCoupledGroup = true;
  return Prepared;
}

void AccessLoweringCache::encodeKey(const FlatPair &Pair,
                                    std::vector<int64_t> &Key) const {
  const LoweredAccess &LA = Lowered[Pair.I];
  const LoweredAccess &LB = Lowered[Pair.J];
  unsigned Depth = Pair.Depth;
  // The prefix id stands for the loops' index names, bounds and steps;
  // the build-wide Symbols are the same in every context of this
  // cache and stay out of the key.
  Key.clear();
  Key.push_back(Pair.Prefix);

  // Retagged indices are keyed by name (the symbol they become), in
  // name order, so equal content encodes equally whatever own-stack
  // levels the names sat at.
  thread_local std::vector<std::pair<int64_t, int64_t>> Terms;
  thread_local std::vector<std::pair<int64_t, const Interval *>> Ranges;
  auto AppendSide = [&](const LoweredAccess &L, unsigned Dim) {
    const FlatDim &D = L.Dims[Dim];
    const int64_t *Coeffs = L.coeffs(Dim);
    Key.push_back(D.Const);
    for (unsigned Level = 0; Level != Depth; ++Level)
      Key.push_back(Level < D.Levels ? Coeffs[Level] : 0);
    Key.push_back(D.SymEnd - D.SymBegin);
    for (uint32_t K = D.SymBegin; K != D.SymEnd; ++K) {
      Key.push_back(L.Syms[K].first);
      Key.push_back(L.Syms[K].second);
    }
    const NestPrefix &Own = Prefixes[L.PrefixAt.back()];
    Terms.clear();
    for (unsigned Level = Depth; Level < D.Levels; ++Level)
      if (Coeffs[Level])
        Terms.emplace_back(Own.Name[Level], Coeffs[Level]);
    std::sort(Terms.begin(), Terms.end());
    Key.push_back(Terms.size());
    for (auto [Id, Coeff] : Terms) {
      Key.push_back(Id);
      Key.push_back(Coeff);
    }
  };
  for (unsigned Dim = 0, E = LA.Dims.size(); Dim != E; ++Dim) {
    if (!LA.Dims[Dim].Linear || !LB.Dims[Dim].Linear)
      continue;
    Key.push_back(Dim);
    AppendSide(LA, Dim);
    AppendSide(LB, Dim);
  }

  // The retagged indices' ranges, (side, name) -> range, once each (a
  // name retagged in several dimensions ranges once).
  Ranges.clear();
  forEachRetagged(LA, LB, Depth,
                  [&](unsigned Side, const LoweredAccess &L, unsigned Level) {
                    const NestPrefix &Own = Prefixes[L.PrefixAt.back()];
                    Ranges.emplace_back(int64_t(Side) << 32 | Own.Name[Level],
                                        &Own.Range[Level]);
                  });
  auto ByTag = [](const auto &A, const auto &B) { return A.first < B.first; };
  std::sort(Ranges.begin(), Ranges.end(), ByTag);
  Ranges.erase(std::unique(Ranges.begin(), Ranges.end(),
                           [](const auto &A, const auto &B) {
                             return A.first == B.first;
                           }),
               Ranges.end());
  for (auto [Tag, R] : Ranges) {
    Key.push_back(Tag);
    Key.push_back(R->lower().has_value() | R->upper().has_value() << 1);
    Key.push_back(R->lower().value_or(0));
    Key.push_back(R->upper().value_or(0));
  }
}

DependenceTestResult
AccessLoweringCache::memoizedTestDependence(const FlatPair &Pair,
                                            TestStats *Stats) const {
  // Distinct access pairs frequently prepare to identical content —
  // stencil programs repeat the same subscript shapes across
  // statements and nests — so key the testDependence call on the full
  // flat content and run the algorithm once per distinct form. The
  // scratch key is reused across calls; a hit copies nothing.
  thread_local std::vector<int64_t> Key;
  encodeKey(Pair, Key);
  KeyView Probe{Key.data(), Key.size(), hashWords(Key.data(), Key.size())};

  MemoShard &Shard = Memo[(Probe.Hash >> 7) % NumMemoShards];
  {
    std::lock_guard<std::mutex> Lock(Shard.M);
    auto It = Shard.Table.find(Probe);
    if (It != Shard.Table.end()) {
      // Replay the cached statistics delta so merged counters equal an
      // uncached run exactly (TestStats merging is additive).
      Metrics::count(Metric::MemoHits);
      if (Stats)
        Stats->merge(It->second.Delta);
      return It->second.Result;
    }
  }
  Metrics::count(Metric::MemoMisses);

  std::vector<SubscriptPair> Subscripts;
  LoopNestContext Storage;
  const LoopNestContext &Ctx = materialize(Pair, Subscripts, Storage);

  // Span and latency-sample only the miss path: a memo hit costs on
  // the order of the span bookkeeping itself, so instrumenting hits
  // would roughly double their cost (and the armed-overhead budget of
  // bench_x5 exists to forbid exactly that). Hits still count above.
  Span PairSpan("AccessLoweringCache::testPair", "cache");
  LatencyTimer PairLatency(Histo::PairTestNs);

  TestStats Delta;
  DependenceTestResult Result = testDependence(Subscripts, Ctx, &Delta);
  if (Stats)
    Stats->merge(Delta);
  // Never memoize a degraded result: the failure may be transient
  // (injected fault, deadline) and must not poison later identical
  // pairs that would test cleanly.
  if (!Result.Degraded) {
    // The persistent-store routing counters describe *this* call's
    // trip to disk, not the content; replaying them on memo hits
    // (which never touch the store) would overcount.
    Delta.StoreHits = 0;
    Delta.StoreMisses = 0;
    std::lock_guard<std::mutex> Lock(Shard.M);
    Shard.Table.try_emplace(Key, MemoizedResult{Result, std::move(Delta)});
  }
  return Result;
}

DependenceTestResult AccessLoweringCache::testPair(const FlatPair &Pair,
                                                   TestStats *Stats) const {
  Metrics::count(Metric::PairsTested);
  const ArrayAccess &A = Accesses[Pair.I];
  const ArrayAccess &B = Accesses[Pair.J];
  if (Stats) {
    ++Stats->ReferencePairs;
    unsigned Dims = std::min(A.Ref->getNumDims(), B.Ref->getNumDims());
    ++Stats->DimensionHistogram[std::min(Dims - 1, 3u)];
  }

  // Mismatched dimensionality (legal Fortran through equivalence-style
  // tricks): treat conservatively.
  if (Pair.DimMismatch) {
    DependenceTestResult R;
    R.Vectors.assign(1, DependenceVector(Pair.Depth));
    return R;
  }
  if (Stats)
    Stats->NonlinearSubscripts += Pair.NonlinearDims;

  // Containment boundary: materializing a missed pair can raise
  // (injected faults at its term updates); degrade to the
  // conservative all-directions edge for this pair only.
  try {
    DependenceTestResult Result = memoizedTestDependence(Pair, Stats);
    Result.HasNonlinear = Pair.hasNonlinear();
    if (Pair.hasNonlinear() && Result.TheVerdict == Verdict::Dependent)
      Result.TheVerdict = Verdict::Maybe;
    if (Pair.hasNonlinear())
      Result.Exact = false;
    if (Result.isIndependent()) {
      Metrics::count(Metric::PairsIndependent);
      if (Stats)
        ++Stats->IndependentPairs;
    }
    return Result;
  } catch (const AnalysisError &E) {
    return degradedTestResult(Pair.Depth, E.failure(), Stats);
  }
}
