//===- tests/core/AccessLoweringCacheTest.cpp ---------------------------------===//
//
// The flat, interned pair preparation of core/AccessLoweringCache must
// be invisible: every prepared pair equals prepareAccessPair from
// scratch, every tested pair equals testAccessPair (result and
// TestStats), at 1 and 4 threads. And the memo key must be exactly as
// fine as the pair's content: pairs that differ in any input of the
// algorithm get separate entries (seen through the MemoMisses
// counter), while identical nests in different places share one.
//
//===----------------------------------------------------------------------===//

#include "core/AccessLoweringCache.h"

#include "../TestHelpers.h"
#include "core/DependenceGraph.h"
#include "core/PairBatch.h"
#include "driver/WorkloadGenerator.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace pdt;
using namespace pdt::test;

namespace {

SymbolRangeMap testSymbols() {
  SymbolRangeMap Symbols;
  for (const char *Name : {"n", "m"})
    Symbols.try_emplace(Name, Interval(1, std::nullopt));
  return Symbols;
}

/// Every result-bearing field of a test result, rendered.
std::string resultStr(const DependenceTestResult &R) {
  std::string S = std::to_string(static_cast<int>(R.TheVerdict));
  if (R.isIndependent())
    S += " by " + std::to_string(static_cast<int>(R.DecidedBy));
  S += R.Exact ? " exact" : " inexact";
  S += R.HasNonlinear ? " nonlinear" : "";
  S += R.Degraded ? " degraded" : "";
  for (const DependenceVector &V : R.Vectors)
    S += " " + V.str();
  for (const TransformHint &H : R.Hints)
    S += " hint" + std::to_string(static_cast<int>(H.TheKind)) + ":" +
         H.Index;
  return S;
}

std::string loopsStr(const LoopNestContext &Ctx) {
  std::string S;
  for (const LoopBounds &L : Ctx.loops()) {
    S += L.Index + ":";
    S += L.Affine ? L.Lower.str() + "," + L.Upper.str() : "?";
    S += "," + std::to_string(L.Step) + " in " +
         Ctx.indexRange(L.Index).str() + ";";
  }
  return S;
}

/// The pairs DependenceGraph::build tests (without input dependences).
std::vector<std::pair<unsigned, unsigned>>
testedPairs(const std::vector<ArrayAccess> &Accesses) {
  std::vector<std::pair<unsigned, unsigned>> Pairs;
  for (unsigned I = 0; I != Accesses.size(); ++I)
    for (unsigned J = I; J != Accesses.size(); ++J) {
      if (Accesses[I].Ref->getArrayName() != Accesses[J].Ref->getArrayName())
        continue;
      if (I == J && !Accesses[I].IsWrite)
        continue;
      if (!Accesses[I].IsWrite && !Accesses[J].IsWrite)
        continue;
      Pairs.emplace_back(I, J);
    }
  return Pairs;
}

/// Arms the metrics registry for one test and disarms it after.
class MetricsScope {
public:
  MetricsScope() { Metrics::enable(); }
  ~MetricsScope() {
    Metrics::stop();
    Metrics::reset();
  }
  static uint64_t misses() {
    return Metrics::snapshot().counter(Metric::MemoMisses);
  }
};

/// Tests \p Pairs of \p Source through one cache, checking each result
/// against testAccessPair from scratch; returns the memo misses.
uint64_t memoMisses(const std::string &Source,
                    const std::vector<std::pair<unsigned, unsigned>> &Pairs) {
  Program P = parseOrDie(Source);
  std::vector<ArrayAccess> Accesses = collectAccesses(P);
  std::set<std::string> Varying = collectVaryingScalars(P);
  SymbolRangeMap Symbols = testSymbols();
  MetricsScope Armed;
  AccessLoweringCache Cache(Accesses, Symbols, &Varying);
  uint64_t Before = MetricsScope::misses();
  for (auto [I, J] : Pairs) {
    EXPECT_LT(J, Accesses.size());
    if (J >= Accesses.size())
      return 0;
    TestStats Cached, Scratch;
    DependenceTestResult R = Cache.testPair(I, J, &Cached);
    DependenceTestResult Expected = testAccessPair(
        Accesses[I], Accesses[J], Symbols, &Scratch, &Varying);
    EXPECT_EQ(resultStr(R), resultStr(Expected)) << I << "," << J;
    EXPECT_EQ(Cached, Scratch) << I << "," << J;
  }
  return MetricsScope::misses() - Before;
}

/// A two-nest program: array a in the first, b in the second, each
/// nest rendered from \p NestA / \p NestB with "X" standing for the
/// array. Pair (0, 1) is a's, pair (2, 3) b's.
std::string twoNests(std::string NestA, std::string NestB) {
  auto Subst = [](std::string Nest, char Array) {
    for (char &C : Nest)
      if (C == 'X')
        C = Array;
    return Nest;
  };
  return Subst(std::move(NestA), 'a') + Subst(std::move(NestB), 'b');
}

const std::vector<std::pair<unsigned, unsigned>> BothPairs = {{0, 1},
                                                              {2, 3}};

TEST(AccessLoweringCacheMemoKey, IdenticalNestsInDifferentPlacesShareOne) {
  const char *Nest = "do i = 1, 10\n"
                     "  X(i) = X(i+1)\n"
                     "end do\n";
  EXPECT_EQ(memoMisses(twoNests(Nest, Nest), BothPairs), 1u);
  // Nested twice over: the prefix is content-interned, not per loop.
  const char *Deep = "do i = 1, n\n"
                     "  do j = i, 10\n"
                     "    X(i, j) = X(i+1, j-1)\n"
                     "  end do\n"
                     "end do\n";
  EXPECT_EQ(memoMisses(twoNests(Deep, Deep), BothPairs), 1u);
}

TEST(AccessLoweringCacheMemoKey, LoopBoundSeparatesEntries) {
  EXPECT_EQ(memoMisses(twoNests("do i = 1, 10\n  X(i) = X(i+1)\nend do\n",
                                "do i = 1, 11\n  X(i) = X(i+1)\nend do\n"),
                       BothPairs),
            2u);
  // A symbolic bound against a constant one.
  EXPECT_EQ(memoMisses(twoNests("do i = 1, n\n  X(i) = X(i+1)\nend do\n",
                                "do i = 1, m\n  X(i) = X(i+1)\nend do\n"),
                       BothPairs),
            2u);
}

TEST(AccessLoweringCacheMemoKey, StepSeparatesEntries) {
  EXPECT_EQ(memoMisses(twoNests("do i = 1, 10\n  X(i) = X(i+1)\nend do\n",
                                "do i = 1, 10, 2\n  X(i) = X(i+1)\nend do\n"),
                       BothPairs),
            2u);
}

TEST(AccessLoweringCacheMemoKey, RenamedIndexRangeSeparatesEntries) {
  // X(i, j) inside j, X(i, 3) outside it: j is non-common and becomes
  // the ranged symbol j#src. Only its range differs between the nests.
  auto Nest = [](int Upper) {
    return "do i = 1, 10\n"
           "  do j = 1, " +
           std::to_string(Upper) +
           "\n"
           "    X(i, j) = 1\n"
           "  end do\n"
           "  X(i, 3) = 2\n"
           "end do\n";
  };
  EXPECT_EQ(memoMisses(twoNests(Nest(5), Nest(5)), BothPairs), 1u);
  EXPECT_EQ(memoMisses(twoNests(Nest(5), Nest(6)), BothPairs), 2u);
  // The same range reached through a different own-stack level shares
  // the entry: the key names the retagged index, not its level.
  EXPECT_EQ(memoMisses(twoNests(Nest(5), "do i = 1, 10\n"
                                         "  do k = 1, 1\n"
                                         "    do j = 1, 5\n"
                                         "      X(i, j) = 1\n"
                                         "    end do\n"
                                         "  end do\n"
                                         "  X(i, 3) = 2\n"
                                         "end do\n"),
                       BothPairs),
            1u);
  // Two retagged indices at swapped levels: still one entry.
  auto Swapped = [](const char *Outer, const char *Inner) {
    return std::string("do i = 1, 10\n"
                       "  do ") +
           Outer + " = 1, 5\n    do " + Inner +
           " = 1, 5\n"
           "      X(i, j + 2*k) = 1\n"
           "    end do\n"
           "  end do\n"
           "  X(i, 3) = 2\n"
           "end do\n";
  };
  EXPECT_EQ(memoMisses(twoNests(Swapped("j", "k"), Swapped("k", "j")),
                       BothPairs),
            1u);
}

TEST(AccessLoweringCacheMemoKey, SymbolCoefficientSeparatesEntries) {
  auto Nest = [](const std::string &Src, const std::string &Dst) {
    return "do i = 1, 10\n  X(" + Src + ") = X(" + Dst + ")\nend do\n";
  };
  // Same content: one entry.
  EXPECT_EQ(memoMisses(twoNests(Nest("i+n", "i+n"), Nest("i+n", "i+n")),
                       BothPairs),
            1u);
  // Cancelling in both, with different coefficients: the tagged
  // equations are equal, the pairs are not.
  EXPECT_EQ(memoMisses(twoNests(Nest("i+n", "i+n"), Nest("i+2*n", "i+2*n")),
                       BothPairs),
            2u);
  // Cancelling against not cancelling.
  EXPECT_EQ(memoMisses(twoNests(Nest("i+n", "i+n"), Nest("i+n", "i+2*n")),
                       BothPairs),
            2u);
}

TEST(AccessLoweringCacheMemoKey, DimensionNumberSeparatesEntries) {
  // The nonlinear dimension drops out; what is left differs only in
  // the surviving subscript's dimension number.
  EXPECT_EQ(memoMisses(twoNests("do i = 1, 10\n"
                                "  X(i, i*i) = X(i+1, i*i)\n"
                                "end do\n",
                                "do i = 1, 10\n"
                                "  X(i*i, i) = X(i*i, i+1)\n"
                                "end do\n"),
                       BothPairs),
            2u);
}

TEST(AccessLoweringCacheMemoKey, ShadowedIndexNamesResolveLikeNames) {
  // An inner loop reusing an outer index name: LinearExpr terms are by
  // name, so the flat form must resolve to the outermost level.
  const char *Source = "do i = 1, 10\n"
                       "  do i = 1, 5\n"
                       "    a(i) = a(i+1)\n"
                       "  end do\n"
                       "  a(i) = 3\n"
                       "  do j = 1, 4\n"
                       "    a(j) = a(i)\n"
                       "  end do\n"
                       "end do\n";
  Program P = parseOrDie(Source);
  std::vector<ArrayAccess> Accesses = collectAccesses(P);
  memoMisses(Source, testedPairs(Accesses));
}

//===----------------------------------------------------------------------===//
// Equivalence over generated programs
//===----------------------------------------------------------------------===//

/// Programs exercising every preparation case: triangular, trapezoidal
/// and symbolic bounds, non-unit steps, statements between inner
/// loops (non-common indices on one or both sides), arrays shared
/// across nests (empty common nest), shadowed index names, symbols,
/// varying scalars and nonlinear subscripts.
std::string generateShapeProgram(std::mt19937_64 &Rng, unsigned Nests) {
  auto Pick = [&Rng](unsigned N) { return static_cast<unsigned>(Rng() % N); };
  const char *Names[] = {"i", "j", "k"};
  const char *Arrays[] = {"a", "b", "c"};
  std::string Out = "s = 0\n";
  std::vector<std::string> Scope;
  auto Term = [&](std::string &E, const std::string &Var, int Coeff) {
    if (Coeff == 0)
      return;
    E += Coeff < 0 ? " - " : " + ";
    int Abs = Coeff < 0 ? -Coeff : Coeff;
    if (Abs != 1)
      E += std::to_string(Abs) + "*";
    E += Var;
  };
  auto Subscript = [&]() {
    unsigned Shape = Pick(12);
    if (Shape == 0 && !Scope.empty())
      return Scope.back() + "*" + Scope.front(); // Nonlinear.
    if (Shape == 1)
      return std::string("s + 1"); // Varying scalar.
    std::string E = std::to_string(static_cast<int>(Pick(7)) - 3);
    for (const std::string &Index : Scope)
      if (Pick(3) == 0)
        Term(E, Index, static_cast<int>(Pick(5)) - 2);
    if (Pick(4) == 0)
      Term(E, Pick(2) ? "n" : "m", static_cast<int>(Pick(3)) - 1);
    return E;
  };
  auto Access = [&](const char *Array, unsigned Dims) {
    std::string R = std::string(Array) + "(";
    for (unsigned D = 0; D != Dims; ++D)
      R += (D ? ", " : "") + Subscript();
    return R + ")";
  };
  auto Statement = [&](const std::string &Indent) {
    const char *Array = Arrays[Pick(3)];
    unsigned Dims = Array[0] == 'c' ? 1 : 2;
    Out += Indent + Access(Array, Dims) + " = " + Access(Array, Dims) +
           " + " + Access(Array, Dims) + "\n";
  };
  auto Nest = [&](auto &&Self, unsigned Depth, const std::string &Indent) {
    if (Depth == 0) {
      Statement(Indent);
      return;
    }
    // Mostly fresh names; sometimes shadow an enclosing index.
    std::string Index =
        Pick(10) == 0 && !Scope.empty() ? Scope.back() : Names[Scope.size()];
    std::string Lower = "1", Upper = std::to_string(4 + Pick(6));
    if (!Scope.empty() && Pick(3) == 0)
      Lower = Scope.back(); // Triangular.
    if (Pick(4) == 0)
      Upper = Pick(2) ? "n" : "m";
    else if (!Scope.empty() && Pick(4) == 0)
      Upper = Scope.front() + " + " + std::to_string(Pick(4)); // Trapezoidal.
    std::string Step = Pick(5) == 0 ? ", 2" : "";
    Out += Indent + "do " + Index + " = " + Lower + ", " + Upper + Step + "\n";
    Scope.push_back(Index);
    if (Pick(2))
      Statement(Indent + "  ");
    Self(Self, Depth - 1, Indent + "  ");
    if (Pick(2))
      Statement(Indent + "  ");
    if (Pick(3) == 0) // A sibling inner nest.
      Self(Self, Depth - 1, Indent + "  ");
    Scope.pop_back();
    Out += Indent + "end do\n";
    if (Scope.empty() && Pick(4) == 0)
      Out += "s = s + 1\n";
  };
  for (unsigned N = 0; N != Nests; ++N)
    Nest(Nest, 1 + Pick(3), "");
  return Out;
}

struct EquivalenceCase {
  const char *Kind;
  uint64_t Seed;
};

std::string sourceFor(const EquivalenceCase &C) {
  std::mt19937_64 Rng(C.Seed);
  std::string Kind = C.Kind;
  if (Kind == "random")
    return generateRandomProgramSource(Rng, /*NumNests=*/6, /*MaxDepth=*/3,
                                       /*StmtsPerNest=*/3);
  if (Kind == "batch-heavy")
    return generateBatchHeavyProgramSource(Rng, /*NumNests=*/8);
  return generateShapeProgram(Rng, /*Nests=*/5);
}

class AccessLoweringCacheEquivalence
    : public testing::TestWithParam<EquivalenceCase> {};

TEST_P(AccessLoweringCacheEquivalence, PreparePairMatchesFromScratch) {
  Program P = parseOrDie(sourceFor(GetParam()));
  std::vector<ArrayAccess> Accesses = collectAccesses(P);
  std::set<std::string> Varying = collectVaryingScalars(P);
  SymbolRangeMap Symbols = testSymbols();
  AccessLoweringCache Cache(Accesses, Symbols, &Varying);
  std::vector<std::pair<unsigned, unsigned>> Pairs = testedPairs(Accesses);
  ASSERT_FALSE(Pairs.empty());
  for (auto [I, J] : Pairs) {
    std::optional<PreparedPair> Got = Cache.preparePair(I, J);
    std::optional<PreparedPair> Want =
        prepareAccessPair(Accesses[I], Accesses[J], Symbols, &Varying);
    ASSERT_EQ(Got.has_value(), Want.has_value()) << I << "," << J;
    if (!Want)
      continue;
    ASSERT_EQ(Got->Subscripts.size(), Want->Subscripts.size());
    for (size_t K = 0; K != Want->Subscripts.size(); ++K) {
      EXPECT_EQ(Got->Subscripts[K].Src, Want->Subscripts[K].Src);
      EXPECT_EQ(Got->Subscripts[K].Dst, Want->Subscripts[K].Dst);
      EXPECT_EQ(Got->Subscripts[K].Dim, Want->Subscripts[K].Dim);
    }
    EXPECT_EQ(loopsStr(Got->Ctx), loopsStr(Want->Ctx)) << I << "," << J;
    EXPECT_EQ(Got->Ctx.symbolRanges(), Want->Ctx.symbolRanges());
    EXPECT_EQ(Got->HasNonlinear, Want->HasNonlinear);
    EXPECT_EQ(Got->HasCoupledGroup, Want->HasCoupledGroup);
  }
}

TEST_P(AccessLoweringCacheEquivalence, TestPairMatchesUncachedAt1And4Threads) {
  Program P = parseOrDie(sourceFor(GetParam()));
  std::vector<ArrayAccess> Accesses = collectAccesses(P);
  std::set<std::string> Varying = collectVaryingScalars(P);
  SymbolRangeMap Symbols = testSymbols();
  std::vector<std::pair<unsigned, unsigned>> Pairs = testedPairs(Accesses);

  TestStats Uncached;
  std::vector<std::string> Want;
  for (auto [I, J] : Pairs)
    Want.push_back(resultStr(testAccessPair(Accesses[I], Accesses[J], Symbols,
                                            &Uncached, &Varying)));

  for (unsigned Threads : {1u, 4u}) {
    AccessLoweringCache Cache(Accesses, Symbols, &Varying);
    std::vector<std::string> Got(Pairs.size());
    std::vector<TestStats> Sinks(Threads);
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T != Threads; ++T)
      Workers.emplace_back([&, T] {
        for (size_t K = T; K < Pairs.size(); K += Threads)
          Got[K] = resultStr(
              Cache.testPair(Pairs[K].first, Pairs[K].second, &Sinks[T]));
      });
    for (std::thread &W : Workers)
      W.join();
    TestStats Merged;
    for (const TestStats &S : Sinks)
      Merged.merge(S);
    EXPECT_EQ(Got, Want) << Threads << " threads";
    EXPECT_EQ(Merged, Uncached) << Threads << " threads";

    // The graph builder (batched routing forced on, so the planner's
    // flat classification is exercised too) records the same stats.
    setBatchModeOverride(BatchMode::On);
    TestStats Built;
    DependenceGraph::build(P, Symbols, &Built, /*IncludeInput=*/false,
                           Threads);
    setBatchModeOverride(std::nullopt);
    EXPECT_EQ(Built, Uncached) << Threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, AccessLoweringCacheEquivalence,
    testing::Values(EquivalenceCase{"random", 1}, EquivalenceCase{"random", 7},
                    EquivalenceCase{"batch-heavy", 3},
                    EquivalenceCase{"batch-heavy", 11},
                    EquivalenceCase{"shapes", 1}, EquivalenceCase{"shapes", 2},
                    EquivalenceCase{"shapes", 5}, EquivalenceCase{"shapes", 9},
                    EquivalenceCase{"shapes", 13},
                    EquivalenceCase{"shapes", 21}),
    [](const testing::TestParamInfo<EquivalenceCase> &Info) {
      std::string Name = Info.param.Kind;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name + "_" + std::to_string(Info.param.Seed);
    });

} // namespace
