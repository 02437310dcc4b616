//===- perfbench/src/Layers.cpp - Per-layer decomposition -----------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "Checks.h"

#include "analysis/InductionSubstitution.h"
#include "analysis/Normalization.h"
#include "core/AccessLoweringCache.h"
#include "core/DependenceGraph.h"
#include "core/ResultStore.h"
#include "ir/AccessCollector.h"
#include "support/Casting.h"
#include "support/JobGraph.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <optional>

using namespace pb;
using namespace pdt;

void ProgramCounts::noteContent(const std::string &Key) {
  ++Items;
  if (!SeenContent.insert(Key).second)
    ++Repeats;
}

void ProgramCounts::fill(PerLayer &L) const {
  L.Stats = Stats;
  L.Accesses = Accesses;
  L.Pairs = Pairs;
  L.Edges = Edges;
  L.DegradedPairs = Stats.DegradedResults + DegradedEdges;
  L.IndependentFrac =
      Pairs ? static_cast<double>(Stats.IndependentPairs) / Pairs : 0;
  L.MemoHitRatio = MemoHits + MemoMisses
                       ? static_cast<double>(MemoHits) / (MemoHits + MemoMisses)
                       : 0;
  L.StoreHitRatio =
      StoreKeys ? static_cast<double>(StoreKeysPresent) / StoreKeys : 0;
  uint64_t Subscripts =
      Stats.ZIVSubscripts + Stats.SIVSubscripts + Stats.MIVSubscripts;
  L.BatchedFrac =
      Subscripts ? static_cast<double>(Stats.BatchedZIV + Stats.BatchedStrongSIV) /
                       Subscripts
                 : 0;
  L.RepeatFrac = Items ? static_cast<double>(Repeats) / Items : 0;
}

void PerLayer::fromTracer(const Tracer &T) {
  std::map<std::string, Tracer::Totals> Tot = T.totals();
  auto PerUnit = [&Tot](const char *Name) {
    auto It = Tot.find(Name);
    return It == Tot.end() || !It->second.Units
               ? 0.0
               : static_cast<double>(It->second.TotalNs) / It->second.Units;
  };
  auto PerCallUs = [&Tot](const char *Name) {
    auto It = Tot.find(Name);
    return It == Tot.end() || !It->second.Calls
               ? 0.0
               : static_cast<double>(It->second.TotalNs) / It->second.Calls /
                     1000.0;
  };
  ParserNsPerByte = PerUnit("parser.parse");
  NormalizeUs = PerCallUs("analysis.normalize");
  IvsubUs = PerCallUs("analysis.ivsub");
  CollectUs = PerCallUs("ir.collect");
  AnalyzeUs = PerCallUs("driver.analyze");
  LowerNsPerAccess = PerUnit("core.lower");
  PrepareNsPerPair = PerUnit("core.prepare");
  TestPairNs = PerUnit("core.test_pair");
  EmitNsPerEdge = PerUnit("core.emit");
  BuildNsPerPair = PerUnit("core.build");
  DecideNsPerPair = PerUnit("core.decide");
  StoreCanonNs = PerUnit("core.store_canon");
  StoreLookupNs = PerUnit("core.store_lookup");
  StoreInsertNs = PerUnit("core.store_insert");
  HttpParseNs = PerUnit("serve.http_parse");
  auto Op = Tot.find("op");
  if (Op != Tot.end() && Op->second.TotalNs > 0)
    UnattributedFrac =
        static_cast<double>(Op->second.SelfNs) / Op->second.TotalNs;
}

void PerLayer::emit(RunResult &R) const {
  R.add("parser.ns_per_byte", ParserNsPerByte, "ns/B");
  R.add("analysis.normalize_us", NormalizeUs, "us");
  R.add("analysis.ivsub_us", IvsubUs, "us");
  R.add("ir.collect_us", CollectUs, "us");
  R.add("driver.analyze_us", AnalyzeUs, "us");
  R.add("core.lower_ns_per_access", LowerNsPerAccess, "ns");
  R.add("core.prepare_ns_per_pair", PrepareNsPerPair, "ns");
  R.add("core.test_pair_ns", TestPairNs, "ns");
  R.add("core.emit_ns_per_edge", EmitNsPerEdge, "ns");
  R.add("core.build_ns_per_pair", BuildNsPerPair, "ns");
  R.add("core.decide_ns_per_pair", DecideNsPerPair, "ns");
  R.add("core.store_canon_ns", StoreCanonNs, "ns");
  R.add("core.store_lookup_ns", StoreLookupNs, "ns");
  R.add("core.store_insert_ns", StoreInsertNs, "ns");
  R.addCount("core.accesses", Accesses);
  R.addCount("core.pairs", Pairs);
  R.addCount("core.edges", Edges);
  R.add("core.independent_frac", IndependentFrac, "frac");
  R.add("core.memo_hit_ratio", MemoHitRatio, "frac");
  R.add("core.store_hit_ratio", StoreHitRatio, "frac");
  R.add("core.batched_frac", BatchedFrac, "frac");
  R.addCount("core.degraded_pairs", DegradedPairs);
  static const std::pair<const char *, TestKind> Tests[] = {
      {"core.tests.ziv", TestKind::ZIV},
      {"core.tests.symbolic_ziv", TestKind::SymbolicZIV},
      {"core.tests.strong_siv", TestKind::StrongSIV},
      {"core.tests.weak_zero_siv", TestKind::WeakZeroSIV},
      {"core.tests.weak_crossing_siv", TestKind::WeakCrossingSIV},
      {"core.tests.exact_siv", TestKind::ExactSIV},
      {"core.tests.symbolic_siv", TestKind::SymbolicSIV},
      {"core.tests.rdiv", TestKind::RDIV},
      {"core.tests.gcd", TestKind::GCD},
      {"core.tests.banerjee", TestKind::Banerjee},
      {"core.tests.delta", TestKind::Delta},
      {"core.tests.fm", TestKind::FourierMotzkin},
      {"core.tests.empty_nest", TestKind::EmptyNest},
  };
  for (const auto &[Name, Kind] : Tests)
    R.addCount(Name, Stats.applications(Kind));
  R.add("support.pool_spawn_us", PoolSpawnUs, "us");
  R.add("support.store_open_ms", StoreOpenMs, "ms");
  R.add("serve.http_parse_ns", HttpParseNs, "ns");
  R.add("serve.handle_us_p50", HandleUsP50, "us");
  R.add("serve.handle_us_p99", HandleUsP99, "us");
  R.add("serve.rtt_us_p50", RttUsP50, "us");
  R.add("serve.rtt_us_p99", RttUsP99, "us");
  R.add("serve.transport_us", TransportUs, "us");
  R.add("serve.queue_us_p99", QueueUsP99, "us");
  R.add("serve.open_us_p50", OpenUsP50, "us");
  R.add("serve.open_us_p99", OpenUsP99, "us");
  R.add("serve.ladder_max_rps", LadderMaxRps, "1/s");
  R.addCount("serve.rejected_429", Rejected429);
  R.add("gen.late_p99_us", LateUsP99, "us");
  R.addCount("gen.backlog_max", BacklogMax);
  R.add("gen.repeat_frac", RepeatFrac, "frac");
  R.add("trace.overhead_frac", OverheadFrac, "frac");
  R.add("trace.unattributed_frac", UnattributedFrac, "frac");
}

namespace {

/// The symbolic constants of \p P: every variable name that is not a
/// loop index (the same rule the analyzer pipeline applies).
void collectNames(const Stmt *S, std::set<std::string> &Indices,
                  std::set<std::string> &Names) {
  auto Walk = [&Names](auto &&Self, const Expr *E) -> void {
    switch (E->getKind()) {
    case Expr::Kind::IntLiteral:
      return;
    case Expr::Kind::VarRef:
      Names.insert(cast<VarRef>(E)->getName());
      return;
    case Expr::Kind::Unary:
      Self(Self, cast<UnaryExpr>(E)->getOperand());
      return;
    case Expr::Kind::Binary:
      Self(Self, cast<BinaryExpr>(E)->getLHS());
      Self(Self, cast<BinaryExpr>(E)->getRHS());
      return;
    case Expr::Kind::ArrayElement:
      for (const Expr *Sub : cast<ArrayElement>(E)->getSubscripts())
        Self(Self, Sub);
      return;
    }
  };
  if (const auto *A = dyn_cast<AssignStmt>(S)) {
    if (A->isArrayAssign())
      Walk(Walk, A->getArrayTarget());
    Walk(Walk, A->getValue());
    return;
  }
  const auto *L = cast<DoLoop>(S);
  Indices.insert(L->getIndexName());
  Walk(Walk, L->getLower());
  Walk(Walk, L->getUpper());
  Walk(Walk, L->getStep());
  for (const Stmt *Child : L->getBody())
    collectNames(Child, Indices, Names);
}

SymbolRangeMap resolveSymbols(const Program &P, const AnalyzerOptions &O) {
  SymbolRangeMap Symbols = O.Symbols;
  std::set<std::string> Indices, Names;
  for (const Stmt *S : P.TopLevel)
    collectNames(S, Indices, Names);
  for (const std::string &Name : Names)
    if (!Indices.count(Name))
      Symbols.try_emplace(Name, O.DefaultSymbolRange);
  return Symbols;
}

uint64_t InsertSerial = 0;

} // namespace

AnalysisResult pb::decomposeProgram(const std::string &Source,
                                    const std::string &Name,
                                    const AnalyzerOptions &Options, Tracer *T,
                                    bool Store, ProgramCounts *Counts,
                                    std::string &Error) {
  AnalysisResult Real;
  ParseResult ForDriver, ForLayers;
  {
    Tracer::Scope S(T, "parser.parse", Source.size());
    ForDriver = parseProgram(Source, Name);
  }
  {
    Tracer::Scope S(T, "parser.parse", Source.size());
    ForLayers = parseProgram(Source, Name);
  }
  if (!ForDriver.succeeded() || !ForLayers.succeeded()) {
    Error = Name + ": does not parse";
    return Real;
  }
  Program Cur = std::move(*ForLayers.Prog);
  try {
    if (Options.Normalize) {
      Tracer::Scope S(T, "analysis.normalize", 1);
      Cur = normalizeLoops(Cur);
    }
    if (Options.SubstituteIVs) {
      Tracer::Scope S(T, "analysis.ivsub", 1);
      Cur = substituteInductionVariables(Cur);
    }
  } catch (const AnalysisError &E) {
    Error = Name + ": analysis pass failed: " + E.failure().Message;
    return Real;
  }
  std::vector<ArrayAccess> Accesses;
  {
    Tracer::Scope S(T, "ir.collect", 1);
    Accesses = collectAccesses(Cur);
  }

  std::optional<Tracer::Scope> Glue;
  Glue.emplace(T, "bench.glue");
  SymbolRangeMap Symbols = resolveSymbols(Cur, Options);
  std::set<std::string> Varying = collectVaryingScalars(Cur);
  std::vector<std::pair<unsigned, unsigned>> Pairs =
      candidatePairs(Accesses, Options.IncludeInputDeps);
  std::shared_ptr<ResultStore> Active = Store ? ResultStore::active() : nullptr;
  Glue.reset();

  // The compute layers, with the persistent store out of the way.
  TestStats BuildStats;
  DependenceGraph G;
  std::vector<std::optional<PreparedPair>> Prepared(Pairs.size());
  std::vector<DependenceTestResult> Decided(Pairs.size());
  std::vector<TestStats> Deltas(Pairs.size());
  {
    StoreBypassGuard Bypass;
    uint64_t Hits0 = 0, Misses0 = 0;
    if (Counts) {
      MetricsSnapshot M = Metrics::snapshot();
      Hits0 = M.counter(Metric::MemoHits);
      Misses0 = M.counter(Metric::MemoMisses);
    }
    {
      Tracer::Scope S(T, "core.build");
      G = DependenceGraph::build(Cur, Symbols, &BuildStats,
                                 Options.IncludeInputDeps, 1, nullptr);
      S.units(BuildStats.ReferencePairs);
    }
    if (Counts) {
      MetricsSnapshot M = Metrics::snapshot();
      Counts->MemoHits += M.counter(Metric::MemoHits) - Hits0;
      Counts->MemoMisses += M.counter(Metric::MemoMisses) - Misses0;
      if (T)
        T->counters("memo", {{"hits", static_cast<double>(Counts->MemoHits)},
                            {"misses",
                             static_cast<double>(Counts->MemoMisses)}});
    }

    AccessLoweringCache Cache(Accesses, Symbols, &Varying,
                              /*DeferLowering=*/true);
    {
      Tracer::Scope S(T, "core.lower", Accesses.size());
      for (unsigned A = 0; A != Accesses.size(); ++A)
        Cache.lowerAccess(A);
    }
    {
      Tracer::Scope S(T, "core.prepare", Pairs.size());
      for (size_t K = 0; K != Pairs.size(); ++K)
        Prepared[K] = Cache.preparePair(Pairs[K].first, Pairs[K].second);
    }
    std::vector<DependenceTestResult> Tested(Pairs.size());
    {
      TestStats Sink;
      Tracer::Scope S(T, "core.test_pair", Pairs.size());
      for (size_t K = 0; K != Pairs.size(); ++K)
        Tested[K] = Cache.testPair(Pairs[K].first, Pairs[K].second, &Sink);
    }
    {
      Tracer::Scope S(T, "core.decide");
      uint64_t N = 0;
      for (size_t K = 0; K != Pairs.size(); ++K)
        if (Prepared[K]) {
          Decided[K] = testDependence(Prepared[K]->Subscripts, Prepared[K]->Ctx,
                                      &Deltas[K]);
          ++N;
        }
      S.units(N);
    }
    {
      Tracer::Scope S(T, "core.emit");
      uint64_t N = 0;
      for (const DependenceTestResult &R : Tested)
        if (!R.isIndependent())
          for (const DependenceVector &V : R.Vectors)
            N += orientVectors(V).size();
      S.units(N);
    }
  }

  // Store reads happen before the real build writes this program's
  // records, so they see the mix a re-analysis sees.
  std::vector<std::pair<size_t, CanonicalPair>> Canon;
  if (Active) {
    {
      Tracer::Scope S(T, "core.store_canon");
      for (size_t K = 0; K != Pairs.size(); ++K)
        if (Prepared[K])
          if (std::optional<CanonicalPair> C = ResultStore::canonicalize(
                  Prepared[K]->Subscripts, Prepared[K]->Ctx))
            Canon.emplace_back(K, std::move(*C));
      S.units(Canon.size());
    }
    uint64_t Present = 0;
    {
      TestStats Sink;
      Tracer::Scope S(T, "core.store_lookup", Canon.size());
      for (const auto &Entry : Canon)
        Present += Active->lookup(Entry.second, &Sink).has_value();
    }
    if (Counts) {
      Counts->StoreKeys += Canon.size();
      Counts->StoreKeysPresent += Present;
    }
  }

  {
    Tracer::Scope S(T, "driver.analyze", 1);
    Real = analyzeProgram(std::move(*ForDriver.Prog), Options);
  }

  if (Active) {
    // Inserts under fresh keys, so each one is a real append; no query
    // ever produces these keys.
    for (auto &Entry : Canon)
      Entry.second.Key =
          "perfbench-insert-" + std::to_string(InsertSerial++) + "|" +
          Entry.second.Key;
    Tracer::Scope S(T, "core.store_insert", Canon.size());
    for (const auto &Entry : Canon)
      Active->insert(Entry.second, Decided[Entry.first], Deltas[Entry.first]);
  }

  Tracer::Scope Check(T, "bench.glue");
  if (BuildStats.ReferencePairs != Pairs.size())
    Error = Name + ": the builder tested " +
            std::to_string(BuildStats.ReferencePairs) + " pairs, expected " +
            std::to_string(Pairs.size());
  else if (std::string P = analysisProblem(Real); !P.empty())
    Error = Name + ": " + P;
  else if (G.str() != Real.Graph.str() || !(BuildStats == Real.Stats))
    Error = Name + ": the pipeline's graph differs from a serial "
                   "store-bypassed build of the same program";
  if (Counts) {
    Counts->Stats += BuildStats;
    Counts->Accesses += G.accesses().size();
    Counts->Pairs += BuildStats.ReferencePairs;
    Counts->Edges += G.dependences().size();
    for (const Dependence &D : G.dependences())
      Counts->DegradedEdges += D.Degraded;
  }
  return Real;
}

double pb::poolSpawnUs() {
  std::vector<double> Us;
  for (unsigned K = 0; K != 200; ++K) {
    int64_t T0 = nowNs();
    {
      // A request's pool and its parse -> analyze job graph, for two
      // kernels.
      ThreadPool Pool(PoolWorkers);
      JobGraph Graph;
      for (unsigned Kernel = 0; Kernel != 2; ++Kernel) {
        JobGraph::JobId Parse = Graph.add([] {});
        Graph.add([] {}, {Parse});
      }
      Graph.run(Pool);
    }
    Us.push_back(static_cast<double>(nowNs() - T0) / 1000.0);
  }
  return median(Us);
}
