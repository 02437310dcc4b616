//===- perfbench/src/Checks.cpp - Output checks against references --------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "Bench.h"

#include "core/Oracle.h"
#include "driver/Interpreter.h"
#include "ir/AccessCollector.h"

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <tuple>

using namespace pb;
using namespace pdt;

namespace {

/// Enumeration cap for the Oracle and the Interpreter: pairs whose
/// reference would exceed it are skipped in favour of another draw.
constexpr uint64_t MaxOraclePairs = 250'000;
constexpr uint64_t MaxInterpretedAccesses = 4'000;

/// The graph edges between one pair's two accesses.
using EdgeList = std::vector<const Dependence *>;

/// True when an edge Src -> Snk admits the per-level sign tuple (-1 is
/// '<', the source instance first).
bool covered(const EdgeList &Edges, unsigned Src, unsigned Snk,
             const std::vector<int> &Tuple) {
  for (const Dependence *E : Edges) {
    const Dependence &D = *E;
    if (D.Source != Src || D.Sink != Snk || D.Vector.depth() != Tuple.size())
      continue;
    bool OK = true;
    for (unsigned L = 0; L != Tuple.size() && OK; ++L) {
      DirectionSet Need = Tuple[L] < 0 ? DirLT : (Tuple[L] > 0 ? DirGT : DirEQ);
      OK = (D.Vector.Directions[L] & Need) != 0;
    }
    if (OK)
      return true;
  }
  return false;
}

std::string tupleStr(const std::vector<int> &T) {
  std::string S = "(";
  for (size_t I = 0; I != T.size(); ++I)
    S += std::string(I ? "," : "") + (T[I] < 0 ? "<" : T[I] > 0 ? ">" : "=");
  return S + ")";
}

/// An Oracle tuple of the ordered pair (I, J) maps onto the graph's
/// carrier-normalized edges: a leading '<' is a forward edge I -> J, a
/// leading '>' the reversed edge J -> I, and an all-'=' tuple a
/// loop-independent edge in textual order.
bool oracleTupleAdmitted(const EdgeList &G, unsigned I, unsigned J,
                         const std::vector<int> &T) {
  int Lead = 0;
  for (int V : T)
    if (V != 0) {
      Lead = V;
      break;
    }
  if (Lead < 0)
    return covered(G, I, J, T);
  std::vector<int> Neg(T.size());
  for (size_t L = 0; L != T.size(); ++L)
    Neg[L] = -T[L];
  if (Lead > 0)
    return covered(G, J, I, Neg);
  return I == J || covered(G, I, J, T) || covered(G, J, I, T);
}

/// True when the Oracle can enumerate \p Ctx within MaxOraclePairs
/// (iteration pairs, bounded through the per-index ranges).
bool oracleAffordable(const LoopNestContext &Ctx) {
  uint64_t Iterations = 1;
  for (unsigned L = 0; L != Ctx.depth(); ++L) {
    std::optional<int64_t> Size = Ctx.indexRange(Ctx.loop(L).Index).size();
    if (!Size || *Size < 0 || static_cast<uint64_t>(*Size) > MaxOraclePairs)
      return false;
    Iterations *= std::max<uint64_t>(1, static_cast<uint64_t>(*Size));
    if (Iterations * Iterations > MaxOraclePairs)
      return false;
  }
  return true;
}

/// The nest (top-level statement) each access belongs to, and the
/// index of each nest's first access.
struct NestMap {
  std::vector<unsigned> NestOf;
  std::vector<unsigned> First;
  std::vector<unsigned> Count;
};

bool mapNests(const AnalysisResult &R, size_t NumNests, NestMap &M) {
  const auto &Acc = R.Graph.accesses();
  if (R.Prog->TopLevel.size() != NumNests)
    return false;
  std::map<const void *, unsigned> Top;
  for (unsigned K = 0; K != NumNests; ++K)
    Top[R.Prog->TopLevel[K]] = K;
  M.First.assign(NumNests, ~0u);
  M.Count.assign(NumNests, 0);
  for (unsigned A = 0; A != Acc.size(); ++A) {
    if (Acc[A].LoopStack.empty())
      return false;
    auto It = Top.find(Acc[A].LoopStack.front());
    if (It == Top.end())
      return false;
    M.NestOf.push_back(It->second);
    if (M.First[It->second] == ~0u)
      M.First[It->second] = A;
    ++M.Count[It->second];
  }
  return true;
}

/// Executes the nests holding accesses I and J on their own and checks
/// every observed conflict between I and J. Returns false when the
/// execution is too large to serve as a reference.
bool interpreterCheck(const ProgramInput &In, const AnalysisResult &R,
                      const NestMap &M, const EdgeList &Edges, unsigned I,
                      unsigned J, std::string &Error) {
  const auto &Acc = R.Graph.accesses();
  unsigned P = M.NestOf[I], Q = M.NestOf[J];
  if (P > Q)
    std::swap(P, Q);
  std::string Source = In.Nests[P].Source;
  InterpreterOptions Exec;
  Exec.Symbols = In.Nests[P].Symbols;
  if (Q != P) {
    Source += In.Nests[Q].Source;
    Exec.Symbols.insert(In.Nests[Q].Symbols.begin(), In.Nests[Q].Symbols.end());
  }
  Exec.MaxAccesses = MaxInterpretedAccesses;
  ParseResult Sub = parseProgram(Source, "reference");
  if (!Sub.succeeded()) {
    Error = "reference nests of " + In.Name + " do not parse";
    return true;
  }
  ExecutionTrace Trace = interpret(*Sub.Prog, Exec);
  if (!Trace.OK)
    return false;
  // Subset access k is nest P's k-th access, then nest Q's.
  auto FullIndex = [&](unsigned K) {
    return K < M.Count[P] ? M.First[P] + K : M.First[Q] + (K - M.Count[P]);
  };
  std::map<std::pair<std::string, std::vector<int64_t>>,
           std::vector<const RecordedAccess *>>
      ByCell;
  for (const RecordedAccess &A : Trace.Accesses) {
    unsigned Full = FullIndex(A.AccessIndex);
    if (Full >= Acc.size() || Acc[Full].Ref->getArrayName() != A.Array) {
      Error = "reference execution of " + In.Name +
              " does not line up with the analyzed accesses";
      return true;
    }
    if (Full == I || Full == J)
      ByCell[{A.Array, A.Indices}].push_back(&A);
  }
  unsigned Common = commonLoops(Acc[I], Acc[J]).size();
  std::set<std::tuple<unsigned, unsigned, std::vector<int>>> Conflicts;
  for (const auto &Entry : ByCell) {
    const auto &List = Entry.second;
    for (size_t X = 0; X != List.size(); ++X) {
      for (size_t Y = X + 1; Y != List.size(); ++Y) {
        const RecordedAccess &A = *List[X]; // Earlier in time.
        const RecordedAccess &B = *List[Y];
        unsigned FA = FullIndex(A.AccessIndex), FB = FullIndex(B.AccessIndex);
        if ((I != J && FA == FB) || (!A.IsWrite && !B.IsWrite))
          continue;
        std::vector<int> Tuple;
        bool SamePoint = FA == FB;
        for (unsigned L = 0; L != Common; ++L) {
          int64_t D = B.Iteration[L] - A.Iteration[L];
          Tuple.push_back(D > 0 ? -1 : (D < 0 ? 1 : 0));
          SamePoint &= D == 0;
        }
        if (!SamePoint)
          Conflicts.emplace(FA, FB, std::move(Tuple));
      }
    }
  }
  for (const auto &[FA, FB, Tuple] : Conflicts)
    if (!covered(Edges, FA, FB, Tuple)) {
      Error = In.Name + ": executed conflict between accesses " +
              std::to_string(FA) + " and " + std::to_string(FB) +
              " with direction " + tupleStr(Tuple) + " has no covering edge";
      return true;
    }
  return true;
}

} // namespace

std::vector<std::pair<unsigned, unsigned>>
pb::candidatePairs(const std::vector<ArrayAccess> &Accesses,
                   bool IncludeInput) {
  std::map<std::string, std::vector<unsigned>> Buckets;
  for (unsigned A = 0; A != Accesses.size(); ++A)
    Buckets[Accesses[A].Ref->getArrayName()].push_back(A);
  std::vector<std::pair<unsigned, unsigned>> Pairs;
  for (const auto &Entry : Buckets)
    for (size_t X = 0; X != Entry.second.size(); ++X)
      for (size_t Y = X; Y != Entry.second.size(); ++Y) {
        unsigned I = Entry.second[X], J = Entry.second[Y];
        if ((I == J && !Accesses[I].IsWrite) ||
            (!IncludeInput && !Accesses[I].IsWrite && !Accesses[J].IsWrite))
          continue;
        Pairs.emplace_back(I, J);
      }
  std::sort(Pairs.begin(), Pairs.end());
  return Pairs;
}

std::string pb::checkSampledPairs(const ProgramInput &In,
                                  const AnalysisResult &R, uint64_t SampleSeed,
                                  unsigned Want, PairCheckCounts &Counts) {
  if (!R.Parsed || !R.Prog)
    return In.Name + ": not analyzed";
  NestMap M;
  if (!mapNests(R, In.Nests.size(), M))
    return In.Name + ": analyzed program does not keep one statement per nest";

  const auto &Acc = R.Graph.accesses();
  std::vector<std::pair<unsigned, unsigned>> Pairs =
      candidatePairs(Acc, /*IncludeInput=*/false);
  if (Pairs.empty())
    return "";

  std::set<std::string> Varying = collectVaryingScalars(*R.Prog);
  std::mt19937_64 Rng(SampleSeed);
  unsigned Done = 0;
  for (unsigned Try = 0; Try != Want * 6 && Done != Want; ++Try) {
    auto [I, J] = Pairs[Rng() % Pairs.size()];
    EdgeList Edges;
    for (const Dependence &D : R.Graph.dependences())
      if ((D.Source == I || D.Source == J) && (D.Sink == I || D.Sink == J) &&
          !SabotageReferences)
        Edges.push_back(&D);
    std::optional<PreparedPair> Prep =
        prepareAccessPair(Acc[I], Acc[J], R.ResolvedSymbols, &Varying);
    std::optional<OracleResult> Truth;
    if (Prep && !Prep->HasNonlinear && oracleAffordable(Prep->Ctx))
      Truth = enumerateDependences(Prep->Subscripts, Prep->Ctx, MaxOraclePairs);
    if (Truth) {
      for (const std::vector<int> &T : Truth->DirectionTuples)
        if (!oracleTupleAdmitted(Edges, I, J, T))
          return In.Name + ": Oracle dependence " + tupleStr(T) +
                 " between accesses " + std::to_string(I) + " and " +
                 std::to_string(J) + " has no covering edge";
      ++Counts.ViaOracle;
      ++Done;
      continue;
    }
    std::string Error;
    if (!interpreterCheck(In, R, M, Edges, I, J, Error)) {
      ++Counts.TooCostly;
      continue;
    }
    if (!Error.empty())
      return Error;
    ++Counts.ViaInterpreter;
    ++Done;
  }
  return "";
}

uint64_t pb::analysisDigest(const AnalysisResult &R) {
  uint64_t H = fnv1a(R.Graph.str());
  const TestStats &S = R.Stats;
  std::string Counters = std::to_string(S.ReferencePairs) + "," +
                         std::to_string(S.IndependentPairs) + "," +
                         std::to_string(S.DegradedResults);
  for (unsigned K = 0; K != NumTestKinds; ++K)
    Counters += "," + std::to_string(S.Applications[K]) + "/" +
                std::to_string(S.Independences[K]);
  return fnv1a(Counters, H) ^ (SabotageReferences ? nowNs() : 0);
}

std::string pb::analysisProblem(const AnalysisResult &R) {
  if (!R.Parsed)
    return R.Failures.empty() ? "did not parse" : R.Failures.front().Message;
  if (!R.Failures.empty())
    return "pipeline failure: " + R.Failures.front().Message;
  if (R.Stats.DegradedResults)
    return std::to_string(R.Stats.DegradedResults) + " degraded results";
  for (const Dependence &D : R.Graph.dependences())
    if (D.Degraded)
      return "degraded edge";
  return "";
}
