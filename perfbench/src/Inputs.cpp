//===- perfbench/src/Inputs.cpp - Seeded workload inputs ------------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "Bench.h"

#include "driver/WorkloadGenerator.h"
#include "fuzz/FuzzKernel.h"
#include "fuzz/KernelGen.h"

#include <algorithm>
#include <cctype>

using namespace pb;
using pdt::LinearExpr;

namespace {

/// Rebuilds \p E with index and symbol names mapped (names absent from
/// a map keep their spelling).
LinearExpr renameExpr(const LinearExpr &E,
                      const std::map<std::string, std::string> &Indices,
                      const std::map<std::string, std::string> &Symbols) {
  LinearExpr Out(E.getConstant());
  for (const auto &[Name, Coeff] : E.indexTerms()) {
    auto It = Indices.find(Name);
    Out = Out + LinearExpr::index(It == Indices.end() ? Name : It->second,
                                  Coeff);
  }
  for (const auto &[Name, Coeff] : E.symbolTerms()) {
    auto It = Symbols.find(Name);
    Out = Out + LinearExpr::symbol(It == Symbols.end() ? Name : It->second,
                                   Coeff);
  }
  return Out;
}

std::string joinExprs(const std::vector<LinearExpr> &Es) {
  std::string S;
  for (size_t I = 0; I != Es.size(); ++I)
    S += (I ? ", " : "") + Es[I].str();
  return S;
}

/// Splits generator output into its top-level nests (each starts at an
/// unindented `do`).
std::vector<std::string> splitNests(const std::string &Source) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos < Source.size()) {
    size_t End = Source.find('\n', Pos);
    End = End == std::string::npos ? Source.size() : End + 1;
    std::string Line = Source.substr(Pos, End - Pos);
    if (Line.rfind("do ", 0) == 0 || Out.empty())
      Out.emplace_back();
    Out.back() += Line;
    Pos = End;
  }
  return Out;
}

/// The generators name arrays a0..a7 / b<N> / w<S>; the content of a
/// nest is its text with those numbers erased.
std::string eraseArrayNumbers(const std::string &Text) {
  std::string Out;
  for (size_t I = 0; I != Text.size(); ++I) {
    char C = Text[I];
    bool AfterLetter = I && std::isalpha(static_cast<unsigned char>(Text[I - 1]));
    if (std::isdigit(static_cast<unsigned char>(C)) && AfterLetter) {
      while (I + 1 < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[I + 1])))
        ++I;
      continue;
    }
    Out += C;
  }
  return Out;
}

} // namespace

std::string NestModel::render(const std::string &Array) const {
  std::string S, Indent;
  for (const Loop &L : Loops) {
    S += Indent + "do " + L.Index + " = " + std::to_string(L.Lower) + ", " +
         L.Upper.str() + "\n";
    Indent += "  ";
  }
  for (const auto &[Write, Read] : Stmts)
    S += Indent + Array + "(" + joinExprs(Write) + ") = " + Array + "(" +
         joinExprs(Read) + ") + 1\n";
  for (size_t L = 0; L != Loops.size(); ++L) {
    Indent.resize(Indent.size() - 2);
    S += Indent + "end do\n";
  }
  return S;
}

std::string NestModel::canonicalKey() const {
  NestModel C = *this;
  // Shift every loop to start at 0.
  for (Loop &L : C.Loops) {
    int64_t Lo = L.Lower;
    L.Lower = 0;
    L.Upper = L.Upper - LinearExpr(Lo);
    LinearExpr Back = LinearExpr::index(L.Index) + LinearExpr(Lo);
    for (auto &[Write, Read] : C.Stmts) {
      for (LinearExpr &E : Write)
        E = E.substituteIndex(L.Index, Back);
      for (LinearExpr &E : Read)
        E = E.substituteIndex(L.Index, Back);
    }
  }
  std::map<std::string, std::string> Indices, Symbols;
  for (size_t L = 0; L != C.Loops.size(); ++L)
    Indices[C.Loops[L].Index] = "%" + std::to_string(L);
  auto NoteSymbols = [&Symbols](const LinearExpr &E) {
    for (const auto &Term : E.symbolTerms())
      Symbols.try_emplace(Term.first, "$" + std::to_string(Symbols.size()));
  };
  for (const Loop &L : C.Loops)
    NoteSymbols(L.Upper);
  for (const auto &[Write, Read] : C.Stmts) {
    for (const LinearExpr &E : Write)
      NoteSymbols(E);
    for (const LinearExpr &E : Read)
      NoteSymbols(E);
  }
  std::string Key;
  for (const Loop &L : C.Loops)
    Key += "[" + renameExpr(L.Upper, Indices, Symbols).str() + "]";
  for (const auto &[Write, Read] : C.Stmts) {
    Key += "{";
    for (const LinearExpr &E : Write)
      Key += renameExpr(E, Indices, Symbols).str() + ";";
    Key += "=";
    for (const LinearExpr &E : Read)
      Key += renameExpr(E, Indices, Symbols).str() + ";";
    Key += "}";
  }
  return Key;
}

NestModel NestModel::renamed(const std::string &Tag) const {
  std::map<std::string, std::string> Indices, Symbols;
  for (const Loop &L : Loops)
    Indices[L.Index] = L.Index + Tag;
  for (const auto &Entry : SymbolValues)
    Symbols[Entry.first] = Entry.first + Tag;
  NestModel Out;
  for (const Loop &L : Loops)
    Out.Loops.push_back({Indices[L.Index], L.Lower,
                         renameExpr(L.Upper, Indices, Symbols)});
  for (const auto &[Write, Read] : Stmts) {
    std::vector<LinearExpr> W, R;
    for (const LinearExpr &E : Write)
      W.push_back(renameExpr(E, Indices, Symbols));
    for (const LinearExpr &E : Read)
      R.push_back(renameExpr(E, Indices, Symbols));
    Out.Stmts.emplace_back(std::move(W), std::move(R));
  }
  for (const auto &[Name, Value] : SymbolValues)
    Out.SymbolValues[Symbols[Name]] = Value;
  return Out;
}

NestModel NestModel::shifted(int64_t By) const {
  NestModel Out = *this;
  if (By == 0)
    return Out;
  for (Loop &L : Out.Loops) {
    L.Lower += By;
    L.Upper = L.Upper + LinearExpr(By);
    LinearExpr Back = LinearExpr::index(L.Index) - LinearExpr(By);
    for (auto &[Write, Read] : Out.Stmts) {
      for (LinearExpr &E : Write)
        E = E.substituteIndex(L.Index, Back);
      for (LinearExpr &E : Read)
        E = E.substituteIndex(L.Index, Back);
    }
  }
  return Out;
}

NestModel pb::fuzzNest(uint64_t Seed, uint64_t Index, unsigned Stratum) {
  pdt::FuzzKernel K =
      pdt::generateFuzzKernel(Seed, Index * pdt::NumFuzzStrata + Stratum);
  NestModel M;
  for (const pdt::FuzzLoop &L : K.Loops)
    M.Loops.push_back({L.Index, L.Lower,
                       L.UpperSymbol.empty()
                           ? LinearExpr(L.Upper)
                           : LinearExpr::symbol(L.UpperSymbol)});
  for (const pdt::FuzzStmt &S : K.Stmts)
    M.Stmts.emplace_back(S.Write, S.Read);
  M.SymbolValues = K.SymbolValues;
  return M;
}

NestModel pb::coupledSymbolicNest(std::mt19937_64 &Rng, unsigned Depth) {
  static const char *Idx[] = {"i", "j", "k", "l"};
  static const char *Sym[] = {"n", "m", "p", "q"};
  static const int64_t Coeff[4][4] = {
      {1, 1, 1, 1}, {1, -1, 1, -1}, {2, 1, -1, 1}, {1, 2, 1, -1}};
  NestModel M;
  for (unsigned L = 0; L != Depth; ++L) {
    M.Loops.push_back({Idx[L], 1, LinearExpr::symbol(Sym[L])});
    M.SymbolValues[Sym[L]] = 3;
  }
  int64_t C[4];
  for (int64_t &V : C)
    V = static_cast<int64_t>(Rng() % 41);
  std::vector<LinearExpr> Write, Read;
  for (unsigned D = 0; D != 4; ++D) {
    LinearExpr W(C[D]), R(C[(D + 1) % 4]);
    for (unsigned L = 0; L != Depth; ++L) {
      W = W + LinearExpr::index(Idx[L], Coeff[D][L]);
      R = R + LinearExpr::index(Idx[L], Coeff[D][L]);
    }
    Write.push_back(W);
    Read.push_back(R);
  }
  M.Stmts.emplace_back(std::move(Write), std::move(Read));
  return M;
}

ProgramInput pb::programFromModels(const std::string &Name,
                                   const std::vector<NestModel> &Models,
                                   const std::string &Prefix) {
  ProgramInput P;
  P.Name = Name;
  for (size_t K = 0; K != Models.size(); ++K) {
    Nest N;
    N.Source = Models[K].render(Prefix + std::to_string(K));
    N.Symbols = Models[K].SymbolValues;
    N.CanonKey = Models[K].canonicalKey();
    P.Source += N.Source;
    P.Nests.push_back(std::move(N));
  }
  return P;
}

ProgramInput pb::bulkProgram(uint64_t Seed, uint64_t Index) {
  // 40 shared-array symbolic nests (about 2.8k cross-nest pairs) plus
  // 45 batch-heavy nests (about 1.3k nest-local pairs): ~18 ms, so a
  // 30 s run holds the 1000 operations a p99 with ten samples beyond it
  // needs.
  constexpr unsigned RandomNests = 40, BatchNests = 45;
  std::mt19937_64 Rng(mixSeed(Seed, 0x1000 + Index));
  int64_t N = 3 + static_cast<int64_t>(Rng() % 3);
  std::string Random = pdt::generateRandomProgramSource(Rng, RandomNests);
  std::string Batch = pdt::generateBatchHeavyProgramSource(Rng, BatchNests);
  ProgramInput P;
  P.Name = "bulk-" + std::to_string(Index);
  for (const std::string &Text : splitNests(Random))
    P.Nests.push_back({Text, {{"n", N}}, eraseArrayNumbers(Text)});
  for (const std::string &Text : splitNests(Batch))
    P.Nests.push_back({Text, {}, eraseArrayNumbers(Text)});
  P.Source = Random + Batch;
  return P;
}

StoreInputs::StoreInputs(uint64_t Seed) : Seed(Seed) {
  for (unsigned K = 0; K != PoolSize; ++K)
    Pool.push_back(nest(K, 3));
}

NestModel StoreInputs::nest(uint64_t Key, unsigned CoupledEvery) const {
  // The decide-heavy strata: exact SIV, RDIV, coupled MIV, symbolic
  // bounds; and depth-3/4 coupled-MIV nests under symbolic bounds.
  static const unsigned Strata[] = {4, 5, 6, 7};
  if (Key % CoupledEvery == 0) {
    std::mt19937_64 Rng(mixSeed(Seed, 0x2000000 + Key));
    return coupledSymbolicNest(Rng, 3 + (Key / CoupledEvery) % 2);
  }
  return fuzzNest(mixSeed(Seed, 0x3000), Key, Strata[Key % 4]);
}

std::vector<ProgramInput> StoreInputs::populatePrograms() const {
  std::vector<ProgramInput> Out;
  for (unsigned Start = 0; Start < PoolSize; Start += NestsPerProgram) {
    std::vector<NestModel> Chunk(
        Pool.begin() + Start,
        Pool.begin() + std::min<unsigned>(Start + NestsPerProgram, PoolSize));
    Out.push_back(programFromModels("pool-" + std::to_string(Start), Chunk,
                                    "s"));
  }
  return Out;
}

ProgramInput StoreInputs::program(uint64_t Index) const {
  std::mt19937_64 Rng(mixSeed(Seed, 0x4000 + Index));
  // Exactly FreshPerProgram fresh nests at seeded positions, so every
  // operation does the same amount of deciding.
  std::vector<bool> Fresh(NestsPerProgram, false);
  std::fill(Fresh.begin(), Fresh.begin() + FreshPerProgram, true);
  std::shuffle(Fresh.begin(), Fresh.end(), Rng);
  std::vector<NestModel> Models;
  unsigned FreshSoFar = 0;
  for (unsigned K = 0; K != NestsPerProgram; ++K) {
    if (Fresh[K]) {
      // Fresh keys start past the pool and never repeat across
      // operations. Every operation gets the same mix of them: one in
      // three a coupled-MIV nest, of depths 3, 4, 3 (the stride of
      // 2 * FreshPerProgram keeps the depth pattern the same).
      Models.push_back(
          nest(PoolSize + Index * 2 * FreshPerProgram + FreshSoFar++, 3));
      continue;
    }
    const NestModel &Base = Pool[Rng() % PoolSize];
    int64_t Shift = 1 + static_cast<int64_t>(Rng() % 5);
    switch (Rng() % 3) {
    case 0:
      Models.push_back(Base.renamed("r"));
      break;
    case 1:
      Models.push_back(Base.shifted(Shift));
      break;
    default:
      Models.push_back(Base.renamed("s").shifted(Shift));
      break;
    }
  }
  return programFromModels("rebuild-" + std::to_string(Index), Models, "s");
}
