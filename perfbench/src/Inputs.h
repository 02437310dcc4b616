//===- perfbench/src/Inputs.h - Seeded workload inputs -----------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every input the benchmark feeds the analyzer is a pure function of
/// the run's --seed: programs are lists of loop nests, each nest with
/// its own source text, the symbol values the reference Interpreter
/// instantiates it with, and a canonical content key (alpha-renamed,
/// bounds shifted to 0) that says when two nests are the same problem
/// in different clothes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "ir/LinearExpr.h"

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace pb {

/// One top-level loop nest of a generated program.
struct Nest {
  std::string Source;
  /// Concrete symbol values for the reference Interpreter.
  std::map<std::string, int64_t> Symbols;
  /// Canonical content: equal keys mean the same dependence problem.
  std::string CanonKey;
};

/// A whole program: its nests in order and their concatenated source.
struct ProgramInput {
  std::string Name;
  std::vector<Nest> Nests;
  std::string Source;
};

/// A structured perfect nest `do idx = lo, hi` with statements
/// `arr(w...) = arr(r...) + 1`, which can be renamed and shifted while
/// keeping its canonical content.
struct NestModel {
  struct Loop {
    std::string Index;
    int64_t Lower = 1;
    pdt::LinearExpr Upper;
  };
  std::vector<Loop> Loops;
  std::vector<std::pair<std::vector<pdt::LinearExpr>,
                        std::vector<pdt::LinearExpr>>>
      Stmts;
  std::map<std::string, int64_t> SymbolValues;

  /// Source text with every statement writing and reading \p Array.
  std::string render(const std::string &Array) const;
  /// Alpha-renamed (indices -> level, symbols -> first-use slot),
  /// constant lower bounds shifted to 0.
  std::string canonicalKey() const;
  /// Consistently renames indices and symbols (suffix \p Tag).
  NestModel renamed(const std::string &Tag) const;
  /// Shifts every loop by \p By iterations, rewriting subscripts so the
  /// accessed elements are unchanged.
  NestModel shifted(int64_t By) const;
};

/// KernelGen kernel \p Index of campaign \p Seed in stratum \p Stratum
/// (a FuzzStratum value), as a model.
NestModel fuzzNest(uint64_t Seed, uint64_t Index, unsigned Stratum);

/// A coupled-MIV nest of depth \p Depth (3 or 4) under symbolic bounds,
/// the expensive corner of the suite (one statement, four dimensions).
NestModel coupledSymbolicNest(std::mt19937_64 &Rng, unsigned Depth);

/// Builds a program from models, giving nest K the array `<Prefix>K`.
ProgramInput programFromModels(const std::string &Name,
                               const std::vector<NestModel> &Models,
                               const std::string &Prefix);

/// bulk_build's program \p Index: generateRandomProgramSource nests
/// (shared arrays, symbolic n, cross-nest pairs) followed by
/// generateBatchHeavyProgramSource nests (constant bounds, per-nest
/// arrays).
ProgramInput bulkProgram(uint64_t Seed, uint64_t Index);

/// store_rebuild's inputs: a base pool of decide-heavy nests that setup
/// stores, and per-operation programs mixing renamed/shifted copies of
/// pool nests with fresh ones.
class StoreInputs {
public:
  explicit StoreInputs(uint64_t Seed);
  /// The pool, split into programs of NestsPerProgram nests.
  std::vector<ProgramInput> populatePrograms() const;
  /// Operation \p Index's program.
  ProgramInput program(uint64_t Index) const;

  static constexpr unsigned PoolSize = 480;
  static constexpr unsigned NestsPerProgram = 45;
  /// Nests of each program that are fresh; the rest (80%) are copies
  /// of pool nests.
  static constexpr unsigned FreshPerProgram = 9;

private:
  /// Nest \p Key: every \p CoupledEvery-th key (by key modulo) is a
  /// coupled-MIV nest, the rest cycle through the decide-heavy strata.
  NestModel nest(uint64_t Key, unsigned CoupledEvery) const;
  uint64_t Seed;
  std::vector<NestModel> Pool;
};

} // namespace pb

#endif // PERFBENCH_INPUTS_H
