//===- analysis/LoopNest.h - Analyzed loop-nest context ---------*- C++ -*-===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analyzed form of a loop nest that the dependence tests consume:
/// per-loop affine bounds, constant steps, and assumed value ranges for
/// symbolic constants. Bounds of inner loops may reference outer
/// indices (triangular and trapezoidal nests).
///
//===----------------------------------------------------------------------===//

#ifndef PDT_ANALYSIS_LOOPNEST_H
#define PDT_ANALYSIS_LOOPNEST_H

#include "ir/LinearExpr.h"
#include "support/Interval.h"

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace pdt {

class DoLoop;

/// Assumed integer ranges for symbolic constants, e.g. "n" -> [1, inf).
/// Symbols without an entry are unconstrained. The standard assumption
/// for array-extent symbols in scientific code is a lower bound of 1.
using SymbolRangeMap = std::map<std::string, Interval>;

/// Analyzed bounds of one loop.
struct LoopBounds {
  std::string Index;
  /// Affine lower/upper bounds; may reference outer loop indices and
  /// symbolic constants. Meaningful only when Affine is true.
  LinearExpr Lower;
  LinearExpr Upper;
  /// Constant step. Tests other than range analysis require loops to
  /// have been normalized to step 1 first.
  int64_t Step = 1;
  /// False when a bound or the step failed to convert to affine form;
  /// the loop's index range is then unknown (conservative).
  bool Affine = true;
};

/// Analyzes the bounds and step of \p L, whose enclosing loops' indices
/// are \p OuterIndices (legal in its bounds). A bound or step that is
/// not affine, a non-constant or zero step, or an overflow while
/// folding a bound leaves the loop non-affine.
LoopBounds analyzeLoopBounds(const DoLoop *L,
                             const std::set<std::string> &OuterIndices);

/// The loop-nest context shared by both references of a pair:
/// the common loops (outermost first), symbol assumptions, and the
/// computed maximal index ranges.
class LoopNestContext {
public:
  LoopNestContext() = default;

  /// Builds the context for \p Loops (outermost first) under symbol
  /// assumptions \p Symbols, and runs index range analysis.
  LoopNestContext(const std::vector<const DoLoop *> &Loops,
                  SymbolRangeMap Symbols);

  /// Direct construction from pre-analyzed bounds (used by unit tests
  /// and the synthetic workload generator).
  LoopNestContext(std::vector<LoopBounds> Loops, SymbolRangeMap Symbols);

  unsigned depth() const { return Loops.size(); }
  const LoopBounds &loop(unsigned Level) const { return Loops[Level]; }
  const std::vector<LoopBounds> &loops() const { return Loops; }

  /// Level of loop index \p Name (0 = outermost), or nullopt when the
  /// name is not a loop index of this nest.
  std::optional<unsigned> levelOf(const std::string &Name) const;

  bool isIndex(const std::string &Name) const {
    return levelOf(Name).has_value();
  }

  /// Maximal value range of index \p Name (paper section 4.3). Full
  /// interval when unknown.
  Interval indexRange(const std::string &Name) const;

  /// Range of the iteration-distance |i' - i| for loop \p Name:
  /// [0, U - L] when the range is finite, unbounded above otherwise.
  Interval distanceRange(const std::string &Name) const;

  const SymbolRangeMap &symbolRanges() const { return Symbols; }

  /// Evaluates an affine expression over the computed index ranges and
  /// the symbol assumptions.
  Interval evaluate(const LinearExpr &E) const;

  /// The set of index names of this nest, for LinearExpr building.
  std::set<std::string> indexNameSet() const;

private:
  std::vector<LoopBounds> Loops;
  SymbolRangeMap Symbols;
  std::map<std::string, Interval> IndexRanges;

  void computeIndexRanges();
};

/// Evaluates \p E over explicit variable ranges: loop indices found in
/// \p IndexRanges, symbols in \p Symbols; anything absent is
/// unconstrained.
Interval evaluateLinear(const LinearExpr &E,
                        const std::map<std::string, Interval> &IndexRanges,
                        const SymbolRangeMap &Symbols);

} // namespace pdt

#endif // PDT_ANALYSIS_LOOPNEST_H
