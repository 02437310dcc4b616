//===- analysis/LoopNest.cpp - Analyzed loop-nest context -----------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopNest.h"

#include "ir/AST.h"
#include "support/Failure.h"

#include <cassert>

using namespace pdt;

Interval pdt::evaluateLinear(const LinearExpr &E,
                             const std::map<std::string, Interval> &IndexRanges,
                             const SymbolRangeMap &Symbols) {
  Interval Result = Interval::point(E.getConstant());
  for (const auto &[Name, Coeff] : E.indexTerms()) {
    auto It = IndexRanges.find(Name);
    Interval R = It == IndexRanges.end() ? Interval::full() : It->second;
    Result = Result + R.scale(Coeff);
  }
  for (const auto &[Name, Coeff] : E.symbolTerms()) {
    auto It = Symbols.find(Name);
    Interval R = It == Symbols.end() ? Interval::full() : It->second;
    Result = Result + R.scale(Coeff);
  }
  return Result;
}

LoopBounds pdt::analyzeLoopBounds(const DoLoop *L,
                                  const std::set<std::string> &OuterIndices) {
  LoopBounds B;
  B.Index = L->getIndexName();
  std::optional<LinearExpr> Lower, Upper, Step;
  try {
    Lower = buildLinearExpr(L->getLower(), OuterIndices);
    Upper = buildLinearExpr(L->getUpper(), OuterIndices);
    Step = buildLinearExpr(L->getStep(), OuterIndices);
  } catch (const AnalysisError &) {
    // Overflow while folding a bound expression: the loop becomes
    // non-affine (an unbounded variable), which every test already
    // handles conservatively.
    Lower.reset();
  }
  if (Lower && Upper && Step && Step->isPureConstant() &&
      Step->getConstant() != 0) {
    B.Lower = *Lower;
    B.Upper = *Upper;
    B.Step = Step->getConstant();
  } else {
    B.Affine = false;
  }
  return B;
}

LoopNestContext::LoopNestContext(const std::vector<const DoLoop *> &TheLoops,
                                 SymbolRangeMap Symbols)
    : Symbols(std::move(Symbols)) {
  // Outer indices are legal in inner bounds, so accumulate the index
  // set as we walk outside-in.
  std::set<std::string> OuterIndices;
  for (const DoLoop *L : TheLoops) {
    Loops.push_back(analyzeLoopBounds(L, OuterIndices));
    OuterIndices.insert(L->getIndexName());
  }
  computeIndexRanges();
}

LoopNestContext::LoopNestContext(std::vector<LoopBounds> TheLoops,
                                 SymbolRangeMap TheSymbols)
    : Loops(std::move(TheLoops)), Symbols(std::move(TheSymbols)) {
  computeIndexRanges();
}

void LoopNestContext::computeIndexRanges() {
  // Paper section 4.3: evaluate the loop bounds from the outermost
  // loop inward, substituting the ranges already computed for outer
  // indices. The result is the maximal range of each index, which is
  // all the SIV tests need even for trapezoidal nests.
  for (const LoopBounds &B : Loops) {
    if (!B.Affine) {
      IndexRanges[B.Index] = Interval::full();
      continue;
    }
    Interval LowerRange = evaluateLinear(B.Lower, IndexRanges, Symbols);
    Interval UpperRange = evaluateLinear(B.Upper, IndexRanges, Symbols);
    Interval Range(LowerRange.lower(), UpperRange.upper());
    if (B.Step < 0) {
      // A downward loop runs from Lower down to Upper in Fortran "do
      // i = L, U, S" notation with S < 0; the value range endpoints
      // swap roles.
      Range = Interval(UpperRange.lower(), LowerRange.upper());
    }
    IndexRanges[B.Index] = Range;
  }
}

std::optional<unsigned>
LoopNestContext::levelOf(const std::string &Name) const {
  for (unsigned I = 0, E = Loops.size(); I != E; ++I)
    if (Loops[I].Index == Name)
      return I;
  return std::nullopt;
}

Interval LoopNestContext::indexRange(const std::string &Name) const {
  auto It = IndexRanges.find(Name);
  return It == IndexRanges.end() ? Interval::full() : It->second;
}

Interval LoopNestContext::distanceRange(const std::string &Name) const {
  Interval R = indexRange(Name);
  if (!R.isFinite())
    return Interval(0, std::nullopt);
  if (R.isEmpty())
    return Interval::empty();
  int64_t Extent = *R.upper() - *R.lower();
  return Interval(0, Extent);
}

Interval LoopNestContext::evaluate(const LinearExpr &E) const {
  return evaluateLinear(E, IndexRanges, Symbols);
}

std::set<std::string> LoopNestContext::indexNameSet() const {
  std::set<std::string> Names;
  for (const LoopBounds &B : Loops)
    Names.insert(B.Index);
  return Names;
}
