//===- CiCorrectnessTest.cpp - Executable form of the paper's Coq proof ---===//
//
// The paper machine-checks three properties of concat_intersect (Section
// 3.3): Regular, Satisfying, and All Solutions. This suite is the
// *executable* counterpart: for structured machine families and for
// randomized triples, every property is verified with decidable automata
// queries — no sampling, no bounded enumeration.
//
//   Regular:       outputs are NFAs by construction; we additionally
//                  check they are well-formed (non-null, trimmed).
//   Satisfying:    v1 ⊆ c1, v2 ⊆ c2, v1.v2 ⊆ c3 for every output pair.
//   All Solutions: ∪_i (v1_i . v2_i)  ==  (c1 . c2) ∩ c3   (language
//                  equivalence, both directions).
//   Solution bound: the paper bounds the number of disjunctive solutions
//                  by |M3|; we check |S| ≤ states(det(c3)) + 1.
//
//===----------------------------------------------------------------------===//

#include "solver/ConcatIntersect.h"

#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "regex/RegexCompiler.h"
#include "regex/RegexParser.h"

#include <gtest/gtest.h>

#include <random>

using namespace dprle;

namespace {

void checkAllProperties(const Nfa &C1, const Nfa &C2, const Nfa &C3,
                        const std::string &Label) {
  SCOPED_TRACE(Label);
  CiDiagnostics Diags;
  auto Solutions = concatIntersect(C1, C2, C3, SIZE_MAX, &Diags);

  // Satisfying.
  for (size_t I = 0; I != Solutions.size(); ++I) {
    EXPECT_TRUE(subsetOf(Solutions[I].V1, C1)) << "solution " << I;
    EXPECT_TRUE(subsetOf(Solutions[I].V2, C2)) << "solution " << I;
    EXPECT_TRUE(subsetOf(concat(Solutions[I].V1, Solutions[I].V2), C3))
        << "solution " << I;
    EXPECT_FALSE(Solutions[I].V1.languageIsEmpty());
    EXPECT_FALSE(Solutions[I].V2.languageIsEmpty());
  }

  // All Solutions (both directions: coverage and no overshoot).
  Nfa Target = intersect(concat(C1, C2), C3);
  Nfa Covered = Nfa::emptyLanguage();
  for (const CiAssignment &A : Solutions)
    Covered = alternate(Covered, concat(A.V1, A.V2));
  EXPECT_TRUE(equivalentTo(Covered, Target));

  // Emptiness agreement and the |M3|-ish solution bound.
  EXPECT_EQ(Solutions.empty(), Target.languageIsEmpty());
  unsigned M3Bound = determinize(C3).numStates() + 1;
  EXPECT_LE(Solutions.size(), M3Bound);
}

/// a^{Min..Max} chain.
Nfa boundedAs(unsigned Min, unsigned Max) {
  Nfa M;
  StateId Prev = M.start();
  if (Min == 0)
    M.setAccepting(Prev);
  for (unsigned I = 1; I <= Max; ++I) {
    StateId Next = M.addState();
    M.addTransition(Prev, CharSet::singleton('a'), Next);
    if (I >= Min)
      M.setAccepting(Next);
    Prev = Next;
  }
  return M;
}

std::string randomPattern(std::mt19937 &Rng, int Depth) {
  std::uniform_int_distribution<int> Dist(0, 99);
  int Roll = Dist(Rng);
  if (Depth <= 0 || Roll < 35)
    return Roll % 2 ? "a" : "b";
  if (Roll < 50)
    return "(" + randomPattern(Rng, Depth - 1) + "|" +
           randomPattern(Rng, Depth - 1) + ")";
  if (Roll < 70)
    return randomPattern(Rng, Depth - 1) + randomPattern(Rng, Depth - 1);
  if (Roll < 85)
    return "(" + randomPattern(Rng, Depth - 1) + ")*";
  return "(" + randomPattern(Rng, Depth - 1) + ")?";
}

} // namespace

//===----------------------------------------------------------------------===//
// Structured families
//===----------------------------------------------------------------------===//

class CiChainFamily : public ::testing::TestWithParam<unsigned> {};

TEST_P(CiChainFamily, BoundedUnaryChains) {
  unsigned N = GetParam();
  checkAllProperties(boundedAs(0, N), boundedAs(0, N), boundedAs(0, 2 * N),
                     "a^{0.." + std::to_string(N) + "} split");
  checkAllProperties(boundedAs(1, N), boundedAs(1, N),
                     boundedAs(0, N + 1),
                     "tight split N=" + std::to_string(N));
  checkAllProperties(boundedAs(0, N), boundedAs(0, N), boundedAs(3 * N, 4 * N),
                     "unsatisfiable window N=" + std::to_string(N));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CiChainFamily,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

TEST(CiStructuredTest, StarAgainstFiniteTargets) {
  Nfa AStar = star(Nfa::literal("a"));
  Nfa BStar = star(Nfa::literal("b"));
  checkAllProperties(AStar, BStar, regexLanguage("a{0,3}b{0,3}"), "a*b*");
  checkAllProperties(AStar, AStar, regexLanguage("a{2,5}"), "a* a* window");
  checkAllProperties(AStar, BStar, regexLanguage("(ab){1,2}"),
                     "mostly infeasible");
}

TEST(CiStructuredTest, PaperShapedInstances) {
  checkAllProperties(Nfa::literal("nid_"), searchLanguage("[\\d]$"),
                     searchLanguage("'"), "motivating example");
  checkAllProperties(regexLanguage("x(yy)+"), regexLanguage("(yy)*z"),
                     regexLanguage("xyyz|xyyyyz"), "section 3.1.1");
  checkAllProperties(Nfa::sigmaStar(), Nfa::sigmaStar(),
                     searchLanguage("x"), "unconstrained operands");
}

TEST(CiStructuredTest, DegenerateOperands) {
  Nfa Eps = Nfa::epsilonLanguage();
  Nfa Empty = Nfa::emptyLanguage();
  Nfa Lit = Nfa::literal("q");
  checkAllProperties(Eps, Lit, Lit, "epsilon lhs");
  checkAllProperties(Lit, Eps, Lit, "epsilon rhs");
  checkAllProperties(Empty, Lit, Nfa::sigmaStar(), "empty lhs");
  checkAllProperties(Lit, Lit, Empty, "empty target");
  checkAllProperties(Eps, Eps, Eps, "all epsilon");
}

//===----------------------------------------------------------------------===//
// Randomized triples
//===----------------------------------------------------------------------===//

class CiRandomTriples : public ::testing::TestWithParam<unsigned> {};

TEST_P(CiRandomTriples, PropertiesHold) {
  std::mt19937 Rng(GetParam() * 2654435761u + 17);
  for (int Iter = 0; Iter != 4; ++Iter) {
    std::string P1 = randomPattern(Rng, 2);
    std::string P2 = randomPattern(Rng, 2);
    std::string P3 = randomPattern(Rng, 3);
    checkAllProperties(regexLanguage(P1), regexLanguage(P2),
                       regexLanguage(P3),
                       P1 + " . " + P2 + " <= " + P3);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CiRandomTriples,
                         ::testing::Range(1u, 26u));
