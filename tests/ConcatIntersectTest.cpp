//===- ConcatIntersectTest.cpp - Tests for the CI algorithm ---------------===//
//
// Validates the three correctness properties of paper Section 3.3
// (Regular, Satisfying, All Solutions) plus the worked example of paper
// Figure 4. Satisfying and All Solutions are checked with *decidable*
// automata queries, not sampling.
//
//===----------------------------------------------------------------------===//

#include "solver/ConcatIntersect.h"
#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "regex/RegexCompiler.h"

#include <gtest/gtest.h>

using namespace dprle;

namespace {

/// Checks the Satisfying condition: every assignment respects
/// v1 ⊆ c1, v2 ⊆ c2, v1.v2 ⊆ c3.
void checkSatisfying(const std::vector<CiAssignment> &Solutions,
                     const Nfa &C1, const Nfa &C2, const Nfa &C3) {
  for (size_t I = 0; I != Solutions.size(); ++I) {
    SCOPED_TRACE("solution " + std::to_string(I));
    const CiAssignment &A = Solutions[I];
    EXPECT_TRUE(subsetOf(A.V1, C1));
    EXPECT_TRUE(subsetOf(A.V2, C2));
    EXPECT_TRUE(subsetOf(concat(A.V1, A.V2), C3));
    EXPECT_FALSE(A.V1.languageIsEmpty());
    EXPECT_FALSE(A.V2.languageIsEmpty());
  }
}

/// Checks the All Solutions condition: the union of v1.v2 over all
/// assignments covers (c1.c2) ∩ c3 exactly.
void checkAllSolutions(const std::vector<CiAssignment> &Solutions,
                       const Nfa &C1, const Nfa &C2, const Nfa &C3) {
  Nfa Target = intersect(concat(C1, C2), C3);
  Nfa Covered = Nfa::emptyLanguage();
  for (const CiAssignment &A : Solutions)
    Covered = alternate(Covered, concat(A.V1, A.V2));
  EXPECT_TRUE(equivalentTo(Covered, Target));
}

} // namespace

TEST(ConcatIntersectTest, PaperFigure4) {
  // c1 = "nid_", c2 = Sigma*[0-9] (the faulty filter), c3 = Sigma*'Sigma*.
  Nfa C1 = Nfa::literal("nid_");
  Nfa C2 = searchLanguage("[\\d]$"); // Sigma* then one digit
  Nfa C3 = searchLanguage("'");

  CiDiagnostics Diags;
  auto Solutions = concatIntersect(C1, C2, C3, SIZE_MAX, &Diags);

  // The paper: "The machine for l5 has exactly one eps-transition of
  // interest. Consequently, the solution set consists of one assignment."
  EXPECT_EQ(Diags.CandidatePairs, 1u);
  ASSERT_EQ(Solutions.size(), 1u);

  // x1 = L(nid_), as desired.
  EXPECT_TRUE(equivalentTo(Solutions[0].V1, C1));

  // x1' captures "exactly the strings that exploit the faulty safety
  // check: all strings that contain a single quote and end with a digit."
  Nfa Expected = intersect(searchLanguage("'"), searchLanguage("[\\d]$"));
  EXPECT_TRUE(equivalentTo(Solutions[0].V2, Expected));

  checkSatisfying(Solutions, C1, C2, C3);
  checkAllSolutions(Solutions, C1, C2, C3);
}

TEST(ConcatIntersectTest, UnsatisfiableWhenIntersectionEmpty) {
  // c1.c2 contains only "ab"; c3 excludes it.
  auto Solutions = concatIntersect(Nfa::literal("a"), Nfa::literal("b"),
                                   Nfa::literal("xy"));
  EXPECT_TRUE(Solutions.empty());
}

TEST(ConcatIntersectTest, SigmaStarOperandsAreMaximal) {
  // v1, v2 unconstrained; v1.v2 must contain an 'x'.
  Nfa C3 = searchLanguage("x");
  auto Solutions =
      concatIntersect(Nfa::sigmaStar(), Nfa::sigmaStar(), C3);
  checkSatisfying(Solutions, Nfa::sigmaStar(), Nfa::sigmaStar(), C3);
  checkAllSolutions(Solutions, Nfa::sigmaStar(), Nfa::sigmaStar(), C3);
  // Maximality spot-check: some solution assigns all of Sigma*x Sigma* to
  // one side.
  bool FoundMaximal = false;
  for (const CiAssignment &A : Solutions)
    if (equivalentTo(A.V1, C3) || equivalentTo(A.V2, C3))
      FoundMaximal = true;
  EXPECT_TRUE(FoundMaximal);
}

TEST(ConcatIntersectTest, DisjunctiveSolutionsFromAmbiguousSplit) {
  // c1 = a*, c2 = a*, c3 = aa: the split can happen after 0, 1, or 2 a's.
  Nfa AStar = star(Nfa::literal("a"));
  Nfa C3 = Nfa::literal("aa");
  auto Solutions = concatIntersect(AStar, AStar, C3);
  ASSERT_FALSE(Solutions.empty());
  checkSatisfying(Solutions, AStar, AStar, C3);
  checkAllSolutions(Solutions, AStar, AStar, C3);
}

TEST(ConcatIntersectTest, MaxSolutionsStopsEarly) {
  Nfa AStar = star(Nfa::literal("a"));
  Nfa C3 = regexLanguage("a{0,6}");
  auto All = concatIntersect(AStar, AStar, C3);
  auto First = concatIntersect(AStar, AStar, C3, 1);
  EXPECT_GE(All.size(), First.size());
  EXPECT_EQ(First.size(), 1u);
  checkSatisfying(First, AStar, AStar, C3);
}

TEST(ConcatIntersectTest, EmptyConstantYieldsNoSolutions) {
  auto Solutions = concatIntersect(Nfa::emptyLanguage(), Nfa::sigmaStar(),
                                   Nfa::sigmaStar());
  EXPECT_TRUE(Solutions.empty());
}

TEST(ConcatIntersectTest, EpsilonOnlySolution) {
  // c1 = c2 = c3 = epsilon: unique solution v1 = v2 = {""}.
  auto Solutions =
      concatIntersect(Nfa::epsilonLanguage(), Nfa::epsilonLanguage(),
                      Nfa::epsilonLanguage());
  ASSERT_EQ(Solutions.size(), 1u);
  EXPECT_TRUE(equivalentTo(Solutions[0].V1, Nfa::epsilonLanguage()));
  EXPECT_TRUE(equivalentTo(Solutions[0].V2, Nfa::epsilonLanguage()));
}

TEST(ConcatIntersectTest, SolutionsCarryNoMarkers) {
  auto Solutions = concatIntersect(Nfa::literal("a"), Nfa::literal("b"),
                                   Nfa::sigmaStar());
  ASSERT_EQ(Solutions.size(), 1u);
  EXPECT_TRUE(Solutions[0].V1.markersUsed().empty());
  EXPECT_TRUE(Solutions[0].V2.markersUsed().empty());
}

TEST(ConcatIntersectTest, DiagnosticsExposeIntermediateMachines) {
  CiDiagnostics Diags;
  concatIntersect(Nfa::literal("ab"), Nfa::literal("cd"),
                  Nfa::sigmaStar(), SIZE_MAX, &Diags);
  // M4 = c1 . c2 machine built with a single marked epsilon transition
  // (paper Figure 3 line 6).
  EXPECT_EQ(Diags.M4.markerInstances(0).size(), 1u);
  EXPECT_TRUE(Diags.M5.accepts("abcd"));
  EXPECT_EQ(Diags.CandidatePairs, 1u);
}

TEST(ConcatIntersectTest, CoverageWithStructuredConstraint) {
  // c1 = [ab]*, c2 = [ab]*, c3 = strings with exactly one 'b'.
  Nfa C1 = star(Nfa::fromCharSet(CharSet::fromString("ab")));
  Nfa C3 = regexLanguage("a*ba*");
  auto Solutions = concatIntersect(C1, C1, C3);
  checkSatisfying(Solutions, C1, C1, C3);
  checkAllSolutions(Solutions, C1, C1, C3);
  // Two essentially different splits: the 'b' goes left or right.
  EXPECT_GE(Solutions.size(), 2u);
}
