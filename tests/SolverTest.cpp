//===- SolverTest.cpp - End-to-end decision-procedure tests ---------------===//
//
// Covers the worked examples of paper Sections 2, 3.1.1, and 3.4, plus
// satisfiability corner cases of the Figure 7 worklist algorithm.
//
//===----------------------------------------------------------------------===//

#include "solver/Solver.h"
#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "regex/RegexCompiler.h"

#include <gtest/gtest.h>

using namespace dprle;

TEST(SolverTest, Paper311UniqueSolution) {
  // v1 <= (xx)+y, v1 <= x*y. The correct satisfying assignment is
  // [v1 -> L((xx)+y)] (paper Section 3.1.1).
  Problem P;
  VarId V1 = P.addVariable("v1");
  P.addConstraint({P.var(V1)}, regexLanguage("(xx)+y"));
  P.addConstraint({P.var(V1)}, regexLanguage("x*y"));
  SolveResult R = Solver().solve(P);
  ASSERT_TRUE(R.Satisfiable);
  ASSERT_EQ(R.Assignments.size(), 1u);
  EXPECT_TRUE(
      equivalentTo(R.Assignments[0].language(V1), regexLanguage("(xx)+y")));
}

TEST(SolverTest, Paper311DisjunctiveSolutions) {
  // v1 <= x(yy)+, v2 <= (yy)*z, v1.v2 <= xyyz|xyyyyz.
  // Two disjunctive assignments (paper Section 3.1.1):
  //   A1 = [v1 -> xyy,          v2 -> z|yyz]
  //   A2 = [v1 -> x(yy|yyyy),   v2 -> z]
  Problem P;
  VarId V1 = P.addVariable("v1");
  VarId V2 = P.addVariable("v2");
  Nfa C1 = regexLanguage("x(yy)+");
  Nfa C2 = regexLanguage("(yy)*z");
  Nfa C3 = regexLanguage("xyyz|xyyyyz");
  P.addConstraint({P.var(V1)}, C1);
  P.addConstraint({P.var(V2)}, C2);
  P.addConstraint({P.var(V1), P.var(V2)}, C3);

  SolveResult R = Solver().solve(P);
  ASSERT_TRUE(R.Satisfiable);
  ASSERT_EQ(R.Assignments.size(), 2u);

  bool FoundA1 = false, FoundA2 = false;
  for (const Assignment &A : R.Assignments) {
    EXPECT_TRUE(subsetOf(A.language(V1), C1));
    EXPECT_TRUE(subsetOf(A.language(V2), C2));
    EXPECT_TRUE(subsetOf(concat(A.language(V1), A.language(V2)), C3));
    if (equivalentTo(A.language(V1), regexLanguage("xyy")) &&
        equivalentTo(A.language(V2), regexLanguage("z|yyz")))
      FoundA1 = true;
    if (equivalentTo(A.language(V1), regexLanguage("x(yy|yyyy)")) &&
        equivalentTo(A.language(V2), regexLanguage("z")))
      FoundA2 = true;
  }
  EXPECT_TRUE(FoundA1);
  EXPECT_TRUE(FoundA2);
}

TEST(SolverTest, MotivatingExampleProducesExploit) {
  // Paper Section 2 as an RMA instance: the user input v1 must pass the
  // faulty filter and, prefixed with "nid_", reach the SQL sink with a
  // quote. (The paper phrases this as v1 <= c1, c2.v1 <= c3.)
  Problem P;
  VarId V1 = P.addVariable("posted_newsid");
  P.addConstraint({P.var(V1)}, searchLanguage("[\\d]+$"), "filter");
  P.addConstraint({P.constant(Nfa::literal("nid_"), "prefix"), P.var(V1)},
                  searchLanguage("'"), "attack");

  SolveResult R = Solver().solve(P);
  ASSERT_TRUE(R.Satisfiable);
  ASSERT_EQ(R.Assignments.size(), 1u);
  const Assignment &A = R.Assignments.front();

  // The solution: all strings that contain a quote and end with a digit.
  Nfa Expected =
      intersect(searchLanguage("'"), searchLanguage("[\\d]+$"));
  EXPECT_TRUE(equivalentTo(A.language(V1), Expected));

  // A concrete exploit witness exists, contains a quote, ends in a digit,
  // and passes the faulty filter.
  auto Witness = A.witness(V1);
  ASSERT_TRUE(Witness.has_value());
  EXPECT_NE(Witness->find('\''), std::string::npos);
  EXPECT_TRUE(isdigit(static_cast<unsigned char>(Witness->back())));
  EXPECT_TRUE(searchLanguage("[\\d]+$").accepts(*Witness));
}

TEST(SolverTest, FixedFilterIsUnsatisfiable) {
  // With the intended filter /^[\d]+$/ the attack is impossible; the
  // solver must report no assignments — "there is no bug" (paper §2).
  Problem P;
  VarId V1 = P.addVariable("posted_newsid");
  P.addConstraint({P.var(V1)}, searchLanguage("^[\\d]+$"));
  P.addConstraint({P.constant(Nfa::literal("nid_")), P.var(V1)},
                  searchLanguage("'"));
  SolveResult R = Solver().solve(P);
  EXPECT_FALSE(R.Satisfiable);
  EXPECT_TRUE(R.Assignments.empty());
}

TEST(SolverTest, UnconstrainedVariableIsSigmaStar) {
  Problem P;
  VarId V = P.addVariable("v");
  (void)V;
  // Constrain a different variable so the instance is non-trivial.
  VarId W = P.addVariable("w");
  P.addConstraint({P.var(W)}, Nfa::literal("x"));
  SolveResult R = Solver().solve(P);
  ASSERT_TRUE(R.Satisfiable);
  EXPECT_TRUE(equivalentTo(R.Assignments[0].language(V), Nfa::sigmaStar()));
  EXPECT_TRUE(equivalentTo(R.Assignments[0].language(W), Nfa::literal("x")));
}

TEST(SolverTest, FreeVariableIntersectsAllConstraints) {
  Problem P;
  VarId V = P.addVariable("v");
  P.addConstraint({P.var(V)}, regexLanguage("[ab]+"));
  P.addConstraint({P.var(V)}, regexLanguage("[bc]+"));
  SolveResult R = Solver().solve(P);
  ASSERT_TRUE(R.Satisfiable);
  EXPECT_TRUE(
      equivalentTo(R.Assignments[0].language(V), regexLanguage("b+")));
}

TEST(SolverTest, EmptyFreeVariableMeansUnsat) {
  Problem P;
  VarId V = P.addVariable("v");
  P.addConstraint({P.var(V)}, Nfa::literal("a"));
  P.addConstraint({P.var(V)}, Nfa::literal("b"));
  SolveResult R = Solver().solve(P);
  EXPECT_FALSE(R.Satisfiable);
}

TEST(SolverTest, ConstantOnlyConstraintChecked) {
  // "ab" <= a* is false: immediately unsatisfiable.
  Problem P;
  P.addVariable("unused");
  P.addConstraint({P.constant(Nfa::literal("ab"))}, regexLanguage("a*"));
  SolveResult R = Solver().solve(P);
  EXPECT_FALSE(R.Satisfiable);

  Problem Q;
  Q.addVariable("unused");
  Q.addConstraint({Q.constant(Nfa::literal("aa"))}, regexLanguage("a*"));
  EXPECT_TRUE(Solver().solve(Q).Satisfiable);
}

TEST(SolverTest, TwoCallSystemFromSection35) {
  // v1 <= c1, v2 <= c2, v3 <= c3, v1.v2 <= c4, v1.v2.v3 <= c5 — the
  // two-concat-intersect example the complexity section walks through.
  Problem P;
  VarId V1 = P.addVariable("v1");
  VarId V2 = P.addVariable("v2");
  VarId V3 = P.addVariable("v3");
  P.addConstraint({P.var(V1)}, regexLanguage("a+"));
  P.addConstraint({P.var(V2)}, regexLanguage("b+"));
  P.addConstraint({P.var(V3)}, regexLanguage("c+"));
  P.addConstraint({P.var(V1), P.var(V2)}, regexLanguage("a{1,2}b{1,2}"));
  P.addConstraint({P.var(V1), P.var(V2), P.var(V3)},
                  regexLanguage("ab+c|aab+c"));

  SolveResult R = Solver().solve(P);
  ASSERT_TRUE(R.Satisfiable);
  for (const Assignment &A : R.Assignments) {
    EXPECT_TRUE(subsetOf(A.language(V1), regexLanguage("a+")));
    EXPECT_TRUE(subsetOf(A.language(V2), regexLanguage("b+")));
    EXPECT_TRUE(subsetOf(A.language(V3), regexLanguage("c+")));
    EXPECT_TRUE(subsetOf(concat(A.language(V1), A.language(V2)),
                         regexLanguage("a{1,2}b{1,2}")));
    EXPECT_TRUE(
        subsetOf(concat(concat(A.language(V1), A.language(V2)),
                        A.language(V3)),
                 regexLanguage("ab+c|aab+c")));
    EXPECT_FALSE(A.language(V1).languageIsEmpty());
  }
  // Point coverage: a.b.c and aa.b.c are both realizable.
  bool CoversSingleA = false, CoversDoubleA = false;
  for (const Assignment &A : R.Assignments) {
    if (A.language(V1).accepts("a") && A.language(V2).accepts("b") &&
        A.language(V3).accepts("c"))
      CoversSingleA = true;
    if (A.language(V1).accepts("aa") && A.language(V2).accepts("b") &&
        A.language(V3).accepts("c"))
      CoversDoubleA = true;
  }
  EXPECT_TRUE(CoversSingleA);
  EXPECT_TRUE(CoversDoubleA);
}

TEST(SolverTest, IndependentGroupsCrossProduct) {
  // Two independent CI-groups, each with >= 1 solution: assignments are
  // combined.
  Problem P;
  VarId A = P.addVariable("a");
  VarId B = P.addVariable("b");
  VarId C = P.addVariable("c");
  VarId D = P.addVariable("d");
  P.addConstraint({P.var(A), P.var(B)}, Nfa::literal("xy"));
  P.addConstraint({P.var(C), P.var(D)}, Nfa::literal("uv"));
  SolveResult R = Solver().solve(P);
  ASSERT_TRUE(R.Satisfiable);
  for (const Assignment &S : R.Assignments) {
    EXPECT_TRUE(subsetOf(concat(S.language(A), S.language(B)),
                         Nfa::literal("xy")));
    EXPECT_TRUE(subsetOf(concat(S.language(C), S.language(D)),
                         Nfa::literal("uv")));
  }
}

TEST(SolverTest, MaxSolutionsReturnsFirstOnly) {
  Problem P;
  VarId V1 = P.addVariable("v1");
  VarId V2 = P.addVariable("v2");
  P.addConstraint({P.var(V1), P.var(V2)}, regexLanguage("a{0,6}"));
  SolverOptions Opts;
  Opts.MaxSolutions = 1;
  SolveResult R = Solver(Opts).solve(P);
  ASSERT_TRUE(R.Satisfiable);
  EXPECT_EQ(R.Assignments.size(), 1u);
}

TEST(SolverTest, StatsArePopulated) {
  Problem P;
  VarId V1 = P.addVariable("v1");
  VarId V2 = P.addVariable("v2");
  P.addConstraint({P.var(V1)}, regexLanguage("a*"));
  P.addConstraint({P.var(V1), P.var(V2)}, regexLanguage("a*b*"));
  SolveResult R = Solver().solve(P);
  ASSERT_TRUE(R.Satisfiable);
  EXPECT_EQ(R.Stats.NumConstraints, 2u);
  EXPECT_EQ(R.Stats.GciGroups, 1u);
  EXPECT_GE(R.Stats.ConcatsBuilt, 1u);
  EXPECT_GT(R.Stats.StatesVisited, 0u);
  EXPECT_GE(R.Stats.SolveSeconds, 0.0);
}

TEST(SolverTest, MinimizeIntermediatesGivesSameAnswers) {
  Problem P;
  VarId V1 = P.addVariable("v1");
  P.addConstraint({P.var(V1)}, searchLanguage("[\\d]+$"));
  P.addConstraint({P.constant(Nfa::literal("nid_")), P.var(V1)},
                  searchLanguage("'"));
  SolverOptions Opts;
  Opts.MinimizeIntermediates = true;
  SolveResult Plain = Solver().solve(P);
  SolveResult Min = Solver(Opts).solve(P);
  ASSERT_EQ(Plain.Satisfiable, Min.Satisfiable);
  ASSERT_EQ(Plain.Assignments.size(), Min.Assignments.size());
  EXPECT_TRUE(equivalentTo(Plain.Assignments[0].language(V1),
                           Min.Assignments[0].language(V1)));
}

TEST(SolverTest, WitnessAndRegexAccessors) {
  Problem P;
  VarId V = P.addVariable("v");
  P.addConstraint({P.var(V)}, Nfa::literal("hello"));
  SolveResult R = Solver().solve(P);
  ASSERT_TRUE(R.Satisfiable);
  EXPECT_EQ(R.Assignments[0].witness(V), "hello");
  Nfa Back = regexLanguage(R.Assignments[0].regexFor(V));
  EXPECT_TRUE(equivalentTo(Back, Nfa::literal("hello")));
}

TEST(SolverTest, PartialSolvingSkipsUnrelatedGroups) {
  // Two independent groups; solving for {a} must not touch {c, d}'s
  // group (observable through ConcatsBuilt) and reports c, d as
  // Sigma-star.
  Problem P;
  VarId A = P.addVariable("a");
  VarId B = P.addVariable("b");
  VarId C = P.addVariable("c");
  VarId D = P.addVariable("d");
  P.addConstraint({P.var(A), P.var(B)}, Nfa::literal("xy"));
  P.addConstraint({P.var(C), P.var(D)}, Nfa::literal("uv"));

  SolveResult Full = Solver().solve(P);
  SolveResult Part = Solver().solveFor(P, {A});
  ASSERT_TRUE(Full.Satisfiable);
  ASSERT_TRUE(Part.Satisfiable);
  EXPECT_LT(Part.Stats.ConcatsBuilt, Full.Stats.ConcatsBuilt);

  // The queried variable is solved exactly as in the full solve.
  bool FoundMatch = false;
  for (const Assignment &FA : Full.Assignments)
    for (const Assignment &PA : Part.Assignments)
      FoundMatch =
          FoundMatch || equivalentTo(FA.language(A), PA.language(A));
  EXPECT_TRUE(FoundMatch);
  // Unqueried variables come back as Sigma-star placeholders.
  EXPECT_TRUE(
      equivalentTo(Part.Assignments[0].language(C), Nfa::sigmaStar()));
}

TEST(SolverTest, PartialSolvingSkipsUnrelatedFreeVariables) {
  Problem P;
  VarId A = P.addVariable("a");
  VarId B = P.addVariable("b");
  P.addConstraint({P.var(A)}, Nfa::literal("x"));
  P.addConstraint({P.var(B)}, Nfa::literal("y"));
  SolveResult R = Solver().solveFor(P, {A});
  ASSERT_TRUE(R.Satisfiable);
  EXPECT_TRUE(equivalentTo(R.Assignments[0].language(A), Nfa::literal("x")));
  EXPECT_TRUE(
      equivalentTo(R.Assignments[0].language(B), Nfa::sigmaStar()));
}

TEST(SolverTest, PartialSolvingStillDetectsQueriedUnsat) {
  Problem P;
  VarId A = P.addVariable("a");
  VarId B = P.addVariable("b");
  P.addConstraint({P.var(A)}, Nfa::literal("x"));
  P.addConstraint({P.var(A)}, Nfa::literal("y")); // UNSAT for a
  P.addConstraint({P.var(B)}, Nfa::literal("z"));
  EXPECT_FALSE(Solver().solveFor(P, {A}).Satisfiable);
  // But solving only for b succeeds: a's conflict is out of scope.
  EXPECT_TRUE(Solver().solveFor(P, {B}).Satisfiable);
}

TEST(SolverTest, EmptyProblemIsTriviallySatisfiable) {
  Problem P;
  SolveResult R = Solver().solve(P);
  EXPECT_TRUE(R.Satisfiable);
  ASSERT_EQ(R.Assignments.size(), 1u);
}
