//===- GciTest.cpp - Generalized concat-intersect tests -------------------===//
//
// Exercises the gci procedure of paper Figure 8, in particular the worked
// example of Section 3.4.4 (Figures 9 and 10) and the operation-ordering
// invariant discussed around Figure 6.
//
//===----------------------------------------------------------------------===//

#include "solver/Gci.h"
#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "regex/RegexCompiler.h"
#include "solver/DependencyGraph.h"

#include <gtest/gtest.h>

using namespace dprle;

namespace {

/// Runs gci over the single group of \p P and returns the solutions.
GciResult solveSingleGroup(const Problem &P, const GciOptions &Opts = {}) {
  DependencyGraph G = DependencyGraph::build(P);
  auto Groups = G.ciGroups();
  EXPECT_EQ(Groups.size(), 1u);
  return solveCiGroup(G, Groups.front(), Opts);
}

} // namespace

TEST(GciTest, PaperFigure9TwoSolutionsFromFourCandidates) {
  // va <= o(pp)+, vb <= p*(qq)+, vc <= q*r,
  // va.vb <= op5q*, vb.vc <= p*q4r  (paper Section 3.4.4).
  Problem P;
  VarId Va = P.addVariable("va");
  VarId Vb = P.addVariable("vb");
  VarId Vc = P.addVariable("vc");
  Nfa CVa = regexLanguage("o(pp)+");
  Nfa CVb = regexLanguage("p*(qq)+");
  Nfa CVc = regexLanguage("q*r");
  Nfa C1 = regexLanguage("op{5}q*");
  Nfa C2 = regexLanguage("p*q{4}r");
  P.addConstraint({P.var(Va)}, CVa);
  P.addConstraint({P.var(Vb)}, CVb);
  P.addConstraint({P.var(Vc)}, CVc);
  P.addConstraint({P.var(Va), P.var(Vb)}, C1, "c1");
  P.addConstraint({P.var(Vb), P.var(Vc)}, C2, "c2");

  DependencyGraph G = DependencyGraph::build(P);
  auto Groups = G.ciGroups();
  ASSERT_EQ(Groups.size(), 1u);
  GciResult R = solveCiGroup(G, Groups.front());

  // "This yields a total of 2 x 2 candidate solutions."
  EXPECT_EQ(R.CombinationsTried, 4u);
  // The paper reports two satisfying assignments. Every one of the four
  // candidate combinations is in fact satisfying AND maximal under the
  // paper's own Section 3.1 definition (checked below and recorded in
  // EXPERIMENTS.md): the two extra assignments are
  //   [va -> op2, vb -> p3q4, vc -> r] and [va -> op4, vb -> pq4, vc -> r].
  // We therefore require at least the paper's two and at most four.
  ASSERT_GE(R.Solutions.size(), 2u);
  ASSERT_LE(R.Solutions.size(), 4u);

  // Every solution must satisfy all five constraints and be maximal:
  // extending any variable with any length-bounded candidate string must
  // break some constraint.
  NodeId NVa = G.nodeForVariable(Va), NVb = G.nodeForVariable(Vb),
         NVc = G.nodeForVariable(Vc);
  for (const auto &S : R.Solutions) {
    EXPECT_TRUE(subsetOf(S.at(NVa), CVa));
    EXPECT_TRUE(subsetOf(S.at(NVb), CVb));
    EXPECT_TRUE(subsetOf(S.at(NVc), CVc));
    EXPECT_TRUE(subsetOf(concat(S.at(NVa), S.at(NVb)), C1));
    EXPECT_TRUE(subsetOf(concat(S.at(NVb), S.at(NVc)), C2));

    for (const std::string &W : enumerateStrings(CVa, 8)) {
      if (S.at(NVa).accepts(W))
        continue;
      Nfa Extended = alternate(S.at(NVa), Nfa::literal(W));
      EXPECT_FALSE(subsetOf(concat(Extended, S.at(NVb)), C1))
          << "va extendable with " << W;
    }
    for (const std::string &W : enumerateStrings(CVb, 8)) {
      if (S.at(NVb).accepts(W))
        continue;
      Nfa Extended = alternate(S.at(NVb), Nfa::literal(W));
      bool StillOk = subsetOf(concat(S.at(NVa), Extended), C1) &&
                     subsetOf(concat(Extended, S.at(NVc)), C2);
      EXPECT_FALSE(StillOk) << "vb extendable with " << W;
    }
    for (const std::string &W : enumerateStrings(CVc, 8)) {
      if (S.at(NVc).accepts(W))
        continue;
      Nfa Extended = alternate(S.at(NVc), Nfa::literal(W));
      EXPECT_FALSE(subsetOf(concat(S.at(NVb), Extended), C2))
          << "vc extendable with " << W;
    }
  }

  // Paper solution 1: va=op2, vb=p3q2, vc=q2r.
  // Paper solution 2: va=op4, vb=pq2, vc=q2r.
  bool Found1 = false, Found2 = false;
  for (const auto &S : R.Solutions) {
    if (equivalentTo(S.at(NVa), Nfa::literal("opp")) &&
        equivalentTo(S.at(NVb), Nfa::literal("pppqq")) &&
        equivalentTo(S.at(NVc), Nfa::literal("qqr")))
      Found1 = true;
    if (equivalentTo(S.at(NVa), Nfa::literal("opppp")) &&
        equivalentTo(S.at(NVb), Nfa::literal("pqq")) &&
        equivalentTo(S.at(NVc), Nfa::literal("qqr")))
      Found2 = true;
  }
  EXPECT_TRUE(Found1);
  EXPECT_TRUE(Found2);
}

TEST(GciTest, OperationOrderingInvariant) {
  // The Figure 6 discussion: with v1 <= nid_, v2 unconstrained-but-
  // filtered, t0 <= Sigma*'Sigma*, the correct language for v2 is
  // Sigma*'Sigma*[0-9] — NOT the plain filter language c2, which a wrong
  // concat-before-subset ordering would produce.
  Problem P;
  VarId V1 = P.addVariable("v1");
  VarId V2 = P.addVariable("v2");
  Nfa C1 = Nfa::literal("nid_");
  Nfa C2 = searchLanguage("[\\d]$");
  Nfa C3 = searchLanguage("'");
  P.addConstraint({P.var(V1)}, C1);
  P.addConstraint({P.var(V2)}, C2);
  P.addConstraint({P.var(V1), P.var(V2)}, C3);

  DependencyGraph G = DependencyGraph::build(P);
  GciResult R = solveCiGroup(G, G.ciGroups().front());
  ASSERT_EQ(R.Solutions.size(), 1u);
  const auto &S = R.Solutions.front();
  Nfa Expected = intersect(searchLanguage("'"), searchLanguage("[\\d]$"));
  EXPECT_TRUE(equivalentTo(S.at(G.nodeForVariable(V2)), Expected));
  EXPECT_TRUE(equivalentTo(S.at(G.nodeForVariable(V1)), C1));
}

TEST(GciTest, NestedConcatenationSharesOneRootMachine) {
  // (v1 . v2) . v3 <= c4 — the paper's "several concatenations tall" case:
  // the final subset can affect all of v1, v2, v3.
  Problem P;
  VarId V1 = P.addVariable("v1");
  VarId V2 = P.addVariable("v2");
  VarId V3 = P.addVariable("v3");
  Nfa C4 = Nfa::literal("abc");
  P.addConstraint({P.var(V1), P.var(V2), P.var(V3)}, C4);

  GciResult R = solveSingleGroup(P);
  ASSERT_FALSE(R.Solutions.empty());
  DependencyGraph G = DependencyGraph::build(P);
  for (const auto &S : R.Solutions) {
    Nfa Whole = concat(concat(S.at(G.nodeForVariable(V1)),
                              S.at(G.nodeForVariable(V2))),
                       S.at(G.nodeForVariable(V3)));
    EXPECT_TRUE(subsetOf(Whole, C4));
  }
  // Splits of "abc" into three parts: 4-choose-2 with repetition = 10
  // epsilon-pair combinations, but some collapse; all solutions must
  // jointly cover every split. Check coverage of a few point splits.
  auto Covers = [&](const char *A, const char *B, const char *C) {
    for (const auto &S : R.Solutions)
      if (S.at(G.nodeForVariable(V1)).accepts(A) &&
          S.at(G.nodeForVariable(V2)).accepts(B) &&
          S.at(G.nodeForVariable(V3)).accepts(C))
        return true;
    return false;
  };
  EXPECT_TRUE(Covers("a", "b", "c"));
  EXPECT_TRUE(Covers("", "abc", ""));
  EXPECT_TRUE(Covers("ab", "", "c"));
  EXPECT_TRUE(Covers("abc", "", ""));
}

TEST(GciTest, RepeatedVariableInOneConcatMustBeConsistent) {
  // v . v <= ab|ba|aa: v must satisfy both operand positions at once.
  Problem P;
  VarId V = P.addVariable("v");
  Nfa C = regexLanguage("ab|ba|aa");
  P.addConstraint({P.var(V), P.var(V)}, C);
  GciResult R = solveSingleGroup(P);
  ASSERT_FALSE(R.Solutions.empty());
  DependencyGraph G = DependencyGraph::build(P);
  for (const auto &S : R.Solutions) {
    const Nfa &L = S.at(G.nodeForVariable(V));
    EXPECT_TRUE(subsetOf(concat(L, L), C));
    EXPECT_FALSE(L.languageIsEmpty());
  }
  // "aa" = "a"."a" must be covered by some solution with v accepting "a".
  bool CoversA = false;
  for (const auto &S : R.Solutions)
    if (S.at(G.nodeForVariable(V)).accepts("a"))
      CoversA = true;
  EXPECT_TRUE(CoversA);
}

TEST(GciTest, UnsatisfiableGroupReturnsNoSolutions) {
  // v1 <= a+, v2 <= b+, v1.v2 <= c+ — incompatible.
  Problem P;
  VarId V1 = P.addVariable("v1");
  VarId V2 = P.addVariable("v2");
  P.addConstraint({P.var(V1)}, regexLanguage("a+"));
  P.addConstraint({P.var(V2)}, regexLanguage("b+"));
  P.addConstraint({P.var(V1), P.var(V2)}, regexLanguage("c+"));
  GciResult R = solveSingleGroup(P);
  EXPECT_TRUE(R.Solutions.empty());
}

TEST(GciTest, MaxSolutionsShortCircuits) {
  Problem P;
  VarId V1 = P.addVariable("v1");
  VarId V2 = P.addVariable("v2");
  P.addConstraint({P.var(V1), P.var(V2)}, regexLanguage("a{0,8}"));
  GciOptions Opts;
  Opts.MaxSolutions = 1;
  GciResult R = solveSingleGroup(P, Opts);
  EXPECT_EQ(R.Solutions.size(), 1u);
}

TEST(GciTest, ConstantOperandReceivesNoSolutionEntry) {
  Problem P;
  VarId V = P.addVariable("v");
  P.addConstraint({P.constant(Nfa::literal("nid_"), "prefix"), P.var(V)},
                  searchLanguage("'"));
  GciResult R = solveSingleGroup(P);
  ASSERT_EQ(R.Solutions.size(), 1u);
  DependencyGraph G = DependencyGraph::build(P);
  // Only the variable appears in the solution map.
  EXPECT_EQ(R.Solutions.front().size(), 1u);
  EXPECT_TRUE(R.Solutions.front().count(G.nodeForVariable(V)));
}

TEST(GciTest, ConstantOperandSplitIsVerifiedAway) {
  // (a|') . v <= contains-quote. The constant's two strings reach
  // different attack-automaton states at the boundary; the candidate from
  // the post-quote instance would assign v = Sigma*, which does NOT
  // satisfy the constraint ("a" . "x" lacks a quote). Verification must
  // reject it and keep only v = contains-quote.
  Problem P;
  VarId V = P.addVariable("v");
  Nfa Const = alternate(Nfa::literal("a"), Nfa::literal("'"));
  Nfa Attack = searchLanguage("'");
  P.addConstraint({P.constant(Const, "split"), P.var(V)}, Attack);

  GciResult R = solveSingleGroup(P);
  DependencyGraph G = DependencyGraph::build(P);
  EXPECT_GE(R.CombinationsRejectedByVerification, 1u);
  ASSERT_EQ(R.Solutions.size(), 1u);
  const Nfa &L = R.Solutions.front().at(G.nodeForVariable(V));
  EXPECT_TRUE(subsetOf(concat(Const, L), Attack));
  EXPECT_TRUE(equivalentTo(L, Attack));
}

TEST(GciTest, BaseLanguageOverridesVariableStart) {
  // solveCiGroup's BaseLanguage parameter narrows a variable below
  // Sigma-star before processing (used for worklist-style re-solving).
  Problem P;
  VarId V1 = P.addVariable("v1");
  VarId V2 = P.addVariable("v2");
  P.addConstraint({P.var(V1), P.var(V2)}, regexLanguage("a*b*"));
  DependencyGraph G = DependencyGraph::build(P);
  auto Groups = G.ciGroups();
  ASSERT_EQ(Groups.size(), 1u);

  std::map<NodeId, Nfa> Base;
  Base.emplace(G.nodeForVariable(V1), regexLanguage("aa"));
  GciResult R = solveCiGroup(G, Groups.front(), {}, &Base);
  ASSERT_FALSE(R.Solutions.empty());
  for (const auto &S : R.Solutions)
    EXPECT_TRUE(
        subsetOf(S.at(G.nodeForVariable(V1)), regexLanguage("aa")));
}

TEST(GciTest, ThreeDeepNestingWithSharedVariable) {
  // (v . v) . v <= c: one variable, three occurrences, two temps.
  Problem P;
  VarId V = P.addVariable("v");
  Nfa C = regexLanguage("a{3}|a{6}");
  P.addConstraint({P.var(V), P.var(V), P.var(V)}, C);
  GciResult R = solveSingleGroup(P);
  ASSERT_FALSE(R.Solutions.empty());
  DependencyGraph G = DependencyGraph::build(P);
  for (const auto &S : R.Solutions) {
    const Nfa &L = S.at(G.nodeForVariable(V));
    EXPECT_TRUE(subsetOf(concat(concat(L, L), L), C));
  }
  // v = {a} (a.a.a = a^3) and v = {aa} (a^6) must both be covered.
  bool CoversA = false, CoversAA = false;
  for (const auto &S : R.Solutions) {
    CoversA = CoversA || S.at(G.nodeForVariable(V)).accepts("a");
    CoversAA = CoversAA || S.at(G.nodeForVariable(V)).accepts("aa");
  }
  EXPECT_TRUE(CoversA);
  EXPECT_TRUE(CoversAA);
}

TEST(GciTest, MinimizeIntermediatesPreservesSolutions) {
  Problem P;
  VarId V1 = P.addVariable("v1");
  VarId V2 = P.addVariable("v2");
  P.addConstraint({P.var(V1)}, searchLanguage("[\\d]$"));
  P.addConstraint({P.var(V1), P.var(V2)}, searchLanguage("'"));
  GciOptions Plain, Minimizing;
  Minimizing.MinimizeIntermediates = true;
  GciResult A = solveSingleGroup(P, Plain);
  GciResult B = solveSingleGroup(P, Minimizing);
  ASSERT_EQ(A.Solutions.size(), B.Solutions.size());
  DependencyGraph G = DependencyGraph::build(P);
  for (size_t I = 0; I != A.Solutions.size(); ++I)
    for (VarId V : {V1, V2})
      EXPECT_TRUE(equivalentTo(A.Solutions[I].at(G.nodeForVariable(V)),
                               B.Solutions[I].at(G.nodeForVariable(V))));
}
