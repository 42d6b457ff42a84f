//===- AutomataExtraTest.cpp - Additional automata coverage ---------------===//
//
// Direct coverage for epsilon elimination, operation accounting, shared
// alphabet partitions, and miscellaneous Nfa behaviours the main suites
// exercise only indirectly.
//
//===----------------------------------------------------------------------===//

#include "automata/NfaOps.h"
#include "automata/Decide.h"
#include "automata/OpStats.h"
#include "regex/RegexCompiler.h"

#include <gtest/gtest.h>

using namespace dprle;

TEST(EpsilonEliminationTest, PreservesLanguage) {
  for (const char *Pattern :
       {"a*", "(ab|cd)+", "a?b?c?", "x{0,4}", "(a|)(b|)"}) {
    Nfa M = regexLanguage(Pattern);
    Nfa E = M.withoutEpsilonTransitions();
    EXPECT_EQ(E.numEpsilonTransitions(), 0u) << Pattern;
    EXPECT_TRUE(equivalentTo(M, E)) << Pattern;
  }
}

TEST(EpsilonEliminationTest, EmptyAndEpsilonLanguages) {
  Nfa Empty = Nfa::emptyLanguage().withoutEpsilonTransitions();
  EXPECT_TRUE(Empty.languageIsEmpty());
  Nfa Eps = Nfa::epsilonLanguage().withoutEpsilonTransitions();
  EXPECT_TRUE(Eps.accepts(""));
  EXPECT_FALSE(Eps.accepts("a"));
}

TEST(EpsilonEliminationTest, EpsilonCycles) {
  Nfa M;
  StateId B = M.addState();
  M.addEpsilon(M.start(), B);
  M.addEpsilon(B, M.start());
  M.addTransition(B, CharSet::singleton('z'), B);
  M.setAccepting(B);
  Nfa E = M.withoutEpsilonTransitions();
  EXPECT_EQ(E.numEpsilonTransitions(), 0u);
  EXPECT_TRUE(E.accepts(""));
  EXPECT_TRUE(E.accepts("zz"));
}

TEST(OpStatsTest, ProductVisitsAreCounted) {
  OpStats &Stats = OpStats::global();
  Stats.reset();
  EXPECT_EQ(Stats.totalStatesVisited(), 0u);
  Nfa M = intersect(Nfa::literal("abc"), Nfa::sigmaStar());
  EXPECT_GT(Stats.ProductStatesVisited, 0u);
  EXPECT_EQ(Stats.ProductStatesVisited, M.numStates());
}

TEST(OpStatsTest, DeterminizeVisitsAreCounted) {
  OpStats &Stats = OpStats::global();
  Stats.reset();
  determinize(regexLanguage("(a|b)*abb"));
  EXPECT_GT(Stats.DeterminizeStatesVisited, 0u);
}

TEST(AlphabetPartitionTest, SharedPartitionCoversBothMachines) {
  Nfa A = Nfa::fromCharSet(CharSet::range('a', 'm'));
  Nfa B = Nfa::fromCharSet(CharSet::range('g', 'z'));
  AlphabetPartition P = AlphabetPartition::compute(A, &B);
  // Classes must separate [a-f], [g-m], [n-z], and the rest.
  EXPECT_EQ(P.numClasses(), 4u);
  EXPECT_NE(P.classOf('a'), P.classOf('h'));
  EXPECT_NE(P.classOf('h'), P.classOf('p'));
}

TEST(NfaExtraTest, ReversedMultiAccepting) {
  Nfa M = alternate(Nfa::literal("ab"), Nfa::literal("xyz"));
  Nfa R = M.reversed();
  EXPECT_TRUE(R.accepts("ba"));
  EXPECT_TRUE(R.accepts("zyx"));
  EXPECT_FALSE(R.accepts("ab"));
  EXPECT_TRUE(equivalentTo(R.reversed(), M));
}

TEST(NfaExtraTest, SingleAcceptingPreservesMarkers) {
  Nfa M = concat(Nfa::literal("a"), alternate(Nfa::literal("b"),
                                              Nfa::literal("c")),
                 9);
  Nfa N = M.withSingleAccepting();
  EXPECT_EQ(N.numAccepting(), 1u);
  EXPECT_EQ(N.markerInstances(9).size(), M.markerInstances(9).size());
  EXPECT_TRUE(equivalentTo(M, N));
}

TEST(NfaExtraTest, InducedMachinesShareStructure) {
  // induce_from_final keeps all states; only acceptance changes.
  Nfa M = Nfa::literal("abcd");
  Nfa I = M.inducedFromFinal(2);
  EXPECT_EQ(I.numStates(), M.numStates());
  EXPECT_TRUE(I.accepts("ab"));
  EXPECT_FALSE(I.accepts("abcd"));
}

TEST(NfaExtraTest, AcceptsOnLongInputs) {
  Nfa M = star(regexLanguage("ab|ba"));
  std::string Input;
  for (int I = 0; I != 500; ++I)
    Input += (I % 2) ? "ba" : "ab";
  EXPECT_TRUE(M.accepts(Input));
  Input += "a";
  EXPECT_FALSE(M.accepts(Input));
}

TEST(NfaExtraTest, TrimKeepsMarkersOnUsefulPaths) {
  Nfa M = concat(Nfa::literal("a"), Nfa::literal("b"), 3);
  StateId Dead = M.addState();
  M.addEpsilon(M.start(), Dead, 3); // marked epsilon into a dead state
  Nfa T = M.trimmed();
  // Only the useful instance survives.
  EXPECT_EQ(T.markerInstances(3).size(), 1u);
}

TEST(QuotientExtraTest, QuotientByEmptyLanguageIsEmpty) {
  Nfa K = regexLanguage("a+");
  EXPECT_TRUE(rightQuotient(K, Nfa::emptyLanguage()).languageIsEmpty());
  EXPECT_TRUE(leftQuotient(Nfa::emptyLanguage(), K).languageIsEmpty());
}

TEST(QuotientExtraTest, SigmaStarQuotients) {
  Nfa K = regexLanguage("ab*c");
  // Right quotient by Sigma-star: all prefixes of members.
  Nfa Prefixes = rightQuotient(K, Nfa::sigmaStar());
  EXPECT_TRUE(Prefixes.accepts(""));
  EXPECT_TRUE(Prefixes.accepts("ab"));
  EXPECT_TRUE(Prefixes.accepts("abc"));
  EXPECT_FALSE(Prefixes.accepts("b"));
  // Left quotient by Sigma-star: all suffixes.
  Nfa Suffixes = leftQuotient(Nfa::sigmaStar(), K);
  EXPECT_TRUE(Suffixes.accepts(""));
  EXPECT_TRUE(Suffixes.accepts("bbc"));
  EXPECT_TRUE(Suffixes.accepts("c"));
  EXPECT_FALSE(Suffixes.accepts("a"));
}
