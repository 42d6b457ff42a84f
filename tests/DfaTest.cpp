//===- DfaTest.cpp - Unit tests for determinization and minimization ------===//

#include "automata/Dfa.h"
#include "automata/Decide.h"
#include "automata/NfaOps.h"

#include <gtest/gtest.h>

using namespace dprle;

TEST(AlphabetPartitionTest, TrivialPartitionHasOneClass) {
  AlphabetPartition P;
  EXPECT_EQ(P.numClasses(), 1u);
  EXPECT_EQ(P.classOf('a'), P.classOf('z'));
}

TEST(AlphabetPartitionTest, RefinesByTransitionLabels) {
  Nfa M = Nfa::fromCharSet(CharSet::range('a', 'f'));
  AlphabetPartition P = AlphabetPartition::compute(M);
  EXPECT_EQ(P.numClasses(), 2u);
  EXPECT_EQ(P.classOf('a'), P.classOf('f'));
  EXPECT_NE(P.classOf('a'), P.classOf('z'));
}

TEST(AlphabetPartitionTest, OverlappingLabelsSplitFiner) {
  Nfa M;
  StateId B = M.addState();
  M.addTransition(M.start(), CharSet::range('a', 'm'), B);
  M.addTransition(M.start(), CharSet::range('g', 'z'), B);
  M.setAccepting(B);
  AlphabetPartition P = AlphabetPartition::compute(M);
  // Classes: [a-f], [g-m], [n-z], rest.
  EXPECT_EQ(P.numClasses(), 4u);
  EXPECT_EQ(P.classOf('a'), P.classOf('f'));
  EXPECT_EQ(P.classOf('g'), P.classOf('m'));
  EXPECT_NE(P.classOf('a'), P.classOf('g'));
  EXPECT_NE(P.classOf('g'), P.classOf('n'));
}

TEST(DfaTest, DeterminizePreservesMembership) {
  Nfa M = alternate(Nfa::literal("ab"), star(Nfa::literal("a")));
  Dfa D = determinize(M);
  for (const char *S : {"", "a", "aa", "ab", "aab", "b", "aba"})
    EXPECT_EQ(D.accepts(S), M.accepts(S)) << S;
}

TEST(DfaTest, DeterminizeHandlesEpsilonCycles) {
  Nfa M;
  StateId B = M.addState();
  M.addEpsilon(M.start(), B);
  M.addEpsilon(B, M.start());
  M.addTransition(B, CharSet::singleton('x'), B);
  M.setAccepting(B);
  Dfa D = determinize(M);
  EXPECT_TRUE(D.accepts(""));
  EXPECT_TRUE(D.accepts("xxx"));
  EXPECT_FALSE(D.accepts("y"));
}

TEST(DfaTest, ComplementedFlipsAcceptance) {
  Dfa D = determinize(Nfa::literal("hi"));
  Dfa C = D.complemented();
  EXPECT_FALSE(C.accepts("hi"));
  EXPECT_TRUE(C.accepts(""));
  EXPECT_TRUE(C.accepts("high"));
}

TEST(DfaTest, LanguageIsEmpty) {
  EXPECT_TRUE(determinize(Nfa::emptyLanguage()).languageIsEmpty());
  EXPECT_FALSE(determinize(Nfa::epsilonLanguage()).languageIsEmpty());
}

TEST(DfaTest, ToNfaRoundTrips) {
  Nfa M = alternate(Nfa::literal("foo"), plus(Nfa::literal("ba")));
  Nfa Round = determinize(M).toNfa();
  EXPECT_TRUE(equivalentTo(M, Round));
}

TEST(DfaTest, MinimizedIsSmallerOrEqualAndEquivalent) {
  // (a|b)(a|b) built redundantly.
  Nfa AB = Nfa::fromCharSet(CharSet::fromString("ab"));
  Nfa M = alternate(concat(Nfa::literal("a"), AB),
                    concat(Nfa::literal("b"), AB));
  Dfa D = determinize(M);
  Dfa Min = D.minimized();
  EXPECT_LE(Min.numStates(), D.numStates());
  EXPECT_TRUE(equivalentTo(Min.toNfa(), M));
  // The minimal complete DFA for exactly-two-symbols-of{a,b} has 4 states:
  // lengths 0,1,2 and the dead state.
  EXPECT_EQ(Min.numStates(), 4u);
}

TEST(DfaTest, MinimizedCanonicalSizeForFiniteLanguage) {
  // L = {a, b}: minimal complete DFA has 3 states (start, accept, dead).
  Nfa M = alternate(Nfa::literal("a"), Nfa::literal("b"));
  EXPECT_EQ(determinize(M).minimized().numStates(), 3u);
}

TEST(DfaTest, MinimizeSigmaStar) {
  Dfa Min = determinize(Nfa::sigmaStar()).minimized();
  EXPECT_EQ(Min.numStates(), 1u);
  EXPECT_TRUE(Min.isAccepting(Min.start()));
}

TEST(DfaTest, MinimizeEmptyLanguage) {
  Dfa Min = determinize(Nfa::emptyLanguage()).minimized();
  EXPECT_EQ(Min.numStates(), 1u);
  EXPECT_TRUE(Min.languageIsEmpty());
}

TEST(DfaTest, MinimizeMergesNondistinguishableStates) {
  // a(c|d) | b(c|d): the states after 'a' and after 'b' are equivalent.
  Nfa CD = Nfa::fromCharSet(CharSet::fromString("cd"));
  Nfa M = alternate(concat(Nfa::literal("a"), CD),
                    concat(Nfa::literal("b"), CD));
  Dfa Min = determinize(M).minimized();
  // start, merged-middle, accept, dead.
  EXPECT_EQ(Min.numStates(), 4u);
  EXPECT_TRUE(Min.accepts("ac"));
  EXPECT_TRUE(Min.accepts("bd"));
  EXPECT_FALSE(Min.accepts("ab"));
}
