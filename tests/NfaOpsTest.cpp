//===- NfaOpsTest.cpp - Unit tests for language operations ----------------===//

#include "automata/Decide.h"
#include "automata/NfaOps.h"

#include <gtest/gtest.h>

using namespace dprle;

TEST(NfaOpsTest, ConcatJoinsLanguages) {
  Nfa M = concat(Nfa::literal("ab"), Nfa::literal("cd"));
  EXPECT_TRUE(M.accepts("abcd"));
  EXPECT_FALSE(M.accepts("ab"));
  EXPECT_FALSE(M.accepts("cd"));
}

TEST(NfaOpsTest, ConcatWithEpsilonIsIdentity) {
  Nfa M = concat(Nfa::epsilonLanguage(), Nfa::literal("x"));
  EXPECT_TRUE(M.accepts("x"));
  EXPECT_FALSE(M.accepts(""));
  Nfa N = concat(Nfa::literal("x"), Nfa::epsilonLanguage());
  EXPECT_TRUE(N.accepts("x"));
}

TEST(NfaOpsTest, ConcatWithEmptyIsEmpty) {
  Nfa M = concat(Nfa::emptyLanguage(), Nfa::literal("x"));
  EXPECT_TRUE(M.languageIsEmpty());
}

TEST(NfaOpsTest, ConcatCarriesMarker) {
  Nfa M = concat(Nfa::literal("a"), Nfa::literal("b"), 42);
  auto Instances = M.markerInstances(42);
  ASSERT_EQ(Instances.size(), 1u);
  EXPECT_TRUE(M.accepts("ab"));
}

TEST(NfaOpsTest, ConcatEmbeddingMapsStates) {
  Nfa A = Nfa::literal("a");
  Nfa B = Nfa::literal("b");
  ConcatEmbedding Emb;
  Nfa M = concat(A, B, NoMarker, &Emb);
  ASSERT_EQ(Emb.LhsStates.size(), A.numStates());
  ASSERT_EQ(Emb.RhsStates.size(), B.numStates());
  EXPECT_EQ(Emb.LhsStates[A.start()], M.start());
  EXPECT_TRUE(M.isAccepting(Emb.RhsStates[B.singleAccepting()]));
}

TEST(NfaOpsTest, AlternateIsUnion) {
  Nfa M = alternate(Nfa::literal("cat"), Nfa::literal("dog"));
  EXPECT_TRUE(M.accepts("cat"));
  EXPECT_TRUE(M.accepts("dog"));
  EXPECT_FALSE(M.accepts("catdog"));
  EXPECT_FALSE(M.accepts(""));
}

TEST(NfaOpsTest, StarAcceptsZeroOrMore) {
  Nfa M = star(Nfa::literal("ab"));
  EXPECT_TRUE(M.accepts(""));
  EXPECT_TRUE(M.accepts("ab"));
  EXPECT_TRUE(M.accepts("ababab"));
  EXPECT_FALSE(M.accepts("aba"));
}

TEST(NfaOpsTest, PlusRequiresAtLeastOne) {
  Nfa M = plus(Nfa::literal("ab"));
  EXPECT_FALSE(M.accepts(""));
  EXPECT_TRUE(M.accepts("ab"));
  EXPECT_TRUE(M.accepts("abab"));
}

TEST(NfaOpsTest, OptionalAcceptsZeroOrOne) {
  Nfa M = optional(Nfa::literal("ab"));
  EXPECT_TRUE(M.accepts(""));
  EXPECT_TRUE(M.accepts("ab"));
  EXPECT_FALSE(M.accepts("abab"));
}

TEST(NfaOpsTest, IntersectKeepsCommonStrings) {
  // (ab|cd) ∩ (cd|ef) = {cd}
  Nfa A = alternate(Nfa::literal("ab"), Nfa::literal("cd"));
  Nfa B = alternate(Nfa::literal("cd"), Nfa::literal("ef"));
  Nfa M = intersect(A, B);
  EXPECT_TRUE(M.accepts("cd"));
  EXPECT_FALSE(M.accepts("ab"));
  EXPECT_FALSE(M.accepts("ef"));
}

TEST(NfaOpsTest, IntersectWithSigmaStarIsIdentity) {
  Nfa A = Nfa::literal("xyz");
  Nfa M = intersect(A, Nfa::sigmaStar());
  EXPECT_TRUE(equivalentTo(M, A));
}

TEST(NfaOpsTest, IntersectDisjointIsEmpty) {
  Nfa M = intersect(Nfa::literal("a"), Nfa::literal("b"));
  EXPECT_TRUE(M.languageIsEmpty());
}

TEST(NfaOpsTest, IntersectPreservesMarkersOfBothSides) {
  Nfa A = concat(Nfa::literal("a"), Nfa::literal("b"), 1);
  Nfa B = star(Nfa::fromCharSet(CharSet::fromString("ab")));
  Nfa M = intersect(A, B).trimmed();
  EXPECT_FALSE(M.markerInstances(1).empty());
  EXPECT_TRUE(M.accepts("ab"));
}

TEST(NfaOpsTest, ProductMapReportsOrigins) {
  Nfa A = Nfa::literal("a");
  Nfa B = Nfa::sigmaStar();
  ProductMap Map;
  Nfa M = intersect(A, B, &Map);
  ASSERT_EQ(Map.Origin.size(), M.numStates());
  EXPECT_EQ(Map.Origin[M.start()].first, A.start());
  EXPECT_EQ(Map.Origin[M.start()].second, B.start());
}

TEST(NfaOpsTest, ComplementFlipsMembership) {
  Nfa M = complement(Nfa::literal("ab"));
  EXPECT_FALSE(M.accepts("ab"));
  EXPECT_TRUE(M.accepts(""));
  EXPECT_TRUE(M.accepts("a"));
  EXPECT_TRUE(M.accepts("abc"));
}

TEST(NfaOpsTest, ComplementOfComplementIsOriginal) {
  Nfa A = alternate(Nfa::literal("x"), star(Nfa::literal("yz")));
  EXPECT_TRUE(equivalentTo(complement(complement(A)), A));
}

TEST(NfaOpsTest, DifferenceRemovesStrings) {
  Nfa A = alternate(Nfa::literal("a"), Nfa::literal("b"));
  Nfa M = difference(A, Nfa::literal("a"));
  EXPECT_FALSE(M.accepts("a"));
  EXPECT_TRUE(M.accepts("b"));
}

TEST(NfaOpsTest, SubsetChecks) {
  Nfa Small = Nfa::literal("ab");
  Nfa Big = star(Nfa::fromCharSet(CharSet::fromString("ab")));
  EXPECT_TRUE(subsetOf(Small, Big));
  EXPECT_FALSE(subsetOf(Big, Small));
  EXPECT_TRUE(subsetOf(Nfa::emptyLanguage(), Small));
}

TEST(NfaOpsTest, EquivalenceIsStructureIndependent) {
  // (a|b)* == (a*b*)*
  Nfa AB = alternate(Nfa::literal("a"), Nfa::literal("b"));
  Nfa Lhs = star(AB);
  Nfa Rhs = star(concat(star(Nfa::literal("a")), star(Nfa::literal("b"))));
  EXPECT_TRUE(equivalentTo(Lhs, Rhs));
  EXPECT_FALSE(equivalentTo(Lhs, Nfa::literal("a")));
}

TEST(NfaOpsTest, MinimizedPreservesLanguage) {
  Nfa A = alternate(Nfa::literal("abc"), Nfa::literal("abd"));
  Nfa M = minimized(A);
  EXPECT_TRUE(equivalentTo(A, M));
  EXPECT_LE(M.numStates(), A.numStates());
}

TEST(NfaOpsTest, ShortestStringOfEmptyIsNullopt) {
  EXPECT_FALSE(shortestString(Nfa::emptyLanguage()).has_value());
}

TEST(NfaOpsTest, ShortestStringPrefersEpsilon) {
  EXPECT_EQ(shortestString(Nfa::sigmaStar()), "");
}

TEST(NfaOpsTest, ShortestStringFindsShortest) {
  Nfa A = alternate(Nfa::literal("abcd"), Nfa::literal("xy"));
  EXPECT_EQ(shortestString(A), "xy");
}

TEST(NfaOpsTest, ShortestStringThroughEpsilonChain) {
  // Machine: eps chain then 'z'; shortest should be "z", not longer.
  Nfa M;
  StateId B = M.addState(), C = M.addState(), D = M.addState();
  M.addEpsilon(M.start(), B);
  M.addEpsilon(B, C);
  M.addTransition(C, CharSet::singleton('z'), D);
  M.addTransition(M.start(), CharSet::singleton('a'), D);
  StateId E = M.addState();
  M.addTransition(D, CharSet::singleton('q'), E);
  M.setAccepting(E);
  auto S = shortestString(M);
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->size(), 2u);
}

TEST(NfaOpsTest, EnumerateStringsShortlex) {
  Nfa M = plus(Nfa::fromCharSet(CharSet::fromString("ab")));
  auto Strings = enumerateStrings(M, 2);
  EXPECT_EQ(Strings,
            (std::vector<std::string>{"a", "b", "aa", "ab", "ba", "bb"}));
}

TEST(NfaOpsTest, EnumerateStringsHonorsLimit) {
  Nfa M = star(Nfa::fromCharSet(CharSet::fromString("ab")));
  auto Strings = enumerateStrings(M, 10, 3);
  EXPECT_EQ(Strings.size(), 3u);
}

TEST(NfaOpsTest, EnumerateStringsOfEmptyLanguage) {
  EXPECT_TRUE(enumerateStrings(Nfa::emptyLanguage(), 5).empty());
}

TEST(NfaOpsTest, RightQuotientBasics) {
  // (abc){w : ∃s ∈ {c}: ws ∈ L} = {ab}.
  Nfa Q = rightQuotient(Nfa::literal("abc"), Nfa::literal("c"));
  EXPECT_TRUE(equivalentTo(Q, Nfa::literal("ab")));
  // Quotient by a non-suffix is empty.
  EXPECT_TRUE(
      rightQuotient(Nfa::literal("abc"), Nfa::literal("x")).languageIsEmpty());
  // Quotient by epsilon is identity.
  Nfa A = alternate(Nfa::literal("ab"), star(Nfa::literal("cd")));
  EXPECT_TRUE(equivalentTo(rightQuotient(A, Nfa::epsilonLanguage()), A));
}

TEST(NfaOpsTest, RightQuotientByLanguage) {
  // a*b* / b+ = a*b*.
  Nfa L = concat(star(Nfa::literal("a")), star(Nfa::literal("b")));
  Nfa Q = rightQuotient(L, plus(Nfa::literal("b")));
  EXPECT_TRUE(equivalentTo(Q, L));
  // (ab|cd) / (b|d) = a|c.
  Nfa M = alternate(Nfa::literal("ab"), Nfa::literal("cd"));
  Nfa Q2 = rightQuotient(M, alternate(Nfa::literal("b"), Nfa::literal("d")));
  EXPECT_TRUE(
      equivalentTo(Q2, alternate(Nfa::literal("a"), Nfa::literal("c"))));
}

TEST(NfaOpsTest, LeftQuotientBasics) {
  // {p : p ∈ {a}} \ abc = {bc}.
  Nfa Q = leftQuotient(Nfa::literal("a"), Nfa::literal("abc"));
  EXPECT_TRUE(equivalentTo(Q, Nfa::literal("bc")));
  EXPECT_TRUE(
      leftQuotient(Nfa::literal("x"), Nfa::literal("abc")).languageIsEmpty());
  Nfa A = star(Nfa::literal("ab"));
  EXPECT_TRUE(equivalentTo(leftQuotient(Nfa::epsilonLanguage(), A), A));
}

TEST(NfaOpsTest, QuotientMaximizationIdentity) {
  // The solver's widening formula: {w : P.w.S ⊆ C} for P=xyy-prefix x,
  // S = z, C = xyyz|xyyyyz must be {yy, yyyy}.
  Nfa C = alternate(Nfa::literal("xyyz"), Nfa::literal("xyyyyz"));
  Nfa NotC = complement(C);
  Nfa Bad = leftQuotient(Nfa::literal("x"),
                         rightQuotient(NotC, Nfa::literal("z")));
  Nfa Allowed = complement(Bad);
  Nfa Expected = alternate(Nfa::literal("yy"), Nfa::literal("yyyy"));
  EXPECT_TRUE(equivalentTo(intersect(Allowed, star(Nfa::literal("y"))),
                           Expected));
}

TEST(NfaOpsTest, ConcatAssociativity) {
  Nfa A = Nfa::literal("a"), B = Nfa::literal("b"), C = Nfa::literal("c");
  EXPECT_TRUE(equivalentTo(concat(concat(A, B), C), concat(A, concat(B, C))));
}

TEST(NfaOpsTest, DeMorgan) {
  Nfa A = star(Nfa::literal("ab"));
  Nfa B = alternate(Nfa::literal("ab"), Nfa::literal("cc"));
  Nfa Lhs = complement(intersect(A, B));
  Nfa Rhs = alternate(complement(A), complement(B));
  EXPECT_TRUE(equivalentTo(Lhs, Rhs));
}
