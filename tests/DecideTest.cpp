//===- DecideTest.cpp - Decision kernel vs materialized baselines ---------===//
//
// The decision kernel (automata/Decide.h) answers boolean language queries
// without building result machines; its contract is that every answer is
// bit-identical to the classical materialize-then-check implementation in
// NfaOps.h. These tests pin that contract differentially over randomized
// machines — regex-compiled, epsilon-heavy, and marker-carrying — and pin
// the witness strings, the antichain pruning, and the memoization cache.
//
//===----------------------------------------------------------------------===//

#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "regex/RegexCompiler.h"
#include "regex/RegexParser.h"
#include "solver/Extensions.h"

#include <gtest/gtest.h>

#include <random>

using namespace dprle;

namespace {

/// Clears the global cache and counters so each test observes only its own
/// queries; restores the enabled default on exit so test order is
/// irrelevant.
class DecideTest : public ::testing::Test {
protected:
  void SetUp() override {
    DecisionCache::global().clear();
    DecisionCache::global().setEnabled(true);
    DecideStats::global().reset();
  }
  void TearDown() override {
    DecisionCache::global().clear();
    DecisionCache::global().setEnabled(true);
  }
};

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
  if (Roll < 82)
    return "(" + randomPattern(Rng, Depth - 1) + ")*";
  if (Roll < 92)
    return "(" + randomPattern(Rng, Depth - 1) + ")?";
  return "[ab]";
}

/// A raw random machine over {a, b, c}: unrestricted transition structure,
/// an epsilon share (optionally marker-carrying), possibly no accepting
/// state at all (empty language), possibly unreachable accepting states.
Nfa randomMachine(std::mt19937 &Rng, bool WithMarkers) {
  std::uniform_int_distribution<int> Percent(0, 99);
  unsigned N = std::uniform_int_distribution<unsigned>(1, 7)(Rng);
  Nfa M;
  for (unsigned I = 0; I != N; ++I)
    M.addState();
  std::uniform_int_distribution<StateId> Pick(0, N - 1);
  unsigned Edges = std::uniform_int_distribution<unsigned>(0, 2 * N)(Rng);
  for (unsigned E = 0; E != Edges; ++E) {
    StateId From = Pick(Rng), To = Pick(Rng);
    int Roll = Percent(Rng);
    if (Roll < 25)
      M.addEpsilon(From, To,
                   WithMarkers && Roll < 12 ? EpsilonMarker(Roll) : NoMarker);
    else if (Roll < 40)
      M.addTransition(From, CharSet::range('a', 'c'), To);
    else
      M.addTransition(From, CharSet::singleton("abc"[Roll % 3]), To);
  }
  for (StateId S = 0; S != N; ++S)
    if (Percent(Rng) < 30)
      M.setAccepting(S);
  return M;
}

/// The materialized baselines the kernel must agree with. subsetOf and
/// equivalentTo (Decide.h) are the kernel itself, so the baseline is
/// spelled out from the primitive ops here.
bool baselineEmptyIntersection(const Nfa &A, const Nfa &B) {
  return intersect(A, B).languageIsEmpty();
}
bool baselineSubset(const Nfa &A, const Nfa &B) {
  return difference(A, B).languageIsEmpty();
}

/// Checks every kernel query against its baseline on one machine pair and
/// validates any witness/counterexample strings.
void checkPair(const Nfa &A, const Nfa &B, const std::string &Tag) {
  SCOPED_TRACE(Tag);
  bool EmptyInter = baselineEmptyIntersection(A, B);
  bool Subset = baselineSubset(A, B);
  bool SubsetRev = baselineSubset(B, A);

  EXPECT_EQ(emptyIntersection(A, B), EmptyInter);
  EXPECT_EQ(emptyIntersection(B, A), EmptyInter);
  EXPECT_EQ(subsetOf(A, B), Subset);
  EXPECT_EQ(subsetOf(B, A), SubsetRev);
  EXPECT_EQ(equivalentTo(A, B), Subset && SubsetRev);
  EXPECT_EQ(isEmpty(A), A.languageIsEmpty());
  EXPECT_EQ(isEmpty(B), B.languageIsEmpty());

  std::optional<std::string> Witness = intersectionWitness(A, B);
  EXPECT_EQ(Witness.has_value(), !EmptyInter);
  if (Witness) {
    EXPECT_TRUE(A.accepts(*Witness)) << '"' << *Witness << '"';
    EXPECT_TRUE(B.accepts(*Witness)) << '"' << *Witness << '"';
  }

  std::optional<std::string> Cex = subsetCounterexample(A, B);
  EXPECT_EQ(Cex.has_value(), !Subset);
  if (Cex) {
    EXPECT_TRUE(A.accepts(*Cex)) << '"' << *Cex << '"';
    EXPECT_FALSE(B.accepts(*Cex)) << '"' << *Cex << '"';
  }
}

TEST_F(DecideTest, MatchesBaselineOnRegexMachines) {
  for (unsigned Seed = 0; Seed != 60; ++Seed) {
    std::mt19937 Rng(Seed * 7919 + 3);
    Nfa A = regexLanguage(randomPattern(Rng, 3));
    Nfa B = regexLanguage(randomPattern(Rng, 3));
    checkPair(A, B, "regex seed " + std::to_string(Seed));
  }
}

TEST_F(DecideTest, MatchesBaselineOnEpsilonHeavyMachines) {
  for (unsigned Seed = 0; Seed != 60; ++Seed) {
    std::mt19937 Rng(Seed * 104729 + 17);
    Nfa A = randomMachine(Rng, /*WithMarkers=*/false);
    Nfa B = randomMachine(Rng, /*WithMarkers=*/false);
    checkPair(A, B, "raw seed " + std::to_string(Seed));
  }
}

TEST_F(DecideTest, MarkersDoNotAffectAnswers) {
  for (unsigned Seed = 0; Seed != 40; ++Seed) {
    std::mt19937 Rng(Seed * 31337 + 5);
    Nfa A = randomMachine(Rng, /*WithMarkers=*/true);
    Nfa B = randomMachine(Rng, /*WithMarkers=*/true);
    checkPair(A, B, "marker seed " + std::to_string(Seed));
    // The same queries on the marker-stripped machines must agree: markers
    // carry solver bookkeeping, never language.
    EXPECT_EQ(subsetOf(A, B), subsetOf(A.withoutMarkers(), B.withoutMarkers()));
    EXPECT_EQ(emptyIntersection(A, B),
              emptyIntersection(A.withoutMarkers(), B.withoutMarkers()));
  }
}

TEST_F(DecideTest, KnownInclusions) {
  Nfa Abc = Nfa::literal("abc");
  Nfa Quote = searchLanguage("'");
  EXPECT_TRUE(subsetOf(Nfa::emptyLanguage(), Abc));
  EXPECT_TRUE(subsetOf(Abc, Nfa::sigmaStar()));
  EXPECT_FALSE(subsetOf(Nfa::sigmaStar(), Abc));
  EXPECT_TRUE(emptyIntersection(Abc, Quote));
  EXPECT_FALSE(emptyIntersection(Nfa::literal("a'b"), Quote));
  EXPECT_EQ(*intersectionWitness(Nfa::literal("a'b"), Quote), "a'b");
  EXPECT_TRUE(equivalentTo(Nfa::sigmaStar(), complement(Nfa::emptyLanguage())));
  EXPECT_TRUE(isEmpty(Nfa::emptyLanguage()));
  EXPECT_FALSE(isEmpty(Nfa::literal("")));
}

TEST_F(DecideTest, EarlyExitCountersMove) {
  DecideStats &S = DecideStats::global();
  // A nonempty intersection must resolve by early exit, and the recorded
  // depth is the witness length.
  EXPECT_FALSE(emptyIntersection(Nfa::literal("xy"), Nfa::sigmaStar()));
  EXPECT_EQ(S.EarlyExits, 1u);
  EXPECT_EQ(S.EarlyExitDepthTotal, 2u);
  EXPECT_GT(S.ProductPairsVisited, 0u);
  // A violated inclusion early-exits the antichain search too.
  EXPECT_FALSE(subsetOf(Nfa::sigmaStar(), Nfa::literal("xy")));
  EXPECT_EQ(S.EarlyExits, 2u);
  EXPECT_GT(S.MacroPairsVisited, 0u);
}

TEST_F(DecideTest, CacheHitsOnRepeatAndOnSharedStructure) {
  DecideStats &S = DecideStats::global();
  Nfa A = regexLanguage("(a|b)*a");
  Nfa B = regexLanguage("(a|b)*");
  bool First = subsetOf(A, B);
  EXPECT_EQ(S.CacheHits, 0u);
  EXPECT_EQ(S.CacheMisses, 1u);
  // Identical query: answered from the cache, same bit.
  EXPECT_EQ(subsetOf(A, B), First);
  EXPECT_EQ(S.CacheHits, 1u);
  // A structurally identical copy interns to the same machine id.
  Nfa ACopy = A;
  EXPECT_EQ(subsetOf(ACopy, B), First);
  EXPECT_EQ(S.CacheHits, 2u);
  EXPECT_EQ(DecisionCache::global().numMachines(), 2u);
}

TEST_F(DecideTest, CacheIgnoresEpsilonMarkers) {
  DecideStats &S = DecideStats::global();
  // Two machines differing only in epsilon markers share cache entries:
  // concat() markers are bookkeeping, not language.
  Nfa Marked = concat(Nfa::literal("a"), Nfa::literal("b"), EpsilonMarker(7));
  Nfa Plain = Marked.withoutMarkers();
  EXPECT_TRUE(subsetOf(Marked, Nfa::sigmaStar()));
  EXPECT_EQ(S.CacheMisses, 1u);
  EXPECT_TRUE(subsetOf(Plain, Nfa::sigmaStar()));
  EXPECT_EQ(S.CacheHits, 1u);
}

TEST_F(DecideTest, DisabledCacheStillAnswersCorrectly) {
  DecideStats &S = DecideStats::global();
  DecisionCache::global().setEnabled(false);
  Nfa A = regexLanguage("a(a|b)*");
  Nfa B = regexLanguage("(a|b)*");
  EXPECT_TRUE(subsetOf(A, B));
  EXPECT_TRUE(subsetOf(A, B));
  EXPECT_FALSE(subsetOf(B, A));
  // Disabled lookups neither hit, miss, nor store.
  EXPECT_EQ(S.CacheHits, 0u);
  EXPECT_EQ(S.CacheMisses, 0u);
  EXPECT_EQ(DecisionCache::global().numAnswers(), 0u);
}

TEST_F(DecideTest, CachedAnswersSurviveHeavyReuse) {
  // Differential check under reuse: interleave cached and fresh queries
  // and re-verify every answer against the baseline at the end.
  std::mt19937 Rng(12345);
  std::vector<Nfa> Pool;
  for (unsigned I = 0; I != 8; ++I)
    Pool.push_back(regexLanguage(randomPattern(Rng, 3)));
  std::uniform_int_distribution<size_t> Pick(0, Pool.size() - 1);
  for (unsigned Round = 0; Round != 100; ++Round) {
    const Nfa &A = Pool[Pick(Rng)];
    const Nfa &B = Pool[Pick(Rng)];
    EXPECT_EQ(subsetOf(A, B), baselineSubset(A, B));
    EXPECT_EQ(emptyIntersection(A, B), baselineEmptyIntersection(A, B));
  }
  EXPECT_GT(DecideStats::global().CacheHits, 0u);
}

TEST_F(DecideTest, AntichainPrunesOnDeterminizationBlowup) {
  // L((a|b)*a(a|b)^k) ⊆ L((a|b)*) forces 2^(k+1) macro-states in a full
  // determinization of the *left* side when checked in reverse; checking
  // the true inclusion keeps the frontier tiny, and the violated reverse
  // inclusion early-exits. Both must stay well under the 2^9 subset space.
  std::string Pattern = "(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)";
  Nfa Hard = regexLanguage(Pattern);
  Nfa Star = regexLanguage("(a|b)*");
  DecideStats &S = DecideStats::global();
  EXPECT_TRUE(subsetOf(Hard, Star));
  EXPECT_FALSE(subsetOf(Star, Hard));
  EXPECT_LT(S.MacroPairsVisited, 512u);
}

} // namespace
