//===- MemoTableTest.cpp - Machine identity and the memo table ------------===//
//
// Covers Nfa::identity() (automata/Nfa.h) — one content identity per
// machine and mutation epoch, shared by copies, insensitive to epsilon
// markers, and hashing to pinned golden values — and MemoTable
// (automata/MemoTable.h): collisions, both overflow bounds, the
// exhausted-budget insert rule, and the decision cache under concurrent
// flushes.
//
//===----------------------------------------------------------------------===//

#include "automata/BaselineKernels.h"
#include "automata/Decide.h"
#include "automata/MemoTable.h"
#include "automata/NfaOps.h"
#include "regex/RegexCompiler.h"
#include "support/Budget.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

using namespace dprle;

namespace {

//===----------------------------------------------------------------------===//
// MachineIdentity
//===----------------------------------------------------------------------===//

TEST(MachineIdentityTest, CopiesShareTheirSourceHandle) {
  Nfa A = regexLanguage("(a|b)*abb");
  MachineIdentity Id = A.identity();
  // Computed once per epoch: a second request returns the same handle.
  EXPECT_TRUE(A.identity().sameHandle(Id));
  Nfa Copy = A;
  EXPECT_TRUE(Copy.identity().sameHandle(Id));
  Nfa Assigned;
  Assigned = A;
  EXPECT_TRUE(Assigned.identity().sameHandle(Id));
  Nfa Moved = std::move(Copy);
  EXPECT_TRUE(Moved.identity().sameHandle(Id));
}

TEST(MachineIdentityTest, EveryMutatorInvalidatesTheHandle) {
  const Nfa Base = regexLanguage("ab*");
  auto ExpectFresh = [&](const char *What, void (*Mutate)(Nfa &)) {
    Nfa M = Base;
    MachineIdentity Before = M.identity();
    Mutate(M);
    MachineIdentity After = M.identity();
    EXPECT_FALSE(After.sameHandle(Before)) << What;
    EXPECT_NE(After.encoding(), Before.encoding()) << What;
    // The source keeps its own identity.
    EXPECT_TRUE(Base.identity() == Before) << What;
  };
  ExpectFresh("addState", [](Nfa &M) { M.addState(); });
  ExpectFresh("setStart", [](Nfa &M) { M.setStart(M.numStates() - 1); });
  ExpectFresh("setAccepting", [](Nfa &M) { M.setAccepting(M.start()); });
  ExpectFresh("addTransition", [](Nfa &M) {
    M.addTransition(M.start(), CharSet::singleton('z'), M.start());
  });
  ExpectFresh("addEpsilon",
              [](Nfa &M) { M.addEpsilon(M.start(), M.numStates() - 1); });
}

TEST(MachineIdentityTest, MarkerTwinsHaveEqualIdentities) {
  Nfa Marked = concat(Nfa::literal("ab"), Nfa::literal("c"), EpsilonMarker(7));
  Nfa Remarked =
      concat(Nfa::literal("ab"), Nfa::literal("c"), EpsilonMarker(9));
  Nfa Plain = Marked.withoutMarkers();
  EXPECT_TRUE(Marked.identity() == Plain.identity());
  EXPECT_TRUE(Marked.identity() == Remarked.identity());
  EXPECT_FALSE(Marked.identity().sameHandle(Plain.identity()));
  EXPECT_EQ(Marked.identity().hash(), Plain.identity().hash());
  EXPECT_EQ(Marked.identity().encoding(), Remarked.identity().encoding());
  // A language-equal machine of different shape is a different identity.
  EXPECT_FALSE(Marked.identity() == minimized(Marked).identity());
}

TEST(MachineIdentityTest, StructuralHashesMatchRecordedGoldens) {
  // Recorded with the encoder that predates Nfa::identity(). The shard
  // router pins requests by these hashes, so a change here silently moves
  // every request to a different shard.
  struct Golden {
    const char *Name;
    Nfa Machine;
    uint64_t Hash;
    size_t EncodingBytes;
  };
  Golden Goldens[] = {
      {"empty", Nfa::emptyLanguage(), 17051962056119456876ull, 13},
      {"epsilon", Nfa::epsilonLanguage(), 17965879602152734415ull, 13},
      {"literal abc", Nfa::literal("abc"), 11305457663794263464ull, 58},
      {"sigma star", Nfa::sigmaStar(), 12431099734444084293ull, 278},
      {"class a-z", Nfa::fromCharSet(CharSet::range('a', 'z')),
       304425080664750493ull, 53},
      {"regex (a|b)*abb", regexLanguage("(a|b)*abb"),
       16115284409709966104ull, 238},
      {"marked concat",
       concat(Nfa::literal("ab"), Nfa::literal("c"), EpsilonMarker(3)),
       13981300377998125629ull, 73},
      {"minimized [^x]+y", minimized(regexLanguage("[^x]+y")),
       2263952179652518397ull, 833},
  };
  for (const Golden &G : Goldens) {
    EXPECT_EQ(G.Machine.identity().hash(), G.Hash) << G.Name;
    EXPECT_EQ(G.Machine.identity().encoding().size(), G.EncodingBytes)
        << G.Name;
  }
}

//===----------------------------------------------------------------------===//
// MemoTable
//===----------------------------------------------------------------------===//

/// A key holding one test-built identity.
MemoKey keyOf(std::string Encoding, uint64_t Hash) {
  MemoKey K;
  K.Machines.emplace_back(std::move(Encoding), Hash);
  return K;
}

TEST(MemoTableTest, EqualHashesWithDifferentEncodingsNeverHitEachOther) {
  MemoTable<int> Table(/*NumStripes=*/4, /*MaxEntriesPerStripe=*/16);
  MemoKey A = keyOf("encoding a", 42), B = keyOf("encoding b", 42);
  ASSERT_EQ(A.hash(), B.hash());
  Table.insert(A, 1);
  EXPECT_FALSE(Table.find(B));
  Table.insert(B, 2);
  EXPECT_EQ(Table.find(A), 1);
  EXPECT_EQ(Table.find(B), 2);
  // A separately built handle with A's content finds A's entry.
  EXPECT_EQ(Table.find(keyOf("encoding a", 42)), 1);
  EXPECT_EQ(Table.size(), 2u);
}

TEST(MemoTableTest, EntryOverflowFlushesTheStripeAndCountsOneEviction) {
  RelaxedCounter Hits, Misses, Evictions;
  MemoTable<int> Table(/*NumStripes=*/1, /*MaxEntriesPerStripe=*/4,
                       {&Hits, &Misses, &Evictions});
  for (int I = 0; I != 4; ++I)
    Table.insert(keyOf("m" + std::to_string(I), I), I);
  EXPECT_EQ(Table.size(), 4u);
  EXPECT_EQ(Evictions.get(), 0u);
  // Re-inserting a present key is not an overflow.
  Table.insert(keyOf("m0", 0), 0);
  EXPECT_EQ(Evictions.get(), 0u);
  Table.insert(keyOf("m4", 4), 4);
  EXPECT_EQ(Table.size(), 1u);
  EXPECT_EQ(Evictions.get(), 1u);
  EXPECT_FALSE(Table.find(keyOf("m0", 0)));
  EXPECT_EQ(Table.find(keyOf("m4", 4)), 4);
  EXPECT_EQ(Hits.get(), 1u);
  EXPECT_EQ(Misses.get(), 1u);
}

TEST(MemoTableTest, PinnedByteOverflowFlushesTheStripeAndCountsOneEviction) {
  RelaxedCounter Evictions;
  constexpr size_t Stripes = 16;
  MemoTable<int> Table(Stripes, /*MaxEntriesPerStripe=*/16,
                       {nullptr, nullptr, &Evictions});
  constexpr size_t StripeBytes = MemoTable<int>::MaxPinnedBytes / Stripes;
  // Equal hashes put both keys on one stripe; together they overflow it.
  MemoKey Big1 = keyOf(std::string(StripeBytes / 2 + 1, 'x'), 7);
  MemoKey Big2 = keyOf(std::string(StripeBytes / 2 + 1, 'y'), 7);
  Table.insert(Big1, 1);
  EXPECT_EQ(Evictions.get(), 0u);
  Table.insert(Big2, 2);
  EXPECT_EQ(Evictions.get(), 1u);
  EXPECT_EQ(Table.size(), 1u);
  EXPECT_FALSE(Table.find(Big1));
  EXPECT_EQ(Table.find(Big2), 2);
  // A key larger than a whole stripe's bound is never stored.
  Table.insert(keyOf(std::string(StripeBytes + 1, 'z'), 7), 3);
  EXPECT_EQ(Table.size(), 1u);
  EXPECT_EQ(Evictions.get(), 1u);
}

/// A value pinning a chosen number of heap bytes.
struct Blob {
  size_t Bytes = 0;
};
size_t memoValueBytes(const Blob &B) { return B.Bytes; }

TEST(MemoTableTest, ValueBytesCountTowardTheStripeBound) {
  RelaxedCounter Evictions;
  MemoTable<Blob> Table(/*NumStripes=*/1, /*MaxEntriesPerStripe=*/16,
                        {nullptr, nullptr, &Evictions});
  constexpr size_t StripeBytes = MemoTable<Blob>::MaxPinnedBytes;
  // Small keys, large values: the key bytes alone would never overflow.
  MemoKey A = keyOf("a", 1), B = keyOf("b", 2);
  const size_t Half = StripeBytes / 2;
  Table.insert(A, Blob{Half});
  EXPECT_EQ(Table.size(), 1u);
  EXPECT_EQ(Evictions.get(), 0u);
  // Together the two values overflow the stripe: one flush.
  Table.insert(B, Blob{Half});
  EXPECT_EQ(Evictions.get(), 1u);
  EXPECT_EQ(Table.size(), 1u);
  EXPECT_FALSE(Table.find(A));
  EXPECT_TRUE(Table.find(B));
}

TEST(MemoTableTest, AValueLargerThanAStripeIsNeverFiled) {
  RelaxedCounter Evictions;
  constexpr size_t Stripes = 4;
  MemoTable<Blob> Table(Stripes, /*MaxEntriesPerStripe=*/16,
                        {nullptr, nullptr, &Evictions});
  constexpr size_t StripeBytes = MemoTable<Blob>::MaxPinnedBytes / Stripes;
  constexpr size_t Overhead = MemoTable<Blob>::EntryOverhead;
  MemoKey K = keyOf("k", 3);
  // Exactly at the bound (key, value and overhead together): filed.
  const size_t Fits = StripeBytes - K.pinnedBytes() - Overhead;
  Table.insert(K, Blob{Fits});
  EXPECT_TRUE(Table.find(K));
  Table.clear();
  // One byte over: refused outright, and nothing is flushed for it.
  Table.insert(keyOf("small", 3), Blob{0});
  Table.insert(K, Blob{Fits + 1});
  EXPECT_FALSE(Table.find(K));
  EXPECT_TRUE(Table.find(keyOf("small", 3)));
  EXPECT_EQ(Evictions.get(), 0u);
}

TEST(MemoTableTest, MachineValuesCountTheirStorage) {
  Nfa Small = Nfa::literal("a");
  Nfa Big = regexLanguage("[a-z]{40}");
  EXPECT_GT(dprle::memoValueBytes(Big), dprle::memoValueBytes(Small));
  EXPECT_GE(dprle::memoValueBytes(Big),
            Big.numTransitions() * sizeof(Transition));
  EXPECT_EQ(dprle::memoValueBytes(true), 0u);
}

TEST(MemoTableTest, InsertRefusesValuesComputedUnderATrippedBudget) {
  MemoTable<int> Table(/*NumStripes=*/1, /*MaxEntriesPerStripe=*/8);
  MemoKey Key;
  Key.Shape = "condition";
  {
    ResourceLimits L;
    L.MaxStates = 1;
    ResourceBudget Budget(L);
    ResourceGuard Guard(&Budget);
    Table.insert(Key, 1);
    EXPECT_EQ(Table.size(), 1u);
    ResourceGuard::chargeStates(2);
    ASSERT_TRUE(ResourceGuard::exhausted());
    Table.clear();
    Table.insert(Key, 2);
    EXPECT_EQ(Table.size(), 0u);
  }
  Table.insert(Key, 3);
  EXPECT_EQ(Table.find(Key), 3);
}

TEST(MemoTableTest, DecisionCacheUnderConcurrentFlushesMatchesBaseline) {
  // Four threads query a pool whose distinct questions pin more key bytes
  // than the decision cache holds, so stripes flush while other threads
  // are between lookup and insert. Every answer must equal the
  // materializing baseline kernels'.
  DecisionCache::global().clear();
  ASSERT_TRUE(DecisionCache::global().enabled());
  std::mt19937 Rng(2024);
  // Negated classes carry ~250-symbol labels, so encodings run to KiBs.
  const char *Atoms[] = {"[^a]", "[^b]", "a", "b", "[^ab]", "(a|[^c])"};
  std::vector<Nfa> Pool;
  while (Pool.size() != 72) {
    std::string Re;
    int Len = 3 + int(Rng() % 5);
    for (int I = 0; I != Len; ++I) {
      Re += Atoms[Rng() % 6];
      if (Rng() % 3 == 0)
        Re += "*";
    }
    Pool.push_back(regexLanguage(Re));
  }
  size_t N = Pool.size();
  std::vector<char> Subset(N * N), Empty(N * N);
  for (size_t I = 0; I != N; ++I)
    for (size_t J = 0; J != N; ++J) {
      Subset[I * N + J] = baseline::subsetOf(Pool[I], Pool[J]);
      Empty[I * N + J] = baseline::emptyIntersection(Pool[I], Pool[J]);
    }

  uint64_t Evictions0 = DecideStats::global().CacheEvictions.get();
  std::atomic<unsigned> Mismatches{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 4; ++T)
    Threads.emplace_back([&, T] {
      std::mt19937 R(T);
      for (unsigned Q = 0; Q != 6000; ++Q) {
        size_t I = R() % N, J = R() % N;
        bool Got = Q % 2 ? subsetOf(Pool[I], Pool[J])
                         : emptyIntersection(Pool[I], Pool[J]);
        bool Want = Q % 2 ? Subset[I * N + J] : Empty[I * N + J];
        if (Got != Want)
          ++Mismatches;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0u);
  EXPECT_GT(DecideStats::global().CacheEvictions.get(), Evictions0)
      << "the pool no longer overflows the cache";
  DecisionCache::global().clear();
}

} // namespace
