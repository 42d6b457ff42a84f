//===- Decide.cpp - On-the-fly language decision kernel ----------------------//

#include "automata/Decide.h"
#include "automata/CsrNfa.h"
#include "automata/Dfa.h"
#include "support/Budget.h"
#include "support/Executor.h"
#include "support/FaultInjector.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <new>
#include <unordered_set>

using namespace dprle;

DecideStats &DecideStats::global() {
  static DecideStats Stats;
  return Stats;
}

namespace {

/// Publishes the decision-kernel counters into the unified StatsRegistry
/// at load time. The dotted names are part of the stable schema of
/// docs/OBSERVABILITY.md.
struct RegisterDecideStats {
  RegisterDecideStats() {
    DecideStats &S = DecideStats::global();
    StatsRegistry &R = StatsRegistry::global();
    R.registerCounter("decide.empty_intersection_queries",
                      &S.EmptyIntersectionQueries);
    R.registerCounter("decide.subset_queries", &S.SubsetQueries);
    R.registerCounter("decide.equivalence_queries", &S.EquivalenceQueries);
    R.registerCounter("decide.emptiness_queries", &S.EmptinessQueries);
    R.registerCounter("decide.product_pairs_visited",
                      &S.ProductPairsVisited);
    R.registerCounter("decide.macro_pairs_visited", &S.MacroPairsVisited);
    R.registerCounter("decide.antichain_prunes", &S.AntichainPrunes);
    R.registerCounter("decide.early_exits", &S.EarlyExits);
    R.registerCounter("decide.early_exit_depth_total",
                      &S.EarlyExitDepthTotal);
    R.registerCounter("decide.cache_hits", &S.CacheHits);
    R.registerCounter("decide.cache_misses", &S.CacheMisses);
    R.registerCounter("decide.cache_evictions", &S.CacheEvictions);
  }
};

RegisterDecideStats RegisterDecideStatsInit;

void recordEarlyExit(size_t WitnessLength) {
  DecideStats::global().EarlyExits++;
  DecideStats::global().EarlyExitDepthTotal += WitnessLength;
}

//===----------------------------------------------------------------------===//
// Lazy product search (emptiness of intersection)
//===----------------------------------------------------------------------===//

/// BFS over the state pairs of Lhs x Rhs reachable from the start pair,
/// materializing nothing but the visited set and (for witness extraction)
/// a predecessor chain. Stops at the first pair where both sides accept.
///
/// Runs over the CSR kernel views: the left operand's lanes are merged
/// back into original adjacency order (EpsEdge::Pos) so discovery order —
/// and with it every witness string — is bit-identical to the classic
/// adjacency-list walk. All working storage lives in a thread-local
/// scratch pool, so steady-state queries allocate nothing in the inner
/// loop: the maps keep their buckets across clear(), the node/worklist
/// vectors keep their capacity, and the per-(label, label) symbol cache
/// collapses 256-bit set intersections to one lookup per visited edge
/// pair.
class ProductSearch {
public:
  struct Scratch {
    FlatMap64<size_t> Seen;
    /// Flat (left label id) x (right label id) -> smallest common symbol:
    /// -1 for disjoint labels, Uncomputed before the first probe. Label
    /// ids are view-local, so the table is refilled per query (capacity
    /// kept — label counts are small, so the fill is cheap).
    std::vector<int16_t> PairSym;
    std::vector<size_t> Work;
  };

  ProductSearch(const Nfa &Lhs, const Nfa &Rhs)
      : CsrL(Lhs.csr()), CsrR(Rhs.csr()), L(*CsrL), R(*CsrR) {
    Scratch &S = scratch();
    S.Seen.clear();
    S.PairSym.assign(size_t(L.numLabels()) * R.numLabels(), Uncomputed);
    S.Work.clear();
    WorkHead = 0;
    Nodes.clear();
  }

  /// Returns the node index of an accepting pair, or SIZE_MAX when the
  /// intersection is empty.
  size_t run() {
    if (FaultInjector::global().shouldFail("alloc.decide.product"))
      throw std::bad_alloc();
    Scratch &S = scratch();
    size_t Hit = intern(L.start(), R.start(), SIZE_MAX, -1);
    if (Hit != SIZE_MAX)
      return Hit;
    // A budget-exhausted search stops without an answer; the caller must
    // poll the ambient budget and treat the result as unusable.
    while (WorkHead != S.Work.size() && !ResourceGuard::exhausted()) {
      size_t Cur = S.Work[WorkHead++];
      // Nodes may reallocate while successors are interned; copy the pair.
      StateId A = Nodes[Cur].A, B = Nodes[Cur].B;
      const CsrNfa::EpsEdge *EA = L.epsBegin(A), *EAEnd = L.epsEnd(A);
      const CsrNfa::SymEdge *SA = L.symBegin(A), *SAEnd = L.symEnd(A);
      const CsrNfa::SymEdge *RB = R.symBegin(B), *RBEnd = R.symEnd(B);
      for (uint32_t Pos = 0; EA != EAEnd || SA != SAEnd; ++Pos) {
        if (EA != EAEnd && EA->Pos == Pos) {
          if ((Hit = intern(EA->To, B, Cur, -1)) != SIZE_MAX)
            return Hit;
          ++EA;
          continue;
        }
        for (const CsrNfa::SymEdge *SB = RB; SB != RBEnd; ++SB) {
          int Sym = commonSymbol(SA->Label, SB->Label);
          if (Sym < 0)
            continue;
          if ((Hit = intern(SA->To, SB->To, Cur, Sym)) != SIZE_MAX)
            return Hit;
        }
        ++SA;
      }
      for (const CsrNfa::EpsEdge *EB = R.epsBegin(B), *EBEnd = R.epsEnd(B);
           EB != EBEnd; ++EB)
        if ((Hit = intern(A, EB->To, Cur, -1)) != SIZE_MAX)
          return Hit;
    }
    return SIZE_MAX;
  }

  /// The string spelled by the predecessor chain ending at \p Index.
  std::string wordTo(size_t Index) const {
    std::string Out;
    for (size_t Cur = Index; Cur != SIZE_MAX; Cur = Nodes[Cur].Parent)
      if (Nodes[Cur].Symbol >= 0)
        Out.push_back(static_cast<char>(Nodes[Cur].Symbol));
    std::reverse(Out.begin(), Out.end());
    return Out;
  }

private:
  struct Node {
    StateId A, B;
    size_t Parent;
    int Symbol; ///< -1 for epsilon steps and the root.
  };

  static Scratch &scratch() {
    thread_local Scratch TheScratch;
    return TheScratch;
  }

  static constexpr int16_t Uncomputed = -2;

  /// The smallest symbol both labels fire on (what the classic walk's
  /// `(TA.Label & TB.Label).min()` produced), memoized per label pair.
  int commonSymbol(uint32_t LA, uint32_t LB) {
    int16_t &Slot = scratch().PairSym[size_t(LA) * R.numLabels() + LB];
    if (Slot == Uncomputed)
      Slot = int16_t(L.label(LA).firstCommon(R.label(LB)));
    return Slot;
  }

  /// Discovers (A, B) if new; returns its index when it is an accepting
  /// pair (the early exit), SIZE_MAX otherwise.
  size_t intern(StateId A, StateId B, size_t Parent, int Symbol) {
    uint64_t Key = (uint64_t(A) << 32) | uint64_t(B);
    auto [Value, Inserted] = scratch().Seen.tryEmplace(Key, Nodes.size());
    if (!Inserted)
      return SIZE_MAX;
    size_t Index = *Value;
    Nodes.push_back({A, B, Parent, Symbol});
    DecideStats::global().ProductPairsVisited++;
    ResourceGuard::chargeStates();
    if (L.isAccepting(A) && R.isAccepting(B))
      return Index;
    scratch().Work.push_back(Index);
    return SIZE_MAX;
  }

  std::shared_ptr<const CsrNfa> CsrL, CsrR;
  const CsrNfa &L, &R;
  /// Nodes stay per-search (wordTo() reads them after run() returns), but
  /// the vector is thread-local too so its capacity survives across
  /// queries.
  std::vector<Node> &Nodes = nodesPool();
  size_t WorkHead = 0;

  static std::vector<Node> &nodesPool() {
    thread_local std::vector<Node> TheNodes;
    return TheNodes;
  }
};

//===----------------------------------------------------------------------===//
// Lazy subset search (antichain pruning)
//===----------------------------------------------------------------------===//

/// Counterexample search for Lhs ⊆ Rhs: BFS over pairs (l, S) where l is
/// an Lhs state and S an epsilon-closed macro-state of Rhs, determinized
/// on demand over the joint alphabet partition. A counterexample
/// configuration is a pair with l accepting and S containing no accepting
/// Rhs state; reaching one proves a word in L(Lhs) \ L(Rhs).
///
/// Antichain pruning: if (l, S') with S' ⊆ S was already discovered, any
/// counterexample reachable from (l, S) is also reachable from (l, S')
/// (shrinking the macro-state only makes rejection by Rhs easier), so
/// (l, S) need not be explored. Per l we keep only the ⊆-minimal
/// macro-states seen.
/// Runs over the CSR kernel views. The joint alphabet partition starts
/// from the left view's cached minterms and is refined by the right view's
/// distinct labels — the identical class sequence
/// AlphabetPartition::compute(Lhs, &Rhs) produces, so representatives (and
/// counterexample strings) match the classic search byte for byte. Macro
/// states are interned into a pooled hash table instead of a
/// std::map<std::vector, ...>, move rows are one flat lazy table, and all
/// of it lives in a thread-local scratch pool: a steady-state query's
/// antichain inner loop performs no allocation beyond amortized pool
/// growth.
class SubsetSearch {
public:
  struct Scratch {
    StateSetInterner Macros;
    std::vector<uint8_t> MacroAccepting;
    /// Flattened per-macro lazy move rows (macro id * K + class).
    std::vector<uint32_t> MacroMoves;
    /// Per-L-state ⊆-minimal macro-states discovered so far. Sized to the
    /// largest Lhs seen on this thread; entries are cleared per query.
    std::vector<std::vector<uint32_t>> Antichain;
    std::vector<size_t> Work;
    /// Joint minterm classes, their representatives, and per-label class
    /// masks for both operands' label tables.
    std::vector<CharSet> Classes;
    std::vector<unsigned char> Reps;
    std::vector<uint64_t> MaskL, MaskR;
    std::vector<StateId> Gather;
    StateBits Bits;
  };

  SubsetSearch(const Nfa &Lhs, const Nfa &Rhs)
      : CsrL(Lhs.csr()), CsrR(Rhs.csr()), L(*CsrL), R(*CsrR) {
    Scratch &S = scratch();
    S.Macros.clear();
    S.MacroAccepting.clear();
    S.MacroMoves.clear();
    if (S.Antichain.size() < L.numStates())
      S.Antichain.resize(L.numStates());
    for (uint32_t A = 0; A != L.numStates(); ++A)
      S.Antichain[A].clear();
    S.Work.clear();
    WorkHead = 0;
    Nodes.clear();
    S.Bits.ensure(R.numStates());

    // Joint minterms: the left view's partition refined by the right
    // view's distinct labels, in first-occurrence order — exactly the
    // refinement sequence AlphabetPartition::compute(Lhs, &Rhs) applies
    // (repeated labels refine nothing).
    S.Classes.assign(L.mintermClasses().begin(), L.mintermClasses().end());
    for (const CharSet &Label : R.labels())
      CharSet::refinePartition(S.Classes, Label);
    K = unsigned(S.Classes.size());
    KWords = (K + 63) / 64;
    S.Reps.clear();
    for (const CharSet &Class : S.Classes)
      S.Reps.push_back(Class.min());
    buildMasks(S.MaskL, L.labels());
    buildMasks(S.MaskR, R.labels());
  }

  /// Returns the node index of a counterexample configuration, or
  /// SIZE_MAX when Lhs ⊆ Rhs.
  size_t run() {
    if (FaultInjector::global().shouldFail("alloc.decide.subset"))
      throw std::bad_alloc();
    Scratch &S = scratch();
    S.Gather.clear();
    S.Gather.push_back(R.start());
    R.epsilonClosure(S.Gather, S.Bits, /*SortResult=*/true);
    size_t Hit = intern(L.start(), internMacro(S.Gather), SIZE_MAX, -1);
    if (Hit != SIZE_MAX)
      return Hit;
    while (WorkHead != S.Work.size() && !ResourceGuard::exhausted()) {
      size_t Cur = S.Work[WorkHead++];
      StateId A = Nodes[Cur].LState;
      uint32_t Macro = Nodes[Cur].Macro;
      const CsrNfa::EpsEdge *EA = L.epsBegin(A), *EAEnd = L.epsEnd(A);
      const CsrNfa::SymEdge *SA = L.symBegin(A), *SAEnd = L.symEnd(A);
      for (uint32_t Pos = 0; EA != EAEnd || SA != SAEnd; ++Pos) {
        if (EA != EAEnd && EA->Pos == Pos) {
          if ((Hit = intern(EA->To, Macro, Cur, -1)) != SIZE_MAX)
            return Hit;
          ++EA;
          continue;
        }
        // Ascending set bits of the label's class mask == the classic
        // ascending class scan filtered by Label.contains(rep).
        const uint64_t *Mask = S.MaskL.data() + size_t(SA->Label) * KWords;
        for (unsigned W = 0; W != KWords; ++W) {
          uint64_t WordBits = Mask[W];
          while (WordBits) {
            unsigned C = W * 64 + unsigned(__builtin_ctzll(WordBits));
            WordBits &= WordBits - 1;
            if ((Hit = intern(SA->To, macroMove(Macro, C), Cur,
                              S.Reps[C])) != SIZE_MAX)
              return Hit;
          }
        }
        ++SA;
      }
    }
    return SIZE_MAX;
  }

  std::string wordTo(size_t Index) const {
    std::string Out;
    for (size_t Cur = Index; Cur != SIZE_MAX; Cur = Nodes[Cur].Parent)
      if (Nodes[Cur].Symbol >= 0)
        Out.push_back(static_cast<char>(Nodes[Cur].Symbol));
    std::reverse(Out.begin(), Out.end());
    return Out;
  }

private:
  struct Node {
    StateId LState;
    uint32_t Macro;
    size_t Parent;
    int Symbol;
  };

  static Scratch &scratch() {
    thread_local Scratch TheScratch;
    return TheScratch;
  }

  /// One class-mask bit row per label of \p Labels, over the joint
  /// classes.
  void buildMasks(std::vector<uint64_t> &Masks,
                  const std::vector<CharSet> &Labels) const {
    Scratch &S = scratch();
    Masks.assign(Labels.size() * KWords, 0);
    for (size_t I = 0; I != Labels.size(); ++I) {
      uint64_t *Row = Masks.data() + I * KWords;
      for (unsigned C = 0; C != K; ++C)
        if (Labels[I].contains(S.Reps[C]))
          Row[C >> 6] |= uint64_t(1) << (C & 63);
    }
  }

  /// Interns a sorted, epsilon-closed macro-state of Rhs.
  uint32_t internMacro(const std::vector<StateId> &Set) {
    Scratch &S = scratch();
    auto [Id, Inserted] = S.Macros.intern(Set.data(), Set.size());
    if (Inserted) {
      bool Acc = false;
      for (StateId St : Set)
        Acc = Acc || R.isAccepting(St);
      S.MacroAccepting.push_back(Acc);
      S.MacroMoves.resize(S.MacroMoves.size() + K, NoMove);
      // A macro-state owns its sorted set plus a lazy move row.
      ResourceGuard::chargeStates();
      ResourceGuard::chargeMemory(Set.size() * sizeof(StateId) +
                                  K * sizeof(uint32_t));
    }
    return Id;
  }

  /// The macro-state reached from \p Macro on alphabet class \p C,
  /// computed (and memoized) on demand — this is where Rhs is
  /// determinized lazily.
  uint32_t macroMove(uint32_t Macro, unsigned C) {
    Scratch &S = scratch();
    uint32_t Slot = S.MacroMoves[size_t(Macro) * K + C];
    if (Slot != NoMove)
      return Slot;
    S.Gather.clear();
    for (const StateId *St = S.Macros.begin(Macro), *StEnd = S.Macros.end(Macro);
         St != StEnd; ++St) {
      for (const CsrNfa::SymEdge *E = R.symBegin(*St), *EEnd = R.symEnd(*St);
           E != EEnd; ++E) {
        const uint64_t *Row = S.MaskR.data() + size_t(E->Label) * KWords;
        if (!((Row[C >> 6] >> (C & 63)) & 1) || S.Bits.test(E->To))
          continue;
        S.Bits.set(E->To);
        S.Gather.push_back(E->To);
      }
    }
    R.epsilonClosureMarked(S.Gather, S.Bits, /*SortResult=*/true);
    uint32_t Id = internMacro(S.Gather);
    // internMacro may grow MacroMoves; re-resolve the slot.
    S.MacroMoves[size_t(Macro) * K + C] = Id;
    return Id;
  }

  /// Discovers (A, Macro) unless an antichain entry dominates it; returns
  /// the node index when it is a counterexample configuration, SIZE_MAX
  /// otherwise.
  size_t intern(StateId A, uint32_t Macro, size_t Parent, int Symbol) {
    Scratch &S = scratch();
    const StateId *SetB = S.Macros.begin(Macro);
    const StateId *SetE = S.Macros.end(Macro);
    std::vector<uint32_t> &Chain = S.Antichain[A];
    for (uint32_t Known : Chain) {
      if (std::includes(SetB, SetE, S.Macros.begin(Known),
                        S.Macros.end(Known))) {
        DecideStats::global().AntichainPrunes++;
        return SIZE_MAX;
      }
    }
    // Keep the antichain minimal: drop entries the new set dominates.
    Chain.erase(std::remove_if(Chain.begin(), Chain.end(),
                               [&](uint32_t Known) {
                                 return std::includes(S.Macros.begin(Known),
                                                      S.Macros.end(Known),
                                                      SetB, SetE);
                               }),
                Chain.end());
    Chain.push_back(Macro);
    Nodes.push_back({A, Macro, Parent, Symbol});
    DecideStats::global().MacroPairsVisited++;
    ResourceGuard::chargeStates();
    if (L.isAccepting(A) && !S.MacroAccepting[Macro])
      return Nodes.size() - 1;
    S.Work.push_back(Nodes.size() - 1);
    return SIZE_MAX;
  }

  static constexpr uint32_t NoMove = ~uint32_t(0);

  std::shared_ptr<const CsrNfa> CsrL, CsrR;
  const CsrNfa &L, &R;
  unsigned K = 0;
  unsigned KWords = 0;
  size_t WorkHead = 0;
  /// Per-search but pooled thread-locally (wordTo() reads them after
  /// run()).
  std::vector<Node> &Nodes = nodesPool();

  static std::vector<Node> &nodesPool() {
    thread_local std::vector<Node> TheNodes;
    return TheNodes;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// DecisionCache
//===----------------------------------------------------------------------===//

DecisionCache &DecisionCache::global() {
  static DecisionCache Cache;
  return Cache;
}

void DecisionCache::setEnabled(bool E) {
  assert(!parallelRegionActive() &&
         "DecisionCache::setEnabled while a parallel region is active");
  Enabled.store(E, std::memory_order_relaxed);
}

void DecisionCache::clear() {
  assert(!parallelRegionActive() &&
         "DecisionCache::clear while a parallel region is active");
  Answers.clear();
}

size_t DecisionCache::numMachines() const {
  struct IdentityHash {
    size_t operator()(const MachineIdentity &M) const { return M.hash(); }
  };
  std::unordered_set<MachineIdentity, IdentityHash> Distinct;
  Answers.forEachKey([&](const MemoKey &K) {
    Distinct.insert(K.Machines.begin(), K.Machines.end());
  });
  return Distinct.size();
}

size_t DecisionCache::numAnswers() const { return Answers.size(); }

//===----------------------------------------------------------------------===//
// Public queries
//===----------------------------------------------------------------------===//

bool dprle::emptyIntersection(const Nfa &Lhs, const Nfa &Rhs) {
  DPRLE_TRACE_SPAN("decide_empty_intersection");
  DecideStats::global().EmptyIntersectionQueries++;
  return DecisionCache::global().answer(
      DecisionCache::Query::EmptyIntersection, Lhs, &Rhs, [&] {
        ProductSearch Search(Lhs, Rhs);
        size_t Found = Search.run();
        if (Found != SIZE_MAX)
          recordEarlyExit(Search.wordTo(Found).size());
        return Found == SIZE_MAX;
      });
}

std::optional<std::string> dprle::intersectionWitness(const Nfa &Lhs,
                                                      const Nfa &Rhs) {
  DPRLE_TRACE_SPAN("decide_empty_intersection");
  DecideStats::global().EmptyIntersectionQueries++;
  ProductSearch Search(Lhs, Rhs);
  size_t Found = Search.run();
  if (Found == SIZE_MAX)
    return std::nullopt;
  std::string Word = Search.wordTo(Found);
  recordEarlyExit(Word.size());
  return Word;
}

bool dprle::subsetOf(const Nfa &Lhs, const Nfa &Rhs) {
  DPRLE_TRACE_SPAN("decide_subset");
  DecideStats::global().SubsetQueries++;
  return DecisionCache::global().answer(
      DecisionCache::Query::Subset, Lhs, &Rhs, [&] {
        SubsetSearch Search(Lhs, Rhs);
        size_t Found = Search.run();
        if (Found != SIZE_MAX)
          recordEarlyExit(Search.wordTo(Found).size());
        return Found == SIZE_MAX;
      });
}

std::optional<std::string> dprle::subsetCounterexample(const Nfa &Lhs,
                                                       const Nfa &Rhs) {
  DPRLE_TRACE_SPAN("decide_subset");
  DecideStats::global().SubsetQueries++;
  SubsetSearch Search(Lhs, Rhs);
  size_t Found = Search.run();
  if (Found == SIZE_MAX)
    return std::nullopt;
  std::string Word = Search.wordTo(Found);
  recordEarlyExit(Word.size());
  return Word;
}

bool dprle::equivalentTo(const Nfa &Lhs, const Nfa &Rhs) {
  DPRLE_TRACE_SPAN("decide_equivalent");
  DecideStats::global().EquivalenceQueries++;
  return DecisionCache::global().answer(
      DecisionCache::Query::Equivalent, Lhs, &Rhs,
      [&] { return subsetOf(Lhs, Rhs) && subsetOf(Rhs, Lhs); });
}

bool dprle::isEmpty(const Nfa &M) {
  DPRLE_TRACE_SPAN("decide_empty");
  DecideStats::global().EmptinessQueries++;
  return DecisionCache::global().answer(DecisionCache::Query::Empty, M,
                                        nullptr,
                                        [&] { return M.languageIsEmpty(); });
}
