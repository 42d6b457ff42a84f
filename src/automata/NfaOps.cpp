//===- NfaOps.cpp - Regular-language operations on NFAs ----------------------//

#include "automata/NfaOps.h"
#include "automata/CsrNfa.h"
#include "automata/Decide.h"
#include "automata/OpStats.h"
#include "support/Budget.h"
#include "support/Executor.h"
#include "support/FaultInjector.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <new>
#include <unordered_map>

using namespace dprle;

//===----------------------------------------------------------------------===//
// Concatenation and union
//===----------------------------------------------------------------------===//

namespace {

/// Copies \p Src into \p Dst, returning the old->new state map. Acceptance
/// flags are not copied.
std::vector<StateId> embed(Nfa &Dst, const Nfa &Src) {
  if (FaultInjector::global().shouldFail("alloc.embed"))
    throw std::bad_alloc();
  // Embedding is linear in the source machine, so no truncation is needed;
  // charging lets concat/star chains trip the cumulative budget, which the
  // callers' loop headers poll.
  ResourceGuard::chargeStates(Src.numStates());
  ResourceGuard::chargeTransitions(Src.numTransitions());
  ResourceGuard::chargeMachine(Dst.numStates() + Src.numStates());
  std::vector<StateId> Map(Src.numStates());
  for (StateId S = 0; S != Src.numStates(); ++S)
    Map[S] = Dst.addState();
  for (StateId S = 0; S != Src.numStates(); ++S) {
    for (const Transition &T : Src.transitionsFrom(S)) {
      if (T.IsEpsilon)
        Dst.addEpsilon(Map[S], Map[T.To], T.Marker);
      else
        Dst.addTransition(Map[S], T.Label, Map[T.To]);
    }
  }
  return Map;
}

} // namespace

Nfa dprle::concat(const Nfa &Lhs, const Nfa &Rhs, EpsilonMarker Marker,
                  ConcatEmbedding *Embedding) {
  StateId LhsFinal = InvalidState;
  Nfa LhsNorm = Lhs.withSingleAccepting(&LhsFinal);

  Nfa Out;
  std::vector<StateId> LhsMap = embed(Out, LhsNorm);
  std::vector<StateId> RhsMap = embed(Out, Rhs);
  Out.setStart(LhsMap[LhsNorm.start()]);
  Out.addEpsilon(LhsMap[LhsFinal], RhsMap[Rhs.start()], Marker);
  for (StateId S = 0; S != Rhs.numStates(); ++S)
    if (Rhs.isAccepting(S))
      Out.setAccepting(RhsMap[S]);
  if (Embedding) {
    // Report the embedding in terms of the *original* Lhs states. When
    // normalization added a fresh final state it has no original
    // counterpart, so LhsStates is sized to the original machine.
    Embedding->LhsStates.assign(LhsMap.begin(),
                                LhsMap.begin() + Lhs.numStates());
    Embedding->RhsStates = std::move(RhsMap);
  }
  return Out;
}

Nfa dprle::alternate(const Nfa &Lhs, const Nfa &Rhs) {
  Nfa Out;
  std::vector<StateId> LhsMap = embed(Out, Lhs);
  std::vector<StateId> RhsMap = embed(Out, Rhs);
  Out.addEpsilon(Out.start(), LhsMap[Lhs.start()]);
  Out.addEpsilon(Out.start(), RhsMap[Rhs.start()]);
  for (StateId S = 0; S != Lhs.numStates(); ++S)
    if (Lhs.isAccepting(S))
      Out.setAccepting(LhsMap[S]);
  for (StateId S = 0; S != Rhs.numStates(); ++S)
    if (Rhs.isAccepting(S))
      Out.setAccepting(RhsMap[S]);
  return Out;
}

Nfa dprle::star(const Nfa &M) {
  Nfa Out = plus(M);
  Out.setAccepting(Out.start());
  return Out;
}

Nfa dprle::plus(const Nfa &M) {
  Nfa Out;
  std::vector<StateId> Map = embed(Out, M);
  Out.addEpsilon(Out.start(), Map[M.start()]);
  StateId Final = Out.addState();
  Out.setAccepting(Final);
  for (StateId S = 0; S != M.numStates(); ++S) {
    if (!M.isAccepting(S))
      continue;
    Out.addEpsilon(Map[S], Final);
    Out.addEpsilon(Map[S], Map[M.start()]);
  }
  return Out;
}

Nfa dprle::optional(const Nfa &M) {
  Nfa Out = M.withSingleAccepting();
  if (Out.start() == Out.singleAccepting())
    return Out;
  Nfa Fresh;
  std::vector<StateId> Map = embed(Fresh, Out);
  Fresh.addEpsilon(Fresh.start(), Map[Out.start()]);
  Fresh.setAccepting(Map[Out.singleAccepting()]);
  Fresh.setAccepting(Fresh.start());
  return Fresh;
}

//===----------------------------------------------------------------------===//
// Product construction
//===----------------------------------------------------------------------===//

Nfa dprle::intersect(const Nfa &Lhs, const Nfa &Rhs, ProductMap *Map) {
  DPRLE_TRACE_SPAN("intersect");
  if (FaultInjector::global().shouldFail("alloc.intersect"))
    throw std::bad_alloc();
  // Lazily materialize state pairs reachable from (startL, startR) over the
  // flat CSR views. Epsilon transitions advance one side only and preserve
  // their markers; the left operand's lanes are merged back into original
  // adjacency order (EpsEdge::Pos) so the discovery order — and with it the
  // output's state numbering and transition order — is bit-identical to the
  // classic adjacency-list walk.
  std::shared_ptr<const CsrNfa> CsrL = Lhs.csr();
  std::shared_ptr<const CsrNfa> CsrR = Rhs.csr();
  const CsrNfa &CL = *CsrL;
  const CsrNfa &CR = *CsrR;

  Nfa Out;
  std::unordered_map<uint64_t, StateId> PairToState;
  std::vector<std::pair<StateId, StateId>> Origin;
  auto Key = [&](StateId A, StateId B) {
    return (uint64_t(A) << 32) | uint64_t(B);
  };
  // Worklist entries carry the already-interned result state so popping an
  // item never re-hashes PairToState.
  struct WorkItem {
    StateId A, B, Out;
  };
  std::deque<WorkItem> Work;
  // The product has at least max(|Lhs|, |Rhs|) reachable pairs in the
  // common case of same-alphabet operands; reserving that floor avoids the
  // first few rehash/regrow cycles without over-committing on the Q^2
  // worst case.
  size_t ReserveHint = std::max(Lhs.numStates(), Rhs.numStates());
  PairToState.reserve(ReserveHint);
  Origin.reserve(ReserveHint);

  // Label-pair intersection cache: visited pairs repeat the same few
  // (label, label) combinations, so each 256-bit intersection is computed
  // once per distinct pair instead of once per visited edge pair. A flat
  // |labels(L)| x |labels(R)| table keeps the per-edge-pair lookup to one
  // indexed load — cheaper than re-intersecting only because the table
  // itself is (interned labels)^2, not (edges)^2. Lazily filled: Unknown
  // -> computed on first probe; EmptyCommon marks a disjoint pair.
  constexpr uint32_t EmptyCommon = ~uint32_t(0);
  constexpr uint32_t Unknown = EmptyCommon - 1;
  const size_t NumRLabels = CR.numLabels();
  std::vector<uint32_t> CommonOf(size_t(CL.numLabels()) * NumRLabels,
                                 Unknown);
  std::vector<CharSet> CommonPool;
  auto CommonLabel = [&](uint32_t LA, uint32_t LB) -> const CharSet * {
    uint32_t &Slot = CommonOf[size_t(LA) * NumRLabels + LB];
    if (Slot == Unknown) {
      CharSet Common = CL.label(LA) & CR.label(LB);
      if (Common.empty()) {
        Slot = EmptyCommon;
      } else {
        Slot = uint32_t(CommonPool.size());
        CommonPool.push_back(Common);
      }
    }
    return Slot == EmptyCommon ? nullptr : &CommonPool[Slot];
  };

  auto GetState = [&](StateId A, StateId B) {
    auto [It, Inserted] = PairToState.try_emplace(Key(A, B), InvalidState);
    if (Inserted) {
      // State 0 (the Out start) is consumed by the initial pair.
      It->second = Origin.empty() ? Out.start() : Out.addState();
      Origin.push_back({A, B});
      Work.push_back({A, B, It->second});
      OpStats::global().ProductStatesVisited++;
      ResourceGuard::chargeStates();
      ResourceGuard::chargeMachine(Origin.size());
      if (CL.isAccepting(A) && CR.isAccepting(B))
        Out.setAccepting(It->second);
    }
    return It->second;
  };

  GetState(Lhs.start(), Rhs.start());
  // The budget poll unwinds the lazy construction cooperatively: the
  // truncated product is a valid machine over the pairs built so far, and
  // callers discard it after polling the ambient budget.
  while (!Work.empty() && !ResourceGuard::exhausted()) {
    auto [A, B, From] = Work.front();
    Work.pop_front();
    const CsrNfa::EpsEdge *EA = CL.epsBegin(A), *EAEnd = CL.epsEnd(A);
    const CsrNfa::SymEdge *SA = CL.symBegin(A), *SAEnd = CL.symEnd(A);
    const CsrNfa::SymEdge *RB = CR.symBegin(B), *RBEnd = CR.symEnd(B);
    if (EA == EAEnd) {
      // No epsilon edges on this left state (the common case after
      // withoutEpsilonTransitions): skip the per-position lane merge.
      for (; SA != SAEnd; ++SA) {
        for (const CsrNfa::SymEdge *SB = RB; SB != RBEnd; ++SB) {
          const CharSet *Common = CommonLabel(SA->Label, SB->Label);
          if (!Common)
            continue;
          ResourceGuard::chargeTransitions();
          Out.addTransition(From, *Common, GetState(SA->To, SB->To));
        }
      }
    } else {
      for (uint32_t Pos = 0; EA != EAEnd || SA != SAEnd; ++Pos) {
        if (EA != EAEnd && EA->Pos == Pos) {
          ResourceGuard::chargeTransitions();
          Out.addEpsilon(From, GetState(EA->To, B), EA->Marker);
          ++EA;
          continue;
        }
        for (const CsrNfa::SymEdge *SB = RB; SB != RBEnd; ++SB) {
          const CharSet *Common = CommonLabel(SA->Label, SB->Label);
          if (!Common)
            continue;
          ResourceGuard::chargeTransitions();
          Out.addTransition(From, *Common, GetState(SA->To, SB->To));
        }
        ++SA;
      }
    }
    for (const CsrNfa::EpsEdge *EB = CR.epsBegin(B), *EBEnd = CR.epsEnd(B);
         EB != EBEnd; ++EB) {
      ResourceGuard::chargeTransitions();
      Out.addEpsilon(From, GetState(A, EB->To), EB->Marker);
    }
  }
  if (Map)
    Map->Origin = std::move(Origin);
  return Out;
}

//===----------------------------------------------------------------------===//
// Determinization and boolean closure
//===----------------------------------------------------------------------===//

Dfa dprle::determinize(const Nfa &M) {
  DPRLE_TRACE_SPAN("determinize");
  if (FaultInjector::global().shouldFail("alloc.determinize"))
    throw std::bad_alloc();
  // Subset construction over the CSR view: the minterm partition comes
  // straight off the view (same class order compute() would produce), the
  // sorted subsets live in a pooled hashed interner instead of a
  // std::map<std::vector, ...> keyed by whole vectors, and each visited
  // subset's successors are bucketed per class in one pass over its edges
  // (a word scan of each label's class mask) instead of K full rescans
  // intersecting raw 256-bit sets.
  std::shared_ptr<const CsrNfa> Csr = M.csr();
  const CsrNfa &C = *Csr;
  AlphabetPartition Partition =
      AlphabetPartition::fromClasses(C.mintermClasses());
  const unsigned K = Partition.numClasses();

  StateSetInterner Sets;
  std::vector<StateId> TableRows; // Flattened: subset id * K + class.
  std::vector<bool> AcceptingRows;
  StateBits Bits;
  Bits.ensure(C.numStates());

  auto Intern = [&](const std::vector<StateId> &Set) {
    auto [Id, Inserted] = Sets.intern(Set.data(), Set.size());
    if (Inserted) {
      TableRows.resize(TableRows.size() + K, InvalidState);
      bool Acc = false;
      for (StateId S : Set)
        Acc = Acc || C.isAccepting(S);
      AcceptingRows.push_back(Acc);
      OpStats::global().DeterminizeStatesVisited++;
      // One DFA state = one table row of K cells plus the subset itself.
      ResourceGuard::chargeStates();
      ResourceGuard::chargeTransitions(K);
      ResourceGuard::chargeMemory(Set.size() * sizeof(StateId));
      ResourceGuard::chargeMachine(Sets.numSets());
    }
    return Id;
  };

  std::vector<StateId> Initial = {M.start()};
  C.epsilonClosure(Initial, Bits, /*SortResult=*/true);
  StateId StartSet = Intern(Initial);

  // Per-class successor buckets, reused across subsets. A bucket may hold
  // duplicates; the drain pass dedups in first-encounter order, which is
  // exactly the order the classic per-class rescan discovered successors.
  std::vector<std::vector<StateId>> Buckets(K);
  std::vector<StateId> Cur, Next;
  for (StateId Row = 0; Row != Sets.numSets() && !ResourceGuard::exhausted();
       ++Row) {
    // Copy: the interner pool may reallocate as successors are interned.
    Cur.assign(Sets.begin(Row), Sets.end(Row));
    for (StateId S : Cur) {
      for (const CsrNfa::SymEdge *E = C.symBegin(S), *EEnd = C.symEnd(S);
           E != EEnd; ++E) {
        const uint64_t *Mask = C.labelMask(E->Label);
        for (unsigned W = 0; W != C.numClassWords(); ++W) {
          uint64_t WordBits = Mask[W];
          while (WordBits) {
            unsigned Class = W * 64 + unsigned(__builtin_ctzll(WordBits));
            WordBits &= WordBits - 1;
            Buckets[Class].push_back(E->To);
          }
        }
      }
    }
    for (unsigned Cls = 0; Cls != K; ++Cls) {
      Next.clear();
      for (StateId To : Buckets[Cls]) {
        if (Bits.test(To))
          continue;
        Bits.set(To);
        Next.push_back(To);
      }
      Buckets[Cls].clear();
      C.epsilonClosureMarked(Next, Bits, /*SortResult=*/true);
      TableRows[size_t(Row) * K + Cls] = Intern(Next);
    }
  }

  if (ResourceGuard::exhausted()) {
    // Cooperative unwind: some table rows were never filled. Return a
    // well-formed one-state sink (complete, non-accepting) that callers
    // discard after polling the ambient budget — never a table with
    // InvalidState entries.
    Dfa Sink(Partition, 1, 0);
    for (unsigned Cls = 0; Cls != K; ++Cls)
      Sink.setNext(0, Cls, 0);
    return Sink;
  }

  Dfa Out(Partition, Sets.numSets(), StartSet);
  for (StateId S = 0; S != Sets.numSets(); ++S) {
    Out.setAccepting(S, AcceptingRows[S]);
    for (unsigned Cls = 0; Cls != K; ++Cls)
      Out.setNext(S, Cls, TableRows[size_t(S) * K + Cls]);
  }
  return Out;
}

Nfa dprle::complement(const Nfa &M) {
  return determinize(M).complemented().toNfa();
}

Nfa dprle::difference(const Nfa &Lhs, const Nfa &Rhs) {
  return intersect(Lhs, complement(Rhs));
}

//===----------------------------------------------------------------------===//
// Minimization with structural-identity memoization
//===----------------------------------------------------------------------===//

MinimizeStats &MinimizeStats::global() {
  static MinimizeStats Stats;
  return Stats;
}

namespace {

struct RegisterMinimizeStats {
  RegisterMinimizeStats() {
    StatsRegistry &R = StatsRegistry::global();
    MinimizeStats &S = MinimizeStats::global();
    R.registerCounter("minimize.hits", &S.Hits);
    R.registerCounter("minimize.misses", &S.Misses);
    R.registerCounter("minimize.evictions", &S.Evictions);
  }
};
RegisterMinimizeStats RegisterMinimizeStatsInit;

/// Hopcroft results keyed by the operand's identity. One stripe, not
/// several: minimization is orders of magnitude more expensive than the
/// lookup, so lock contention is negligible next to the work a hit saves.
MemoTable<Nfa> &minimizeMemo() {
  static MemoTable<Nfa> Memo(
      /*NumStripes=*/1, /*MaxEntriesPerStripe=*/1 << 12,
      {&MinimizeStats::global().Hits, &MinimizeStats::global().Misses,
       &MinimizeStats::global().Evictions});
  return Memo;
}

} // namespace

void dprle::setMinimizeCacheEnabled(bool Enabled) {
  DecisionCache::global().setEnabled(Enabled);
}

bool dprle::minimizeCacheEnabled() { return DecisionCache::global().enabled(); }

void dprle::clearMinimizeCache() { minimizeMemo().clear(); }

size_t dprle::minimizeCacheSize() { return minimizeMemo().size(); }

Nfa dprle::minimized(const Nfa &M) {
  if (!minimizeCacheEnabled())
    return determinize(M).minimized().toNfa();
  MemoKey Key;
  Key.addMachine(M);
  if (std::optional<Nfa> Hit = minimizeMemo().find(Key))
    return std::move(*Hit);
  Nfa Result = determinize(M).minimized().toNfa();
  // Computed before filing, so every copy a hit hands out shares it: a
  // warm constant is never re-encoded for the memos it is queried in.
  Result.identity();
  minimizeMemo().insert(std::move(Key), Result);
  return Result;
}

//===----------------------------------------------------------------------===//
// Quotients
//===----------------------------------------------------------------------===//

namespace {

/// Explores the full pair graph of \p A and \p B (not just pairs reachable
/// from the starts) and returns, for every pair (a, b), whether an
/// accepting pair (accA, accB) is reachable from it.
std::vector<bool> pairCoReachable(const Nfa &A, const Nfa &B) {
  const size_t NB = B.numStates();
  // Charge the whole |A|x|B| pair graph up front — unlike the lazy
  // constructions this one allocates its full table eagerly, so the budget
  // must veto it *before* the allocation, not during.
  ResourceGuard::chargeStates(A.numStates() * NB);
  if (ResourceGuard::exhausted())
    return std::vector<bool>(A.numStates() * NB, false);
  auto Index = [NB](StateId SA, StateId SB) { return size_t(SA) * NB + SB; };
  // Build reverse adjacency of the pair graph.
  std::vector<std::vector<uint32_t>> Rev(A.numStates() * NB);
  for (StateId SA = 0; SA != A.numStates(); ++SA) {
    for (StateId SB = 0; SB != B.numStates(); ++SB) {
      size_t From = Index(SA, SB);
      for (const Transition &TA : A.transitionsFrom(SA)) {
        if (TA.IsEpsilon) {
          Rev[Index(TA.To, SB)].push_back(From);
          continue;
        }
        for (const Transition &TB : B.transitionsFrom(SB)) {
          if (TB.IsEpsilon)
            continue;
          if (TA.Label.intersects(TB.Label))
            Rev[Index(TA.To, TB.To)].push_back(From);
        }
      }
      for (const Transition &TB : B.transitionsFrom(SB))
        if (TB.IsEpsilon)
          Rev[Index(SA, TB.To)].push_back(From);
    }
  }
  std::vector<bool> Seen(A.numStates() * NB, false);
  std::deque<size_t> Work;
  for (StateId SA = 0; SA != A.numStates(); ++SA)
    for (StateId SB = 0; SB != B.numStates(); ++SB)
      if (A.isAccepting(SA) && B.isAccepting(SB)) {
        Seen[Index(SA, SB)] = true;
        Work.push_back(Index(SA, SB));
      }
  while (!Work.empty()) {
    size_t P = Work.front();
    Work.pop_front();
    for (size_t Q : Rev[P])
      if (!Seen[Q]) {
        Seen[Q] = true;
        Work.push_back(Q);
      }
  }
  return Seen;
}

} // namespace

Nfa dprle::rightQuotient(const Nfa &K, const Nfa &Suffixes) {
  // State q of K becomes accepting iff some s in L(Suffixes) leads from q
  // to acceptance in K — i.e. the pair (q, Suffixes.start) can reach an
  // accepting pair in the product graph.
  std::vector<bool> CoReach = pairCoReachable(K, Suffixes);
  Nfa Out = K;
  const size_t NB = Suffixes.numStates();
  for (StateId Q = 0; Q != K.numStates(); ++Q)
    Out.setAccepting(Q, CoReach[size_t(Q) * NB + Suffixes.start()]);
  return Out.trimmed();
}

Nfa dprle::leftQuotient(const Nfa &Prefixes, const Nfa &K) {
  // Valid entry points of K: states q reachable from K.start by some p in
  // L(Prefixes) — i.e. pairs (q, b) reachable from (K.start,
  // Prefixes.start) with b accepting in Prefixes.
  std::vector<bool> EntryPoint(K.numStates(), false);
  ResourceGuard::chargeStates(size_t(K.numStates()) * Prefixes.numStates());
  if (ResourceGuard::exhausted())
    return Nfa();
  {
    std::vector<bool> Seen(size_t(K.numStates()) * Prefixes.numStates(),
                           false);
    auto Index = [&](StateId SK, StateId SP) {
      return size_t(SK) * Prefixes.numStates() + SP;
    };
    std::deque<std::pair<StateId, StateId>> Work = {
        {K.start(), Prefixes.start()}};
    Seen[Index(K.start(), Prefixes.start())] = true;
    while (!Work.empty()) {
      auto [SK, SP] = Work.front();
      Work.pop_front();
      if (Prefixes.isAccepting(SP))
        EntryPoint[SK] = true;
      for (const Transition &TK : K.transitionsFrom(SK)) {
        if (TK.IsEpsilon) {
          if (!Seen[Index(TK.To, SP)]) {
            Seen[Index(TK.To, SP)] = true;
            Work.push_back({TK.To, SP});
          }
          continue;
        }
        for (const Transition &TP : Prefixes.transitionsFrom(SP)) {
          if (TP.IsEpsilon || !TK.Label.intersects(TP.Label))
            continue;
          if (!Seen[Index(TK.To, TP.To)]) {
            Seen[Index(TK.To, TP.To)] = true;
            Work.push_back({TK.To, TP.To});
          }
        }
      }
      for (const Transition &TP : Prefixes.transitionsFrom(SP)) {
        if (!TP.IsEpsilon)
          continue;
        if (!Seen[Index(SK, TP.To)]) {
          Seen[Index(SK, TP.To)] = true;
          Work.push_back({SK, TP.To});
        }
      }
    }
  }
  Nfa Out;
  std::vector<StateId> Map = embed(Out, K);
  for (StateId Q = 0; Q != K.numStates(); ++Q) {
    if (EntryPoint[Q])
      Out.addEpsilon(Out.start(), Map[Q]);
    if (K.isAccepting(Q))
      Out.setAccepting(Map[Q]);
  }
  return Out.trimmed();
}

//===----------------------------------------------------------------------===//
// Witness extraction
//===----------------------------------------------------------------------===//

std::optional<std::string> dprle::shortestString(const Nfa &M) {
  // 0-1 BFS: epsilon edges cost 0, symbol edges cost 1. Relax at pop time
  // so that cheaper epsilon paths discovered later still win.
  constexpr size_t Inf = SIZE_MAX;
  struct Pred {
    StateId From = InvalidState;
    int Symbol = -1; // -1: epsilon
  };
  std::vector<Pred> Preds(M.numStates());
  std::vector<size_t> Dist(M.numStates(), Inf);
  std::vector<bool> Done(M.numStates(), false);
  std::deque<StateId> Work = {M.start()};
  Dist[M.start()] = 0;

  while (!Work.empty()) {
    StateId S = Work.front();
    Work.pop_front();
    if (Done[S])
      continue;
    Done[S] = true;
    for (const Transition &T : M.transitionsFrom(S)) {
      int Symbol = T.IsEpsilon ? -1 : T.Label.min();
      size_t NewDist = Dist[S] + (T.IsEpsilon ? 0 : 1);
      if (NewDist >= Dist[T.To])
        continue;
      Dist[T.To] = NewDist;
      Preds[T.To] = {S, Symbol};
      if (T.IsEpsilon)
        Work.push_front(T.To);
      else
        Work.push_back(T.To);
    }
  }
  StateId Hit = InvalidState;
  for (StateId S = 0; S != M.numStates(); ++S)
    if (M.isAccepting(S) && Dist[S] != Inf &&
        (Hit == InvalidState || Dist[S] < Dist[Hit]))
      Hit = S;
  if (Hit == InvalidState)
    return std::nullopt;
  std::string Out;
  for (StateId S = Hit; S != M.start();) {
    const Pred &P = Preds[S];
    if (P.Symbol >= 0)
      Out.push_back(static_cast<char>(P.Symbol));
    S = P.From;
  }
  std::reverse(Out.begin(), Out.end());
  return Out;
}

std::vector<std::string> dprle::enumerateStrings(const Nfa &M, size_t MaxLen,
                                                 size_t Limit) {
  // Enumerate via the DFA to avoid duplicate strings from nondeterminism.
  Dfa D = determinize(M);

  // Prune states that cannot reach acceptance; without this the complete
  // DFA's dead state would be expanded over the whole byte alphabet.
  std::vector<bool> Useful(D.numStates(), false);
  {
    std::vector<std::vector<StateId>> Rev(D.numStates());
    for (StateId S = 0; S != D.numStates(); ++S)
      for (unsigned C = 0; C != D.numClasses(); ++C)
        Rev[D.next(S, C)].push_back(S);
    std::deque<StateId> Work;
    for (StateId S = 0; S != D.numStates(); ++S)
      if (D.isAccepting(S)) {
        Useful[S] = true;
        Work.push_back(S);
      }
    while (!Work.empty()) {
      StateId S = Work.front();
      Work.pop_front();
      for (StateId P : Rev[S])
        if (!Useful[P]) {
          Useful[P] = true;
          Work.push_back(P);
        }
    }
  }

  std::vector<std::string> Out;
  if (!Useful[D.start()])
    return Out;
  struct Item {
    StateId State;
    std::string Str;
  };
  std::deque<Item> Work = {{D.start(), ""}};
  while (!Work.empty() && Out.size() < Limit) {
    Item Cur = std::move(Work.front());
    Work.pop_front();
    if (D.isAccepting(Cur.State))
      Out.push_back(Cur.Str);
    if (Cur.Str.size() == MaxLen)
      continue;
    // Expand in symbol order so the BFS yields shortlex order.
    std::vector<std::pair<unsigned char, StateId>> Moves;
    for (unsigned C = 0; C != D.numClasses(); ++C) {
      StateId To = D.next(Cur.State, C);
      if (!Useful[To])
        continue;
      D.partition().classSet(C).forEach(
          [&](unsigned char Sym) { Moves.push_back({Sym, To}); });
    }
    std::sort(Moves.begin(), Moves.end());
    for (auto [Sym, To] : Moves)
      Work.push_back({To, Cur.Str + static_cast<char>(Sym)});
  }
  return Out;
}
