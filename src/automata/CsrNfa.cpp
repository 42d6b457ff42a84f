//===- CsrNfa.cpp - Frozen data-oriented kernel view of an Nfa ---------------//

#include "automata/CsrNfa.h"
#include "automata/OpStats.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_map>

using namespace dprle;

//===----------------------------------------------------------------------===//
// CsrStats
//===----------------------------------------------------------------------===//

CsrStats &CsrStats::global() {
  static CsrStats Stats;
  return Stats;
}

namespace {

/// Publishes the kernel-view counters into the unified StatsRegistry at
/// load time; the dotted names are part of the stable schema of
/// docs/OBSERVABILITY.md and of the service `stats` verb.
struct RegisterCsrStats {
  RegisterCsrStats() {
    CsrStats &S = CsrStats::global();
    StatsRegistry &R = StatsRegistry::global();
    R.registerCounter("csr.builds", &S.Builds);
    R.registerCounter("csr.reuses", &S.Reuses);
    R.registerCounter("minterm.classes", &S.MintermClasses);
  }
};

RegisterCsrStats RegisterCsrStatsInit;

} // namespace

//===----------------------------------------------------------------------===//
// StateSetInterner
//===----------------------------------------------------------------------===//

void StateSetInterner::clear() {
  Pool.clear();
  Off.clear();
  Off.push_back(0);
  if (++Epoch != 0)
    return;
  for (Slot &S : Slots)
    S.Stamp = 0;
  Epoch = 1;
}

void StateSetInterner::grow() {
  size_t NewSize = Slots.empty() ? 64 : Slots.size() * 2;
  std::vector<Slot> NewSlots(NewSize);
  size_t Mask = NewSize - 1;
  for (const Slot &S : Slots) {
    if (S.Stamp != Epoch)
      continue;
    size_t Idx = S.Hash & Mask;
    while (NewSlots[Idx].Stamp == Epoch)
      Idx = (Idx + 1) & Mask;
    NewSlots[Idx] = S;
  }
  Slots = std::move(NewSlots);
}

std::pair<uint32_t, bool> StateSetInterner::intern(const StateId *Data,
                                                   size_t Len) {
  // Grow at 3/4 load; the table is never empty after this.
  if ((size_t(numSets()) + 1) * 4 >= Slots.size() * 3)
    grow();
  uint64_t Hash = fnv1a(std::string_view(
      reinterpret_cast<const char *>(Data), Len * sizeof(StateId)));
  size_t Mask = Slots.size() - 1;
  size_t Idx = Hash & Mask;
  while (true) {
    Slot &S = Slots[Idx];
    if (S.Stamp != Epoch) {
      uint32_t Id = numSets();
      Pool.insert(Pool.end(), Data, Data + Len);
      Off.push_back(uint32_t(Pool.size()));
      S = {Hash, Id, Epoch};
      return {Id, true};
    }
    if (S.Hash == Hash && size(S.Id) == Len &&
        std::equal(Data, Data + Len, begin(S.Id)))
      return {S.Id, false};
    Idx = (Idx + 1) & Mask;
  }
}

//===----------------------------------------------------------------------===//
// CsrNfa construction
//===----------------------------------------------------------------------===//

CsrNfa::CsrNfa(const Nfa &M)
    : NumStates(M.numStates()), Start(M.start()),
      AcceptBits((size_t(M.numStates()) + 63) / 64, 0),
      SymOff(size_t(M.numStates()) + 1, 0),
      EpsOff(size_t(M.numStates()) + 1, 0), ClassOf(256, 0) {
  // Pass 1: count lane widths per state.
  for (StateId S = 0; S != NumStates; ++S) {
    if (M.isAccepting(S))
      AcceptBits[S >> 6] |= uint64_t(1) << (S & 63);
    for (const Transition &T : M.transitionsFrom(S)) {
      if (T.IsEpsilon)
        ++EpsOff[S + 1];
      else
        ++SymOff[S + 1];
    }
  }
  for (StateId S = 0; S != NumStates; ++S) {
    SymOff[S + 1] += SymOff[S];
    EpsOff[S + 1] += EpsOff[S];
  }
  Sym.resize(SymOff[NumStates]);
  Eps.resize(EpsOff[NumStates]);

  // Pass 2: fill the lanes, interning labels in first-occurrence order —
  // the same state-major scan AlphabetPartition::compute(M) performs, so
  // refining by the interned labels below reproduces its exact class
  // sequence (refining by a repeated label is a no-op).
  std::unordered_map<CharSet, uint32_t, CharSetHash> LabelIds;
  std::vector<uint32_t> SymFill(SymOff.begin(), SymOff.end() - 1);
  std::vector<uint32_t> EpsFill(EpsOff.begin(), EpsOff.end() - 1);
  for (StateId S = 0; S != NumStates; ++S) {
    uint32_t Pos = 0;
    for (const Transition &T : M.transitionsFrom(S)) {
      if (T.IsEpsilon) {
        Eps[EpsFill[S]++] = {T.To, T.Marker, Pos};
      } else {
        auto [It, Inserted] =
            LabelIds.try_emplace(T.Label, uint32_t(Labels.size()));
        if (Inserted)
          Labels.push_back(T.Label);
        Sym[SymFill[S]++] = {T.To, It->second};
      }
      ++Pos;
    }
  }

  // Minterm partition: fold refinement over the distinct labels.
  Classes.push_back(CharSet::all());
  for (const CharSet &L : Labels)
    CharSet::refinePartition(Classes, L);
  Reps.reserve(Classes.size());
  for (unsigned C = 0; C != Classes.size(); ++C) {
    Reps.push_back(Classes[C].min());
    Classes[C].forEach([&](unsigned char B) { ClassOf[B] = uint16_t(C); });
  }

  // Per-label class masks: bit c set iff the label fires on class c.
  ClassWords = unsigned((Classes.size() + 63) / 64);
  LabelMasks.assign(size_t(Labels.size()) * ClassWords, 0);
  for (uint32_t L = 0; L != Labels.size(); ++L) {
    uint64_t *Mask = LabelMasks.data() + size_t(L) * ClassWords;
    for (unsigned C = 0; C != Classes.size(); ++C)
      if (Labels[L].contains(Reps[C]))
        Mask[C >> 6] |= uint64_t(1) << (C & 63);
  }

  CsrStats::global().Builds++;
  CsrStats::global().MintermClasses += Classes.size();
}

//===----------------------------------------------------------------------===//
// Epsilon closure
//===----------------------------------------------------------------------===//

void CsrNfa::epsilonClosureMarked(std::vector<StateId> &InOut,
                                  StateBits &Bits, bool SortResult) const {
  Bits.ensure(NumStates);
  if (Eps.empty()) {
    // No-epsilon fast path: the closure is the input. Keep the step
    // accounting identical to the general path (one step per member).
    OpStats::global().EpsilonClosureSteps += InOut.size();
    Bits.clearStates(InOut);
    if (SortResult)
      std::sort(InOut.begin(), InOut.end());
    return;
  }
  // InOut doubles as the FIFO worklist: Head chases the tail exactly like
  // the classic deque, so discovery order (and the per-pop step count) is
  // bit-identical to Nfa::epsilonClosure.
  for (size_t Head = 0; Head != InOut.size(); ++Head) {
    StateId S = InOut[Head];
    OpStats::global().EpsilonClosureSteps++;
    for (const EpsEdge *E = epsBegin(S), *EEnd = epsEnd(S); E != EEnd; ++E) {
      if (Bits.test(E->To))
        continue;
      Bits.set(E->To);
      InOut.push_back(E->To);
    }
  }
  Bits.clearStates(InOut);
  if (SortResult)
    std::sort(InOut.begin(), InOut.end());
}

void CsrNfa::epsilonClosure(std::vector<StateId> &InOut, StateBits &Bits,
                            bool SortResult) const {
  Bits.ensure(NumStates);
  for (StateId S : InOut)
    Bits.set(S);
  epsilonClosureMarked(InOut, Bits, SortResult);
}

//===----------------------------------------------------------------------===//
// Membership
//===----------------------------------------------------------------------===//

namespace {

/// Reused across accepts() calls on the same thread: membership testing in
/// the fuzz/differential suites runs millions of short strings, and the
/// classic implementation paid two vector allocations per input symbol.
struct AcceptScratch {
  std::vector<StateId> Cur;
  std::vector<StateId> Next;
  StateBits Bits;
};

thread_local AcceptScratch TheAcceptScratch;

} // namespace

bool CsrNfa::accepts(std::string_view Str) const {
  AcceptScratch &Scratch = TheAcceptScratch;
  Scratch.Bits.ensure(NumStates);
  std::vector<StateId> &Cur = Scratch.Cur;
  std::vector<StateId> &Next = Scratch.Next;
  Cur.clear();
  Cur.push_back(Start);
  // Sorting matches the classic subset simulation; the sets stay canonical
  // so the per-symbol gather order is reproducible.
  epsilonClosure(Cur, Scratch.Bits, /*SortResult=*/true);
  for (char C : Str) {
    unsigned char U = static_cast<unsigned char>(C);
    unsigned Class = ClassOf[U];
    Next.clear();
    for (StateId S : Cur) {
      for (const SymEdge *E = symBegin(S), *EEnd = symEnd(S); E != EEnd;
           ++E) {
        if (!labelCoversClass(E->Label, Class) || Scratch.Bits.test(E->To))
          continue;
        Scratch.Bits.set(E->To);
        Next.push_back(E->To);
      }
    }
    if (Next.empty())
      return false;
    epsilonClosureMarked(Next, Scratch.Bits, /*SortResult=*/true);
    std::swap(Cur, Next);
  }
  for (StateId S : Cur)
    if (isAccepting(S))
      return true;
  return false;
}
