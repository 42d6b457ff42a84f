//===- Dfa.cpp - Deterministic finite automata -------------------------------//

#include "automata/Dfa.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>

using namespace dprle;

//===----------------------------------------------------------------------===//
// AlphabetPartition
//===----------------------------------------------------------------------===//

AlphabetPartition::AlphabetPartition() : ClassOf(256, 0) {
  Classes.push_back(CharSet::all());
}

void AlphabetPartition::refineBy(const CharSet &Label) {
  CharSet::refinePartition(Classes, Label);
}

void AlphabetPartition::rebuildClassOf() {
  for (unsigned I = 0; I != Classes.size(); ++I)
    Classes[I].forEach([&](unsigned char C) { ClassOf[C] = I; });
}

AlphabetPartition AlphabetPartition::compute(const Nfa &M, const Nfa *Other) {
  AlphabetPartition P;
  auto RefineAll = [&P](const Nfa &Machine) {
    for (StateId S = 0; S != Machine.numStates(); ++S)
      for (const Transition &T : Machine.transitionsFrom(S))
        if (!T.IsEpsilon)
          P.refineBy(T.Label);
  };
  RefineAll(M);
  if (Other)
    RefineAll(*Other);
  P.rebuildClassOf();
  return P;
}

AlphabetPartition AlphabetPartition::fromClasses(std::vector<CharSet> Classes) {
  assert(!Classes.empty() && "partition must cover the alphabet");
  AlphabetPartition P;
  P.Classes = std::move(Classes);
  P.rebuildClassOf();
  return P;
}

//===----------------------------------------------------------------------===//
// Dfa
//===----------------------------------------------------------------------===//

Dfa::Dfa(AlphabetPartition Partition, unsigned NumStates, StateId Start)
    : Partition(std::move(Partition)),
      Table(size_t(NumStates) * this->Partition.numClasses(), InvalidState),
      Accepting(NumStates, false), Start(Start) {
  assert(Start < NumStates && "DFA start state out of range");
}

bool Dfa::accepts(std::string_view Str) const {
  StateId S = Start;
  for (char C : Str) {
    S = nextOnByte(S, static_cast<unsigned char>(C));
    assert(S != InvalidState && "incomplete DFA");
  }
  return Accepting[S];
}

bool Dfa::languageIsEmpty() const {
  std::vector<bool> Seen(numStates(), false);
  std::deque<StateId> Work = {Start};
  Seen[Start] = true;
  while (!Work.empty()) {
    StateId S = Work.front();
    Work.pop_front();
    if (Accepting[S])
      return false;
    for (unsigned C = 0; C != numClasses(); ++C) {
      StateId To = next(S, C);
      if (!Seen[To]) {
        Seen[To] = true;
        Work.push_back(To);
      }
    }
  }
  return true;
}

Dfa Dfa::complemented() const {
  Dfa Out = *this;
  for (StateId S = 0; S != numStates(); ++S)
    Out.Accepting[S] = !Accepting[S];
  return Out;
}

Dfa Dfa::minimized() const {
  // Restrict to states reachable from the start state first; Hopcroft
  // assumes the input has no unreachable states. OldOf doubles as the BFS
  // queue.
  std::vector<StateId> OldOf = {Start}; // new -> old
  std::vector<StateId> NewOf(numStates(), InvalidState);
  NewOf[Start] = 0;
  for (size_t Head = 0; Head != OldOf.size(); ++Head) {
    StateId S = OldOf[Head];
    for (unsigned C = 0; C != numClasses(); ++C) {
      StateId To = next(S, C);
      if (NewOf[To] != InvalidState)
        continue;
      NewOf[To] = static_cast<StateId>(OldOf.size());
      OldOf.push_back(To);
    }
  }
  const unsigned N = OldOf.size();
  const unsigned K = numClasses();

  // Hopcroft's algorithm over the reachable sub-automaton, on flat arrays
  // allocated once: every block is a contiguous range of Elems (Pos is the
  // inverse), so a split only reorders one range. Block numbering depends
  // on the splitter sequence and on which half of a split becomes the new
  // block, never on the order of states inside a block, so it is the
  // numbering of the textbook list-of-blocks formulation.
  std::vector<StateId> Elems;
  Elems.reserve(N);
  for (StateId S = 0; S != N; ++S)
    if (Accepting[OldOf[S]])
      Elems.push_back(S);
  const unsigned NumAccepting = Elems.size();
  for (StateId S = 0; S != N; ++S)
    if (!Accepting[OldOf[S]])
      Elems.push_back(S);
  std::vector<unsigned> Pos(N), BlockOf(N);
  std::vector<unsigned> Begin, End;
  Begin.reserve(N);
  End.reserve(N);
  auto AddBlock = [&](unsigned Lo, unsigned Hi) {
    for (unsigned I = Lo; I != Hi; ++I)
      BlockOf[Elems[I]] = Begin.size();
    Begin.push_back(Lo);
    End.push_back(Hi);
  };
  if (NumAccepting != 0)
    AddBlock(0, NumAccepting);
  if (NumAccepting != N)
    AddBlock(NumAccepting, N);
  for (unsigned I = 0; I != N; ++I)
    Pos[Elems[I]] = I;

  // Reverse transitions in CSR form: the predecessors of state T on class
  // C are RevData[RevOff[C * N + T] .. RevOff[C * N + T + 1]).
  // Counting sort: count each cell, turn the counts into cell ends, then
  // fill backwards so every end moves down to its cell's start.
  std::vector<unsigned> RevOff(size_t(K) * N + 1, 0);
  std::vector<StateId> RevData(size_t(K) * N);
  auto Cell = [&](StateId S, unsigned C) {
    return size_t(C) * N + NewOf[next(OldOf[S], C)];
  };
  for (StateId S = 0; S != N; ++S)
    for (unsigned C = 0; C != K; ++C)
      ++RevOff[Cell(S, C)];
  for (size_t I = 1; I != RevOff.size(); ++I)
    RevOff[I] += RevOff[I - 1];
  for (StateId S = N; S-- != 0;)
    for (unsigned C = 0; C != K; ++C)
      RevData[--RevOff[Cell(S, C)]] = S;

  // Hopcroft worklist with the classic smaller-half rule: when block B
  // splits into Larger (stays as B) and Smaller (becomes NewBlock), a
  // pending (B, c) still covers the larger half, so only (NewBlock, c)
  // must be queued; otherwise the *smaller* half suffices as the future
  // splitter. This bounds total work by O(n k log n). Every (block, class)
  // pair is queued exactly once, when its block is created, so the FIFO
  // needs no membership set and holds at most N * K pairs.
  std::vector<std::pair<unsigned, unsigned>> Work; // (block, class)
  for (unsigned C = 0; C != K; ++C)
    for (unsigned B = 0; B != Begin.size(); ++B)
      Work.push_back({B, C});

  // Per-splitter scratch, reused: the states with a C-transition into the
  // splitter (InX / Touched), the blocks they fall in, and how many of each
  // block's states were hit. Hit states are swapped to the front of their
  // block's range as they are found.
  std::vector<uint8_t> InX(N, 0);
  std::vector<StateId> Touched;
  std::vector<unsigned> TouchedBlocks;
  std::vector<unsigned> Hits(N, 0);
  for (size_t Head = 0; Head != Work.size(); ++Head) {
    auto [SplitterBlock, C] = Work[Head];
    // X = set of states with a C-transition into SplitterBlock.
    Touched.clear();
    for (unsigned I = Begin[SplitterBlock]; I != End[SplitterBlock]; ++I) {
      size_t Cell = size_t(C) * N + Elems[I];
      for (unsigned R = RevOff[Cell]; R != RevOff[Cell + 1]; ++R) {
        StateId S = RevData[R];
        if (InX[S])
          continue;
        InX[S] = 1;
        Touched.push_back(S);
      }
    }
    if (Touched.empty())
      continue;
    TouchedBlocks.clear();
    for (StateId S : Touched) {
      unsigned B = BlockOf[S];
      if (Hits[B] == 0)
        TouchedBlocks.push_back(B);
      unsigned Slot = Begin[B] + Hits[B]++;
      StateId Other = Elems[Slot];
      Elems[Pos[S]] = Other;
      Pos[Other] = Pos[S];
      Elems[Slot] = S;
      Pos[S] = Slot;
    }
    for (StateId S : Touched)
      InX[S] = 0;
    // Split the touched blocks in ascending block order.
    std::sort(TouchedBlocks.begin(), TouchedBlocks.end());
    for (unsigned B : TouchedBlocks) {
      unsigned NumHits = Hits[B];
      Hits[B] = 0;
      unsigned Lo = Begin[B], Mid = Lo + NumHits, Hi = End[B];
      if (Mid == Hi)
        continue; // Entire block is in X; no split.
      // Split block B: the smaller half (hits on a tie) moves into
      // NewBlock.
      unsigned NewBlock = Begin.size();
      if (NumHits <= Hi - Mid) {
        Begin[B] = Mid;
        AddBlock(Lo, Mid);
      } else {
        End[B] = Mid;
        AddBlock(Mid, Hi);
      }
      // Because the smaller half always moves into NewBlock, both cases
      // of the classic rule ("replace a pending (B, c) by both halves;
      // otherwise queue the smaller half") reduce to queueing NewBlock.
      for (unsigned C2 = 0; C2 != K; ++C2)
        Work.push_back({NewBlock, C2});
    }
  }

  // Emit the quotient automaton. Every state of a block is equivalent, so
  // any member represents it.
  Dfa Out(Partition, Begin.size(), BlockOf[NewOf[Start]]);
  for (unsigned B = 0; B != Begin.size(); ++B) {
    StateId Rep = OldOf[Elems[Begin[B]]];
    Out.setAccepting(B, Accepting[Rep]);
    for (unsigned C = 0; C != K; ++C)
      Out.setNext(B, C, BlockOf[NewOf[next(Rep, C)]]);
  }
  return Out;
}

Nfa Dfa::toNfa() const {
  Nfa Out;
  for (StateId S = 1; S < numStates(); ++S)
    Out.addState();
  Out.setStart(Start);
  std::vector<std::pair<StateId, CharSet>> Merged;
  for (StateId S = 0; S != numStates(); ++S) {
    Out.setAccepting(S, Accepting[S]);
    // Merge parallel edges into a single CharSet per target state; sorted
    // emission keeps the historical ascending-target transition order.
    Merged.clear();
    for (unsigned C = 0; C != numClasses(); ++C) {
      StateId To = next(S, C);
      auto It = std::find_if(Merged.begin(), Merged.end(),
                             [&](const auto &E) { return E.first == To; });
      if (It == Merged.end())
        Merged.emplace_back(To, Partition.classSet(C));
      else
        It->second |= Partition.classSet(C);
    }
    std::sort(Merged.begin(), Merged.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    for (const auto &[To, Label] : Merged)
      Out.addTransition(S, Label, To);
  }
  return Out.trimmed();
}
