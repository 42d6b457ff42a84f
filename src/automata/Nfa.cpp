//===- Nfa.cpp - Nondeterministic finite automata ---------------------------//

#include "automata/Nfa.h"
#include "automata/CsrNfa.h"
#include "automata/OpStats.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <deque>

using namespace dprle;

Nfa::Nfa() {
  addState();
  Start = 0;
}

Nfa::Nfa(const Nfa &Other)
    : States(Other.States), Accepting(Other.Accepting), Start(Other.Start),
      Generation(Other.Generation) {
  // The copy describes the same machine, so it inherits the source's
  // already-built views. Lock the source: a concurrent csr() or
  // identity() on it may be publishing a view right now.
  std::lock_guard<std::mutex> Lock(Other.ViewMutex);
  Views = Other.Views;
}

Nfa::Nfa(Nfa &&Other) noexcept
    : States(std::move(Other.States)), Accepting(std::move(Other.Accepting)),
      Start(Other.Start), Generation(Other.Generation),
      Views(std::move(Other.Views)) {}

Nfa &Nfa::operator=(const Nfa &Other) {
  if (this != &Other)
    *this = Nfa(Other);
  return *this;
}

Nfa &Nfa::operator=(Nfa &&Other) noexcept {
  if (this == &Other)
    return *this;
  States = std::move(Other.States);
  Accepting = std::move(Other.Accepting);
  Start = Other.Start;
  Generation = Other.Generation;
  Views = std::move(Other.Views);
  return *this;
}

Nfa::~Nfa() = default;

void Nfa::dropStaleViews() const {
  if (Views.Generation != Generation)
    Views = {Generation, nullptr, std::nullopt};
}

std::shared_ptr<const CsrNfa> Nfa::csr() const {
  std::lock_guard<std::mutex> Lock(ViewMutex);
  dropStaleViews();
  if (Views.Csr) {
    CsrStats::global().Reuses++;
    return Views.Csr;
  }
  Views.Csr = std::make_shared<const CsrNfa>(*this);
  return Views.Csr;
}

MachineIdentity Nfa::identity() const {
  std::lock_guard<std::mutex> Lock(ViewMutex);
  dropStaleViews();
  if (!Views.Identity)
    Views.Identity = MachineIdentity::of(*this);
  return *Views.Identity;
}

namespace {

void appendU32(std::string &Out, uint32_t V) {
  Out.push_back(static_cast<char>(V));
  Out.push_back(static_cast<char>(V >> 8));
  Out.push_back(static_cast<char>(V >> 16));
  Out.push_back(static_cast<char>(V >> 24));
}

} // namespace

MachineIdentity MachineIdentity::of(const Nfa &M) {
  std::string Out;
  Out.reserve(16 + M.numTransitions() * 40);
  appendU32(Out, M.numStates());
  appendU32(Out, M.start());
  for (StateId S = 0; S != M.numStates(); ++S)
    Out.push_back(M.isAccepting(S) ? 1 : 0);
  for (StateId S = 0; S != M.numStates(); ++S) {
    const std::vector<Transition> &Ts = M.transitionsFrom(S);
    appendU32(Out, static_cast<uint32_t>(Ts.size()));
    for (const Transition &T : Ts) {
      appendU32(Out, T.To);
      Out.push_back(T.IsEpsilon ? 1 : 0);
      if (T.IsEpsilon)
        continue;
      // Length-prefixed symbol list keeps the encoding injective.
      appendU32(Out, T.Label.count());
      T.Label.forEach([&](unsigned char C) { Out.push_back(char(C)); });
    }
  }
  // Memo entries pin the encoding: drop the reserve's slack.
  Out.shrink_to_fit();
  uint64_t Hash = fnv1a(Out);
  return MachineIdentity(std::move(Out), Hash);
}

Nfa Nfa::emptyLanguage() { return Nfa(); }

Nfa Nfa::epsilonLanguage() {
  Nfa M;
  M.setAccepting(M.start());
  return M;
}

Nfa Nfa::literal(std::string_view Str) {
  Nfa M;
  StateId Cur = M.start();
  for (char C : Str) {
    StateId Next = M.addState();
    M.addTransition(Cur, CharSet::singleton(static_cast<unsigned char>(C)),
                    Next);
    Cur = Next;
  }
  M.setAccepting(Cur);
  return M;
}

Nfa Nfa::fromCharSet(const CharSet &Set) {
  Nfa M;
  StateId Final = M.addState();
  if (!Set.empty())
    M.addTransition(M.start(), Set, Final);
  M.setAccepting(Final);
  return M;
}

Nfa Nfa::sigmaStar() {
  Nfa M;
  M.addTransition(M.start(), CharSet::all(), M.start());
  M.setAccepting(M.start());
  return M;
}

StateId Nfa::addState() {
  invalidate();
  States.emplace_back();
  Accepting.push_back(false);
  return static_cast<StateId>(States.size() - 1);
}

size_t Nfa::numTransitions() const {
  size_t N = 0;
  for (const auto &Outs : States)
    N += Outs.size();
  return N;
}

size_t Nfa::numEpsilonTransitions() const {
  size_t N = 0;
  for (const auto &Outs : States)
    for (const Transition &T : Outs)
      N += T.IsEpsilon;
  return N;
}

void Nfa::setStart(StateId S) {
  assert(S < numStates() && "setStart: state out of range");
  invalidate();
  Start = S;
}

void Nfa::setAccepting(StateId S, bool Value) {
  assert(S < numStates() && "setAccepting: state out of range");
  invalidate();
  Accepting[S] = Value;
}

std::vector<StateId> Nfa::acceptingStates() const {
  std::vector<StateId> Out;
  for (StateId S = 0; S != numStates(); ++S)
    if (Accepting[S])
      Out.push_back(S);
  return Out;
}

unsigned Nfa::numAccepting() const {
  unsigned N = 0;
  for (bool A : Accepting)
    N += A;
  return N;
}

StateId Nfa::singleAccepting() const {
  StateId Found = InvalidState;
  for (StateId S = 0; S != numStates(); ++S) {
    if (!Accepting[S])
      continue;
    if (Found != InvalidState)
      return InvalidState;
    Found = S;
  }
  return Found;
}

void Nfa::addTransition(StateId From, const CharSet &Label, StateId To) {
  assert(From < numStates() && To < numStates() && "transition out of range");
  if (Label.empty())
    return;
  invalidate();
  Transition T;
  T.To = To;
  T.IsEpsilon = false;
  T.Label = Label;
  States[From].push_back(T);
}

void Nfa::addEpsilon(StateId From, StateId To, EpsilonMarker Marker) {
  assert(From < numStates() && To < numStates() && "epsilon out of range");
  invalidate();
  Transition T;
  T.To = To;
  T.IsEpsilon = true;
  T.Marker = Marker;
  States[From].push_back(T);
}

void Nfa::epsilonClosure(std::vector<StateId> &Set) const {
  std::vector<bool> InSet(numStates(), false);
  for (StateId S : Set)
    InSet[S] = true;
  std::deque<StateId> Work(Set.begin(), Set.end());
  while (!Work.empty()) {
    StateId S = Work.front();
    Work.pop_front();
    OpStats::global().EpsilonClosureSteps++;
    for (const Transition &T : States[S]) {
      if (!T.IsEpsilon || InSet[T.To])
        continue;
      InSet[T.To] = true;
      Set.push_back(T.To);
      Work.push_back(T.To);
    }
  }
  std::sort(Set.begin(), Set.end());
}

bool Nfa::accepts(std::string_view Str) const {
  // Delegated to the flat kernel view: same subset simulation, same
  // counter accounting, but no per-symbol vector churn.
  return csr()->accepts(Str);
}

std::vector<bool> Nfa::reachableFromStart() const {
  std::vector<bool> Seen(numStates(), false);
  std::deque<StateId> Work = {Start};
  Seen[Start] = true;
  while (!Work.empty()) {
    StateId S = Work.front();
    Work.pop_front();
    for (const Transition &T : States[S]) {
      if (Seen[T.To])
        continue;
      Seen[T.To] = true;
      Work.push_back(T.To);
    }
  }
  return Seen;
}

std::vector<bool> Nfa::coReachable() const {
  // Build the reverse adjacency once, in CSR form (the predecessors of T
  // are Preds[Off[T] .. Off[T + 1])), then search from all accepting
  // states.
  const unsigned N = numStates();
  std::vector<unsigned> Off(N + 1, 0);
  for (StateId S = 0; S != N; ++S)
    for (const Transition &T : States[S])
      ++Off[T.To];
  for (unsigned I = 1; I <= N; ++I)
    Off[I] += Off[I - 1];
  std::vector<StateId> Preds(Off[N]);
  for (StateId S = 0; S != N; ++S)
    for (const Transition &T : States[S])
      Preds[--Off[T.To]] = S;
  std::vector<bool> Seen(N, false);
  std::vector<StateId> Work;
  for (StateId S = 0; S != N; ++S) {
    if (!Accepting[S])
      continue;
    Seen[S] = true;
    Work.push_back(S);
  }
  while (!Work.empty()) {
    StateId S = Work.back();
    Work.pop_back();
    for (unsigned I = Off[S]; I != Off[S + 1]; ++I) {
      StateId P = Preds[I];
      if (Seen[P])
        continue;
      Seen[P] = true;
      Work.push_back(P);
    }
  }
  return Seen;
}

bool Nfa::languageIsEmpty() const {
  std::vector<bool> Seen(numStates(), false);
  std::deque<StateId> Work = {Start};
  Seen[Start] = true;
  while (!Work.empty()) {
    StateId S = Work.front();
    Work.pop_front();
    if (Accepting[S])
      return false;
    for (const Transition &T : States[S]) {
      if (Seen[T.To])
        continue;
      Seen[T.To] = true;
      Work.push_back(T.To);
    }
  }
  return true;
}

bool Nfa::acceptsEpsilon() const {
  std::vector<StateId> Set = {Start};
  epsilonClosure(Set);
  for (StateId S : Set)
    if (Accepting[S])
      return true;
  return false;
}

Nfa Nfa::trimmed(std::vector<StateId> *OldToNew) const {
  std::vector<bool> Fwd = reachableFromStart();
  std::vector<bool> Bwd = coReachable();
  std::vector<StateId> Map(numStates(), InvalidState);
  Nfa Out;
  // State 0 of Out is a placeholder start; we repurpose it for the original
  // start state when that state is useful, otherwise Out stays the empty
  // language.
  bool StartUseful = Fwd[Start] && Bwd[Start];
  if (StartUseful)
    Map[Start] = Out.start();
  for (StateId S = 0; S != numStates(); ++S) {
    OpStats::global().TrimStatesVisited++;
    if (S == Start || !Fwd[S] || !Bwd[S])
      continue;
    Map[S] = Out.addState();
  }
  for (StateId S = 0; S != numStates(); ++S) {
    if (Map[S] == InvalidState)
      continue;
    Out.setAccepting(Map[S], Accepting[S]);
    for (const Transition &T : States[S]) {
      if (Map[T.To] == InvalidState)
        continue;
      if (T.IsEpsilon)
        Out.addEpsilon(Map[S], Map[T.To], T.Marker);
      else
        Out.addTransition(Map[S], T.Label, Map[T.To]);
    }
  }
  if (OldToNew)
    *OldToNew = std::move(Map);
  return Out;
}

Nfa Nfa::withSingleAccepting(StateId *FinalOut) const {
  StateId Existing = singleAccepting();
  if (Existing != InvalidState) {
    if (FinalOut)
      *FinalOut = Existing;
    return *this;
  }
  Nfa Out = *this;
  StateId Fresh = Out.addState();
  for (StateId S = 0; S != numStates(); ++S) {
    if (!Accepting[S])
      continue;
    Out.setAccepting(S, false);
    Out.addEpsilon(S, Fresh);
  }
  Out.setAccepting(Fresh);
  if (FinalOut)
    *FinalOut = Fresh;
  return Out;
}

Nfa Nfa::inducedFromStart(StateId NewStart) const {
  assert(NewStart < numStates() && "inducedFromStart: state out of range");
  Nfa Out = *this;
  Out.setStart(NewStart);
  return Out;
}

Nfa Nfa::inducedFromFinal(StateId NewFinal) const {
  assert(NewFinal < numStates() && "inducedFromFinal: state out of range");
  Nfa Out = *this;
  for (StateId S = 0; S != Out.numStates(); ++S)
    Out.setAccepting(S, S == NewFinal);
  return Out;
}

Nfa Nfa::withoutMarkers() const {
  Nfa Out = *this;
  // Direct States surgery bypasses the mutator entry points, so drop the
  // copied kernel-view cache by hand (markers are part of the view).
  Out.invalidate();
  for (StateId S = 0; S != Out.numStates(); ++S)
    for (Transition &T : Out.States[S])
      T.Marker = NoMarker;
  return Out;
}

Nfa Nfa::withoutEpsilonTransitions() const {
  assert(markersUsed().empty() &&
         "epsilon elimination would destroy marker structure");
  Nfa Out;
  for (StateId S = 1; S < numStates(); ++S)
    Out.addState();
  Out.setStart(Start);
  std::vector<std::pair<StateId, CharSet>> Merged;
  for (StateId S = 0; S != numStates(); ++S) {
    std::vector<StateId> Closure = {S};
    epsilonClosure(Closure);
    // Merge parallel labels per target to keep the machine small. The
    // distinct-target count is tiny, so a sorted flat vector beats the map
    // this used to allocate per state; emission stays in ascending target
    // order for bit-identical output.
    Merged.clear();
    bool Accept = false;
    for (StateId U : Closure) {
      Accept = Accept || Accepting[U];
      for (const Transition &T : States[U]) {
        if (T.IsEpsilon)
          continue;
        auto It = std::find_if(Merged.begin(), Merged.end(),
                               [&](const auto &E) { return E.first == T.To; });
        if (It == Merged.end())
          Merged.emplace_back(T.To, T.Label);
        else
          It->second |= T.Label;
      }
    }
    Out.setAccepting(S, Accept);
    std::sort(Merged.begin(), Merged.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    for (const auto &[To, Label] : Merged)
      Out.addTransition(S, Label, To);
  }
  return Out.trimmed();
}

Nfa Nfa::reversed() const {
  Nfa Out;
  // Allocate matching states (state 0 already exists).
  for (StateId S = 1; S < numStates(); ++S)
    Out.addState();
  for (StateId S = 0; S != numStates(); ++S) {
    for (const Transition &T : States[S]) {
      if (T.IsEpsilon)
        Out.addEpsilon(T.To, S, T.Marker);
      else
        Out.addTransition(T.To, T.Label, S);
    }
  }
  Out.setAccepting(Start);
  std::vector<StateId> Finals = acceptingStates();
  if (Finals.size() == 1) {
    Out.setStart(Finals.front());
    return Out;
  }
  StateId NewStart = Out.addState();
  for (StateId F : Finals)
    Out.addEpsilon(NewStart, F);
  Out.setStart(NewStart);
  return Out;
}

std::vector<EpsilonInstance> Nfa::markerInstances(EpsilonMarker Marker) const {
  assert(Marker != NoMarker && "querying instances of the null marker");
  std::vector<EpsilonInstance> Out;
  for (StateId S = 0; S != numStates(); ++S)
    for (const Transition &T : States[S])
      if (T.IsEpsilon && T.Marker == Marker)
        Out.push_back({S, T.To});
  return Out;
}

std::vector<EpsilonMarker> Nfa::markersUsed() const {
  std::vector<EpsilonMarker> Out;
  for (StateId S = 0; S != numStates(); ++S)
    for (const Transition &T : States[S])
      if (T.IsEpsilon && T.Marker != NoMarker)
        Out.push_back(T.Marker);
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}
