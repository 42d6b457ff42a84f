//===- RegexCompiler.cpp - Thompson construction ------------------------------//

#include "regex/RegexCompiler.h"
#include "automata/NfaOps.h"
#include "support/Budget.h"
#include "support/FaultInjector.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

using namespace dprle;

namespace {

/// A sub-machine appended by the Emitter: its start state and its
/// accepting states in increasing order. Compiled nodes have exactly one
/// accepting state; the star and optional pieces of a repetition may have
/// two.
struct Piece {
  StateId Start = InvalidState;
  StateId Accept[2] = {InvalidState, InvalidState};
  unsigned NumAccept = 1;

  static Piece single(StateId Start, StateId Final) {
    Piece P;
    P.Start = Start;
    P.Accept[0] = Final;
    return P;
  }
  static Piece twoAccepting(StateId Start, StateId First, StateId Second) {
    Piece P = single(Start, First);
    P.Accept[1] = Second;
    P.NumAccept = 2;
    return P;
  }
  StateId final() const {
    assert(NumAccept == 1 && "piece has several accepting states");
    return Accept[0];
  }
};

/// Thompson construction in one pass: every operand is appended once into
/// a single machine, in linear time.
///
/// The numbering is the one of the textbook fold that compiles each
/// operand separately and then concat()s or alternate()s it onto the
/// machine accumulated so far (NfaOps.h), which every constant language
/// and every pinned digest was built with: each binary concat() prepends
/// one dead placeholder state, each alternate() prepends a fresh start
/// state, and withSingleAccepting() appends a fresh final state. The
/// emitter reserves those prefix states before appending the operands,
/// so its machines equal the fold's state for state, transition for
/// transition (tests/RegexCompilerTest.cpp pins this).
///
/// Acceptance flags are left to the caller of the root: the fold's
/// intermediate flags never survive an embedding.
class Emitter {
public:
  /// \p Dst must be freshly constructed (its single state 0 is handed out
  /// as the first state).
  explicit Emitter(Nfa &Dst) : Dst(Dst) {
    assert(Dst.numStates() == 1 && Dst.numTransitions() == 0 &&
           "emitter needs a fresh machine");
  }

  /// Appends the machine of \p Node.
  Piece node(const RegexNode &Node) {
    if (FaultInjector::global().shouldFail("alloc.embed"))
      throw std::bad_alloc();
    Piece P = nodeUncharged(Node);
    chargeBudget();
    return P;
  }

  /// Appends `Sigma*` (one accepting, looping start state).
  Piece sigmaStar() {
    StateId S = state();
    edge(S, CharSet::all(), S);
    return Piece::single(S, S);
  }

  StateId state() {
    if (!HandedOutZero) {
      HandedOutZero = true;
      return 0;
    }
    return Dst.addState();
  }

  void epsilon(StateId From, StateId To, EpsilonMarker Marker = NoMarker) {
    Dst.addEpsilon(From, To, Marker);
    ++Transitions;
  }

  void edge(StateId From, const CharSet &Label, StateId To) {
    if (Label.empty())
      return; // Nfa::addTransition drops it as well.
    Dst.addTransition(From, Label, To);
    ++Transitions;
  }

  /// Charges the states and transitions appended since the last charge.
  /// Compilation is linear, so nothing is truncated; the charges let the
  /// caller's loop headers see a tripped cumulative budget.
  void chargeBudget() {
    ResourceGuard::chargeStates(Dst.numStates() - StatesCharged);
    ResourceGuard::chargeTransitions(Transitions - TransitionsCharged);
    ResourceGuard::chargeMachine(Dst.numStates());
    StatesCharged = Dst.numStates();
    TransitionsCharged = Transitions;
  }

private:
  Piece nodeUncharged(const RegexNode &Node);

  /// Appends a copy of \p M, which has exactly one accepting state.
  Piece copy(const Nfa &M) {
    StateId Base = state();
    for (StateId S = 1; S < M.numStates(); ++S)
      state();
    for (StateId S = 0; S != M.numStates(); ++S)
      for (const Transition &T : M.transitionsFrom(S)) {
        if (T.IsEpsilon)
          epsilon(Base + S, Base + T.To, T.Marker);
        else
          edge(Base + S, T.Label, Base + T.To);
      }
    return Piece::single(Base + M.start(), Base + M.singleAccepting());
  }

  /// The concat() fold over \p Count pieces, seeded with the empty-string
  /// machine: Count dead placeholders, the seed state, then each piece,
  /// linked by an epsilon from the previous piece's final state. A piece
  /// with two accepting states is first funneled into a fresh join state,
  /// as concat() normalizes its left operand.
  template <typename EmitPieceT>
  Piece chain(size_t Count, EmitPieceT EmitPiece) {
    for (size_t I = 0; I != Count; ++I)
      state();
    StateId Seed = state();
    Piece Acc = Piece::single(Seed, Seed);
    for (size_t I = 0; I != Count; ++I) {
      StateId From = joined(Acc).final();
      Piece Next = EmitPiece(I);
      epsilon(From, Next.Start);
      Acc = Next;
      Acc.Start = Seed;
    }
    return joined(Acc);
  }

  /// withSingleAccepting(): funnels a two-accepting piece into a fresh
  /// final state.
  Piece joined(const Piece &P) {
    if (P.NumAccept == 1)
      return P;
    StateId Join = state();
    for (unsigned I = 0; I != P.NumAccept; ++I)
      epsilon(P.Accept[I], Join);
    return Piece::single(P.Start, Join);
  }

  Nfa &Dst;
  bool HandedOutZero = false;
  uint64_t Transitions = 0;
  uint64_t StatesCharged = 0;
  uint64_t TransitionsCharged = 0;
};

Piece Emitter::nodeUncharged(const RegexNode &Node) {
  switch (Node.kind()) {
  case RegexNode::Kind::Empty: {
    // emptyLanguage().withSingleAccepting(): an unreachable final state.
    StateId Start = state();
    return Piece::single(Start, state());
  }
  case RegexNode::Kind::Epsilon: {
    StateId S = state();
    return Piece::single(S, S);
  }
  case RegexNode::Kind::Literal: {
    StateId Start = state();
    StateId Cur = Start;
    for (char C : Node.text()) {
      StateId Next = state();
      edge(Cur, CharSet::singleton(static_cast<unsigned char>(C)), Next);
      Cur = Next;
    }
    return Piece::single(Start, Cur);
  }
  case RegexNode::Kind::Class: {
    StateId Start = state();
    StateId Final = state();
    edge(Start, Node.charSet(), Final);
    return Piece::single(Start, Final);
  }
  case RegexNode::Kind::Concat: {
    const auto &Kids = Node.children();
    return chain(Kids.size(), [&](size_t I) { return node(*Kids[I]); });
  }
  case RegexNode::Kind::Alternate: {
    // The fold alternate(...alternate(C0, C1)..., Ck-1) prepends one fresh
    // start per step, outermost first; fresh start J (from the front)
    // branches to the next inner start (or C0) and to child Ck-1-J.
    const auto &Kids = Node.children();
    size_t K = Kids.size();
    if (K == 1)
      return node(*Kids.front());
    StateId First = state(); // states are handed out consecutively
    for (size_t I = 2; I != K; ++I)
      state();
    std::vector<Piece> Branches;
    Branches.reserve(K);
    for (const RegexPtr &Kid : Kids)
      Branches.push_back(node(*Kid));
    for (size_t J = 0; J + 1 != K; ++J) {
      StateId Fork = First + J;
      epsilon(Fork, J + 2 == K ? Branches.front().Start : Fork + 1);
      epsilon(Fork, Branches[K - 1 - J].Start);
    }
    StateId Join = state();
    for (const Piece &B : Branches)
      epsilon(B.final(), Join);
    return Piece::single(First, Join);
  }
  case RegexNode::Kind::Intersect: {
    Nfa Out = compileRegex(*Node.children().front());
    for (size_t I = 1; I != Node.children().size(); ++I)
      Out = intersect(Out, compileRegex(*Node.children()[I])).trimmed();
    return copy(Out.withSingleAccepting());
  }
  case RegexNode::Kind::Complement:
    return copy(complement(compileRegex(*Node.children().front()))
                    .withSingleAccepting());
  case RegexNode::Kind::Repeat: {
    // Min copies of the child, then star(child) or Max-Min times
    // optional(child).
    const Nfa Child = compileRegex(*Node.children().front());
    const size_t Min = Node.repeatMin();
    const bool Unbounded = Node.repeatMax() == RepeatUnbounded;
    const size_t Count =
        Unbounded ? Min + 1 : static_cast<size_t>(Node.repeatMax());
    const bool ChildNullable = Child.start() == Child.singleAccepting();
    return chain(Count, [&](size_t I) {
      if (I < Min)
        return copy(Child);
      if (Unbounded) {
        // star(): fresh start, the child, fresh final; the child's final
        // loops back to its start. Both fresh states accept.
        StateId Start = state();
        Piece Body = copy(Child);
        StateId Final = state();
        epsilon(Start, Body.Start);
        epsilon(Body.final(), Final);
        epsilon(Body.final(), Body.Start);
        return Piece::twoAccepting(Start, Start, Final);
      }
      // optional(): the child itself when it already accepts at its
      // start, otherwise a fresh accepting start in front of it.
      if (ChildNullable)
        return copy(Child);
      StateId Start = state();
      Piece Body = copy(Child);
      epsilon(Start, Body.Start);
      return Piece::twoAccepting(Start, Start, Body.final());
    });
  }
  }
  assert(false && "unknown regex node kind");
  return Piece();
}

} // namespace

Nfa dprle::compileRegex(const RegexNode &Node) {
  Nfa Out;
  Emitter E(Out);
  Piece P = E.node(Node);
  Out.setStart(P.Start);
  Out.setAccepting(P.final());
  return Out;
}

Nfa dprle::regexLanguage(const std::string &Pattern) {
  RegexPtr Ast = parseRegexOrDie(Pattern);
  return compileRegex(*Ast);
}

Nfa dprle::searchLanguage(const RegexParseResult &Parsed) {
  assert(Parsed.ok() && "searchLanguage on failed parse");
  // The concat() fold Sigma* . P . Sigma* (each Sigma* only on an
  // unanchored side), emitted in place like compileRegex.
  Nfa Out;
  Emitter E(Out);
  for (unsigned I = !Parsed.AnchoredStart + !Parsed.AnchoredEnd; I != 0; --I)
    E.state();
  Piece Prefix;
  if (!Parsed.AnchoredStart)
    Prefix = E.sigmaStar();
  Piece Acc = E.node(*Parsed.Ast);
  if (!Parsed.AnchoredStart) {
    E.epsilon(Prefix.final(), Acc.Start);
    Acc.Start = Prefix.Start;
  }
  if (!Parsed.AnchoredEnd) {
    Piece Suffix = E.sigmaStar();
    E.epsilon(Acc.final(), Suffix.Start);
    Acc.Accept[0] = Suffix.final();
  }
  E.chargeBudget();
  Out.setStart(Acc.Start);
  Out.setAccepting(Acc.final());
  return Out;
}

Nfa dprle::searchLanguage(const std::string &Pattern) {
  RegexParseResult Parsed = parseRegex(Pattern);
  if (!Parsed.ok()) {
    std::fprintf(stderr, "regex parse error in \"%s\" at %zu: %s\n",
                 Pattern.c_str(), Parsed.ErrorPos, Parsed.Error.c_str());
    std::abort();
  }
  return searchLanguage(Parsed);
}
