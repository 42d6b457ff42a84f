//===- Nfa.h - Nondeterministic finite automata -----------------*- C++ -*-==//
//
// Part of dprle-cpp, a reproduction of Hooimeijer & Weimer, "A Decision
// Procedure for Subset Constraints over Regular Languages" (PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Nfa class is the workhorse representation of regular languages used
/// throughout the decision procedure. Transitions are labeled with CharSets;
/// epsilon transitions may optionally carry an integer *marker*.
///
/// Markers implement the bookkeeping at the heart of the paper's
/// concat-intersect algorithm (Figure 3): the single epsilon transition
/// introduced by a concatenation is marked, the marks survive the product
/// construction, and each surviving marked instance in the intersected
/// machine induces one disjunctive solution via induce_from_final /
/// induce_from_start.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_AUTOMATA_NFA_H
#define DPRLE_AUTOMATA_NFA_H

#include "support/CharSet.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dprle {

class CsrNfa;
class Nfa;

/// Dense automaton state index.
using StateId = uint32_t;

/// Sentinel for "no state".
constexpr StateId InvalidState = static_cast<StateId>(-1);

/// Identifies the concatenation a marked epsilon transition stems from.
/// NoMarker denotes a plain (structural) epsilon transition.
using EpsilonMarker = int32_t;
constexpr EpsilonMarker NoMarker = -1;

/// One outgoing NFA transition.
struct Transition {
  StateId To = InvalidState;
  bool IsEpsilon = false;
  /// Marker id; meaningful only when IsEpsilon.
  EpsilonMarker Marker = NoMarker;
  /// Symbol label; meaningful only when !IsEpsilon.
  CharSet Label;
};

/// A concrete occurrence of a marked epsilon transition inside a machine.
struct EpsilonInstance {
  StateId From = InvalidState;
  StateId To = InvalidState;

  bool operator==(const EpsilonInstance &RHS) const {
    return From == RHS.From && To == RHS.To;
  }
};

/// A machine's content identity: a shared handle to its marker-free
/// structural encoding (state count, start, acceptance, and every
/// transition in storage order; epsilon markers excluded, since they carry
/// solver bookkeeping, not language) and the encoding's FNV-1a hash.
/// Every memo table keys machines by it (automata/MemoTable.h). Two
/// identities are equal iff
/// their encodings are; comparing two copies of one handle is a pointer
/// compare.
class MachineIdentity {
public:
  /// An identity with a given encoding and hash, which need not agree;
  /// tests use it to force hash collisions.
  MachineIdentity(std::string Encoding, uint64_t Hash)
      : Rep(std::make_shared<const Data>(Data{std::move(Encoding), Hash})) {}

  /// FNV-1a 64 over encoding(): deterministic across processes, unlike
  /// std::hash.
  uint64_t hash() const { return Rep->Hash; }
  const std::string &encoding() const { return Rep->Encoding; }
  /// True when both are copies of one handle (no content compare).
  bool sameHandle(const MachineIdentity &Other) const {
    return Rep == Other.Rep;
  }

  friend bool operator==(const MachineIdentity &A, const MachineIdentity &B) {
    return A.Rep == B.Rep || (A.Rep->Hash == B.Rep->Hash &&
                              A.Rep->Encoding == B.Rep->Encoding);
  }

private:
  friend class Nfa;
  /// Encodes and hashes \p M: the only producer of the encoding, reached
  /// through Nfa::identity(), which caches the result.
  static MachineIdentity of(const Nfa &M);

  struct Data {
    std::string Encoding;
    uint64_t Hash;
  };
  std::shared_ptr<const Data> Rep;
};

/// A nondeterministic finite automaton over the byte alphabet with a single
/// start state, any number of accepting states, and optional epsilon
/// transitions.
class Nfa {
public:
  /// Constructs an automaton with one non-accepting state (the start state);
  /// its language is empty.
  Nfa();

  /// The big five are user-provided to manage the cached views (the CSR
  /// kernel view and the identity): a copy shares the source's
  /// already-built views (it describes the same machine), a move steals
  /// them. Copying from a machine that is concurrently building a view is
  /// safe; mutating and copying the same machine concurrently is not (the
  /// usual exclusive-writer rule).
  Nfa(const Nfa &Other);
  Nfa(Nfa &&Other) noexcept;
  Nfa &operator=(const Nfa &Other);
  Nfa &operator=(Nfa &&Other) noexcept;
  ~Nfa();

  /// \name Factories
  /// @{

  /// The empty language.
  static Nfa emptyLanguage();
  /// The language containing exactly the empty string.
  static Nfa epsilonLanguage();
  /// The language containing exactly \p Str.
  static Nfa literal(std::string_view Str);
  /// The language of single symbols drawn from \p Set.
  static Nfa fromCharSet(const CharSet &Set);
  /// Sigma-star: all strings.
  static Nfa sigmaStar();
  /// @}

  /// \name Structure
  /// @{
  StateId addState();
  unsigned numStates() const { return States.size(); }
  /// Total transition count, including epsilon transitions.
  size_t numTransitions() const;
  /// Number of epsilon transitions only.
  size_t numEpsilonTransitions() const;

  StateId start() const { return Start; }
  void setStart(StateId S);

  bool isAccepting(StateId S) const { return Accepting[S]; }
  void setAccepting(StateId S, bool Value = true);
  std::vector<StateId> acceptingStates() const;
  unsigned numAccepting() const;
  /// Returns the unique accepting state, or InvalidState if the count is
  /// not exactly one.
  StateId singleAccepting() const;

  void addTransition(StateId From, const CharSet &Label, StateId To);
  void addEpsilon(StateId From, StateId To, EpsilonMarker Marker = NoMarker);

  const std::vector<Transition> &transitionsFrom(StateId S) const {
    return States[S];
  }
  /// @}

  /// \name Cached views
  /// @{

  /// The frozen CSR kernel view of this machine (see CsrNfa.h). Built
  /// lazily on first use and cached; every mutator bumps a generation
  /// counter that invalidates the cache, so the rebuild cost is paid once
  /// per mutation epoch, not per query. Thread-safe against concurrent
  /// csr()/const readers; holders keep the returned view alive
  /// independently of this machine's lifetime and later mutations.
  std::shared_ptr<const CsrNfa> csr() const;

  /// This machine's content identity, computed at most once per mutation
  /// epoch and cached like csr(); copies share the handle.
  MachineIdentity identity() const;

  /// The mutation epoch backing the views' cache; strictly increases across
  /// mutations of this object. Exposed for the invalidation tests.
  uint64_t generation() const { return Generation; }
  /// @}

  /// \name Simulation
  /// @{

  /// Membership test by on-the-fly subset simulation.
  bool accepts(std::string_view Str) const;

  /// Expands \p Set (a sorted-unique state list) to its epsilon closure,
  /// in place. The result is sorted and duplicate-free.
  void epsilonClosure(std::vector<StateId> &Set) const;
  /// @}

  /// \name Language-level queries
  /// @{

  /// True if no accepting state is reachable from the start state.
  bool languageIsEmpty() const;

  /// True if the automaton accepts the empty string.
  bool acceptsEpsilon() const;
  /// @}

  /// \name Reachability and normalization
  /// @{

  /// Marks states reachable from the start state.
  std::vector<bool> reachableFromStart() const;

  /// Marks states from which some accepting state is reachable.
  std::vector<bool> coReachable() const;

  /// Returns a copy without useless states (states that are unreachable or
  /// cannot reach an accepting state). If the trimmed machine would have no
  /// states at all, a single-state empty-language machine is returned.
  /// \param OldToNew if non-null, receives a numStates()-sized map from old
  /// state ids to new ones (InvalidState for dropped states).
  Nfa trimmed(std::vector<StateId> *OldToNew = nullptr) const;

  /// Returns a copy guaranteed to have exactly one accepting state, adding a
  /// fresh state and unmarked epsilon transitions if necessary. For the
  /// empty language the fresh accepting state is unreachable.
  /// \param FinalOut if non-null, receives the single accepting state.
  Nfa withSingleAccepting(StateId *FinalOut = nullptr) const;

  /// induce_from_start (paper Figure 3): a copy with the start state moved
  /// to \p NewStart.
  Nfa inducedFromStart(StateId NewStart) const;

  /// induce_from_final (paper Figure 3): a copy with \p NewFinal as the only
  /// accepting state.
  Nfa inducedFromFinal(StateId NewFinal) const;

  /// A copy with all epsilon markers cleared.
  Nfa withoutMarkers() const;

  /// Standard epsilon elimination; the result is trimmed and has no
  /// epsilon transitions at all. Only valid for machines without markers
  /// (marked transitions carry solver bookkeeping that closure would
  /// destroy). Constant machines are normalized with this before entering
  /// the decision procedure so that marker-instance counts in product
  /// machines match the paper's DFA-like machine drawings.
  Nfa withoutEpsilonTransitions() const;

  /// The reverse automaton. Only meaningful for machines with at least one
  /// accepting state; multi-accepting inputs gain a fresh start state.
  Nfa reversed() const;
  /// @}

  /// \name Marker queries
  /// @{

  /// All occurrences of epsilon transitions carrying \p Marker.
  std::vector<EpsilonInstance> markerInstances(EpsilonMarker Marker) const;

  /// The distinct marker ids present, in increasing order.
  std::vector<EpsilonMarker> markersUsed() const;
  /// @}

private:
  /// Drops the cached views; called by every mutator. Callers hold
  /// exclusive access during mutation (the usual rule for this class), so
  /// no lock is needed to bump the epoch.
  void invalidate() { ++Generation; }
  /// Resets views built at an older epoch; the caller holds ViewMutex.
  void dropStaleViews() const;

  std::vector<std::vector<Transition>> States;
  std::vector<bool> Accepting;
  StateId Start = 0;

  /// Mutation epoch; starts at 1 so a generation of 0 (Views.Generation's
  /// initial value) never validates an empty cache.
  uint64_t Generation = 1;
  /// The views built at epoch Views.Generation, copied as a unit.
  struct CachedViews {
    uint64_t Generation = 0;
    std::shared_ptr<const CsrNfa> Csr;
    std::optional<MachineIdentity> Identity;
  };
  mutable std::mutex ViewMutex;
  mutable CachedViews Views;
};

} // namespace dprle

#endif // DPRLE_AUTOMATA_NFA_H
