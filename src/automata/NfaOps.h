//===- NfaOps.h - Regular-language operations on NFAs -----------*- C++ -*-==//
///
/// \file
/// The language-level operations the decision procedure is built from:
/// marked concatenation (paper Figure 3 line 6), the cross-product
/// intersection (lines 7-8), boolean closure via determinization, and
/// decidable comparisons plus witness extraction used by the testcase
/// generator and the test suite. minimized() memoizes its results in a
/// MemoTable (MemoTable.h) keyed by the operand's identity; that memo
/// shares the DecisionCache's enable switch but is cleared on its own.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_AUTOMATA_NFAOPS_H
#define DPRLE_AUTOMATA_NFAOPS_H

#include "automata/Dfa.h"
#include "automata/Nfa.h"
#include "support/Stats.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace dprle {

/// Records how the states of concat() operands map into the result.
struct ConcatEmbedding {
  std::vector<StateId> LhsStates; ///< operand state -> result state
  std::vector<StateId> RhsStates; ///< operand state -> result state
};

/// Concatenation of \p Lhs and \p Rhs via a single epsilon transition
/// carrying \p Marker (paper Figure 3, line 6). \p Lhs is normalized to a
/// single accepting state first. The result's start state is Lhs's start;
/// its accepting states are Rhs's.
Nfa concat(const Nfa &Lhs, const Nfa &Rhs, EpsilonMarker Marker = NoMarker,
           ConcatEmbedding *Embedding = nullptr);

/// Records, for every state of an intersect() result, the originating state
/// pair (Lhs state, Rhs state).
struct ProductMap {
  std::vector<std::pair<StateId, StateId>> Origin;
};

/// Cross-product intersection (paper Figure 3, lines 7-8). Only state pairs
/// reachable from (Lhs.start, Rhs.start) are materialized. Epsilon
/// transitions of either operand advance that operand alone and keep their
/// markers; marker ids of the two operands should be disjoint.
Nfa intersect(const Nfa &Lhs, const Nfa &Rhs, ProductMap *Map = nullptr);

/// Language union via a fresh start state.
Nfa alternate(const Nfa &Lhs, const Nfa &Rhs);

/// Kleene closure operators.
Nfa star(const Nfa &M);
Nfa plus(const Nfa &M);
Nfa optional(const Nfa &M);

/// Subset construction; the result is a complete DFA.
Dfa determinize(const Nfa &M);

/// Language complement with respect to Sigma-star.
Nfa complement(const Nfa &M);

/// L(Lhs) minus L(Rhs).
Nfa difference(const Nfa &Lhs, const Nfa &Rhs);

/// Canonical minimal machine for L(M) (determinize + Hopcroft, converted
/// back to an NFA). Markers do not survive minimization.
///
/// Results are memoized in a process-wide MemoTable (MemoTable.h) keyed
/// by the operand's identity (Nfa::identity(): markers excluded;
/// minimization is marker-oblivious, so sharing entries across marker
/// variants is sound), bounded at 4096 entries. The solver re-minimizes
/// the same constants on every dependency-graph build and the gci
/// verify/maximize paths re-minimize identical candidates; the memo turns
/// those into lookups. Hits skip the determinize/Hopcroft work and
/// therefore its resource-budget charges — like the DecisionCache,
/// budget-limited reruns of warmed queries may do less work than their
/// cold counterparts.
Nfa minimized(const Nfa &M);

/// Process-wide counters for the minimize-result cache, published into the
/// StatsRegistry as "minimize.*" (docs/OBSERVABILITY.md).
struct MinimizeStats {
  RelaxedCounter Hits;
  RelaxedCounter Misses;
  RelaxedCounter Evictions;

  static MinimizeStats &global();
};

/// The minimize memo shares DecisionCache's enable switch (the one
/// `--no-decision-cache` switch): these read and flip that switch, so
/// they also turn decide-answer memoization on or off. Must not be called
/// while a parallel region is active.
void setMinimizeCacheEnabled(bool Enabled);
bool minimizeCacheEnabled();

/// Drops every cached minimize result (the decide answers stay warm).
/// Must not be called while a parallel region is active. Tests use this to
/// re-create cold-cache conditions; the bounded memo also self-flushes on
/// overflow (MinimizeStats::Evictions).
void clearMinimizeCache();

/// Cached entries right now (diagnostics; momentary under concurrency).
size_t minimizeCacheSize();

/// Right quotient: { w | ∃ s ∈ L(Suffixes): w.s ∈ L(K) }.
///
/// The solver's maximization step uses quotients to compute the largest
/// language a variable may take given the languages around it:
/// {w : P.w.S ⊆ C} = ¬ leftQuotient(P, rightQuotient(¬C, S)).
Nfa rightQuotient(const Nfa &K, const Nfa &Suffixes);

/// Left quotient: { w | ∃ p ∈ L(Prefixes): p.w ∈ L(K) }.
Nfa leftQuotient(const Nfa &Prefixes, const Nfa &K);

/// Returns a shortest accepted string (ties broken arbitrarily but
/// deterministically), or nullopt for the empty language.
std::optional<std::string> shortestString(const Nfa &M);

/// Enumerates accepted strings of length at most \p MaxLen in
/// shortest-first, then lexicographic order, up to \p Limit strings.
std::vector<std::string> enumerateStrings(const Nfa &M, size_t MaxLen,
                                          size_t Limit = SIZE_MAX);

} // namespace dprle

#endif // DPRLE_AUTOMATA_NFAOPS_H
