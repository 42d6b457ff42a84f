//===- Decide.h - On-the-fly language decision kernel -----------*- C++ -*-==//
//
// Part of dprle-cpp, a reproduction of Hooimeijer & Weimer, "A Decision
// Procedure for Subset Constraints over Regular Languages" (PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Boolean language queries answered *without materializing result machines*.
/// The classical construction builds the full answer machine first — L ⊆ R as
/// difference(L, R).languageIsEmpty() (NfaOps.h) determinizes and complements
/// R, builds the complete product, and only then walks it looking for an
/// accepting state. These queries dominate the innermost loops of the solver
/// (reduce, gci verification, solution dedup) and of the taint pre-pass
/// (proven-safe intersection tests), yet almost every call only needs a yes/no
/// answer and, occasionally, one witness string.
///
/// This kernel answers them on the fly:
///
///  * emptyIntersection(L, R) — a lazy product BFS over reachable state
///    pairs that exits at the *first* accepting pair. Nonempty
///    intersections (the common case on vulnerable paths) are detected
///    after exploring only the pairs a witness actually needs.
///  * subsetOf(L, R) — a counterexample search over pairs (state of L,
///    macro-state of R) where R is determinized on demand; an *antichain*
///    of ⊆-minimal macro-states per L-state prunes dominated pairs, so
///    the complete-DFA complement of R is never built (De Wulf, Doyen,
///    Henzinger & Raskin, "Antichains: A New Algorithm for Checking
///    Universality of Finite Automata", CAV 2006).
///  * equivalentTo(L, R) — two subset checks with early exit.
///  * isEmpty(M) — reachability with early exit at the first accepting
///    state.
///
/// Answers are memoized in a DecisionCache keyed by the operands' content
/// identities (Nfa::identity(), computed once per machine and carried by
/// its copies), so repeated queries over shared machines — the taint
/// pass's attack language, the solver's dedup comparisons — are table
/// lookups instead of fresh product constructions. The cache is a
/// lock-striped MemoTable (MemoTable.h), so pool workers of the solver
/// service (src/service/) share memoized verdicts without contending on
/// one lock. It can be disabled for debugging (`--no-decision-cache`).
///
/// All queries are bit-identical to their materialized counterparts;
/// tests/DecideTest.cpp pins this differentially over randomized NFAs.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_AUTOMATA_DECIDE_H
#define DPRLE_AUTOMATA_DECIDE_H

#include "automata/MemoTable.h"
#include "automata/Nfa.h"
#include "support/Stats.h"

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

namespace dprle {

/// Process-wide counters for the decision kernel, published into the
/// StatsRegistry as "decide.*" (see docs/OBSERVABILITY.md). RelaxedCounter
/// fields: the service bumps them from concurrent pool workers.
struct DecideStats {
  /// Queries by kind.
  RelaxedCounter EmptyIntersectionQueries;
  RelaxedCounter SubsetQueries;
  RelaxedCounter EquivalenceQueries;
  RelaxedCounter EmptinessQueries;

  /// Lazy-product pairs materialized by emptyIntersection / witness
  /// extraction.
  RelaxedCounter ProductPairsVisited;
  /// (L-state, R-macro-state) pairs materialized by subsetOf.
  RelaxedCounter MacroPairsVisited;
  /// Pairs discarded because an antichain entry already ⊆-dominated them.
  RelaxedCounter AntichainPrunes;

  /// Queries resolved by finding a witness/counterexample before the
  /// frontier was exhausted, and the summed witness lengths at exit
  /// (average early-exit depth = EarlyExitDepthTotal / EarlyExits).
  RelaxedCounter EarlyExits;
  RelaxedCounter EarlyExitDepthTotal;

  /// DecisionCache accounting.
  RelaxedCounter CacheHits;
  RelaxedCounter CacheMisses;
  RelaxedCounter CacheEvictions;

  void reset() { *this = DecideStats(); }

  static DecideStats &global();
};

/// Memoizes decision-kernel answers across queries, keyed by (query,
/// identity, identity). Identities exclude epsilon markers (they carry
/// solver bookkeeping, not language), so two machines differing only in
/// markers share entries. The table is a MemoTable of 16 stripes of at
/// most 4096 answers and MemoTable::MaxPinnedBytes / 16 pinned bytes each;
/// overflow flushes a stripe (counted in DecideStats::CacheEvictions).
/// Entries hold identity handles, so an answer can never be filed under
/// another machine's key.
///
/// The enable switch is shared with the minimize memo (NfaOps.h): it is
/// the one `--no-decision-cache` switch. setEnabled() and clear() mutate
/// state that queries read without coordination and therefore assert that
/// no parallel region is active (support/Executor.h) — configure the cache
/// before starting a pool.
class DecisionCache {
public:
  enum class Query : uint8_t {
    EmptyIntersection = 0,
    Subset = 1,
    Equivalent = 2,
    Empty = 3,
  };

  /// Globally enables/disables memoization of decide answers and of
  /// minimized() results. Disabling does not clear previously stored
  /// answers. Must not be called while a parallel region is active.
  void setEnabled(bool E);
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Drops every stored answer (the minimize memo stays warm). Must not be
  /// called while a parallel region is active.
  void clear();

  /// Distinct machines the stored answers reference, and stored answers
  /// (diagnostics; momentary under concurrency).
  size_t numMachines() const;
  size_t numAnswers() const;

  /// The answer to \p Q over \p L (and \p R for binary queries; nullptr
  /// for isEmpty): memoized, or computed by \p Compute and stored.
  template <typename Fn>
  bool answer(Query Q, const Nfa &L, const Nfa *R, Fn Compute) {
    if (!enabled())
      return Compute();
    MemoKey K;
    K.Shape.push_back(char(Q));
    K.addMachine(L);
    if (R)
      K.addMachine(*R);
    if (std::optional<bool> Hit = Answers.find(K))
      return *Hit;
    bool A = Compute();
    Answers.insert(std::move(K), A);
    return A;
  }

  static DecisionCache &global();

private:
  DecisionCache() = default;

  MemoTable<bool> Answers{/*NumStripes=*/16, /*MaxEntriesPerStripe=*/4096,
                          {&DecideStats::global().CacheHits,
                           &DecideStats::global().CacheMisses,
                           &DecideStats::global().CacheEvictions}};
  std::atomic<bool> Enabled{true};
};

/// True iff L(Lhs) ∩ L(Rhs) = ∅. Never materializes the product machine.
bool emptyIntersection(const Nfa &Lhs, const Nfa &Rhs);

/// A string in L(Lhs) ∩ L(Rhs), or nullopt when the intersection is
/// empty. Used for exploit generation; bypasses the cache (the path is
/// needed, not just the bit).
std::optional<std::string> intersectionWitness(const Nfa &Lhs,
                                               const Nfa &Rhs);

/// True iff L(Lhs) ⊆ L(Rhs). Determinizes Rhs on demand and prunes with
/// an antichain; never builds the complement of Rhs.
bool subsetOf(const Nfa &Lhs, const Nfa &Rhs);

/// A string in L(Lhs) \ L(Rhs), or nullopt when Lhs ⊆ Rhs. Bypasses the
/// cache.
std::optional<std::string> subsetCounterexample(const Nfa &Lhs,
                                                const Nfa &Rhs);

/// True iff L(Lhs) = L(Rhs).
bool equivalentTo(const Nfa &Lhs, const Nfa &Rhs);

/// True iff L(M) = ∅; early-exits at the first reachable accepting state.
bool isEmpty(const Nfa &M);

} // namespace dprle

#endif // DPRLE_AUTOMATA_DECIDE_H
