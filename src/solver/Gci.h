//===- Gci.h - Generalized concat-intersect ---------------------*- C++ -*-==//
///
/// \file
/// The generalized concat-intersect procedure of paper Figure 8: solves one
/// CI-group (a connected component of concat edges) at a time, returning a
/// set of disjunctive node-to-NFA mappings.
///
/// The implementation maintains the paper's two invariants:
///
/// 1. *Operation ordering* — nodes are processed in topological order and a
///    node's inbound subset constraints are folded into its machine before
///    the machine participates in any concatenation. (See the paper's
///    Figure 6 discussion of why the reverse order computes the wrong
///    language for v2.)
///
/// 2. *Shared solution representation* — the solution of an influenced node
///    is a *segment* of a larger (root) machine, delimited by epsilon
///    markers: `solution[n]` is a set of Segment records, each naming the
///    hosting root and the markers bounding the sub-NFA. Because markers
///    ride on transitions, every later rewrite of the root machine
///    (intersections with constants, further concatenations) automatically
///    updates all influenced nodes, which is the paper's pointer-sharing
///    scheme in value-semantics form.
///
/// Disjunctive solutions are enumerated as combinations of surviving marker
/// instances over all root machines (generalizing Figure 3 lines 10-15 and
/// Figure 8's all_combinations); a node influenced through several
/// concatenations — vb in paper Figure 9 — receives the *intersection* of
/// its induced sub-NFAs, and combinations leaving any variable empty are
/// rejected.
///
/// A run obeys the calling thread's ambient budget (support/Budget.h),
/// polled at the per-node and per-combination loop headers; parallel wave
/// bodies see the same budget through the executor.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_SOLVER_GCI_H
#define DPRLE_SOLVER_GCI_H

#include "automata/Nfa.h"
#include "solver/DependencyGraph.h"
#include "support/Budget.h"
#include "support/Executor.h"

#include <map>
#include <vector>

namespace dprle {

/// A sub-NFA selector: the slice of \p Root's machine between two marker
/// boundaries. NoMarker boundaries denote the machine's start state (left)
/// or its accepting set (right).
struct Segment {
  NodeId Root = 0;
  EpsilonMarker LeftMarker = NoMarker;
  EpsilonMarker RightMarker = NoMarker;
};

/// Tuning knobs for one gci run.
struct GciOptions {
  /// Stop after this many disjunctive solutions.
  size_t MaxSolutions = SIZE_MAX;
  /// Minimize marker-free intermediate machines (the paper's suggested
  /// mitigation for the `secure` pathology; benchmarked by E9).
  bool MinimizeIntermediates = false;
  /// Drop solutions whose variable languages all equal an earlier
  /// solution's (the paper reports *unique* satisfying assignments).
  bool DedupSolutions = true;
  /// Extend each candidate to a *maximal* assignment (condition 2 of the
  /// RMA definition, paper Section 3.1) by quotient-based widening: the
  /// largest language for v given the rest of the assignment is
  /// ¬ leftQuot(Prefix, rightQuot(¬C, Suffix)) intersected over v's
  /// occurrences. This is what turns the per-instance induced machines
  /// [v1 -> xyyyy, v2 -> z] of the Section 3.1.1 example into the paper's
  /// reported A2 = [v1 -> x(yy|yyyy), v2 -> z].
  ///
  /// Known limitation: when a variable occurs several times within a
  /// *single* constraint (v.v ⊆ c), the maximal extension couples the
  /// occurrences — {w : P.w.Q.w.R ⊆ C} is not expressible by quotients
  /// (the two w's must be equal), and maximal solutions need not even be
  /// unique (consider v.v ⊆ ab|ba|aa: both {a} and {b,...} style choices
  /// are locally maximal). In that case the widening is verified against
  /// the joint constraint and reverted if it overshoots, so reported
  /// assignments are always *satisfying* but may be non-maximal.
  bool MaximizeSolutions = true;

  /// \name Concurrency (the `--jobs N` path; see docs/SERVICE.md)
  /// @{
  /// Worker count for combination enumeration. With Jobs <= 1 or a null
  /// Exec the run is strictly serial and bit-identical to the historical
  /// code path. With Jobs > 1, marker combinations are evaluated in
  /// parallel waves and their results merged *in combination order*, so
  /// Solutions are identical to a serial run at any job count; only the
  /// CombinationsTried/... counters may overshoot (a wave is evaluated
  /// whole even when MaxSolutions is reached mid-wave).
  unsigned Jobs = 1;
  /// The executor running parallel waves; null means serial.
  Executor *Exec = nullptr;
  /// @}
};

/// Output of one gci run.
struct GciResult {
  /// Disjunctive solutions; each maps every Variable node of the group to
  /// a non-empty language.
  std::vector<std::map<NodeId, Nfa>> Solutions;

  /// True when the ambient budget (support/Budget.h) tripped mid-run —
  /// cancelled, past its deadline, or over a resource cap. Solutions is
  /// then a partial answer and must not be interpreted as
  /// "unsatisfiable".
  bool Interrupted = false;

  /// \name Stats contributions (merged into SolverStats by the Solver)
  /// @{
  uint64_t ConcatsBuilt = 0;
  uint64_t SubsetIntersections = 0;
  uint64_t CombinationsTried = 0;
  uint64_t CombinationsAccepted = 0;
  /// Candidates rejected by the post-hoc verification pass. Verification
  /// certifies Satisfying semantically; it catches marker combinations
  /// that are inconsistent for *constant* operands whose strings reach
  /// different RHS-automaton states at a concat boundary. (The paper's
  /// formulation avoids the case by modeling constants in concatenations
  /// as constrained variables — its Figure 6 turns the literal "nid_"
  /// into v1 ⊆ c1.)
  uint64_t CombinationsRejectedByVerification = 0;
  /// @}
};

/// Heap bytes a result pins as a memo value (automata/MemoTable.h): its
/// solutions' map nodes and machines.
size_t memoValueBytes(const GciResult &R);

/// Solves one CI-group. \p Group must come from DependencyGraph::ciGroups()
/// (topologically ordered). \p BaseLanguage optionally overrides the
/// starting machine of Variable nodes (default Sigma-star); the Solver uses
/// this for worklist re-solving.
GciResult solveCiGroup(const DependencyGraph &G,
                       const std::vector<NodeId> &Group,
                       const GciOptions &Opts = {},
                       const std::map<NodeId, Nfa> *BaseLanguage = nullptr);

} // namespace dprle

#endif // DPRLE_SOLVER_GCI_H
