//===- Solver.h - The RMA decision procedure --------------------*- C++ -*-==//
///
/// \file
/// The top-level decision procedure (paper Figure 7): given an RMA
/// Problem, produce the disjunctive set of satisfying, maximal assignments
/// or report that no assignment exists.
///
/// Structure of one solve:
///   1. Build the dependency graph (Figure 5).
///   2. `reduce` (Figure 7 lines 3-8): eliminate acyclic constraints —
///      constant-vs-constant inclusion checks and plain intersections for
///      variables that participate in no concatenation. This stage never
///      produces disjunction.
///   3. For every CI-group (Figure 7 lines 9-15), run the generalized
///      concat-intersect procedure (Gci.h); a worklist combines the
///      groups' disjunctive solution sets.
///   4. Assignments mapping any variable to the empty language are
///      rejected (Figure 7 lines 16-23); an exhausted worklist yields
///      "no assignments found".
///
/// Stages 2-4 are one function, solvePipeline(), shared by the cold
/// Solver and the incremental SolverSession (Session.h): a session check
/// is the same pipeline over an incrementally rebuilt graph, handed a
/// ReuseTable of content-keyed results from earlier checks.
///
/// Stopping: a solve obeys the calling thread's ambient ResourceGuard
/// budget (support/Budget.h), which carries the request's resource caps,
/// deadline and cancel flag. The pipeline polls it at its loop headers,
/// the kernels poll and charge it inside their loops, and parallel stages
/// see it through the executor. When it trips, the solve returns
/// Satisfiable = false with SolveResult::Interrupted set.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_SOLVER_SOLVER_H
#define DPRLE_SOLVER_SOLVER_H

#include "solver/Gci.h"
#include "solver/Problem.h"
#include "solver/Solution.h"

namespace dprle {

/// Tuning knobs for the decision procedure.
struct SolverOptions {
  /// Stop after this many disjunctive assignments. 1 asks for "the first
  /// solution without enumerating the others" (paper Section 3.5).
  size_t MaxSolutions = SIZE_MAX;
  /// Minimize marker-free intermediate machines (ablation E9).
  bool MinimizeIntermediates = false;
  /// Report only unique assignments (language equivalence).
  bool DedupSolutions = true;
  /// Widen each candidate to a maximal assignment (the RMA definition's
  /// second condition); see GciOptions::MaximizeSolutions.
  bool MaximizeSolutions = true;
  /// Canonicalize constant machines to minimal DFAs when building the
  /// dependency graph (see DependencyGraph::build). Disabling this is the
  /// paper-faithful prototype mode used by the Figure 12 benchmark.
  bool CanonicalizeConstants = true;

  /// \name Concurrency (the `--jobs N` path; see docs/SERVICE.md)
  /// @{
  /// Worker count. With Jobs <= 1 or a null Exec the solve is strictly
  /// serial and bit-identical to the historical code path. With Jobs > 1,
  /// independent CI-groups are solved concurrently and each group's marker
  /// combinations are enumerated in parallel waves (GciOptions); results
  /// are merged in deterministic order, so assignments and verdicts are
  /// identical at any job count. Stats counters may differ from the serial
  /// run (e.g. groups after an unsatisfiable one still contribute).
  unsigned Jobs = 1;
  /// The executor running parallel work; null means serial.
  Executor *Exec = nullptr;
  /// @}
};

/// The decision procedure. Stateless apart from options; reusable.
class Solver {
public:
  Solver() = default;
  explicit Solver(SolverOptions Opts) : Opts(Opts) {}

  /// Solves \p P. Returns all (or MaxSolutions) disjunctive satisfying
  /// assignments; Satisfiable is false when none exists — including when
  /// the only candidate assignments map some variable to the empty
  /// language.
  SolveResult solve(const Problem &P) const;

  /// Partial solving (the paper's Section 4: "the possibility of solving
  /// either part or all of the graph depending on the needs of the
  /// client analysis"): solves only the CI-groups and free constraints
  /// that involve a variable in \p Of, plus the always-cheap
  /// constant-vs-constant checks. Variables outside every solved region
  /// are reported as Sigma-star. Satisfiability verdicts are therefore
  /// relative to the solved region.
  SolveResult solveFor(const Problem &P,
                       const std::vector<VarId> &Of) const;

private:
  SolveResult solveImpl(const Problem &P,
                        const std::vector<VarId> *Of) const;

  SolverOptions Opts;
};

class ReuseTable;

/// Stages 2-4 of a solve over \p G, the dependency graph of \p P. \p Of,
/// when non-null, restricts solving to the region solveFor() describes.
/// \p Reuse, when non-null, splices results of earlier solves stored under
/// the same content key and files every newly completed one; null is a
/// cold solve. The caller stamps SolveSeconds/StatesVisited, since its
/// clock also covers building \p G.
SolveResult solvePipeline(const Problem &P, const DependencyGraph &G,
                          const SolverOptions &Opts,
                          const std::vector<VarId> *Of, ReuseTable *Reuse);

} // namespace dprle

#endif // DPRLE_SOLVER_SOLVER_H
