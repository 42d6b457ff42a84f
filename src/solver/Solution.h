//===- Solution.h - Satisfying assignments ----------------------*- C++ -*-==//
///
/// \file
/// The result types of Solver::solve. An Assignment maps every variable of
/// the Problem to a regular language; a SolveResult carries the (possibly
/// disjunctive) list of assignments plus run statistics.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_SOLVER_SOLUTION_H
#define DPRLE_SOLVER_SOLUTION_H

#include "automata/Nfa.h"
#include "solver/Problem.h"
#include "solver/SolverStats.h"

#include <optional>
#include <string>
#include <vector>

namespace dprle {

/// One satisfying assignment A = [v1 -> x1, ..., vm -> xm].
class Assignment {
public:
  explicit Assignment(std::vector<Nfa> Languages)
      : Languages(std::move(Languages)) {}

  /// The language assigned to \p V.
  const Nfa &language(VarId V) const { return Languages[V]; }

  unsigned numVariables() const { return Languages.size(); }

  /// A shortest member of \p V's language — the concrete testcase string
  /// the evaluation feeds back to the web application. nullopt only for
  /// empty languages, which the solver rejects by default.
  std::optional<std::string> witness(VarId V) const;

  /// Up to \p Count members of \p V's language in shortest-first order —
  /// multiple concrete testcases for the same vulnerability.
  std::vector<std::string> witnesses(VarId V, size_t Count,
                                     size_t MaxLen = 32) const;

  /// \p V's language rendered as a regex (via state elimination).
  std::string regexFor(VarId V) const;

private:
  std::vector<Nfa> Languages; // indexed by VarId
};

/// The outcome of one solve: either "no assignments found" or one or more
/// disjunctive satisfying assignments.
struct SolveResult {
  bool Satisfiable = false;
  /// True when the ambient budget (support/Budget.h) tripped mid-solve.
  /// Satisfiable is then false *because the solve was abandoned*, not
  /// because unsatisfiability was proven; the budget's dimension() says
  /// why, and the service reports it as `cancelled`, `timeout` or
  /// `resource_exhausted` (docs/ROBUSTNESS.md), never as "no".
  bool Interrupted = false;
  std::vector<Assignment> Assignments;
  SolverStats Stats;
};

} // namespace dprle

#endif // DPRLE_SOLVER_SOLUTION_H
