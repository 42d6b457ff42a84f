//===- Solution.h - Satisfying assignments ----------------------*- C++ -*-==//
///
/// \file
/// The result types of Solver::solve. An Assignment maps every variable of
/// the Problem to a regular language; a SolveResult carries the (possibly
/// disjunctive) list of assignments plus run statistics.
///
/// Answers are shown to users as regex text plus a witness string per
/// variable (renderLanguage). Warm sessions and repeated solves hand back
/// the same few languages over and over, so renders are memoized by the
/// machine's content identity (Nfa::identity()) in one bounded,
/// lock-striped MemoTable, switched off with the decision cache
/// (`--no-decision-cache`).
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_SOLVER_SOLUTION_H
#define DPRLE_SOLVER_SOLUTION_H

#include "automata/Nfa.h"
#include "solver/Problem.h"
#include "solver/SolverStats.h"
#include "support/Stats.h"

#include <optional>
#include <string>
#include <vector>

namespace dprle {

/// A language as the user sees it.
struct RenderedLanguage {
  /// The regex text nfaToRegex (regex/NfaToRegex.h) renders.
  std::string Regex;
  /// A shortest member; nullopt only for the empty language.
  std::optional<std::string> Witness;
};

/// Heap bytes a render pins as a memo value (automata/MemoTable.h).
size_t memoValueBytes(const RenderedLanguage &R);

/// Process-wide render-memo counters, published into the StatsRegistry
/// as "render.*" (docs/OBSERVABILITY.md).
struct RenderStats {
  RelaxedCounter Hits;
  RelaxedCounter Misses;
  RelaxedCounter Evictions;

  static RenderStats &global();
};

/// \p M rendered: memoized by content identity, so machines differing
/// only in epsilon markers share one entry (neither the regex nor the
/// witness reads markers). Runs under the calling thread's ambient budget
/// like nfaToRegex: when the budget trips mid-render the result is
/// meaningless and the caller checks its budget; such a render is never
/// memoized. Thread-safe.
RenderedLanguage renderLanguage(const Nfa &M);

/// Drops every memoized render (tests re-create cold conditions with it).
void clearRenderCache();

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
