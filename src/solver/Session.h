//===- Session.h - Incremental solving sessions -----------------*- C++ -*-==//
///
/// \file
/// Incremental solving with warm restarts (docs/SESSIONS.md). A
/// SolverSession owns a Problem plus a stack of constraint *frames*:
/// push() opens a frame (optionally parsing a textual delta in the context
/// of the existing variables and let-bindings), pop() rewinds to the
/// watermark the matching push() recorded, and check() decides the current
/// flattened instance.
///
/// check() *is* the cold pipeline plus a reuse table: it rebuilds the
/// dependency graph incrementally (DependencyGraph::rebuild moves the
/// already-normalized constant machines of the unchanged constraint prefix
/// instead of re-minimizing them) and runs the same solvePipeline() as
/// Solver::solve (Solver.h), handing it the session's ReuseTable.
/// Constant-inclusion verdicts, free-variable reduce languages, and
/// CI-group results are looked up by *content* (the constants' identity
/// handles, the same identity the DecisionCache keys by, plus group
/// shape), so reuse
/// survives pop(): re-asserting earlier state hits the cache even though
/// the frame stack churned. The delta's dirty region (forward reachability
/// over the concat edges) is diagnostic only: it feeds
/// SessionCheckInfo::DirtyGroups.
///
/// Equivalence guarantee: a completed check() returns verdicts,
/// assignments, and witness languages bit-identical to a cold
/// Solver::solve of the same flattened Problem with the same options
/// (differential-tested in tests/SessionTest.cpp). A check obeys the
/// calling thread's ambient budget (support/Budget.h) exactly like the
/// cold solver; an interrupted check (cancelled, past its deadline, over a
/// resource cap) poisons no cache entry. One deliberate asymmetry: a
/// *warm* check does less work than a cold solve, so a budget that would
/// exhaust a cold solve may not exhaust a warm check — the equivalence
/// guarantee for the Interrupted bit therefore applies to cold-cache
/// checks (a fresh session's first check), which perform exactly the cold
/// solve's work.
///
/// Thread safety: a SolverSession is single-threaded (the service
/// serializes verbs per session); check() may still parallelize internally
/// via SolverOptions::Jobs/Exec, with the usual bit-identical-at-any-job-
/// count guarantee.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_SOLVER_SESSION_H
#define DPRLE_SOLVER_SESSION_H

#include "automata/MemoTable.h"
#include "solver/Problem.h"
#include "solver/Solution.h"
#include "solver/Solver.h"
#include "support/Stats.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dprle {

/// Process-wide session.* counters (StatsRegistry; docs/OBSERVABILITY.md).
/// The lifecycle counters (Opened/Closed/Evicted/Lost) are bumped by the
/// service front end; the work counters by SolverSession itself, so the
/// repl and embedded sessions feed the same totals.
struct SessionStats {
  RelaxedCounter Opened;
  RelaxedCounter Closed;
  RelaxedCounter Evicted;
  /// Requests answered with `session_lost` (unknown or evicted id).
  RelaxedCounter Lost;
  RelaxedCounter Pushes;
  RelaxedCounter Pops;
  RelaxedCounter Checks;
  /// CI-groups seen / spliced from cache across every check.
  RelaxedCounter GroupsTotal;
  RelaxedCounter GroupsReused;
  /// Constant machines moved across incremental graph rebuilds.
  RelaxedCounter ConstantsReused;
  /// Free-variable reduce languages spliced from cache.
  RelaxedCounter FreeVarsReused;

  static SessionStats &global();
};

/// Reuse diagnostics of the most recent check().
struct SessionCheckInfo {
  /// CI-groups in the solved instance, and how many were spliced from the
  /// session's group cache instead of re-running solveCiGroup.
  uint64_t GroupsTotal = 0;
  uint64_t GroupsReused = 0;
  /// Groups the delta's forward-reachable dirty region touches. Clean
  /// groups splice deterministically; dirty groups re-solve unless their
  /// *content* matches a cached group (pop()-restored state).
  uint64_t DirtyGroups = 0;
  /// Constraints outside the unchanged prefix since the last solved state.
  uint64_t DirtyConstraints = 0;
  /// Constant machines moved over by the incremental graph rebuild.
  uint64_t ConstantsReused = 0;
  /// Free (concat-less) variables, and how many spliced their reduce
  /// language from cache.
  uint64_t FreeVarsTotal = 0;
  uint64_t FreeVarsReused = 0;
  /// Constant-vs-constant inclusion checks skipped (verdict cached).
  uint64_t SubsetChecksReused = 0;
  /// False for a cold (first or invalidated) check: the dependency graph
  /// was built from scratch.
  bool Incremental = false;
};

/// Per-check knobs; everything else (MaxSolutions default, minimization,
/// jobs, ...) is fixed at session construction so cached results stay
/// valid across checks. The check's budget is the caller's ambient one.
struct SessionCheckOptions {
  /// Overrides SolverOptions::MaxSolutions for this check; 0 = keep the
  /// session default. Cached group results are keyed by the effective
  /// value, so switching it between checks is safe (but cache-unfriendly).
  size_t MaxSolutions = 0;
};

/// The session's content-keyed warm caches, consulted by solvePipeline()
/// (Solver.h) during a check: constant inclusions that held, free-variable
/// reduce languages, and CI-group results. Each is a MemoTable
/// (automata/MemoTable.h) keyed by a MemoKey: group shape and the
/// result-affecting options as bytes, plus the identity handles of the
/// constant machines involved, never NodeIds. The pipeline files only
/// completed results — the table refuses anything computed under a
/// tripped budget — and never a failed inclusion, so a hit cannot mask a
/// violation the cold solver would report. Bounded: overflow flushes the
/// offending cache wholesale.
class ReuseTable {
public:
  /// The current check's diagnostics. The lookups below count their hits
  /// here; the session fills the graph-rebuild fields.
  SessionCheckInfo Info;
  /// Per node of the current graph: whether it lies in the delta's dirty
  /// region. Only counted (Info.DirtyGroups); hits are decided by content.
  std::vector<bool> Dirty;

  /// Drops every cached entry.
  void clear();

  /// Constant inclusions known to hold, and free-variable reduce
  /// languages; file completed results under the keys the lookups below
  /// return. The bounds (one stripe each, as for Groups) are generous next
  /// to a session's working set; overflow flushes the table wholesale.
  MemoTable<bool> SubsetOk{/*NumStripes=*/1, /*MaxEntriesPerStripe=*/4096};
  MemoTable<Nfa> FreeVars{/*NumStripes=*/1, /*MaxEntriesPerStripe=*/1024};

  /// True when `Sub ⊆ Super` is known to hold; otherwise \p Key receives
  /// the pair's key for SubsetOk.
  bool knownSubset(const Nfa &Sub, const Nfa &Super, MemoKey &Key);

  /// The reduce language of a free variable constrained by
  /// \p Constraining, or nullopt when unknown (\p Key then receives the
  /// key for FreeVars).
  std::optional<Nfa> findFreeVar(const DependencyGraph &G,
                                 const std::vector<NodeId> &Constraining,
                                 const SolverOptions &Opts, MemoKey &Key);

  /// True when a result for \p Group is cached: \p Out receives it, with
  /// NodeIds of \p Group. Otherwise \p Key receives the group's key for
  /// storeGroup().
  bool findGroup(const DependencyGraph &G, const std::vector<NodeId> &Group,
                 const SolverOptions &Opts, MemoKey &Key, GciResult &Out);
  void storeGroup(MemoKey Key, const std::vector<NodeId> &Group,
                  const GciResult &Result);

private:
  /// Group results with NodeIds rewritten to positions within the
  /// (topologically ordered) group, so a later check can splice them
  /// under its own node numbering.
  MemoTable<GciResult> Groups{/*NumStripes=*/1, /*MaxEntriesPerStripe=*/512};
};

/// An incremental solving session; see the file comment.
class SolverSession {
public:
  /// \p Opts fixes the solve configuration for the session's lifetime.
  explicit SolverSession(SolverOptions Opts = {});
  ~SolverSession();

  SolverSession(const SolverSession &) = delete;
  SolverSession &operator=(const SolverSession &) = delete;

  /// \name Constraint frames
  /// @{

  /// Opens an empty frame; subsequent addVariable/addConstraint calls land
  /// in it and the matching pop() rewinds them.
  void push();

  /// Opens a frame and parses \p DeltaText (ConstraintParser.h syntax)
  /// straight into the session, in the context of its variables and
  /// let-bindings; the cost is the delta's, not the session's. Parsing
  /// obeys the calling thread's ambient budget. On parse failure or a
  /// budget trip the session is unchanged (no frame is opened) and false
  /// is returned with \p Error / \p ErrorLine set (line 0 for a trip).
  bool push(const std::string &DeltaText, std::string *Error = nullptr,
            size_t *ErrorLine = nullptr);

  /// Parses and asserts \p Text in the *current* frame — no new frame is
  /// opened, so the assertions stick until the enclosing frame (if any)
  /// pops. Used for a session's base constraints. Same failure contract as
  /// push(text): on parse failure the session is unchanged.
  bool assertText(const std::string &Text, std::string *Error = nullptr,
                  size_t *ErrorLine = nullptr);

  /// Rewinds the top frame. False when no frame is open.
  bool pop();

  /// Open frames.
  size_t depth() const { return Frames.size(); }

  /// Declares a variable in the current frame (the session base when no
  /// frame is open).
  VarId addVariable(std::string Name);

  /// Asserts a constraint in the current frame.
  void addConstraint(std::vector<Term> Lhs, Nfa Rhs, std::string RhsName = "");
  /// @}

  /// The flattened instance (base plus every open frame).
  const Problem &problem() const { return Current; }

  const SolverOptions &options() const { return Opts; }

  /// Decides the current instance; see the file comment for the warm-
  /// restart behaviour and the cold-solve equivalence guarantee.
  SolveResult check(const SessionCheckOptions &CO = {});

  /// Reuse diagnostics of the most recent check().
  const SessionCheckInfo &lastCheckInfo() const { return Reuse.Info; }

  /// Drops every warm cache and the retained dependency graph; the next
  /// check() is cold. (Testing hook; an interrupted check drops only the
  /// retained graph, since the table holds completed results only.)
  void invalidate();

private:
  /// Parses \p Text into the session (push(text) / assertText()), opening
  /// a frame first when \p OpenFrame.
  bool apply(const std::string &Text, bool OpenFrame, std::string *Error,
             size_t *ErrorLine);

  /// A frame's watermark and the let-bindings declared within it (let
  /// names are never redefined, so erasing them restores the map).
  struct Frame {
    unsigned NumVars = 0;
    size_t NumConstraints = 0;
    std::vector<std::string> DeclaredLets;
  };

  SolverOptions Opts;
  Problem Current;
  std::map<std::string, Nfa> Lets;
  std::vector<Frame> Frames;

  /// The retained graph of the last completed check (nullopt after
  /// invalidate() or an interrupted check) and the number of leading
  /// constraints of Current unchanged since it was built.
  std::optional<DependencyGraph> Graph;
  size_t StablePrefix = 0;

  /// Content-keyed results of earlier checks; also holds lastCheckInfo().
  ReuseTable Reuse;
};

} // namespace dprle

#endif // DPRLE_SOLVER_SESSION_H
