//===- SymExec.h - Path-sensitive symbolic execution ------------*- C++ -*-==//
///
/// \file
/// The constraint generator of the paper's evaluation (Section 4): "a
/// simple prototype program analysis that uses symbolic execution to set
/// up a system of string variable constraints based on paths that lead to
/// the defect". Each acyclic CFG path ending at a query() sink yields one
/// RMA Problem:
///
///  * every distinct untrusted input key becomes an RMA variable;
///  * a taken preg_match branch contributes `expr ⊆ search(pattern)`, a
///    not-taken branch contributes `expr ⊆ ¬search(pattern)` (likewise for
///    string equality against literals);
///  * the sink contributes `queryExpr ⊆ attackLanguage`.
///
/// Solving the system either produces concrete exploit inputs (witness
/// strings) or proves the path cannot reach the sink with an attack
/// string.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_MINIPHP_SYMEXEC_H
#define DPRLE_MINIPHP_SYMEXEC_H

#include "miniphp/Ast.h"
#include "miniphp/Cfg.h"
#include "miniphp/Policy.h"
#include "solver/Problem.h"
#include "support/Stats.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace dprle {
namespace miniphp {

/// One path to a sink, already translated to an RMA instance.
struct PathCondition {
  /// The constraint system for this path (inputs are RMA variables).
  Problem Instance;
  /// Input key ("source:key") -> RMA variable.
  std::map<std::string, VarId> InputVariables;
  /// |C|: constraints generated along this path, including the sink
  /// constraint (the paper's Figure 12 statistic).
  unsigned NumConstraints = 0;
  /// Source line of the sink this path reaches.
  unsigned SinkLine = 0;
  /// Path slice (paper Section 2): lines of the statements that define
  /// the sink value plus the checks constraining inputs flowing into it.
  std::set<unsigned> SliceLines;
};

/// Exploration limits.
struct SymExecOptions {
  /// Stop after this many sink-reaching paths.
  size_t MaxPaths = 4096;
  /// Stop exploring a path at its first sink (statements after the first
  /// vulnerable query do not affect that query's inputs).
  bool StopAtFirstSink = true;
  /// Run the taint dataflow pre-pass (miniphp/Taint.h) and backward
  /// slices (miniphp/Slice.h) before exploring, and use the facts to
  /// prune: proven-safe sinks emit no path, exploration stops at blocks
  /// that cannot reach a live sink, and assignments to variables outside
  /// the live slices are skipped. Never changes which paths are
  /// *vulnerable* (see docs/TAINT.md). Off here so raw enumeration keeps
  /// its exact baseline path counts; AnalysisOptions turns it on.
  bool TaintPrune = false;
  /// When a branch condition's operand is a pure constant (no input
  /// variable flows in), decide its feasibility immediately with the
  /// decision kernel (subsetOf) and skip exploring the infeasible edge.
  /// Off by default: pruning removes constantly-dead suffix paths and so
  /// changes the raw sink-path counts that the Figure 11/12 baselines
  /// pin (docs/PERFORMANCE.md).
  bool ConstantFeasibilityPrune = false;
};

/// The outcome of one symbolic-execution run.
struct SymExecResult {
  /// One RMA instance per explored sink-reaching path.
  std::vector<PathCondition> Paths;
  /// Sinks matching the attack spec in the CFG (0 = nothing to audit).
  unsigned SinksFound = 0;
  /// Sinks the taint pre-pass proved safe without solving (0 when
  /// TaintPrune is off or the pre-pass could not run).
  unsigned SinksProvenSafe = 0;
  /// True when the taint pre-pass ran and its facts were used.
  bool TaintUsed = false;
  /// True when the calling thread's ambient budget (support/Budget.h)
  /// tripped mid-run: Paths is then a truncated enumeration, not the full
  /// path set. The NFA constraint machines the explorer builds are charged
  /// to that budget, and exploration polls it at every block.
  bool Interrupted = false;
};

/// Process-wide counters for the explorer, published to the StatsRegistry
/// under "miniphp.symexec.*" (see docs/OBSERVABILITY.md).
struct SymExecStats {
  /// Branch edges never explored because their constant-only condition
  /// was decided infeasible by the decision kernel
  /// (SymExecOptions::ConstantFeasibilityPrune).
  RelaxedCounter InfeasibleEdgesPruned;

  void reset() { *this = SymExecStats(); }

  static SymExecStats &global();
};

/// Explores the acyclic paths of \p G (over \p P) that reach a sink and
/// translates each into an RMA instance, optionally pruning with taint
/// facts (SymExecOptions::TaintPrune): runSymExecAll with one spec.
SymExecResult runSymExec(const Program &P, const Cfg &G,
                         const AttackSpec &Attack,
                         const SymExecOptions &Opts = {});

/// Enumerates the acyclic paths of \p G (over \p P) that reach a sink and
/// translates each into an RMA instance (the Paths of runSymExec).
std::vector<PathCondition> enumerateSinkPaths(const Program &P,
                                              const Cfg &G,
                                              const AttackSpec &Attack,
                                              const SymExecOptions &Opts = {});

/// Audits every spec in \p Specs over ONE shared walk of \p G's acyclic
/// paths: the CFG is traversed once, condition constraints are built once
/// per path prefix, and each sink statement fans out into one
/// PathCondition per spec that audits its callee. With Opts.TaintPrune the
/// shared pre-pass (analyzeTaintAll + computeAuditSlices) also runs once.
///
/// runSymExec is this walk with one spec, so Result[i] is bit-identical in
/// verdict to `runSymExec(P, G, Specs[i], Opts)`: per-spec paths are
/// emitted in the same order with the same constraint systems. (The one
/// non-verdict caveat: under TaintPrune the shared walk keeps assignments
/// relevant to *any* spec, so a path's InputVariables may name extra —
/// unconstrained — inputs that a one-spec run would have skipped; see
/// docs/TAINT.md.) At most 64 specs: the per-path spec mask is 64 bits.
std::vector<SymExecResult> runSymExecAll(const Program &P, const Cfg &G,
                                         const std::vector<AttackSpec> &Specs,
                                         const SymExecOptions &Opts = {});

} // namespace miniphp
} // namespace dprle

#endif // DPRLE_MINIPHP_SYMEXEC_H
