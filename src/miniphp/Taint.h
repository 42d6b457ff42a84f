//===- Taint.h - Forward taint dataflow over mini-PHP CFGs ------*- C++ -*-==//
///
/// \file
/// A forward, flow-sensitive dataflow pass over a Cfg that computes, for
/// every variable at every program point, a taint fact in the lattice
///
///   Untainted  ⊑  Tainted  ⊑  Top
///
/// together with a regular over-approximation (an Nfa) of the strings the
/// variable can hold. Untrusted input reads ($_GET/$_POST) are the taint
/// sources; sanitizing branches — a taken `preg_match` edge or an
/// equality test against a literal — act as (partial) kills by refining
/// the over-approximation on the edge where the check is known to hold;
/// `query()`/`echo` calls matching the AttackSpec are the sinks.
///
/// The pass is the first analysis in the codebase that computes facts
/// about programs *without* running the solver: a sink whose value
/// over-approximation has an empty intersection with the attack language
/// is provably safe on every path, so symbolic execution (SymExec.h) can
/// skip it entirely instead of enumerating its exponentially many paths.
/// The pruning is sound relative to the baseline pipeline: every abstract
/// value is a superset of the strings any solver-feasible path can
/// produce, so a proven-safe sink can never be reported vulnerable by the
/// un-pruned analysis. See docs/TAINT.md for the lattice, the transfer
/// functions, and the soundness argument.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_MINIPHP_TAINT_H
#define DPRLE_MINIPHP_TAINT_H

#include "automata/Nfa.h"
#include "miniphp/Cfg.h"
#include "miniphp/SymExec.h"
#include "support/Stats.h"

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace dprle {
namespace miniphp {

/// The three-point taint lattice, ordered Untainted ⊑ Tainted ⊑ Top.
/// Untainted: no untrusted input flows into the value. Tainted: some
/// input may flow in (the sources are tracked). Top: the value is the
/// result of an unmodeled operation (opaque call) — nothing is known.
enum class TaintLevel : uint8_t { Untainted = 0, Tainted = 1, Top = 2 };

/// Lattice join (least upper bound): the maximum of the two levels.
inline TaintLevel joinTaint(TaintLevel A, TaintLevel B) {
  return A < B ? B : A;
}

/// Stable lowercase name for reports ("untainted" / "tainted" / "top").
const char *taintLevelName(TaintLevel L);

/// The abstract value of one variable (or of a sink expression).
struct TaintValue {
  TaintLevel Level = TaintLevel::Untainted;
  /// Over-approximation of the concrete strings the value can take on
  /// any path. Always a superset of the reachable values; widened to
  /// Sigma-star when it grows past 128 NFA states (Taint.cpp).
  /// Shared and immutable so per-edge environment copies and joins of
  /// unchanged variables are pointer operations, not machine copies —
  /// the dataflow pass would otherwise cost more than the solves it
  /// prunes. Never null once constructed through a factory.
  std::shared_ptr<const Nfa> Approx;
  /// Input keys ("source:key") that may flow into the value.
  std::set<std::string> Sources;
  /// Source lines of the statements defining the value (mirrors the
  /// SymExec slice lines for the same expression).
  std::set<unsigned> DefLines;

  /// The abstract value of an unassigned variable: PHP reads it as "".
  static TaintValue emptyString();
  /// The abstract value of an untrusted input read.
  static TaintValue untrustedInput(const std::string &Key);
  /// The no-information value (opaque call results).
  static TaintValue top();
};

/// The verdict for one sink statement.
struct SinkFact {
  const Stmt *Sink = nullptr;
  unsigned Line = 0;
  std::string Callee;
  /// Join of the taint levels of the atoms feeding the sink expression.
  TaintLevel Level = TaintLevel::Untainted;
  /// True when the over-approximated sink language has an empty
  /// intersection with the attack language: no path needs solving.
  bool ProvenSafe = false;
  /// False for sinks in CFG blocks with no path from the entry (dead
  /// code); such sinks are trivially ProvenSafe.
  bool Reachable = true;
  /// Input keys that may flow into the sink expression.
  std::set<std::string> Sources;
  /// Lines of the statements defining the sink value (plus the sink).
  std::set<unsigned> ValueLines;
};

/// The result of one taint pass.
struct TaintResult {
  /// False when the CFG could not be ordered (cyclic — cannot happen for
  /// Cfg::build output); consumers must then skip all pruning.
  bool Ok = false;
  /// One fact per sink matching the attack spec, in CFG (block, index)
  /// discovery order.
  std::vector<SinkFact> Sinks;

  const SinkFact *factFor(const Stmt *S) const;
  unsigned numProvenSafe() const;
};

/// Runs the forward taint pass over \p G (built from \p P) for the sinks
/// selected by \p Attack.
TaintResult analyzeTaint(const Program &P, const Cfg &G,
                         const AttackSpec &Attack);

/// Runs ONE forward sweep for every spec at once and returns per-spec
/// results (parallel to \p Specs). The abstract environments do not
/// depend on the attack spec — only the per-sink ProvenSafe verdict
/// does — so the fixpoint, the per-edge refinements, and the shared
/// value machines are computed once; each sink then checks its abstract
/// language against each auditing spec's attack language (sharing
/// DecisionCache entries when approximations repeat across sinks).
/// Result[i].Sinks is identical to analyzeTaint(P, G, Specs[i]).
std::vector<TaintResult> analyzeTaintAll(const Program &P, const Cfg &G,
                                         const std::vector<AttackSpec> &Specs);

/// Process-wide counters for the pass, published to the StatsRegistry
/// under "miniphp.taint.*" (see docs/OBSERVABILITY.md).
struct TaintStats {
  /// analyzeTaint() invocations.
  RelaxedCounter Runs;
  /// Sinks examined (matching the attack spec), across runs.
  RelaxedCounter SinksSeen;
  /// Sinks proven safe without solving.
  RelaxedCounter SinksProvenSafe;
  /// Sanitizer edges applied (preg_match / equality refinements).
  RelaxedCounter EdgesRefined;
  /// Sanitizer transformer models applied to calls ($x = addslashes(..)
  /// and friends; miniphp/Policy.h).
  RelaxedCounter SanitizersApplied;
  /// Values widened to Sigma-star at the state cap.
  RelaxedCounter ApproxWidened;
  /// Dataflow sweeps executed (1 per run on DAG CFGs).
  RelaxedCounter FixpointPasses;
  /// Path-exploration prunes performed by SymExec using taint facts:
  /// blocks never entered, assignments never evaluated, and sink-path
  /// emissions skipped.
  RelaxedCounter BlocksPruned;
  RelaxedCounter AssignsSkipped;
  RelaxedCounter SinkPathsPruned;

  void reset() { *this = TaintStats(); }

  static TaintStats &global();
};

} // namespace miniphp
} // namespace dprle

#endif // DPRLE_MINIPHP_TAINT_H
