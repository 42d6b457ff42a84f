//===- DependencyGraph.h - Constraint dependency graphs ---------*- C++ -*-==//
///
/// \file
/// Dependency-graph generation following paper Figure 5. Each unique
/// variable and each constant is a vertex; every binary concatenation in a
/// constraint's left-hand side introduces a *fresh* temporary vertex `t`
/// plus a ConcatEdgePair (na -l-> t, nb -r-> t), and the top-level rule adds
/// a SubsetEdge from the right-hand-side constant onto the expression's
/// vertex. Multi-term expressions associate to the left: a.b.c becomes
/// (a.b).c with two temporaries.
///
/// CI-groups (paper Section 3.4.3) — connected components of vertices
/// linked by concat edges — are computed here and consumed by the gci
/// procedure.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_SOLVER_DEPENDENCYGRAPH_H
#define DPRLE_SOLVER_DEPENDENCYGRAPH_H

#include "automata/Nfa.h"
#include "solver/Problem.h"

#include <ostream>
#include <string>
#include <vector>

namespace dprle {

class Executor;

/// Dense vertex index within a DependencyGraph.
using NodeId = uint32_t;

/// Kind of dependency-graph vertex.
enum class NodeKind {
  Variable, ///< A language variable of the Problem.
  Constant, ///< A constant language (from a term or a constraint RHS).
  Temp      ///< A fresh vertex for an intermediate concatenation result.
};

/// `Target = Lhs . Rhs` — a ConcatEdgePair in the paper's terminology.
struct ConcatEdge {
  NodeId Lhs = 0;
  NodeId Rhs = 0;
  NodeId Target = 0;
};

/// `⟦To⟧ ⊆ ⟦From⟧` where From is always a constant vertex.
struct SubsetEdge {
  NodeId From = 0; ///< The constraining constant.
  NodeId To = 0;   ///< The constrained vertex.
};

/// The dependency graph of one RMA instance.
class DependencyGraph {
public:
  /// Builds the graph for \p P per the rules of paper Figure 5.
  ///
  /// \param CanonicalizeConstants when true (the default), constant
  /// machines are replaced by their minimal DFAs. This matches the
  /// upstream constraint generator the paper builds on (Wassermann & Su's
  /// string analysis hands over minimized automata) and prevents products
  /// of repeated or overlapping constraints from compounding
  /// nondeterministic state spaces. When false, constants keep their
  /// (epsilon-eliminated) Thompson structure — the paper-faithful
  /// prototype behaviour whose cost the Figure 12 benchmark reproduces,
  /// including the pathological `secure` row that the paper suggests
  /// minimization would repair.
  ///
  /// \param Exec when non-null, constants are normalized concurrently on
  /// it (a second pass after the graph's nodes and edges are laid out);
  /// the graph equals the serial build's, and the executor carries the
  /// calling thread's ambient budget into the bodies.
  static DependencyGraph build(const Problem &P,
                               bool CanonicalizeConstants = true,
                               Executor *Exec = nullptr);

  /// Incremental rebuild for the session API (Session.h): produces a graph
  /// *identical* to `build(P, CanonicalizeConstants)` — same node ids,
  /// names, edges, and constant machines — while reusing the
  /// already-normalized constant machines of \p Old for the first
  /// \p StablePrefix constraints instead of re-running minimization /
  /// epsilon elimination on them (the dominant cost of a build).
  ///
  /// Precondition: the first \p StablePrefix constraints of \p P are
  /// unchanged since \p Old was built (same terms, same constant
  /// machines, same VarIds), and \p Old was built with the same
  /// \p CanonicalizeConstants mode. The caller (SolverSession) tracks the
  /// stable prefix across push/pop deltas. \p Old is consumed.
  ///
  /// \param ConstantsReused if non-null, receives the number of constant
  /// machines moved over from \p Old.
  /// \param Exec normalizes the remaining constants concurrently, as in
  /// build().
  static DependencyGraph rebuild(const Problem &P, bool CanonicalizeConstants,
                                 DependencyGraph &&Old, size_t StablePrefix,
                                 uint64_t *ConstantsReused = nullptr,
                                 Executor *Exec = nullptr);

  unsigned numNodes() const { return Kinds.size(); }
  NodeKind kind(NodeId N) const { return Kinds[N]; }
  const std::string &name(NodeId N) const { return Names[N]; }

  /// The Problem variable a Variable vertex stands for.
  VarId variable(NodeId N) const { return Variables[N]; }
  /// The vertex for a Problem variable.
  NodeId nodeForVariable(VarId V) const { return VariableNodes[V]; }

  /// The language of a Constant vertex (normalized to a single accepting
  /// state).
  const Nfa &constantLanguage(NodeId N) const { return Constants[N]; }

  const std::vector<ConcatEdge> &concatEdges() const { return Concats; }
  const std::vector<SubsetEdge> &subsetEdges() const { return Subsets; }

  /// Constants constraining vertex \p N (the sources of its inbound
  /// subset edges).
  std::vector<NodeId> subsetConstraintsOn(NodeId N) const;

  /// The concat edge producing \p N, or nullptr when \p N is not a Temp.
  const ConcatEdge *concatProducing(NodeId N) const;

  /// Concat edges in which \p N participates as an operand.
  std::vector<const ConcatEdge *> concatsUsing(NodeId N) const;

  /// True when \p N touches at least one concat edge (operand or target).
  bool inAnyConcat(NodeId N) const;

  /// CI-groups: connected components of the concat-edge relation, each
  /// sorted in a topological order (operands before their Temp targets).
  std::vector<std::vector<NodeId>> ciGroups() const;

  /// The contiguous range of nodes constraint \p I contributed (its
  /// constants and temps, in creation order; variable nodes are created up
  /// front and shared). first = the first contributed NodeId, second = the
  /// count. The session layer seeds its dirty-region reachability from
  /// these spans.
  std::pair<NodeId, uint32_t> constraintSpan(size_t I) const {
    return ConstraintSpans[I];
  }

  /// Graphviz rendering in the style of paper Figures 6 and 9.
  void printDot(std::ostream &Os) const;

private:
  NodeId addNode(NodeKind Kind, std::string Name);

  std::vector<NodeKind> Kinds;
  std::vector<std::string> Names;
  std::vector<VarId> Variables;      // per node; valid for Variable nodes
  std::vector<Nfa> Constants;        // per node; valid for Constant nodes
  std::vector<NodeId> VariableNodes; // per VarId
  std::vector<ConcatEdge> Concats;
  std::vector<SubsetEdge> Subsets;
  /// Per constraint: the contiguous node range it contributed.
  std::vector<std::pair<NodeId, uint32_t>> ConstraintSpans;
};

} // namespace dprle

#endif // DPRLE_SOLVER_DEPENDENCYGRAPH_H
