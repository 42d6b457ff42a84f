//===- DependencyGraph.cpp - Constraint dependency graphs ---------------------//

#include "solver/DependencyGraph.h"
#include "automata/NfaOps.h"
#include "support/Executor.h"
#include "support/Trace.h"
#include "support/UnionFind.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace dprle;

NodeId DependencyGraph::addNode(NodeKind Kind, std::string Name) {
  Kinds.push_back(Kind);
  Names.push_back(std::move(Name));
  Variables.push_back(0);
  Constants.emplace_back();
  return static_cast<NodeId>(Kinds.size() - 1);
}

DependencyGraph DependencyGraph::build(const Problem &P,
                                       bool CanonicalizeConstants,
                                       Executor *Exec) {
  return rebuild(P, CanonicalizeConstants, DependencyGraph(), 0, nullptr,
                 Exec);
}

DependencyGraph DependencyGraph::rebuild(const Problem &P,
                                         bool CanonicalizeConstants,
                                         DependencyGraph &&Old,
                                         size_t StablePrefix,
                                         uint64_t *ConstantsReused,
                                         Executor *Exec) {
  DPRLE_TRACE_SPAN("build_dependency_graph");
  DependencyGraph G;

  // node(vi): one vertex per unique variable (paper Figure 5 base case).
  G.VariableNodes.resize(P.numVariables());
  for (VarId V = 0; V != P.numVariables(); ++V) {
    NodeId N = G.addNode(NodeKind::Variable, P.variableName(V));
    G.Variables[N] = V;
    G.VariableNodes[V] = N;
  }

  // Incremental rebuild: for constraints inside the caller-certified
  // stable prefix, the j-th constant this loop creates is the same
  // language the j-th constant of Old's matching constraint span already
  // normalized — move that machine instead of re-normalizing. The node
  // ids, names, and edges are still produced by the exact same loop, so
  // the result is indistinguishable from a cold build().
  std::vector<NodeId> OldSpanConstants;
  size_t OldConstIdx = 0;

  unsigned TempCounter = 0;
  unsigned ConstCounter = 0;
  bool ReuseThisConstraint = false;
  // Constants still to normalize, in creation order: (node, language).
  std::vector<std::pair<NodeId, const Nfa *>> Pending;
  auto AddConstant = [&](const Nfa &Language, const std::string &Name) {
    std::string NodeName =
        Name.empty() ? "c" + std::to_string(ConstCounter) : Name;
    ++ConstCounter;
    NodeId N = G.addNode(NodeKind::Constant, NodeName);
    if (ReuseThisConstraint && OldConstIdx < OldSpanConstants.size()) {
      G.Constants[N] = std::move(Old.Constants[OldSpanConstants[OldConstIdx]]);
      ++OldConstIdx;
      if (ConstantsReused)
        ++*ConstantsReused;
      return N;
    }
    Pending.emplace_back(N, &Language);
    return N;
  };

  size_t CIdx = 0;
  for (const Constraint &C : P.constraints()) {
    assert(!C.Lhs.empty() && "constraint with empty left-hand side");
    NodeId SpanBegin = static_cast<NodeId>(G.numNodes());
    ReuseThisConstraint =
        CIdx < StablePrefix && CIdx < Old.ConstraintSpans.size();
    if (ReuseThisConstraint) {
      auto [First, Count] = Old.ConstraintSpans[CIdx];
      OldSpanConstants.clear();
      for (uint32_t I = 0; I != Count; ++I)
        if (Old.kind(First + I) == NodeKind::Constant)
          OldSpanConstants.push_back(First + I);
      OldConstIdx = 0;
    }
    // Fold the expression left-associatively, creating a fresh Temp per
    // binary concatenation (rule E -> E . E, "t is fresh").
    auto TermNode = [&](const Term &T) {
      if (T.isVariable())
        return G.nodeForVariable(T.Var);
      return AddConstant(T.Language, T.Name);
    };
    NodeId Expr = TermNode(C.Lhs.front());
    for (size_t I = 1; I != C.Lhs.size(); ++I) {
      NodeId RhsNode = TermNode(C.Lhs[I]);
      NodeId Target =
          G.addNode(NodeKind::Temp, "t" + std::to_string(TempCounter++));
      G.Concats.push_back({Expr, RhsNode, Target});
      Expr = Target;
    }
    // Top-level rule S -> E ⊆ C: one subset edge from the RHS constant.
    NodeId RhsConst = AddConstant(C.Rhs, C.RhsName);
    G.Subsets.push_back({RhsConst, Expr});
    G.ConstraintSpans.emplace_back(
        SpanBegin, static_cast<uint32_t>(G.numNodes() - SpanBegin));
    ++CIdx;
  }

  // Normalize the pending constants. Each one is independent of the
  // others and of the graph's shape, so with an executor they are
  // normalized concurrently; every machine is the one the serial loop
  // would produce. See the header comment on build() for the two modes.
  // Constants stay multi-accepting in both: funneling accepting states
  // through a fresh epsilon-final would introduce guess-the-end
  // nondeterminism that compounds under products (concat() normalizes its
  // left operand on demand when a single final state is required).
  // Intermediate (marker-carrying) machines are never minimized here —
  // that is the paper's suggested future optimization, measured by the E9
  // ablation benchmark.
  auto Normalize = [&](size_t I) {
    auto [N, Language] = Pending[I];
    G.Constants[N] = CanonicalizeConstants
                         ? minimized(*Language)
                         : Language->withoutEpsilonTransitions();
  };
  if (Exec && Pending.size() > 1)
    Exec->parallelFor(Pending.size(), Normalize);
  else
    for (size_t I = 0; I != Pending.size(); ++I)
      Normalize(I);
  return G;
}

std::vector<NodeId> DependencyGraph::subsetConstraintsOn(NodeId N) const {
  std::vector<NodeId> Out;
  for (const SubsetEdge &E : Subsets)
    if (E.To == N)
      Out.push_back(E.From);
  return Out;
}

const ConcatEdge *DependencyGraph::concatProducing(NodeId N) const {
  for (const ConcatEdge &E : Concats)
    if (E.Target == N)
      return &E;
  return nullptr;
}

std::vector<const ConcatEdge *>
DependencyGraph::concatsUsing(NodeId N) const {
  std::vector<const ConcatEdge *> Out;
  for (const ConcatEdge &E : Concats)
    if (E.Lhs == N || E.Rhs == N)
      Out.push_back(&E);
  return Out;
}

bool DependencyGraph::inAnyConcat(NodeId N) const {
  for (const ConcatEdge &E : Concats)
    if (E.Lhs == N || E.Rhs == N || E.Target == N)
      return true;
  return false;
}

std::vector<std::vector<NodeId>> DependencyGraph::ciGroups() const {
  // Connected components of the concat relation ("every node connected by a
  // .-edge to another node in the set", Section 3.4.3).
  UnionFind UF(numNodes());
  for (const ConcatEdge &E : Concats) {
    UF.merge(E.Lhs, E.Target);
    UF.merge(E.Rhs, E.Target);
  }
  std::map<size_t, std::vector<NodeId>> Components;
  for (NodeId N = 0; N != numNodes(); ++N)
    if (inAnyConcat(N))
      Components[UF.find(N)].push_back(N);

  // Topologically order each component: non-Temp nodes first, then each
  // Temp after both of its operands. The concat structure is a forest of
  // expression trees, so Kahn's algorithm over Temp targets suffices.
  std::vector<std::vector<NodeId>> Out;
  for (auto &[Root, Members] : Components) {
    (void)Root;
    std::vector<NodeId> Order;
    std::vector<bool> Placed(numNodes(), false);
    for (NodeId N : Members) {
      if (kind(N) == NodeKind::Temp)
        continue;
      Order.push_back(N);
      Placed[N] = true;
    }
    bool Progress = true;
    while (Progress) {
      Progress = false;
      for (NodeId N : Members) {
        if (Placed[N] || kind(N) != NodeKind::Temp)
          continue;
        const ConcatEdge *E = concatProducing(N);
        assert(E && "Temp node without a producing concat edge");
        if (!Placed[E->Lhs] || !Placed[E->Rhs])
          continue;
        Order.push_back(N);
        Placed[N] = true;
        Progress = true;
      }
    }
    assert(Order.size() == Members.size() &&
           "cyclic concat structure; expression temps must form a DAG");
    Out.push_back(std::move(Order));
  }
  return Out;
}

void DependencyGraph::printDot(std::ostream &Os) const {
  Os << "digraph dependencies {\n  rankdir=TB;\n";
  for (NodeId N = 0; N != numNodes(); ++N) {
    const char *Shape = "ellipse";
    if (kind(N) == NodeKind::Constant)
      Shape = "box";
    else if (kind(N) == NodeKind::Temp)
      Shape = "diamond";
    Os << "  n" << N << " [label=\"" << name(N) << "\", shape=" << Shape
       << "];\n";
  }
  for (const SubsetEdge &E : Subsets)
    Os << "  n" << E.From << " -> n" << E.To
       << " [label=\"subset\", style=dashed];\n";
  for (const ConcatEdge &E : Concats) {
    Os << "  n" << E.Lhs << " -> n" << E.Target << " [label=\"l\"];\n";
    Os << "  n" << E.Rhs << " -> n" << E.Target << " [label=\"r\"];\n";
  }
  Os << "}\n";
}
