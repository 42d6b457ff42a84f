//===- Solver.cpp - The RMA decision procedure ---------------------------------//

#include "solver/Solver.h"
#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "automata/OpStats.h"
#include "solver/Session.h"
#include "support/Debug.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <cassert>

using namespace dprle;

SolveResult Solver::solve(const Problem &P) const {
  return solveImpl(P, nullptr);
}

SolveResult Solver::solveFor(const Problem &P,
                             const std::vector<VarId> &Of) const {
  return solveImpl(P, &Of);
}

SolveResult Solver::solveImpl(const Problem &P,
                              const std::vector<VarId> *Of) const {
  DPRLE_TRACE_SPAN("solve");
  Timer Clock;
  uint64_t StatesBefore = OpStats::global().totalStatesVisited();

  DependencyGraph G = DependencyGraph::build(
      P, Opts.CanonicalizeConstants, Opts.Jobs > 1 ? Opts.Exec : nullptr);
  SolveResult Result = solvePipeline(P, G, Opts, Of, /*Reuse=*/nullptr);
  Result.Stats.SolveSeconds = Clock.seconds();
  Result.Stats.StatesVisited =
      OpStats::global().totalStatesVisited() - StatesBefore;
  return Result;
}

SolveResult dprle::solvePipeline(const Problem &P, const DependencyGraph &G,
                                 const SolverOptions &Opts,
                                 const std::vector<VarId> *Of,
                                 ReuseTable *Reuse) {
  // Which variables the client cares about (all by default).
  std::vector<bool> Queried(P.numVariables(), Of == nullptr);
  if (Of)
    for (VarId V : *Of)
      Queried[V] = true;

  SolveResult Result;
  Result.Stats.NumConstraints = P.constraints().size();
  Result.Stats.NumNodes = G.numNodes();

  auto Finish = [&](bool Satisfiable) {
    Result.Satisfiable = Satisfiable;
    return std::move(Result);
  };
  // Unwinds unsatisfied with the interrupt bit; the budget knows why.
  auto Unwind = [&] {
    Result.Interrupted = true;
    return Finish(false);
  };

  // --- Stage 2: reduce acyclic constraints (Figure 7 lines 3-8). ---------
  //
  // Constant-vs-constant subset edges are pure checks; variables outside
  // every CI-group resolve to the intersection of their constraining
  // constants. Only completed results reach the reuse table: a passed
  // inclusion under an untripped budget, a non-empty language.
  std::vector<Nfa> FreeLanguage(P.numVariables());
  std::vector<bool> IsFree(P.numVariables(), false);
  {
    DPRLE_TRACE_SPAN("reduce");
    for (const SubsetEdge &E : G.subsetEdges()) {
      if (ResourceGuard::exhausted())
        return Unwind();
      if (G.kind(E.To) != NodeKind::Constant)
        continue;
      const Nfa &Sub = G.constantLanguage(E.To);
      const Nfa &Super = G.constantLanguage(E.From);
      MemoKey Key;
      if (Reuse && Reuse->knownSubset(Sub, Super, Key))
        continue;
      if (!subsetOf(Sub, Super)) {
        // A truncated (interrupted) subset check proves nothing.
        if (ResourceGuard::exhausted())
          return Unwind();
        DPRLE_DEBUG_LOG("solver", Os << "constant inclusion " << G.name(E.To)
                                     << " <= " << G.name(E.From)
                                     << " is violated");
        return Finish(false);
      }
      if (Reuse)
        Reuse->SubsetOk.insert(std::move(Key), true);
    }

    for (VarId V = 0; V != P.numVariables(); ++V) {
      if (ResourceGuard::exhausted())
        return Unwind();
      NodeId N = G.nodeForVariable(V);
      if (G.inAnyConcat(N))
        continue;
      IsFree[V] = true;
      if (!Queried[V]) {
        // Partial solving: leave unqueried free variables at Sigma-star.
        FreeLanguage[V] = Nfa::sigmaStar();
        continue;
      }
      std::vector<NodeId> Constraining = G.subsetConstraintsOn(N);
      MemoKey Key;
      if (std::optional<Nfa> Hit =
              Reuse ? Reuse->findFreeVar(G, Constraining, Opts, Key)
                    : std::nullopt) {
        // The splice stands in for the same intersections.
        FreeLanguage[V] = std::move(*Hit);
        Result.Stats.SubsetIntersections += Constraining.size();
        continue;
      }
      Nfa M = Nfa::sigmaStar();
      for (NodeId C : Constraining) {
        M = intersect(M, G.constantLanguage(C)).trimmed();
        ++Result.Stats.SubsetIntersections;
      }
      if (Opts.MinimizeIntermediates)
        M = minimized(M);
      // A machine truncated by the budget can be spuriously empty; unwind
      // before the emptiness check turns that into a false "unsat".
      if (ResourceGuard::exhausted())
        return Unwind();
      if (isEmpty(M)) {
        // A maximal satisfying assignment would map V to the empty
        // language; following Figure 7 lines 20-23 that is a failure.
        DPRLE_DEBUG_LOG("solver", Os << "variable " << P.variableName(V)
                                     << " has empty language");
        return Finish(false);
      }
      if (Reuse) {
        // Identity first, as minimized() does: the filed copy, this
        // solve's answer and every later splice then share one handle,
        // so no check re-encodes the machine to key its render.
        M.identity();
        Reuse->FreeVars.insert(std::move(Key), M);
      }
      FreeLanguage[V] = std::move(M);
    }
  }

  // --- Stage 3: solve CI-groups (Figure 7 lines 9-15). -------------------
  //
  // Groups share no nodes, so the worklist is a running cross-product of
  // the per-group disjunctive solution sets, capped at MaxSolutions.
  std::vector<std::vector<NodeId>> Groups = G.ciGroups();
  Result.Stats.GciGroups = Groups.size();

  GciOptions GOpts;
  GOpts.MaxSolutions = Opts.MaxSolutions;
  GOpts.MinimizeIntermediates = Opts.MinimizeIntermediates;
  GOpts.DedupSolutions = Opts.DedupSolutions;
  GOpts.MaximizeSolutions = Opts.MaximizeSolutions;
  GOpts.Jobs = Opts.Jobs;
  GOpts.Exec = Opts.Exec;

  // The groups this solve actually runs (partial solving skips groups with
  // no queried variable), each either spliced from the reuse table or
  // still to solve.
  std::vector<const std::vector<NodeId> *> Selected;
  for (const std::vector<NodeId> &Group : Groups) {
    bool Relevant = !Of;
    for (NodeId N : Group)
      Relevant = Relevant ||
                 (G.kind(N) == NodeKind::Variable && Queried[G.variable(N)]);
    if (Relevant)
      Selected.push_back(&Group);
  }
  std::vector<GciResult> GroupResults(Selected.size());
  std::vector<MemoKey> Keys(Selected.size());
  std::vector<bool> Spliced(Selected.size(), false);
  std::vector<size_t> Missing;
  for (size_t I = 0; I != Selected.size(); ++I) {
    Spliced[I] = Reuse && Reuse->findGroup(G, *Selected[I], Opts, Keys[I],
                                           GroupResults[I]);
    if (!Spliced[I])
      Missing.push_back(I);
  }

  // With several jobs and several groups to solve, solve them concurrently
  // (they share no nodes) and merge their results below in group order —
  // the worklist then combines the same per-group solution sets in the
  // same order as a serial run, so the assignments are identical. The
  // serial path keeps its early exit on the first empty group.
  const bool ParallelGroups = Opts.Exec && Opts.Jobs > 1 && Missing.size() > 1;
  if (ParallelGroups)
    Opts.Exec->parallelFor(Missing.size(), [&](size_t I) {
      GroupResults[Missing[I]] =
          solveCiGroup(G, *Selected[Missing[I]], GOpts);
    });

  std::vector<std::map<NodeId, Nfa>> Partials = {{}};
  for (size_t GroupIdx = 0; GroupIdx != Selected.size(); ++GroupIdx) {
    if (ResourceGuard::exhausted())
      return Unwind();
    DPRLE_TRACE_SPAN("gci_group");
    const std::vector<NodeId> &Group = *Selected[GroupIdx];
    GciResult GR = Spliced[GroupIdx] || ParallelGroups
                       ? std::move(GroupResults[GroupIdx])
                       : solveCiGroup(G, Group, GOpts);
    if (GR.Interrupted)
      return Unwind();
    // A spliced result carries the counters of the solve it stands in
    // for, so per-solve stats agree between warm and cold runs.
    Result.Stats.ConcatsBuilt += GR.ConcatsBuilt;
    Result.Stats.SubsetIntersections += GR.SubsetIntersections;
    Result.Stats.CombinationsTried += GR.CombinationsTried;
    Result.Stats.CombinationsAccepted += GR.CombinationsAccepted;
    Result.Stats.CombinationsRejectedByVerification +=
        GR.CombinationsRejectedByVerification;
    // Unsatisfiable (empty) results are filed too: re-deciding a
    // known-empty group is as wasteful as re-deciding a solved one.
    if (Reuse && !Spliced[GroupIdx])
      Reuse->storeGroup(std::move(Keys[GroupIdx]), Group, GR);
    if (GR.Solutions.empty())
      return Finish(false);
    std::vector<std::map<NodeId, Nfa>> Next;
    for (const auto &Partial : Partials) {
      for (const auto &GroupSolution : GR.Solutions) {
        if (Next.size() >= Opts.MaxSolutions)
          break;
        ++Result.Stats.WorklistIterations;
        std::map<NodeId, Nfa> Merged = Partial;
        Merged.insert(GroupSolution.begin(), GroupSolution.end());
        Next.push_back(std::move(Merged));
      }
      if (Next.size() >= Opts.MaxSolutions)
        break;
    }
    Partials = std::move(Next);
  }

  // --- Stage 4: assemble assignments (Figure 7 lines 16-23). -------------
  if (ResourceGuard::exhausted())
    return Unwind();
  DPRLE_TRACE_SPAN("assemble");
  for (const auto &Partial : Partials) {
    std::vector<Nfa> Languages(P.numVariables());
    for (VarId V = 0; V != P.numVariables(); ++V) {
      if (IsFree[V]) {
        Languages[V] = FreeLanguage[V];
        continue;
      }
      auto It = Partial.find(G.nodeForVariable(V));
      if (It == Partial.end()) {
        // Partial solving: the variable's group was skipped.
        assert(Of && "group variable missing from group solution");
        Languages[V] = Nfa::sigmaStar();
        continue;
      }
      Languages[V] = It->second;
    }
    Result.Assignments.emplace_back(std::move(Languages));
  }
  return Finish(!Result.Assignments.empty());
}
