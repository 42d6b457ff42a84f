//===- Gci.cpp - Generalized concat-intersect ----------------------------------//

#include "solver/Gci.h"
#include "automata/Decide.h"
#include "automata/MemoTable.h"
#include "automata/NfaOps.h"
#include "support/Debug.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace dprle;

namespace {

/// Per-run state of the gci procedure.
class GciRun {
public:
  GciRun(const DependencyGraph &G, const std::vector<NodeId> &Group,
         const GciOptions &Opts, const std::map<NodeId, Nfa> *BaseLanguage)
      : G(G), Group(Group), Opts(Opts), BaseLanguage(BaseLanguage) {}

  GciResult run();

private:
  void processNode(NodeId N);
  void updateTracking(NodeId Operand, bool IsLeft, NodeId NewRoot,
                      EpsilonMarker Marker);
  void enumerateSolutions();
  Nfa induceSegment(const Segment &S,
                    const std::map<std::pair<NodeId, EpsilonMarker>,
                                   EpsilonInstance> &Choice) const;

  /// One surviving marker (Root, Marker) and the instances to choose from.
  struct ChoicePoint {
    NodeId Root;
    EpsilonMarker Marker;
    std::vector<EpsilonInstance> Instances;
  };

  /// What evaluating one marker combination produced. Candidate is only
  /// meaningful when Valid; Rejected distinguishes "failed semantic
  /// verification" from "induced an empty language" for the stats.
  struct ComboOutcome {
    bool Valid = false;
    bool Rejected = false;
    std::map<NodeId, Nfa> Candidate;
  };

  /// The per-combination work: build the candidate from the chosen marker
  /// instances, verify it, maximize it. Pure function of (this, Digits) —
  /// reads Machine/Solution/FlatConstraints only — so combinations can be
  /// evaluated on pool workers concurrently.
  ComboOutcome evaluateCombination(const std::vector<ChoicePoint> &Choices,
                                   const std::vector<size_t> &Digits,
                                   const std::vector<NodeId> &Vars) const;

  /// Counts \p O and, when it is valid, dedups its candidate against the
  /// accepted solutions and appends it. Returns true when MaxSolutions has
  /// been reached (stop enumerating). Serial-only: called on the
  /// enumerating thread, in combination order.
  bool acceptOutcome(ComboOutcome &&O, const std::vector<NodeId> &Vars);

  void enumerateSerial(const std::vector<ChoicePoint> &Choices,
                       const std::vector<NodeId> &Vars);
  void enumerateParallel(const std::vector<ChoicePoint> &Choices,
                         const std::vector<NodeId> &Vars, size_t Total);

  /// Loop-header poll: records the interrupt in Result and returns true
  /// when the run must stop.
  bool interrupted() {
    Result.Interrupted = Result.Interrupted || ResourceGuard::exhausted();
    return Result.Interrupted;
  }

  /// One flattened constraint of the group: the term sequence of a root's
  /// expression tree plus the conjunction of the root's RHS constants.
  struct FlatConstraint {
    std::vector<NodeId> Terms;
    Nfa Constraint;
    Nfa NotConstraint; ///< Complement, precomputed for quotient widening.
  };

  /// The current language of a term under \p Candidate.
  const Nfa &termLanguage(NodeId Term,
                          const std::map<NodeId, Nfa> &Candidate) const {
    if (G.kind(Term) == NodeKind::Constant)
      return G.constantLanguage(Term);
    return Candidate.at(Term);
  }

  void buildFlatConstraints(const std::vector<NodeId> &Roots);
  void maximizeCandidate(std::map<NodeId, Nfa> &Candidate,
                         const std::vector<NodeId> &Vars) const;

  const DependencyGraph &G;
  const std::vector<NodeId> &Group;
  const GciOptions &Opts;
  const std::map<NodeId, Nfa> *BaseLanguage;

  std::map<NodeId, Nfa> Machine;
  std::map<NodeId, std::vector<Segment>> Solution;
  std::vector<FlatConstraint> FlatConstraints;
  EpsilonMarker NextMarker = 1;
  GciResult Result;
};

void GciRun::buildFlatConstraints(const std::vector<NodeId> &Roots) {
  for (NodeId R : Roots) {
    std::vector<NodeId> Constants = G.subsetConstraintsOn(R);
    if (Constants.empty())
      continue; // Unconstrained concatenation restricts nothing.
    FlatConstraint FC;
    // Flatten the expression tree into its leaf sequence.
    std::function<void(NodeId)> Flatten = [&](NodeId N) {
      if (G.kind(N) == NodeKind::Temp) {
        const ConcatEdge *E = G.concatProducing(N);
        assert(E && "Temp without producing concat");
        Flatten(E->Lhs);
        Flatten(E->Rhs);
        return;
      }
      FC.Terms.push_back(N);
    };
    Flatten(R);
    FC.Constraint = G.constantLanguage(Constants.front());
    for (size_t I = 1; I != Constants.size(); ++I)
      FC.Constraint =
          intersect(FC.Constraint, G.constantLanguage(Constants[I]))
              .trimmed();
    FC.NotConstraint = complement(FC.Constraint);
    FlatConstraints.push_back(std::move(FC));
  }
}

void GciRun::maximizeCandidate(std::map<NodeId, Nfa> &Candidate,
                               const std::vector<NodeId> &Vars) const {
  DPRLE_TRACE_SPAN("maximize_candidate");
  // One left-to-right pass reaches a fixpoint: a variable maximized at
  // step i stays maximal when later variables grow, because growing the
  // context only shrinks the allowed set — so anything addable at the end
  // was already addable (and added) at step i.
  for (NodeId V : Vars) {
    // Start from the variable's leaf machine (Sigma-star intersected with
    // its direct subset constraints).
    Nfa Allowed = Machine.at(V);
    bool OccursTwiceSomewhere = false;
    for (const FlatConstraint &FC : FlatConstraints) {
      unsigned Occurrences = 0;
      for (size_t K = 0; K != FC.Terms.size(); ++K) {
        if (FC.Terms[K] != V)
          continue;
        ++Occurrences;
        Nfa Prefix = Nfa::epsilonLanguage();
        for (size_t I = 0; I != K; ++I)
          Prefix = concat(Prefix, termLanguage(FC.Terms[I], Candidate));
        Nfa Suffix = Nfa::epsilonLanguage();
        for (size_t I = K + 1; I != FC.Terms.size(); ++I)
          Suffix = concat(Suffix, termLanguage(FC.Terms[I], Candidate));
        // {w : Prefix.w.Suffix ⊆ C} = ¬ lq(Prefix, rq(¬C, Suffix)).
        Nfa Bad =
            leftQuotient(Prefix, rightQuotient(FC.NotConstraint, Suffix));
        Allowed = intersect(Allowed, complement(Bad)).trimmed();
      }
      OccursTwiceSomewhere = OccursTwiceSomewhere || Occurrences > 1;
    }
    Nfa Old = std::move(Candidate.at(V));
    Candidate.at(V) = Allowed.withoutMarkers();
    if (!OccursTwiceSomewhere)
      continue;
    // With several occurrences in one constraint, per-occurrence widening
    // ignores cross terms (w1.w2 for two *new* strings); verify and fall
    // back to the unwidened language if the joint extension overshoots.
    for (const FlatConstraint &FC : FlatConstraints) {
      Nfa Whole = Nfa::epsilonLanguage();
      for (NodeId T : FC.Terms)
        Whole = concat(Whole, termLanguage(T, Candidate));
      if (!subsetOf(Whole, FC.Constraint)) {
        Candidate.at(V) = std::move(Old);
        break;
      }
    }
  }
}

void GciRun::updateTracking(NodeId Operand, bool IsLeft, NodeId NewRoot,
                            EpsilonMarker Marker) {
  // Paper Figure 8, lines 8-11: nodes previously influenced by Operand (a
  // Temp that was a root until now) become influenced by NewRoot. A
  // boundary that used to mean "the machine's own start/accepting" now
  // means "the fresh concatenation marker".
  for (auto &[Node, Segments] : Solution) {
    (void)Node;
    for (Segment &S : Segments) {
      if (S.Root != Operand)
        continue;
      S.Root = NewRoot;
      if (IsLeft) {
        if (S.RightMarker == NoMarker)
          S.RightMarker = Marker;
      } else {
        if (S.LeftMarker == NoMarker)
          S.LeftMarker = Marker;
      }
    }
  }
  // The operand itself is now influenced by NewRoot (constants excepted:
  // no solution is reported for them).
  if (G.kind(Operand) == NodeKind::Constant)
    return;
  Segment S;
  S.Root = NewRoot;
  if (IsLeft)
    S.RightMarker = Marker;
  else
    S.LeftMarker = Marker;
  Solution[Operand].push_back(S);
}

void GciRun::processNode(NodeId N) {
  Nfa M;
  switch (G.kind(N)) {
  case NodeKind::Constant:
    M = G.constantLanguage(N);
    break;
  case NodeKind::Variable: {
    // Unconstrained variables start at Sigma-star (paper Section 3.4.2:
    // "the initial node-to-NFA mapping returns Sigma-star for vertices
    // that represent a variable").
    M = Nfa::sigmaStar();
    if (BaseLanguage) {
      auto It = BaseLanguage->find(N);
      if (It != BaseLanguage->end())
        M = It->second.withSingleAccepting();
    }
    break;
  }
  case NodeKind::Temp: {
    const ConcatEdge *E = G.concatProducing(N);
    assert(E && "Temp node without producing concat");
    EpsilonMarker Marker = NextMarker++;
    // Both operands were processed earlier (topological order), so their
    // inbound subset constraints are already folded in: invariant 1.
    M = concat(Machine.at(E->Lhs), Machine.at(E->Rhs), Marker);
    ++Result.ConcatsBuilt;
    updateTracking(E->Lhs, /*IsLeft=*/true, N, Marker);
    updateTracking(E->Rhs, /*IsLeft=*/false, N, Marker);
    break;
  }
  }

  // handle_inbound_subset_constraints (Figure 8 line 5): intersect with
  // every constraining constant before this node is concatenated anywhere.
  for (NodeId C : G.subsetConstraintsOn(N)) {
    M = intersect(M, G.constantLanguage(C)).trimmed();
    ++Result.SubsetIntersections;
  }

  // Optional minimization of marker-free machines (ablation E9). Machines
  // carrying markers cannot be DFA-minimized without losing the marker
  // structure, so only leaves benefit — which is where the paper's
  // "secure" pathology (huge tracked string constants) lives.
  if (Opts.MinimizeIntermediates && M.markersUsed().empty())
    M = minimized(M).withSingleAccepting();

  Machine[N] = M.trimmed();
  DPRLE_DEBUG_LOG("gci", Os << "node " << G.name(N) << " machine has "
                            << Machine[N].numStates() << " states");
}

Nfa GciRun::induceSegment(
    const Segment &S, const std::map<std::pair<NodeId, EpsilonMarker>,
                                     EpsilonInstance> &Choice) const {
  const Nfa &Root = Machine.at(S.Root);
  Nfa Out = Root;
  if (S.LeftMarker != NoMarker) {
    const EpsilonInstance &Inst = Choice.at({S.Root, S.LeftMarker});
    Out.setStart(Inst.To);
  }
  if (S.RightMarker != NoMarker) {
    const EpsilonInstance &Inst = Choice.at({S.Root, S.RightMarker});
    Out = Out.inducedFromFinal(Inst.From);
  }
  return Out.trimmed();
}

void GciRun::enumerateSolutions() {
  DPRLE_TRACE_SPAN("enumerate_solutions");
  // Roots: Temps that are not operands of any further concatenation; their
  // machines host every influenced node's solution ("there is always one
  // non-influenced node", Figure 8 step 7 — one per expression tree).
  std::vector<NodeId> Roots;
  for (NodeId N : Group)
    if (G.kind(N) == NodeKind::Temp && G.concatsUsing(N).empty())
      Roots.push_back(N);

  // Every accepting path of a root machine crosses each of its markers, so
  // an empty instance list implies an empty root language: the group has
  // no non-empty solutions at all.
  std::vector<ChoicePoint> Choices;
  for (NodeId R : Roots) {
    if (isEmpty(Machine.at(R))) {
      DPRLE_DEBUG_LOG("gci", Os << "root " << G.name(R)
                                << " is empty; group unsatisfiable");
      return;
    }
    for (EpsilonMarker M : Machine.at(R).markersUsed())
      Choices.push_back({R, M, Machine.at(R).markerInstances(M)});
  }
  DPRLE_DEBUG_LOG("gci", {
    size_t Combos = 1;
    for (const ChoicePoint &CP : Choices)
      Combos = Combos * CP.Instances.size();
    Os << "enumerating " << Choices.size() << " choice points, "
       << Combos << " combinations";
  });

  // Flattened constraints serve two purposes: post-hoc verification of
  // every candidate (always) and quotient-based maximization (optional).
  buildFlatConstraints(Roots);

  // Variables needing an output language.
  std::vector<NodeId> Vars;
  for (NodeId N : Group)
    if (G.kind(N) == NodeKind::Variable)
      Vars.push_back(N);

  // The combination space is the cross product of the choice points.
  // Combination index -> odometer digits with digit 0 least significant,
  // matching the serial odometer's advancement order, so the parallel path
  // enumerates (and merges) in exactly the serial order.
  size_t Total = 1;
  bool Overflow = false;
  for (const ChoicePoint &CP : Choices) {
    if (CP.Instances.empty()) {
      Total = 0;
      break;
    }
    if (Total > SIZE_MAX / CP.Instances.size()) {
      Overflow = true;
      break;
    }
    Total *= CP.Instances.size();
  }
  if (Total == 0)
    return; // A marker with no surviving instances: no solutions.

  if (!Overflow && Opts.Exec && Opts.Jobs > 1 && Total > 1)
    enumerateParallel(Choices, Vars, Total);
  else
    enumerateSerial(Choices, Vars);
}

GciRun::ComboOutcome
GciRun::evaluateCombination(const std::vector<ChoicePoint> &Choices,
                            const std::vector<size_t> &Digits,
                            const std::vector<NodeId> &Vars) const {
  ComboOutcome Out;
  std::map<std::pair<NodeId, EpsilonMarker>, EpsilonInstance> Choice;
  for (size_t I = 0; I != Choices.size(); ++I)
    Choice[{Choices[I].Root, Choices[I].Marker}] =
        Choices[I].Instances[Digits[I]];

  // Build the candidate assignment; a variable influenced by several
  // concatenations must satisfy all of them simultaneously, hence the
  // intersection (paper: "ensure that [vb] satisfies both constraints").
  std::map<NodeId, Nfa> Candidate;
  for (NodeId V : Vars) {
    const std::vector<Segment> &Segments = Solution.at(V);
    assert(!Segments.empty() && "group variable with no tracking entry");
    Nfa Lang = induceSegment(Segments.front(), Choice);
    if (Segments.size() > 1) {
      // A variable used in several concatenations takes the
      // intersection of its induced sub-NFAs. Slices inherit
      // guess-the-end nondeterminism from the concat construction, so
      // intersecting many near-identical slices doubles the state
      // space per step unless each factor is canonicalized first.
      // Variable slices carry no markers (markers live on concat
      // boundaries, outside the slice), so minimization is safe here.
      Lang = minimized(Lang.withoutMarkers());
      for (size_t I = 1; I != Segments.size() && !isEmpty(Lang); ++I) {
        DPRLE_DEBUG_LOG("gci-combo", Os << G.name(V) << " entry " << I
                                        << " lang states "
                                        << Lang.numStates());
        Nfa Slice = minimized(
            induceSegment(Segments[I], Choice).withoutMarkers());
        Lang = minimized(intersect(Lang, Slice));
      }
    }
    if (isEmpty(Lang))
      return Out;
    Candidate[V] = Lang.withoutMarkers();
  }

  // Certify the candidate: every constraint must hold semantically with
  // constants at their full languages. See GciResult's documentation of
  // CombinationsRejectedByVerification for why this can fail.
  for (const FlatConstraint &FC : FlatConstraints) {
    Nfa Whole = Nfa::epsilonLanguage();
    for (NodeId T : FC.Terms)
      Whole = concat(Whole, termLanguage(T, Candidate));
    // Whole ∩ ¬C = ∅  ⟺  Whole ⊆ C; the kernel's antichain subset
    // check avoids materializing the product against the complement.
    if (!subsetOf(Whole, FC.Constraint)) {
      Out.Rejected = true;
      return Out;
    }
  }

  if (Opts.MaximizeSolutions)
    maximizeCandidate(Candidate, Vars);

  Out.Valid = true;
  Out.Candidate = std::move(Candidate);
  return Out;
}

bool GciRun::acceptOutcome(ComboOutcome &&O,
                           const std::vector<NodeId> &Vars) {
  ++Result.CombinationsTried;
  if (O.Rejected)
    ++Result.CombinationsRejectedByVerification;
  if (!O.Valid)
    return false;
  std::map<NodeId, Nfa> &Candidate = O.Candidate;
  if (Opts.DedupSolutions) {
    for (const auto &Existing : Result.Solutions) {
      bool Same = true;
      for (NodeId V : Vars)
        if (!equivalentTo(Existing.at(V), Candidate.at(V))) {
          Same = false;
          break;
        }
      if (Same)
        return false;
    }
  }
  ++Result.CombinationsAccepted;
  Result.Solutions.push_back(std::move(Candidate));
  return Result.Solutions.size() >= Opts.MaxSolutions;
}

void GciRun::enumerateSerial(const std::vector<ChoicePoint> &Choices,
                             const std::vector<NodeId> &Vars) {
  // Odometer over all_combinations (Figure 8 line 15).
  std::vector<size_t> Odometer(Choices.size(), 0);
  while (true) {
    if (interrupted() ||
        acceptOutcome(evaluateCombination(Choices, Odometer, Vars), Vars))
      return;

    // Advance the odometer.
    size_t I = 0;
    for (; I != Odometer.size(); ++I) {
      if (++Odometer[I] < Choices[I].Instances.size())
        break;
      Odometer[I] = 0;
    }
    if (I == Odometer.size())
      break;
  }
}

void GciRun::enumerateParallel(const std::vector<ChoicePoint> &Choices,
                               const std::vector<NodeId> &Vars,
                               size_t Total) {
  // Waves of combinations are evaluated concurrently and merged in
  // combination order, so dedup and the MaxSolutions cap see candidates in
  // exactly the serial sequence — Solutions is bit-identical to a serial
  // run. The wave size trades a little over-evaluation near MaxSolutions
  // for keeping every worker busy.
  const size_t Wave = size_t(Opts.Jobs) * 4;
  std::vector<ComboOutcome> Outcomes;
  for (size_t Base = 0; Base < Total; Base += Wave) {
    if (interrupted())
      return;
    size_t Count = std::min(Wave, Total - Base);
    Outcomes.assign(Count, ComboOutcome());
    Opts.Exec->parallelFor(Count, [&](size_t I) {
      if (ResourceGuard::exhausted())
        return; // Skipped outcomes read as invalid; the run is unwinding.
      std::vector<size_t> Digits(Choices.size());
      size_t Rem = Base + I;
      for (size_t D = 0; D != Choices.size(); ++D) {
        Digits[D] = Rem % Choices[D].Instances.size();
        Rem /= Choices[D].Instances.size();
      }
      Outcomes[I] = evaluateCombination(Choices, Digits, Vars);
    });
    if (interrupted())
      return;
    for (ComboOutcome &O : Outcomes)
      if (acceptOutcome(std::move(O), Vars))
        return;
  }
}

GciResult GciRun::run() {
  DPRLE_TRACE_SPAN("gci");
  {
    DPRLE_TRACE_SPAN("process_nodes");
    for (NodeId N : Group) {
      if (interrupted())
        return Result;
      processNode(N);
    }
  }
  enumerateSolutions();
  // A trip on the very last operation (after the final loop-header poll)
  // must still surface in the result.
  interrupted();
  return Result;
}

} // namespace

GciResult dprle::solveCiGroup(const DependencyGraph &G,
                              const std::vector<NodeId> &Group,
                              const GciOptions &Opts,
                              const std::map<NodeId, Nfa> *BaseLanguage) {
  return GciRun(G, Group, Opts, BaseLanguage).run();
}

size_t dprle::memoValueBytes(const GciResult &R) {
  // A map node holds the pair plus about four words of tree links.
  constexpr size_t NodeBytes =
      sizeof(std::pair<const NodeId, Nfa>) + 4 * sizeof(void *);
  size_t Bytes = R.Solutions.size() * sizeof(std::map<NodeId, Nfa>);
  for (const std::map<NodeId, Nfa> &Sol : R.Solutions)
    for (const auto &[N, Lang] : Sol)
      Bytes += NodeBytes + memoValueBytes(Lang);
  return Bytes;
}
