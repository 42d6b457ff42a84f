//===- Session.cpp - Incremental solving sessions ------------------------------//

#include "solver/Session.h"

#include "automata/OpStats.h"
#include "solver/ConstraintParser.h"
#include "support/Budget.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <unordered_map>

using namespace dprle;

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

SessionStats &SessionStats::global() {
  static SessionStats Stats;
  return Stats;
}

namespace {

struct RegisterSessionStats {
  RegisterSessionStats() {
    StatsRegistry &R = StatsRegistry::global();
    SessionStats &S = SessionStats::global();
    R.registerCounter("session.opened", &S.Opened);
    R.registerCounter("session.closed", &S.Closed);
    R.registerCounter("session.evicted", &S.Evicted);
    R.registerCounter("session.lost", &S.Lost);
    R.registerCounter("session.pushes", &S.Pushes);
    R.registerCounter("session.pops", &S.Pops);
    R.registerCounter("session.checks", &S.Checks);
    R.registerCounter("session.groups_total", &S.GroupsTotal);
    R.registerCounter("session.groups_reused", &S.GroupsReused);
    R.registerCounter("session.constants_reused", &S.ConstantsReused);
    R.registerCounter("session.free_vars_reused", &S.FreeVarsReused);
  }
};
RegisterSessionStats RegisterSessionStatsInit;

/// NodeId -> position within \p Group.
std::unordered_map<NodeId, uint32_t>
positions(const std::vector<NodeId> &Group) {
  std::unordered_map<NodeId, uint32_t> PosOf;
  PosOf.reserve(Group.size());
  for (uint32_t I = 0; I != Group.size(); ++I)
    PosOf.emplace(Group[I], I);
  return PosOf;
}

} // namespace

//===----------------------------------------------------------------------===//
// Frames
//===----------------------------------------------------------------------===//

SolverSession::SolverSession(SolverOptions Opts) : Opts(Opts) {}

SolverSession::~SolverSession() = default;

void SolverSession::push() {
  Frames.push_back({Current.numVariables(), Current.constraints().size(), {}});
  ++SessionStats::global().Pushes;
}

bool SolverSession::push(const std::string &DeltaText, std::string *Error,
                         size_t *ErrorLine) {
  return apply(DeltaText, /*OpenFrame=*/true, Error, ErrorLine);
}

bool SolverSession::assertText(const std::string &Text, std::string *Error,
                               size_t *ErrorLine) {
  return apply(Text, /*OpenFrame=*/false, Error, ErrorLine);
}

bool SolverSession::apply(const std::string &Text, bool OpenFrame,
                          std::string *Error, size_t *ErrorLine) {
  // The watermark the text appends after: a frame opened below records
  // it, and a failed parse rewinds to it.
  const unsigned NumVars = Current.numVariables();
  const size_t NumConstraints = Current.constraints().size();
  ConstraintDeltaResult Parsed = parseConstraintDelta(Text, Current, Lets);
  // A parse the budget cut short may hold truncated machines (a `~` or
  // `&` determinizes); it is rolled back like a syntax error.
  bool Tripped = ResourceGuard::exhausted();
  if (!Parsed.Ok || Tripped) {
    Current.truncate(NumVars, NumConstraints);
    for (const std::string &Name : Parsed.DeclaredLets)
      Lets.erase(Name);
    if (Error)
      *Error = Tripped ? "resource budget exhausted while parsing"
                       : Parsed.Error;
    if (ErrorLine)
      *ErrorLine = Tripped ? 0 : Parsed.ErrorLine;
    return false;
  }
  if (OpenFrame) {
    Frames.push_back({NumVars, NumConstraints, {}});
    ++SessionStats::global().Pushes;
  }
  // The top frame's pop() erases the lets declared within it.
  if (!Frames.empty())
    Frames.back().DeclaredLets.insert(Frames.back().DeclaredLets.end(),
                                      Parsed.DeclaredLets.begin(),
                                      Parsed.DeclaredLets.end());
  // The text only appended, so the unchanged-prefix watermark stands.
  return true;
}

bool SolverSession::pop() {
  if (Frames.empty())
    return false;
  Frame F = std::move(Frames.back());
  Frames.pop_back();
  Current.truncate(F.NumVars, F.NumConstraints);
  for (const std::string &Name : F.DeclaredLets)
    Lets.erase(Name);
  // Constraints beyond the rewound watermark are gone; anything a future
  // push re-asserts there counts as changed.
  StablePrefix = std::min(StablePrefix, F.NumConstraints);
  ++SessionStats::global().Pops;
  return true;
}

VarId SolverSession::addVariable(std::string Name) {
  return Current.addVariable(std::move(Name));
}

void SolverSession::addConstraint(std::vector<Term> Lhs, Nfa Rhs,
                                  std::string RhsName) {
  Current.addConstraint(std::move(Lhs), std::move(Rhs), std::move(RhsName));
}

void SolverSession::invalidate() {
  Graph.reset();
  StablePrefix = 0;
  Reuse.clear();
}

//===----------------------------------------------------------------------===//
// ReuseTable
//===----------------------------------------------------------------------===//

void ReuseTable::clear() {
  Groups.clear();
  FreeVars.clear();
  SubsetOk.clear();
}

bool ReuseTable::knownSubset(const Nfa &Sub, const Nfa &Super, MemoKey &Key) {
  Key.addMachine(Sub);
  Key.addMachine(Super);
  if (!SubsetOk.find(Key))
    return false;
  ++Info.SubsetChecksReused;
  return true;
}

std::optional<Nfa>
ReuseTable::findFreeVar(const DependencyGraph &G,
                        const std::vector<NodeId> &Constraining,
                        const SolverOptions &Opts, MemoKey &Key) {
  ++Info.FreeVarsTotal;
  Key.Shape.push_back(Opts.MinimizeIntermediates ? 1 : 0);
  for (NodeId C : Constraining)
    Key.addMachine(G.constantLanguage(C));
  std::optional<Nfa> Hit = FreeVars.find(Key);
  if (Hit)
    ++Info.FreeVarsReused;
  return Hit;
}

/// The content key of one CI-group: node kinds and constant machines in
/// group (topological) order, concat/subset edge shape expressed in
/// group-relative positions, and the result-affecting options. Two groups
/// with equal keys present solveCiGroup with order-isomorphic inputs, and
/// the run's output depends only on that (markers are allocated
/// group-locally, and NodeIds only ever matter through their relative
/// order), so cached solutions remapped by position are bit-identical to a
/// re-solve.
bool ReuseTable::findGroup(const DependencyGraph &G,
                           const std::vector<NodeId> &Group,
                           const SolverOptions &Opts, MemoKey &Key,
                           GciResult &Out) {
  ++Info.GroupsTotal;
  if (std::any_of(Group.begin(), Group.end(),
                  [&](NodeId N) { return Dirty[N]; }))
    ++Info.DirtyGroups;

  Key.addNumber(Group.size());
  std::unordered_map<NodeId, uint32_t> PosOf = positions(Group);
  for (NodeId N : Group) {
    Key.Shape.push_back(static_cast<char>(G.kind(N)));
    if (G.kind(N) == NodeKind::Constant)
      Key.addMachine(G.constantLanguage(N));
  }
  // Concat edges internal to the group, in global edge order (the order
  // gci traverses them), as position triples.
  for (const ConcatEdge &E : G.concatEdges()) {
    auto It = PosOf.find(E.Target);
    if (It == PosOf.end())
      continue;
    Key.addNumber(PosOf.at(E.Lhs));
    Key.addNumber(PosOf.at(E.Rhs));
    Key.addNumber(It->second);
  }
  // Inbound subset constraints per node, in group order. The constraining
  // constants usually live *outside* the group (constraint RHS machines),
  // so their content — not their position — is the identity.
  for (NodeId N : Group) {
    std::vector<NodeId> Constraining = G.subsetConstraintsOn(N);
    Key.addNumber(Constraining.size());
    for (NodeId C : Constraining)
      Key.addMachine(G.constantLanguage(C));
  }
  Key.addNumber(Opts.MaxSolutions);
  Key.Shape.push_back(Opts.MinimizeIntermediates ? 1 : 0);
  Key.Shape.push_back(Opts.DedupSolutions ? 1 : 0);
  Key.Shape.push_back(Opts.MaximizeSolutions ? 1 : 0);
  Key.Shape.push_back(Opts.CanonicalizeConstants ? 1 : 0);

  std::optional<GciResult> Hit = Groups.find(Key);
  if (!Hit)
    return false;
  ++Info.GroupsReused;
  Out = std::move(*Hit);
  for (std::map<NodeId, Nfa> &Sol : Out.Solutions) {
    std::map<NodeId, Nfa> Remapped;
    for (auto &[Pos, Lang] : Sol)
      Remapped.emplace(Group[Pos], std::move(Lang));
    Sol = std::move(Remapped);
  }
  return true;
}

void ReuseTable::storeGroup(MemoKey Key, const std::vector<NodeId> &Group,
                            const GciResult &Result) {
  // Identities first, so the entry's copies share them with the solve's
  // answer and every later splice (see the free-variable filing).
  for (const std::map<NodeId, Nfa> &Sol : Result.Solutions)
    for (const auto &[N, Lang] : Sol)
      Lang.identity();
  std::unordered_map<NodeId, uint32_t> PosOf = positions(Group);
  GciResult Entry = Result;
  for (std::map<NodeId, Nfa> &Sol : Entry.Solutions) {
    std::map<NodeId, Nfa> Positional;
    for (auto &[N, Lang] : Sol)
      Positional.emplace(PosOf.at(N), std::move(Lang));
    Sol = std::move(Positional);
  }
  Groups.insert(std::move(Key), std::move(Entry));
}

//===----------------------------------------------------------------------===//
// check()
//===----------------------------------------------------------------------===//

SolveResult SolverSession::check(const SessionCheckOptions &CO) {
  DPRLE_TRACE_SPAN("session_check");
  ++SessionStats::global().Checks;
  SessionCheckInfo &Info = Reuse.Info;
  Info = SessionCheckInfo();

  // The effective options of this check: the session configuration plus
  // the per-check solution cap.
  SolverOptions EOpts = Opts;
  if (CO.MaxSolutions != 0)
    EOpts.MaxSolutions = CO.MaxSolutions;

  Timer Clock;
  uint64_t StatesBefore = OpStats::global().totalStatesVisited();

  // --- Stage 1: the dependency graph, rebuilt incrementally. -------------
  //
  // Constraints in [0, Prefix) are unchanged since the retained graph was
  // built; their normalized constant machines move over instead of being
  // re-minimized. The result is bit-identical to a cold build.
  size_t Prefix =
      Graph ? std::min(StablePrefix, Current.constraints().size()) : 0;
  Info.Incremental = Graph.has_value();
  Info.DirtyConstraints = Current.constraints().size() - Prefix;
  DependencyGraph G = DependencyGraph::rebuild(
      Current, Opts.CanonicalizeConstants,
      Graph ? std::move(*Graph) : DependencyGraph(), Prefix,
      &Info.ConstantsReused, Opts.Jobs > 1 ? Opts.Exec : nullptr);
  Graph.reset();
  SessionStats::global().ConstantsReused += Info.ConstantsReused;

  // --- Dirty region: forward reachability from the delta. ----------------
  //
  // Seeds are the nodes the changed constraints contributed plus the
  // variable nodes they reference; dirtiness then propagates forward over
  // concat edges (an operand's change reaches every machine built from
  // it). Reuse is decided by content, so this only feeds DirtyGroups.
  std::vector<bool> &Dirty = Reuse.Dirty;
  Dirty.assign(G.numNodes(), false);
  for (size_t CIdx = Prefix; CIdx < Current.constraints().size(); ++CIdx) {
    auto [First, Count] = G.constraintSpan(CIdx);
    for (uint32_t I = 0; I != Count; ++I)
      Dirty[First + I] = true;
    for (const Term &T : Current.constraints()[CIdx].Lhs)
      if (T.isVariable())
        Dirty[G.nodeForVariable(T.Var)] = true;
  }
  for (bool Progress = true; Progress;) {
    Progress = false;
    for (const ConcatEdge &E : G.concatEdges()) {
      if ((Dirty[E.Lhs] || Dirty[E.Rhs]) && !Dirty[E.Target]) {
        Dirty[E.Target] = true;
        Progress = true;
      }
    }
  }

  // --- Stages 2-4: the cold solver's pipeline, splicing from the table. --
  SolveResult Result = solvePipeline(Current, G, EOpts, nullptr, &Reuse);
  Result.Stats.SolveSeconds = Clock.seconds();
  Result.Stats.StatesVisited =
      OpStats::global().totalStatesVisited() - StatesBefore;

  // An interrupted check may have truncated machines in the graph it
  // built; retaining it would poison the next incremental rebuild. The
  // table only ever holds completed results, so it survives.
  if (Result.Interrupted) {
    StablePrefix = 0;
  } else {
    Graph = std::move(G);
    StablePrefix = Current.constraints().size();
  }
  SessionStats::global().GroupsTotal += Info.GroupsTotal;
  SessionStats::global().GroupsReused += Info.GroupsReused;
  SessionStats::global().FreeVarsReused += Info.FreeVarsReused;
  return Result;
}
