//===- SymExec.cpp - Path-sensitive symbolic execution --------------------===//

#include "miniphp/SymExec.h"
#include "automata/Decide.h"
#include "automata/MemoTable.h"
#include "automata/NfaOps.h"
#include "miniphp/Slice.h"
#include "miniphp/Taint.h"
#include "regex/RegexCompiler.h"
#include "regex/RegexParser.h"
#include "solver/Extensions.h"
#include "support/Budget.h"
#include "support/Stats.h"

#include <cassert>
#include <set>
#include <string>

using namespace dprle;
using namespace dprle::miniphp;

SymExecStats &SymExecStats::global() {
  static SymExecStats Instance;
  return Instance;
}

namespace {

/// Publishes the explorer counters into the unified StatsRegistry at load
/// time; the dotted names are part of the stable schema of
/// docs/OBSERVABILITY.md.
struct RegisterSymExecStats {
  RegisterSymExecStats() {
    StatsRegistry::global().registerCounter(
        "miniphp.symexec.infeasible_edges_pruned",
        &SymExecStats::global().InfeasibleEdgesPruned);
  }
};

RegisterSymExecStats RegisterSymExecStatsInit;

} // namespace

namespace {

/// A symbolic string value: a concatenation of literals and RMA
/// variables, plus the source lines that defined it (for path slices).
struct SymValue {
  std::vector<Term> Terms;
  std::set<unsigned> Lines;
};

/// A branch condition already translated on this path, remembered for
/// slice generation: which inputs it constrains and which lines define
/// the values it checks.
struct ConditionRecord {
  std::set<VarId> Vars;
  std::set<unsigned> Lines;
};

/// Per-path symbolic state.
struct PathState {
  BlockId Block = 0;
  size_t StmtIndex = 0;                  // within the block
  std::map<std::string, SymValue> Env;   // $var -> symbolic value
  Problem Instance;
  std::map<std::string, VarId> InputVariables;
  std::vector<ConditionRecord> Conditions;
  /// Bit i set = spec i still audits this path.
  uint64_t ActiveMask = 0;
};

/// The input variables mentioned by a symbolic value.
std::set<VarId> inputVarsOf(const SymValue &V) {
  std::set<VarId> Out;
  for (const Term &T : V.Terms)
    if (T.isVariable())
      Out.insert(T.Var);
  return Out;
}

/// Negates a length comparison (complement within length space).
LengthOp negateLengthOp(LengthOp Op) {
  switch (Op) {
  case LengthOp::Eq:
    return LengthOp::Ne;
  case LengthOp::Ne:
    return LengthOp::Eq;
  case LengthOp::Lt:
    return LengthOp::Ge;
  case LengthOp::Ge:
    return LengthOp::Lt;
  case LengthOp::Le:
    return LengthOp::Gt;
  case LengthOp::Gt:
    return LengthOp::Le;
  }
  return Op;
}

/// The language of strings whose length satisfies `len OP N`.
Nfa lengthLanguage(LengthOp Op, unsigned N) {
  switch (Op) {
  case LengthOp::Eq:
    return lengthExactly(N);
  case LengthOp::Ne:
    return N == 0 ? lengthAtLeast(1)
                  : unionOf({lengthAtMost(N - 1), lengthAtLeast(N + 1)});
  case LengthOp::Lt:
    return N == 0 ? Nfa::emptyLanguage() : lengthAtMost(N - 1);
  case LengthOp::Le:
    return lengthAtMost(N);
  case LengthOp::Gt:
    return lengthAtLeast(N + 1);
  case LengthOp::Ge:
    return lengthAtLeast(N);
  }
  return Nfa::emptyLanguage();
}

/// Symbolically evaluates \p E under \p State, interning input keys as
/// RMA variables on first use (two reads of $_POST['k'] see the same
/// value, hence the same variable).
SymValue evalExpr(const StrExpr &E, PathState &State) {
  SymValue Out;
  for (const Atom &A : E) {
    switch (A.AtomKind) {
    case Atom::Kind::Literal:
      Out.Terms.push_back(State.Instance.constant(Nfa::literal(A.Text)));
      break;
    case Atom::Kind::Variable: {
      auto It = State.Env.find(A.Text);
      if (It == State.Env.end()) {
        // Read of a variable never assigned on this path: PHP yields
        // the empty string (plus a notice); model it as "".
        Out.Terms.push_back(State.Instance.constant(Nfa::literal("")));
        break;
      }
      Out.Terms.insert(Out.Terms.end(), It->second.Terms.begin(),
                       It->second.Terms.end());
      Out.Lines.insert(It->second.Lines.begin(), It->second.Lines.end());
      break;
    }
    case Atom::Kind::Input: {
      std::string Key = A.Source + ":" + A.Text;
      auto It = State.InputVariables.find(Key);
      VarId V;
      if (It == State.InputVariables.end()) {
        V = State.Instance.addVariable(Key);
        State.InputVariables.emplace(Key, V);
      } else {
        V = It->second;
      }
      Out.Terms.push_back(State.Instance.var(V));
      break;
    }
    }
  }
  // An empty expression denotes the empty string.
  if (Out.Terms.empty())
    Out.Terms.push_back(State.Instance.constant(Nfa::literal("")));
  return Out;
}

/// The language a condition constrains its operand to when the branch
/// outcome is \p Taken. Computed fresh; see conditionLanguage() for the
/// memoized entry point the executor uses.
Nfa conditionLanguageUncached(const Condition &Cond, bool WantMatch) {
  Nfa MatchLang;
  if (Cond.CondKind == Condition::Kind::Substr) {
    // PHP's substr($x, o, l) == 'lit': the window starting at offset o
    // equals lit. When |lit| == l the rest of the string is free; when
    // |lit| < l PHP must have run out of characters, so the string
    // ends right after lit; |lit| > l can never match.
    Nfa Match;
    if (Cond.Literal.size() == Cond.SubLength)
      Match = concat(concat(lengthExactly(Cond.SubOffset),
                            Nfa::literal(Cond.Literal)),
                     Nfa::sigmaStar());
    else if (Cond.Literal.size() < Cond.SubLength)
      Match = concat(lengthExactly(Cond.SubOffset),
                     Nfa::literal(Cond.Literal));
    else
      Match = Nfa::emptyLanguage();
    return WantMatch ? Match : complement(Match);
  }
  if (Cond.CondKind == Condition::Kind::Length) {
    // Length complements are expressed directly by flipping the
    // relational operator — no determinization needed.
    LengthOp Op = WantMatch ? Cond.LenOp : negateLengthOp(Cond.LenOp);
    return lengthLanguage(Op, Cond.LenBound);
  }
  if (Cond.CondKind == Condition::Kind::PregMatch) {
    RegexParseResult R = parseRegex(Cond.Pattern);
    if (!R.ok()) {
      // An unparseable pattern kills the branch analysis; treat the
      // condition as unconstraining (sound overapproximation for bug
      // *finding*, noted in the analysis report).
      return Nfa::sigmaStar();
    }
    MatchLang = searchLanguage(R);
  } else {
    MatchLang = Nfa::literal(Cond.Literal);
  }
  return WantMatch ? MatchLang : complement(MatchLang);
}

/// Memoizing wrapper: path enumeration re-derives the same condition
/// language on every path through its branch, and the negated outcomes
/// pay a complement (a determinization) each time. The machines are
/// functions of the condition's text alone, so one process-wide MemoTable
/// keeps them by text and hands out copies — an Nfa copy shares its
/// source's frozen CSR view (automata/CsrNfa.h), so the downstream
/// feasibility subset checks skip the view build as well as the compile.
/// A machine built under a tripped budget is not kept (MemoTable.h).
Nfa conditionLanguage(const Condition &Cond, bool Taken) {
  static MemoTable<Nfa> Memo(/*NumStripes=*/1,
                             /*MaxEntriesPerStripe=*/1 << 10);
  bool WantMatch = Taken != Cond.Negated;
  MemoKey Key;
  std::string &Text = Key.Shape;
  Text += char('0' + int(Cond.CondKind));
  Text += WantMatch ? '+' : '-';
  Text += char('0' + int(Cond.LenOp));
  Text += std::to_string(Cond.LenBound) + "," +
          std::to_string(Cond.SubOffset) + "," +
          std::to_string(Cond.SubLength) + "|";
  Text += Cond.Pattern;
  Text += '\0';
  Text += Cond.Literal;
  if (std::optional<Nfa> Hit = Memo.find(Key))
    return std::move(*Hit);
  Nfa Lang = conditionLanguageUncached(Cond, WantMatch);
  Memo.insert(std::move(Key), Lang);
  return Lang;
}

/// Appends the branch constraint for \p Cond (outcome \p Taken) to
/// \p State. Returns false if the constraint is trivially
/// unsatisfiable on constants (quick infeasibility pruning,
/// SymExecOptions::ConstantFeasibilityPrune).
bool addConditionConstraint(const Condition &Cond, bool Taken, unsigned Line,
                            PathState &State, const SymExecOptions &Opts) {
  SymValue Operand = evalExpr(Cond.Operand, State);
  Nfa Lang = conditionLanguage(Cond, Taken);
  if (Opts.ConstantFeasibilityPrune) {
    bool AllConstant = true;
    for (const Term &T : Operand.Terms)
      AllConstant = AllConstant && !T.isVariable();
    if (AllConstant) {
      Nfa Whole = Operand.Terms.front().Language;
      for (size_t I = 1; I != Operand.Terms.size(); ++I)
        Whole = concat(Whole, Operand.Terms[I].Language);
      if (!subsetOf(Whole, Lang)) {
        ++SymExecStats::global().InfeasibleEdgesPruned;
        return false;
      }
    }
  }
  ConditionRecord Record;
  Record.Vars = inputVarsOf(Operand);
  Record.Lines = Operand.Lines;
  Record.Lines.insert(Line);
  State.Conditions.push_back(std::move(Record));
  State.Instance.addConstraint(Operand.Terms, std::move(Lang));
  return true;
}

/// Models `$x = san($arg)` for a registered sanitizer transformer
/// (miniphp/Policy.h): binds x to a fresh RMA variable constrained to
/// the sanitizer's input-independent output language. The argument is
/// deliberately NOT evaluated — the model is L_out = f(Sigma*), so
/// reading it would only intern input variables the constraint never
/// mentions (and diverge from the taint pass, which uses the identical
/// model). Non-sanitizer calls keep their historical no-string-effect
/// semantics. Returns true when the statement was a sanitizer call.
bool applySanitizerCall(const Stmt *S, PathState &State,
                        const std::set<std::string> *RelevantVars) {
  if (S->Target.empty())
    return false;
  const SanitizerModel *San =
      PolicyRegistry::global().sanitizerFor(S->Callee);
  if (!San)
    return false;
  if (RelevantVars && !RelevantVars->count(S->Target)) {
    // Outside every live sink's slice: unobservable, like a skipped
    // assignment.
    ++TaintStats::global().AssignsSkipped;
    return true;
  }
  VarId Fresh = State.Instance.addVariable(
      "san:" + S->Callee + ":L" + std::to_string(S->Line));
  State.Instance.addConstraint({State.Instance.var(Fresh)}, *San->Output,
                               "san:" + S->Callee);
  SymValue V;
  V.Terms.push_back(State.Instance.var(Fresh));
  V.Lines.insert(S->Line);
  State.Env[S->Target] = std::move(V);
  return true;
}

/// Translates the sink \p S (already-evaluated argument \p Query) under
/// \p State into one PathCondition against \p AttackLanguage.
PathCondition buildSinkPath(const Stmt *S, const SymValue &Query,
                            const PathState &State,
                            const Nfa &AttackLanguage) {
  PathCondition PC;
  PC.Instance = State.Instance; // copy: path continues afterwards
  PC.Instance.addConstraint(Query.Terms, AttackLanguage, "attack");
  PC.InputVariables = State.InputVariables;
  // |C| counts every equation the symbolic executor emits: one
  // subset constraint per condition/sink plus one concatenation
  // equation per binary concat (dependency-graph temp). A
  // constraint with T terms contributes 1 + (T-1) = T.
  PC.NumConstraints = 0;
  for (const Constraint &C : PC.Instance.constraints())
    PC.NumConstraints += static_cast<unsigned>(C.Lhs.size());
  PC.SinkLine = S->Line;
  // Path slice (paper Section 2): the statements defining the sink
  // value plus every check constraining an input that flows into
  // it — "helping the developer locate potential causes".
  PC.SliceLines = Query.Lines;
  PC.SliceLines.insert(S->Line);
  std::set<VarId> SinkVars = inputVarsOf(Query);
  for (const ConditionRecord &Record : State.Conditions) {
    bool Shares = false;
    for (VarId V : Record.Vars)
      Shares = Shares || SinkVars.count(V);
    if (Shares)
      PC.SliceLines.insert(Record.Lines.begin(), Record.Lines.end());
  }
  return PC;
}

/// One shared walk of the CFG for N attack specs (N = 1 for runSymExec).
/// Each path carries a bitmask of the specs still auditing it
/// (PathState::ActiveMask); a spec's bit clears where that spec's own
/// audit of the path ends — at an emitted or taint-proven-safe first sink
/// under StopAtFirstSink, when its MaxPaths quota fills, or at a block
/// from which none of its live sinks are reachable — so per-spec path
/// emission order and contents match N one-spec runs (the caveat in
/// runSymExecAll's header comment aside), while the CFG traversal,
/// condition constraints, and the taint/slice pre-pass are paid once.
class MultiExplorer {
public:
  MultiExplorer(const Cfg &G, const std::vector<AttackSpec> &Specs,
                const SymExecOptions &Opts)
      : G(G), Specs(Specs), Opts(Opts), Results(Specs.size()) {}

  /// Arms taint-based pruning; \p Taints and \p Slices must outlive the
  /// explorer, be per-spec parallel to the constructor's Specs, and Ok.
  void enablePruning(const std::vector<TaintResult> &Taints,
                     const AuditSliceResult &Slices) {
    assert(Slices.Ok && Slices.PerPolicy.size() == Specs.size() &&
           "pruning needs usable per-spec facts");
    Pruning = true;
    PruneSlices = &Slices;
    SafeSinks.resize(Specs.size());
    for (size_t I = 0; I != Taints.size(); ++I)
      for (const SinkFact &Fact : Taints[I].Sinks)
        if (Fact.ProvenSafe)
          SafeSinks[I].insert(Fact.Sink);
  }

  std::vector<std::vector<PathCondition>> run() {
    PathState Init;
    Init.Block = G.entry();
    if (!Specs.empty())
      Init.ActiveMask = Specs.size() >= 64
                            ? ~uint64_t(0)
                            : (uint64_t(1) << Specs.size()) - 1;
    if (Init.ActiveMask)
      explore(std::move(Init));
    return std::move(Results);
  }

  /// True when the budget tripped and the enumeration was truncated.
  bool interrupted() const { return Interrupted; }

private:
  /// The subset of \p Mask whose specs can still reach one of their own
  /// live sinks from \p Block (all of it when pruning is off). From a
  /// block with no live (not proven-safe) sink ahead, every suffix path
  /// ends sink-free or at a sink whose system is unsatisfiable.
  uint64_t liveAt(uint64_t Mask, BlockId Block) const {
    if (!Pruning)
      return Mask;
    for (size_t I = 0; I != Specs.size(); ++I) {
      if (!((Mask >> I) & 1))
        continue;
      if (!PruneSlices->PerPolicy[I].ReachesLiveSink[Block]) {
        Mask &= ~(uint64_t(1) << I);
        ++TaintStats::global().BlocksPruned;
      }
    }
    return Mask;
  }

  void explore(PathState State) {
    for (size_t I = 0; I != Specs.size(); ++I)
      if (((State.ActiveMask >> I) & 1) &&
          Results[I].size() >= Opts.MaxPaths)
        State.ActiveMask &= ~(uint64_t(1) << I);
    if (!State.ActiveMask)
      return;
    if (ResourceGuard::exhausted()) {
      // Cooperative unwind: stop enumerating, keep the paths built so far.
      Interrupted = true;
      return;
    }
    State.ActiveMask = liveAt(State.ActiveMask, State.Block);
    if (!State.ActiveMask)
      return;
    const BasicBlock &Block = G.block(State.Block);
    for (size_t I = State.StmtIndex; I != Block.Stmts.size(); ++I) {
      const Stmt *S = Block.Stmts[I];
      switch (S->StmtKind) {
      case Stmt::Kind::Assign: {
        if (Pruning && !PruneSlices->RelevantVars.count(S->Target)) {
          // Outside every spec's live slices (the union): the value can
          // reach neither a live sink expression nor a branch condition
          // guarding one, so the binding is unobservable.
          ++TaintStats::global().AssignsSkipped;
          break;
        }
        SymValue V = evalExpr(S->Value, State);
        V.Lines.insert(S->Line);
        State.Env[S->Target] = std::move(V);
        break;
      }
      case Stmt::Kind::Sink: {
        // Which still-active specs audit this callee?
        std::vector<size_t> Auditing;
        bool AnyLive = false;
        for (size_t K = 0; K != Specs.size(); ++K) {
          if (!((State.ActiveMask >> K) & 1) ||
              !Specs[K].appliesTo(S->Callee))
            continue;
          Auditing.push_back(K);
          AnyLive = AnyLive || !(Pruning && SafeSinks[K].count(S));
        }
        if (Auditing.empty())
          break;
        // Evaluate the sink argument once for every emitting spec, and
        // not at all when every auditor was proven safe.
        SymValue Query;
        if (AnyLive)
          Query = evalExpr(S->Arg, State);
        for (size_t K : Auditing) {
          if (Pruning && SafeSinks[K].count(S)) {
            // Proven safe for spec K by the taint pre-pass: the un-pruned
            // walk would emit this path and solve it to unsat. Keep its
            // path shape (a first sink still ends K's audit of this path
            // under StopAtFirstSink) but skip the instance and the solve.
            ++TaintStats::global().SinkPathsPruned;
            if (Opts.StopAtFirstSink)
              State.ActiveMask &= ~(uint64_t(1) << K);
            continue;
          }
          Results[K].push_back(
              buildSinkPath(S, Query, State, Specs[K].AttackLanguage));
          if (Opts.StopAtFirstSink || Results[K].size() >= Opts.MaxPaths)
            State.ActiveMask &= ~(uint64_t(1) << K);
        }
        if (!State.ActiveMask)
          return;
        break;
      }
      case Stmt::Kind::Call:
        // Sanitizer calls bind their target (applySanitizerCall); other
        // opaque calls have no string effect.
        applySanitizerCall(
            S, State, Pruning ? &PruneSlices->RelevantVars : nullptr);
        break;
      case Stmt::Kind::Exit:
      case Stmt::Kind::Return:
        // Exit: path ends (exit blocks have no successors, so falling
        // out below is correct).
        break;
      case Stmt::Kind::If:
      case Stmt::Kind::While:
        assert(false && "If/While statements terminate blocks");
        break;
      }
    }
    if (Block.Terminator) {
      const Condition &Cond = Block.Terminator->Cond;
      // Succs[0] is the taken edge; the last successor is the not-taken
      // edge (either the else head or the join block).
      assert(Block.Succs.size() == 2 && "if block must have two succs");
      for (unsigned Edge = 0; Edge != 2; ++Edge) {
        uint64_t NextMask = liveAt(State.ActiveMask, Block.Succs[Edge]);
        if (!NextMask)
          continue; // No spec can emit a path beyond this edge.
        PathState Next = State;
        Next.ActiveMask = NextMask;
        if (!addConditionConstraint(Cond, /*Taken=*/Edge == 0,
                                    Block.Terminator->Line, Next, Opts))
          continue; // Edge infeasible on constants: no suffix can matter.
        Next.Block = Block.Succs[Edge];
        Next.StmtIndex = 0;
        explore(std::move(Next));
      }
      return;
    }
    for (BlockId Succ : Block.Succs) {
      PathState Next = State;
      Next.Block = Succ;
      Next.StmtIndex = 0;
      explore(std::move(Next));
    }
  }

  const Cfg &G;
  const std::vector<AttackSpec> &Specs;
  const SymExecOptions &Opts;
  bool Pruning = false;
  /// Non-null when pruning is armed: per-spec slices plus the unions.
  const AuditSliceResult *PruneSlices = nullptr;
  /// Per spec: sinks its taint pre-pass proved safe.
  std::vector<std::set<const Stmt *>> SafeSinks;
  std::vector<std::vector<PathCondition>> Results;
  bool Interrupted = false;
};

} // namespace

SymExecResult dprle::miniphp::runSymExec(const Program &P, const Cfg &G,
                                         const AttackSpec &Attack,
                                         const SymExecOptions &Opts) {
  return std::move(runSymExecAll(P, G, {Attack}, Opts).front());
}

std::vector<PathCondition>
dprle::miniphp::enumerateSinkPaths(const Program &P, const Cfg &G,
                                   const AttackSpec &Attack,
                                   const SymExecOptions &Opts) {
  return runSymExec(P, G, Attack, Opts).Paths;
}

std::vector<SymExecResult>
dprle::miniphp::runSymExecAll(const Program &P, const Cfg &G,
                              const std::vector<AttackSpec> &Specs,
                              const SymExecOptions &Opts) {
  assert(Specs.size() <= 64 && "the per-path policy mask is 64 bits wide");
  std::vector<SymExecResult> Results(Specs.size());
  for (BlockId B = 0; B != G.numBlocks(); ++B)
    for (const Stmt *S : G.block(B).Stmts)
      if (S->StmtKind == Stmt::Kind::Sink)
        for (size_t I = 0; I != Specs.size(); ++I)
          if (Specs[I].appliesTo(S->Callee))
            ++Results[I].SinksFound;

  MultiExplorer E(G, Specs, Opts);
  // The shared pre-pass: one taint env fixpoint for every spec, then the
  // per-spec slices and their unions (both must outlive E.run()). Any
  // unusable taint pass leaves the slices not Ok, and pruning off.
  std::vector<TaintResult> Taints;
  AuditSliceResult Slices;
  if (Opts.TaintPrune && !Specs.empty()) {
    Taints = analyzeTaintAll(P, G, Specs);
    Slices = computeAuditSlices(G, Taints);
    if (Slices.Ok) {
      E.enablePruning(Taints, Slices);
      for (size_t I = 0; I != Specs.size(); ++I) {
        Results[I].TaintUsed = true;
        Results[I].SinksProvenSafe = Taints[I].numProvenSafe();
      }
    }
  }
  std::vector<std::vector<PathCondition>> Paths = E.run();
  for (size_t I = 0; I != Specs.size(); ++I) {
    Results[I].Paths = std::move(Paths[I]);
    Results[I].Interrupted = E.interrupted();
  }
  return Results;
}
