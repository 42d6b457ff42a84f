//===- Taint.cpp - Forward taint dataflow over mini-PHP CFGs --------------===//

#include "miniphp/Taint.h"
#include "miniphp/Policy.h"
#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "regex/RegexCompiler.h"
#include "regex/RegexParser.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <cassert>
#include <deque>
#include <optional>

using namespace dprle;
using namespace dprle::miniphp;

const char *dprle::miniphp::taintLevelName(TaintLevel L) {
  switch (L) {
  case TaintLevel::Untainted:
    return "untainted";
  case TaintLevel::Tainted:
    return "tainted";
  case TaintLevel::Top:
    return "top";
  }
  return "top";
}

namespace {

/// Shared singleton machines: the common abstract languages are reused
/// by pointer so joins of untouched variables short-circuit.
std::shared_ptr<const Nfa> sharedEmptyLiteral() {
  static const std::shared_ptr<const Nfa> M =
      std::make_shared<const Nfa>(Nfa::literal(""));
  return M;
}

std::shared_ptr<const Nfa> sharedSigmaStar() {
  static const std::shared_ptr<const Nfa> M =
      std::make_shared<const Nfa>(Nfa::sigmaStar());
  return M;
}

std::shared_ptr<const Nfa> share(Nfa M) {
  return std::make_shared<const Nfa>(std::move(M));
}

} // namespace

TaintValue TaintValue::emptyString() {
  TaintValue V;
  V.Approx = sharedEmptyLiteral();
  return V;
}

TaintValue TaintValue::untrustedInput(const std::string &Key) {
  TaintValue V;
  V.Level = TaintLevel::Tainted;
  V.Approx = sharedSigmaStar();
  V.Sources.insert(Key);
  return V;
}

TaintValue TaintValue::top() {
  TaintValue V;
  V.Level = TaintLevel::Top;
  V.Approx = sharedSigmaStar();
  return V;
}

TaintStats &TaintStats::global() {
  static TaintStats Stats;
  return Stats;
}

const SinkFact *TaintResult::factFor(const Stmt *S) const {
  for (const SinkFact &F : Sinks)
    if (F.Sink == S)
      return &F;
  return nullptr;
}

unsigned TaintResult::numProvenSafe() const {
  unsigned N = 0;
  for (const SinkFact &F : Sinks)
    N += F.ProvenSafe;
  return N;
}

namespace {

/// Publishes the taint counters into the unified StatsRegistry at load
/// time; the dotted names are part of the stable schema of
/// docs/OBSERVABILITY.md.
struct RegisterTaintStats {
  RegisterTaintStats() {
    TaintStats &S = TaintStats::global();
    StatsRegistry &R = StatsRegistry::global();
    R.registerCounter("miniphp.taint.runs", &S.Runs);
    R.registerCounter("miniphp.taint.sinks_seen", &S.SinksSeen);
    R.registerCounter("miniphp.taint.sinks_proven_safe", &S.SinksProvenSafe);
    R.registerCounter("miniphp.taint.edges_refined", &S.EdgesRefined);
    R.registerCounter("miniphp.taint.sanitizers_applied",
                      &S.SanitizersApplied);
    R.registerCounter("miniphp.taint.approx_widened", &S.ApproxWidened);
    R.registerCounter("miniphp.taint.fixpoint_passes", &S.FixpointPasses);
    R.registerCounter("miniphp.taint.blocks_pruned", &S.BlocksPruned);
    R.registerCounter("miniphp.taint.assigns_skipped", &S.AssignsSkipped);
    R.registerCounter("miniphp.taint.sink_paths_pruned", &S.SinkPathsPruned);
  }
};

RegisterTaintStats RegisterTaintStatsInit;

/// Per-block abstract environment: variable -> abstract value. A missing
/// variable reads as the empty string (TaintValue::emptyString), exactly
/// as in SymExec's concrete semantics.
using Env = std::map<std::string, TaintValue>;

/// Widen a value's Approx to Sigma-star once it exceeds this many NFA
/// states; bounds join/concat growth on diamond-heavy CFGs.
constexpr unsigned ApproxStateCap = 128;

/// Widens \p V's approximation to Sigma-star past the state cap, keeping
/// joins and concatenations bounded.
void capApprox(TaintValue &V) {
  if (V.Approx->numStates() <= ApproxStateCap)
    return;
  V.Approx = sharedSigmaStar();
  ++TaintStats::global().ApproxWidened;
}

/// Lattice join of two abstract values: level max, language union,
/// source/line union. Identical shared machines (a variable untouched by
/// either branch) are reused without building a union.
TaintValue joinValue(const TaintValue &A, const TaintValue &B) {
  if (A.Approx == B.Approx && A.Level == B.Level && A.Sources == B.Sources &&
      A.DefLines == B.DefLines)
    return A; // untouched on both sides: nothing to build
  TaintValue Out;
  Out.Level = joinTaint(A.Level, B.Level);
  Out.Approx = A.Approx == B.Approx ? A.Approx
                                    : share(alternate(*A.Approx, *B.Approx));
  Out.Sources = A.Sources;
  Out.Sources.insert(B.Sources.begin(), B.Sources.end());
  Out.DefLines = A.DefLines;
  Out.DefLines.insert(B.DefLines.begin(), B.DefLines.end());
  capApprox(Out);
  return Out;
}

const TaintValue &lookup(const Env &E, const std::string &Var) {
  static const TaintValue Empty = TaintValue::emptyString();
  auto It = E.find(Var);
  return It != E.end() ? It->second : Empty;
}

/// Joins \p From into \p Into (pointwise; a variable bound on one side
/// only joins against the implicit empty string).
void joinEnv(std::optional<Env> &Into, const Env &From) {
  if (!Into) {
    Into = From;
    return;
  }
  Env &A = *Into;
  for (auto &[Var, Val] : A) {
    auto It = From.find(Var);
    Val = joinValue(Val, It != From.end() ? It->second
                                          : TaintValue::emptyString());
  }
  for (const auto &[Var, Val] : From)
    if (!A.count(Var))
      A.emplace(Var, joinValue(TaintValue::emptyString(), Val));
}

/// Abstract evaluation of a string expression: concatenation of the
/// atoms' abstract values. Runs of literal atoms collapse into a single
/// literal machine, and a lone variable/input atom reuses its shared
/// machine outright.
TaintValue evalTaint(const StrExpr &E, const Env &Environment) {
  TaintValue Out;
  std::string Lit;                  // pending run of literal text
  auto flushLit = [&] {
    if (Lit.empty())
      return;
    Nfa L = Nfa::literal(Lit);
    Out.Approx = Out.Approx ? share(concat(*Out.Approx, L)) : share(std::move(L));
    Lit.clear();
  };
  for (const Atom &A : E) {
    if (A.AtomKind == Atom::Kind::Literal) {
      Lit += A.Text;
      continue;
    }
    const TaintValue Input =
        A.AtomKind == Atom::Kind::Input
            ? TaintValue::untrustedInput(A.Source + ":" + A.Text)
            : TaintValue();
    const TaintValue &AtomVal = A.AtomKind == Atom::Kind::Input
                                    ? Input
                                    : lookup(Environment, A.Text);
    flushLit();
    Out.Approx = Out.Approx ? share(concat(*Out.Approx, *AtomVal.Approx))
                            : AtomVal.Approx;
    Out.Level = joinTaint(Out.Level, AtomVal.Level);
    Out.Sources.insert(AtomVal.Sources.begin(), AtomVal.Sources.end());
    Out.DefLines.insert(AtomVal.DefLines.begin(), AtomVal.DefLines.end());
    capApprox(Out);
  }
  flushLit();
  if (!Out.Approx)
    Out.Approx = sharedEmptyLiteral(); // empty expression: ""
  else
    capApprox(Out);
  return Out;
}

/// Sanitizer (partial) kills: refines \p E for the branch edge where
/// \p Cond is known to have outcome \p Taken. Only positive information
/// on single-variable operands is used — a taken preg_match narrows the
/// variable to the pattern's search language, an equality against a
/// literal pins it to that literal (a full kill). Negative outcomes and
/// Length/Substr checks add no refinement, which is sound (the
/// approximation merely stays wider).
void refineForEdge(Env &E, const Condition &Cond, bool Taken, unsigned Line) {
  bool WantMatch = Taken != Cond.Negated;
  if (!WantMatch)
    return;
  if (Cond.Operand.size() != 1 ||
      Cond.Operand[0].AtomKind != Atom::Kind::Variable)
    return;
  const std::string &Var = Cond.Operand[0].Text;
  if (Cond.CondKind == Condition::Kind::EqualsLiteral) {
    TaintValue V;
    V.Approx = share(Nfa::literal(Cond.Literal));
    V.DefLines = lookup(E, Var).DefLines;
    V.DefLines.insert(Line);
    E[Var] = std::move(V);
    ++TaintStats::global().EdgesRefined;
    return;
  }
  if (Cond.CondKind == Condition::Kind::PregMatch) {
    RegexParseResult R = parseRegex(Cond.Pattern);
    if (!R.ok())
      return; // unparseable pattern: unconstraining, as in SymExec
    TaintValue V = lookup(E, Var);
    V.Approx = share(intersect(*V.Approx, searchLanguage(R)).trimmed());
    capApprox(V);
    V.DefLines.insert(Line);
    E[Var] = std::move(V);
    ++TaintStats::global().EdgesRefined;
  }
}

/// Blocks reachable from the CFG entry (dead blocks exist: Cfg::lower
/// gives unreachable code its own predecessor-less blocks).
std::vector<char> reachableBlocks(const Cfg &G) {
  std::vector<char> Seen(G.numBlocks(), 0);
  std::deque<BlockId> Work{G.entry()};
  Seen[G.entry()] = 1;
  while (!Work.empty()) {
    BlockId B = Work.front();
    Work.pop_front();
    for (BlockId S : G.block(B).Succs)
      if (!Seen[S]) {
        Seen[S] = 1;
        Work.push_back(S);
      }
  }
  return Seen;
}

/// Topological order of the reachable subgraph (Kahn). Returns an empty
/// vector if a cycle prevents ordering — impossible for Cfg::build
/// output, which lowers structured control flow into a DAG.
std::vector<BlockId> topologicalOrder(const Cfg &G,
                                      const std::vector<char> &Reachable) {
  std::vector<unsigned> InDegree(G.numBlocks(), 0);
  unsigned NumReachable = 0;
  for (BlockId B = 0; B != G.numBlocks(); ++B) {
    if (!Reachable[B])
      continue;
    ++NumReachable;
    for (BlockId S : G.block(B).Succs)
      ++InDegree[S];
  }
  std::vector<BlockId> Order;
  Order.reserve(NumReachable);
  std::deque<BlockId> Ready{G.entry()};
  while (!Ready.empty()) {
    BlockId B = Ready.front();
    Ready.pop_front();
    Order.push_back(B);
    for (BlockId S : G.block(B).Succs)
      if (--InDegree[S] == 0)
        Ready.push_back(S);
  }
  if (Order.size() != NumReachable)
    return {};
  return Order;
}

} // namespace

std::vector<TaintResult>
dprle::miniphp::analyzeTaintAll(const Program &P, const Cfg &G,
                                const std::vector<AttackSpec> &Specs) {
  DPRLE_TRACE_SPAN("taint_dataflow");
  (void)P; // statements are reached through the CFG blocks
  TaintStats &Stats = TaintStats::global();
  ++Stats.Runs;

  std::vector<TaintResult> Results(Specs.size());
  if (G.numBlocks() == 0 || Specs.empty()) {
    for (TaintResult &R : Results)
      R.Ok = true;
    return Results;
  }
  std::vector<char> Reachable = reachableBlocks(G);
  std::vector<BlockId> Order = topologicalOrder(G, Reachable);
  if (Order.empty()) {
    // Cycle: no sound single-sweep order exists. Report failure; callers
    // fall back to un-pruned symbolic execution.
    return Results;
  }

  // Forward sweep in topological order: every predecessor's out-edge env
  // is joined into InEnv before the block itself is processed. The envs
  // are spec-independent, so one sweep serves every spec; only the
  // per-sink ProvenSafe check below consults an attack language.
  std::vector<std::optional<Env>> InEnv(G.numBlocks());
  std::vector<std::map<const Stmt *, SinkFact>> Facts(Specs.size());
  InEnv[G.entry()] = Env();
  ++Stats.FixpointPasses;
  for (BlockId B : Order) {
    assert(InEnv[B] && "topological order visits predecessors first");
    Env Current = *InEnv[B];
    const BasicBlock &Block = G.block(B);
    for (const Stmt *S : Block.Stmts) {
      switch (S->StmtKind) {
      case Stmt::Kind::Assign: {
        TaintValue V = evalTaint(S->Value, Current);
        V.DefLines.insert(S->Line);
        Current[S->Target] = std::move(V);
        break;
      }
      case Stmt::Kind::Sink: {
        bool Evaluated = false;
        TaintValue V;
        for (size_t I = 0; I != Specs.size(); ++I) {
          if (!Specs[I].appliesTo(S->Callee))
            continue;
          if (!Evaluated) {
            V = evalTaint(S->Arg, Current);
            Evaluated = true;
          }
          SinkFact Fact;
          Fact.Sink = S;
          Fact.Line = S->Line;
          Fact.Callee = S->Callee;
          Fact.Level = V.Level;
          Fact.Sources = V.Sources;
          Fact.ValueLines = V.DefLines;
          Fact.ValueLines.insert(S->Line);
          // Decision kernel: the lazy product BFS exits at the first
          // accepting pair, and shared Approx machines (sigma-star,
          // common literals) hit the decision cache across sinks,
          // specs, and files.
          Fact.ProvenSafe =
              emptyIntersection(*V.Approx, Specs[I].AttackLanguage);
          Facts[I].emplace(S, std::move(Fact));
        }
        break;
      }
      case Stmt::Kind::Call: {
        // A registered sanitizer transformer ($x = addslashes($y))
        // confines its result to the model's output language; the taint
        // level and provenance still flow from the argument so reports
        // can say "tainted but language-safe". Other calls that assign
        // their (unknown) result lose all information about the target,
        // mirroring SymExec.
        if (S->Target.empty())
          break;
        const SanitizerModel *San =
            PolicyRegistry::global().sanitizerFor(S->Callee);
        if (!San) {
          Current[S->Target] = TaintValue::top();
          break;
        }
        TaintValue Arg = evalTaint(S->Arg, Current);
        TaintValue V;
        V.Level = Arg.Level;
        V.Approx = San->Output;
        V.Sources = std::move(Arg.Sources);
        V.DefLines = std::move(Arg.DefLines);
        V.DefLines.insert(S->Line);
        Current[S->Target] = std::move(V);
        ++Stats.SanitizersApplied;
        break;
      }
      case Stmt::Kind::Exit:
      case Stmt::Kind::Return:
        break;
      case Stmt::Kind::If:
      case Stmt::Kind::While:
        assert(false && "If/While statements terminate blocks");
        break;
      }
    }
    if (Block.Terminator) {
      assert(Block.Succs.size() == 2 && "if block must have two succs");
      for (unsigned Edge = 0; Edge != Block.Succs.size(); ++Edge) {
        Env Refined = Current;
        refineForEdge(Refined, Block.Terminator->Cond, /*Taken=*/Edge == 0,
                      Block.Terminator->Line);
        joinEnv(InEnv[Block.Succs[Edge]], Refined);
      }
    } else {
      for (BlockId S : Block.Succs)
        joinEnv(InEnv[S], Current);
    }
  }

  // Emit facts in deterministic (block, statement) order; sinks in dead
  // blocks are trivially safe (no path from the entry reaches them).
  for (size_t I = 0; I != Specs.size(); ++I) {
    TaintResult &Result = Results[I];
    for (BlockId B = 0; B != G.numBlocks(); ++B) {
      for (const Stmt *S : G.block(B).Stmts) {
        if (S->StmtKind != Stmt::Kind::Sink ||
            !Specs[I].appliesTo(S->Callee))
          continue;
        auto It = Facts[I].find(S);
        if (It != Facts[I].end()) {
          Result.Sinks.push_back(std::move(It->second));
          continue;
        }
        SinkFact Dead;
        Dead.Sink = S;
        Dead.Line = S->Line;
        Dead.Callee = S->Callee;
        Dead.Reachable = false;
        Dead.ProvenSafe = true;
        Result.Sinks.push_back(std::move(Dead));
      }
    }
    Stats.SinksSeen += Result.Sinks.size();
    Stats.SinksProvenSafe += Result.numProvenSafe();
    Result.Ok = true;
  }
  return Results;
}

TaintResult dprle::miniphp::analyzeTaint(const Program &P, const Cfg &G,
                                         const AttackSpec &Attack) {
  std::vector<TaintResult> Results = analyzeTaintAll(P, G, {Attack});
  return std::move(Results.front());
}
