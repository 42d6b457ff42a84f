//===- SessionTest.cpp - Incremental solving-session tests ----------------===//
//
// Covers solver/Session.h (docs/SESSIONS.md), whose contract is *bit-
// identical* equivalence with the cold solver:
//
//   * a seeded randomized differential sweep (200 cases): random scripts
//     of push/pop/addVariable/addConstraint/invalidate with a check after
//     most steps, run in a jobs=1 session and mirrored in a jobs=4 one;
//     every check of both is compared against a jobs=1 cold Solver::solve
//     of the same flattened Problem — verdicts, status bits, and every
//     assignment's languages and witnesses must match byte for byte;
//   * budget-exhaustion and cancellation parity on fresh sessions (the
//     cold-cache case where the warm check performs exactly the cold
//     solve's work, so even the Interrupted bit and the budget's tripped
//     dimension must agree);
//   * targeted reuse-accounting tests: re-checks without mutation splice
//     everything, pop() re-hits the content-keyed caches, textual deltas
//     via push(text)/assertText, per-check MaxSolutions overrides,
//     invalidate() forcing a cold check;
//   * DependencyGraph::rebuild producing a graph identical to a cold
//     build while moving constant machines over;
//   * the memoized minimized() satellite (minimize.hits / minimize.misses).
//
//===----------------------------------------------------------------------===//

#include "solver/Session.h"

#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "regex/RegexCompiler.h"
#include "service/ThreadPool.h"
#include "solver/ConstraintParser.h"
#include "solver/DependencyGraph.h"
#include "solver/Solver.h"
#include "support/Budget.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

using namespace dprle;

namespace {

/// Random pattern over {a, b} (same dialect as FuzzDifferentialTest).
std::string randomPattern(std::mt19937 &Rng, int Depth) {
  std::uniform_int_distribution<int> Dist(0, 99);
  int Roll = Dist(Rng);
  if (Depth <= 0 || Roll < 35)
    return Roll % 2 ? "a" : "b";
  if (Roll < 50)
    return "(" + randomPattern(Rng, Depth - 1) + "|" +
           randomPattern(Rng, Depth - 1) + ")";
  if (Roll < 70)
    return randomPattern(Rng, Depth - 1) + randomPattern(Rng, Depth - 1);
  if (Roll < 82)
    return "(" + randomPattern(Rng, Depth - 1) + ")*";
  if (Roll < 92)
    return "(" + randomPattern(Rng, Depth - 1) + ")?";
  return "[ab]";
}

/// Byte-exact digest of a SolveResult: the status bit plus, per assignment
/// and per variable, the structural machine encoding and the witness.
/// Two results with equal fingerprints are bit-identical in everything
/// the session equivalence guarantee covers (stats counters excluded:
/// a warm check legitimately does less work).
std::string fingerprint(const SolveResult &R) {
  std::ostringstream Os;
  Os << "sat=" << R.Satisfiable << " interrupted=" << R.Interrupted
     << " n=" << R.Assignments.size() << "\n";
  for (const Assignment &A : R.Assignments) {
    for (VarId V = 0; V != A.numVariables(); ++V) {
      std::optional<std::string> W = A.witness(V);
      Os << V << " lang=" << A.language(V).identity().encoding()
         << " witness=" << (W ? *W : std::string("<empty>")) << "\n";
    }
  }
  return Os.str();
}

/// The cold oracle: a from-scratch solve of the session's flattened
/// instance under the session's own options.
SolveResult coldSolve(const SolverSession &S) {
  return Solver(S.options()).solve(S.problem());
}

/// Runs \p Fn with \p Budget as the calling thread's ambient budget.
template <typename F> SolveResult underBudget(ResourceBudget &Budget, F Fn) {
  ResourceGuard Guard(&Budget);
  return Fn();
}

/// Copies the session's flattened instance into \p Fresh as base-frame
/// assertions (for fresh-session budget/cancellation parity checks).
void replicateInto(const SolverSession &From, SolverSession &Fresh) {
  const Problem &P = From.problem();
  for (VarId V = 0; V != P.numVariables(); ++V)
    Fresh.addVariable(P.variableName(V));
  for (const Constraint &C : P.constraints())
    Fresh.addConstraint(C.Lhs, C.Rhs, C.RhsName);
}

class SessionDifferentialTest : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(SessionDifferentialTest, WarmChecksMatchColdSolves) {
  unsigned Seed = GetParam();
  std::mt19937 Rng(Seed * 2654435761u + 40503);
  std::uniform_int_distribution<int> Percent(0, 99);

  // Every step is mirrored into Par, a session at jobs=4: its rebuilds
  // canonicalize on the pool and its CI-groups solve concurrently, yet
  // each of its checks must still equal the jobs=1 cold solve.
  SolverSession S;
  service::ThreadPool Pool(4);
  SolverOptions ParOpts;
  ParOpts.Jobs = 4;
  ParOpts.Exec = &Pool;
  SolverSession Par(ParOpts);
  auto addVariable = [&](const std::string &Name) {
    S.addVariable(Name);
    Par.addVariable(Name);
  };
  auto push = [&] {
    S.push();
    Par.push();
  };

  unsigned BaseVars = 1 + Percent(Rng) % 2;
  for (unsigned V = 0; V != BaseVars; ++V)
    addVariable("v" + std::to_string(V));

  auto addRandomConstraint = [&] {
    const Problem &P = S.problem();
    std::vector<Term> Lhs;
    unsigned Terms = 1 + Percent(Rng) % 2;
    for (unsigned T = 0; T != Terms; ++T) {
      if (Percent(Rng) < 75 && P.numVariables() != 0)
        Lhs.push_back(P.var(std::uniform_int_distribution<unsigned>(
            0, P.numVariables() - 1)(Rng)));
      else
        Lhs.push_back(P.constant(regexLanguage(randomPattern(Rng, 1))));
    }
    Nfa Rhs = regexLanguage(randomPattern(Rng, 2));
    Par.addConstraint(Lhs, Rhs);
    S.addConstraint(std::move(Lhs), std::move(Rhs));
  };
  addRandomConstraint();

  // Whether the instance changed since the last completed check; when it
  // did not, the next check must splice everything.
  bool MutatedSinceCheck = true;
  bool CheckedOnce = false;

  auto checkAndCompare = [&] {
    SolveResult Warm = S.check();
    SolveResult Cold = coldSolve(S);
    ASSERT_EQ(fingerprint(Warm), fingerprint(Cold))
        << "seed " << Seed << ", depth " << S.depth() << ":\n"
        << S.problem().str();
    ASSERT_EQ(fingerprint(Par.check()), fingerprint(Cold))
        << "seed " << Seed << " (jobs=4), depth " << Par.depth() << ":\n"
        << Par.problem().str();
    const SessionCheckInfo &Info = S.lastCheckInfo();
    // Both sessions consume groups in the same order, so they file and
    // splice the same results.
    EXPECT_EQ(Par.lastCheckInfo().Incremental, Info.Incremental);
    EXPECT_EQ(Par.lastCheckInfo().GroupsReused, Info.GroupsReused);
    EXPECT_EQ(Par.lastCheckInfo().FreeVarsReused, Info.FreeVarsReused);
    EXPECT_LE(Info.GroupsReused, Info.GroupsTotal) << "seed " << Seed;
    EXPECT_LE(Info.FreeVarsReused, Info.FreeVarsTotal) << "seed " << Seed;
    if (CheckedOnce && !MutatedSinceCheck && Info.Incremental) {
      EXPECT_EQ(Info.DirtyConstraints, 0u) << "seed " << Seed;
      // Full splicing is only guaranteed for satisfiable instances: an
      // unsatisfiable solve early-exits at the first empty group/variable,
      // so later ones were never solved and have nothing cached to reuse.
      if (Warm.Satisfiable) {
        EXPECT_EQ(Info.GroupsReused, Info.GroupsTotal) << "seed " << Seed;
        EXPECT_EQ(Info.FreeVarsReused, Info.FreeVarsTotal) << "seed " << Seed;
      }
    }
    MutatedSinceCheck = false;
    CheckedOnce = true;
  };

  unsigned Ops = 4 + Percent(Rng) % 4;
  for (unsigned Op = 0; Op != Ops; ++Op) {
    int Roll = Percent(Rng);
    if (Roll < 35) {
      push();
      if (Percent(Rng) < 30)
        addVariable("p" + std::to_string(Op));
      addRandomConstraint();
      MutatedSinceCheck = true;
    } else if (Roll < 55) {
      if (S.depth() != 0) {
        ASSERT_TRUE(S.pop());
        ASSERT_TRUE(Par.pop());
        MutatedSinceCheck = true;
      } else {
        push();
        addRandomConstraint();
        MutatedSinceCheck = true;
      }
    } else if (Roll < 70) {
      addRandomConstraint();
      MutatedSinceCheck = true;
    } else if (Roll < 80) {
      // Re-check without mutation: the all-spliced path.
    } else if (Roll < 85) {
      S.invalidate();
      Par.invalidate();
    }
    if (Percent(Rng) < 70)
      checkAndCompare();
  }
  checkAndCompare();

  // Budget parity on a cold cache (every 7th seed): a fresh session's
  // first check performs exactly the cold solve's work, so even the
  // Interrupted bit and the tripped dimension must agree under an equal
  // budget.
  if (Seed % 7 == 0) {
    ResourceLimits Limits;
    Limits.MaxStates = 60;

    // Clearing the global caches is single-threaded only: let Par's pool
    // workers leave their parallel regions first.
    Pool.waitIdle();
    DecisionCache::global().clear();
    clearMinimizeCache();
    ResourceBudget ColdBudget(Limits);
    SolveResult Cold = underBudget(
        ColdBudget, [&] { return Solver().solve(S.problem()); });

    DecisionCache::global().clear();
    clearMinimizeCache();
    SolverSession Fresh;
    replicateInto(S, Fresh);
    ResourceBudget WarmBudget(Limits);
    SolveResult Warm = underBudget(WarmBudget, [&] { return Fresh.check(); });

    ASSERT_EQ(fingerprint(Warm), fingerprint(Cold))
        << "seed " << Seed << " (budgeted):\n"
        << S.problem().str();
    EXPECT_EQ(WarmBudget.dimension(), ColdBudget.dimension())
        << "seed " << Seed;
  }

  // Cancellation parity (every 11th seed): a pre-cancelled budget unwinds
  // both sides before any work happens.
  if (Seed % 11 == 0) {
    ResourceBudget Cancelled;
    Cancelled.cancel();
    SolveResult Cold =
        underBudget(Cancelled, [&] { return Solver().solve(S.problem()); });

    SolverSession Fresh;
    replicateInto(S, Fresh);
    SolveResult Warm = underBudget(Cancelled, [&] { return Fresh.check(); });

    ASSERT_EQ(fingerprint(Warm), fingerprint(Cold)) << "seed " << Seed;
    EXPECT_TRUE(Warm.Interrupted) << "seed " << Seed;
    EXPECT_EQ(Cancelled.dimension(), BudgetDimension::Cancelled)
        << "seed " << Seed;
    EXPECT_FALSE(Warm.Satisfiable) << "seed " << Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomScripts, SessionDifferentialTest,
                         ::testing::Range(1u, 201u));

//===----------------------------------------------------------------------===//
// Targeted session behaviour
//===----------------------------------------------------------------------===//

TEST(SessionTest, TextualPushPopMatchesColdSolves) {
  SolverSession S;
  std::string Error;
  size_t ErrorLine = 0;
  ASSERT_TRUE(
      S.assertText("var x; var y; x . y <= /ab|ba/;", &Error, &ErrorLine))
      << Error;

  SolveResult First = S.check();
  EXPECT_EQ(fingerprint(First), fingerprint(coldSolve(S)));
  EXPECT_FALSE(S.lastCheckInfo().Incremental);
  EXPECT_TRUE(First.Satisfiable);

  ASSERT_TRUE(S.push("var z; z <= /a*/; x <= /a/;", &Error, &ErrorLine))
      << Error;
  EXPECT_EQ(S.depth(), 1u);
  SolveResult Second = S.check();
  EXPECT_EQ(fingerprint(Second), fingerprint(coldSolve(S)));
  EXPECT_TRUE(S.lastCheckInfo().Incremental);
  EXPECT_EQ(S.lastCheckInfo().DirtyConstraints, 2u);

  ASSERT_TRUE(S.pop());
  EXPECT_EQ(S.depth(), 0u);
  SolveResult Third = S.check();
  EXPECT_EQ(fingerprint(Third), fingerprint(coldSolve(S)));
  EXPECT_EQ(fingerprint(Third), fingerprint(First));
  const SessionCheckInfo &Info = S.lastCheckInfo();
  EXPECT_TRUE(Info.Incremental);
  EXPECT_EQ(Info.DirtyConstraints, 0u);
  EXPECT_EQ(Info.GroupsReused, Info.GroupsTotal);
}

TEST(SessionTest, RecheckWithoutMutationSplicesEverything) {
  SolverSession S;
  VarId X = S.addVariable("x");
  VarId Y = S.addVariable("y");
  VarId F = S.addVariable("free");
  const Problem &P = S.problem();
  S.addConstraint({P.var(X), P.var(Y)}, regexLanguage("ab|ba"));
  S.addConstraint({P.var(F)}, regexLanguage("a*"));
  // A constant-vs-constant constraint: its inclusion verdict is cached.
  S.addConstraint({P.constant(regexLanguage("aa"))}, regexLanguage("a*"));

  SolveResult First = S.check();
  ASSERT_TRUE(First.Satisfiable);
  EXPECT_EQ(S.lastCheckInfo().GroupsReused, 0u);

  SolveResult Second = S.check();
  EXPECT_EQ(fingerprint(Second), fingerprint(First));
  EXPECT_EQ(fingerprint(Second), fingerprint(coldSolve(S)));
  const SessionCheckInfo &Info = S.lastCheckInfo();
  EXPECT_TRUE(Info.Incremental);
  EXPECT_EQ(Info.DirtyConstraints, 0u);
  EXPECT_GE(Info.GroupsTotal, 1u);
  EXPECT_EQ(Info.GroupsReused, Info.GroupsTotal);
  EXPECT_EQ(Info.FreeVarsTotal, 1u);
  EXPECT_EQ(Info.FreeVarsReused, 1u);
  EXPECT_EQ(Info.SubsetChecksReused, 1u);
}

TEST(SessionTest, PopRehitsContentKeyedCaches) {
  SolverSession S;
  std::string Error;
  ASSERT_TRUE(S.assertText("var a; var b; a . b <= /xy|yx/;", &Error))
      << Error;
  SolveResult Base = S.check();
  ASSERT_TRUE(Base.Satisfiable);

  ASSERT_TRUE(S.push("var c; a . c <= /x*/;", &Error)) << Error;
  SolveResult Pushed = S.check();
  EXPECT_EQ(fingerprint(Pushed), fingerprint(coldSolve(S)));
  // The incremental rebuild moved the unchanged prefix's constants over.
  EXPECT_TRUE(S.lastCheckInfo().Incremental);
  EXPECT_GT(S.lastCheckInfo().ConstantsReused, 0u);

  ASSERT_TRUE(S.pop());
  SolveResult Popped = S.check();
  EXPECT_EQ(fingerprint(Popped), fingerprint(Base));
  // Re-asserted earlier state hits the group cache even though the frame
  // stack churned: content keying, not frame keying.
  const SessionCheckInfo &Info = S.lastCheckInfo();
  EXPECT_EQ(Info.DirtyConstraints, 0u);
  EXPECT_EQ(Info.GroupsReused, Info.GroupsTotal);
  EXPECT_GE(Info.GroupsTotal, 1u);
}

TEST(SessionTest, PerCheckMaxSolutionsOverride) {
  SolverSession S;
  std::string Error;
  ASSERT_TRUE(S.assertText("var v1; var v2; v1 . v2 <= /xyyz|xyz/;", &Error))
      << Error;

  SessionCheckOptions One;
  One.MaxSolutions = 1;
  SolveResult FirstOnly = S.check(One);
  SolverOptions ColdOpts = S.options();
  ColdOpts.MaxSolutions = 1;
  EXPECT_EQ(fingerprint(FirstOnly),
            fingerprint(Solver(ColdOpts).solve(S.problem())));
  ASSERT_TRUE(FirstOnly.Satisfiable);
  EXPECT_EQ(FirstOnly.Assignments.size(), 1u);

  // Back to the session default: the full disjunction, still cold-equal.
  SolveResult All = S.check();
  EXPECT_EQ(fingerprint(All), fingerprint(coldSolve(S)));
  EXPECT_GT(All.Assignments.size(), 1u);

  // And the override again — keyed separately, so this splices.
  SolveResult Again = S.check(One);
  EXPECT_EQ(fingerprint(Again), fingerprint(FirstOnly));
  EXPECT_EQ(S.lastCheckInfo().GroupsReused, S.lastCheckInfo().GroupsTotal);
}

TEST(SessionTest, InvalidateForcesColdCheck) {
  SolverSession S;
  std::string Error;
  ASSERT_TRUE(S.assertText("var v; v <= /ab*/;", &Error)) << Error;
  SolveResult First = S.check();
  S.invalidate();
  SolveResult Second = S.check();
  EXPECT_FALSE(S.lastCheckInfo().Incremental);
  EXPECT_EQ(S.lastCheckInfo().GroupsReused, 0u);
  EXPECT_EQ(S.lastCheckInfo().FreeVarsReused, 0u);
  EXPECT_EQ(fingerprint(Second), fingerprint(First));
  EXPECT_EQ(fingerprint(Second), fingerprint(coldSolve(S)));
}

TEST(SessionTest, ParseFailureLeavesSessionUnchanged) {
  SolverSession S;
  std::string Error;
  ASSERT_TRUE(S.assertText("var v; v <= /a*/;", &Error)) << Error;
  std::string Before = S.problem().str();

  size_t ErrorLine = 0;
  EXPECT_FALSE(S.push("var w;\nw <= /(/;", &Error, &ErrorLine));
  EXPECT_EQ(S.depth(), 0u);
  EXPECT_EQ(ErrorLine, 2u);
  EXPECT_FALSE(Error.empty());
  EXPECT_EQ(S.problem().str(), Before);

  EXPECT_FALSE(S.assertText("nonsense", &Error, &ErrorLine));
  EXPECT_EQ(S.problem().str(), Before);

  // The session still works after rejected deltas.
  EXPECT_TRUE(S.check().Satisfiable);
  EXPECT_EQ(fingerprint(S.check()), fingerprint(coldSolve(S)));
}

TEST(SessionTest, FailedPushAfterDeclarationsRollsBack) {
  // Deltas parse straight into the session; one that fails after
  // declaring a variable or a let, on a syntax error or a budget trip,
  // must rewind both, leaving the problem and the next check
  // bit-identical and the names free again.
  SolverSession S;
  std::string Error;
  ASSERT_TRUE(S.assertText("var v; let k := /a+/; v <= k;", &Error)) << Error;
  ASSERT_TRUE(S.push("var u; u <= /b*/; u . v <= /b*a+/;", &Error)) << Error;
  const std::string Before = S.problem().str();
  const std::string Answer = fingerprint(S.check());

  size_t Line = 0;
  EXPECT_FALSE(S.push("var w; let m := /c/; w <= m;\nw <= /(/;", &Error,
                      &Line));
  EXPECT_EQ(Line, 2u);
  EXPECT_EQ(S.depth(), 1u);
  EXPECT_EQ(S.problem().str(), Before);
  // A redefinition fails without touching the binding it collides with.
  EXPECT_FALSE(S.assertText("let k := /z/;", &Error));
  EXPECT_EQ(S.problem().str(), Before);
  EXPECT_EQ(fingerprint(S.check()), Answer);

  {
    // The `~` determinizes far past 10 states while the let is parsed,
    // after `var w` was declared.
    ResourceLimits Limits;
    Limits.MaxStates = 10;
    ResourceBudget Budget(Limits);
    ResourceGuard Guard(&Budget);
    EXPECT_FALSE(S.push("var w; let m := /~((a|b)*a(a|b){6})/; w <= m;",
                        &Error, &Line));
    EXPECT_TRUE(Budget.exhausted());
    EXPECT_FALSE(S.assertText("var w; let m := /~((a|b)*a(a|b){6})/;",
                              &Error));
  }
  EXPECT_EQ(S.depth(), 1u);
  EXPECT_EQ(S.problem().str(), Before);
  EXPECT_EQ(fingerprint(S.check()), Answer);
  EXPECT_EQ(fingerprint(S.check()), fingerprint(coldSolve(S)));

  // The rejected names are free, the base let still resolves, and a
  // frame's own lets go with its pop.
  ASSERT_TRUE(
      S.push("var w; let m := /c/; w <= m; w . v <= /ca+/;", &Error))
      << Error;
  EXPECT_TRUE(S.pop());
  ASSERT_TRUE(S.push("let m := /d/; v <= k;", &Error)) << Error;
  EXPECT_TRUE(S.pop());
  EXPECT_EQ(S.problem().str(), Before);
  EXPECT_EQ(fingerprint(S.check()), Answer);
}

TEST(SessionTest, PopWithoutFrameFails) {
  SolverSession S;
  EXPECT_FALSE(S.pop());
  S.push();
  EXPECT_TRUE(S.pop());
  EXPECT_FALSE(S.pop());
}

TEST(SessionTest, BudgetExhaustedCheckRecovers) {
  // An instance whose enumeration materializes far more than 40 states.
  SolverSession S;
  std::string Error;
  ASSERT_TRUE(S.assertText(
      "var a; var b; a . b <= /(x|y)(x|y)(x|y)(x|y)(x|y)(x|y)/;", &Error))
      << Error;

  ResourceLimits Limits;
  Limits.MaxStates = 40;
  ResourceBudget Budget(Limits);
  SolveResult Exhausted = underBudget(Budget, [&] { return S.check(); });
  ASSERT_TRUE(Exhausted.Interrupted);
  EXPECT_TRUE(isResourceDimension(Budget.dimension()));
  EXPECT_FALSE(Exhausted.Satisfiable);
  EXPECT_TRUE(Exhausted.Assignments.empty());

  // The interrupted check poisoned no cache and dropped the retained
  // graph; an unbudgeted re-check completes and matches the cold solver.
  SolveResult Clean = S.check();
  EXPECT_TRUE(Clean.Satisfiable);
  EXPECT_FALSE(Clean.Interrupted);
  EXPECT_EQ(fingerprint(Clean), fingerprint(coldSolve(S)));
}

TEST(SessionTest, CancelledCheckRecovers) {
  SolverSession S;
  std::string Error;
  ASSERT_TRUE(S.assertText("var v; var w; v . w <= /ab|ba/;", &Error))
      << Error;

  ResourceBudget Budget;
  Budget.cancel();
  SolveResult Cancelled = underBudget(Budget, [&] { return S.check(); });
  EXPECT_TRUE(Cancelled.Interrupted);
  EXPECT_EQ(Budget.dimension(), BudgetDimension::Cancelled);
  EXPECT_FALSE(Cancelled.Satisfiable);

  SolveResult Clean = S.check();
  EXPECT_FALSE(Clean.Interrupted);
  EXPECT_EQ(fingerprint(Clean), fingerprint(coldSolve(S)));
}

TEST(SessionTest, ParallelCheckMatchesSerial) {
  using service::ThreadPool;
  SolverSession Serial;
  std::string Error;
  const char *Text = "var v1; var v2; v1 . v2 <= /xyyz|xyz/;"
                     "var u; var w; u . w <= /ab|ba/;";
  ASSERT_TRUE(Serial.assertText(Text, &Error)) << Error;
  SolveResult Reference = Serial.check();

  ThreadPool Pool(3);
  SolverOptions Par;
  Par.Jobs = 3;
  Par.Exec = &Pool;
  SolverSession S(Par);
  ASSERT_TRUE(S.assertText(Text, &Error)) << Error;
  SolveResult Cold = S.check();
  EXPECT_EQ(fingerprint(Cold), fingerprint(Reference));

  // Warm parallel re-check after a push/pop round trip.
  ASSERT_TRUE(S.push("v1 <= /xy*/;", &Error)) << Error;
  SolveResult Pushed = S.check();
  EXPECT_EQ(fingerprint(Pushed), fingerprint(coldSolve(S)));
  ASSERT_TRUE(S.pop());
  SolveResult Popped = S.check();
  EXPECT_EQ(fingerprint(Popped), fingerprint(Reference));
}

namespace {

/// Names of the children of the traced root span \p Root, in order.
std::vector<std::string> stageNames(const Json &Trace, const char *Root) {
  std::vector<std::string> Names;
  const Json &Spans = *Trace.find("spans");
  for (size_t I = 0; I != Spans.size(); ++I) {
    if (Spans.at(I).find("name")->asString() != Root)
      continue;
    if (const Json *Children = Spans.at(I).find("children"))
      for (size_t C = 0; C != Children->size(); ++C)
        Names.push_back(Children->at(C).find("name")->asString());
  }
  return Names;
}

} // namespace

TEST(SessionTest, FirstCheckTracesTheColdSolveStages) {
  // A session check runs the cold solver's pipeline, so the two span trees
  // carry the same stage names under their roots — the names the latency
  // ledger and docs/OBSERVABILITY.md read.
  const char *Text = "var x; var y; x . y <= /ab|ba/;"
                     "var u; var w; u . w <= /xy/; var f; f <= /a*/;";
  ConstraintParseResult Parsed = parseConstraintText(Text);
  ASSERT_TRUE(Parsed.Ok) << Parsed.Error;
  SolverSession S;
  std::string Error;
  ASSERT_TRUE(S.assertText(Text, &Error)) << Error;

  TraceCollector &TC = TraceCollector::global();
  TC.start();
  ASSERT_TRUE(Solver().solve(Parsed.Instance).Satisfiable);
  ASSERT_TRUE(S.check().Satisfiable);
  TC.stop();
  Json Trace = TC.toJson();

  std::vector<std::string> Expected = {"build_dependency_graph", "reduce",
                                       "gci_group", "gci_group", "assemble"};
  EXPECT_EQ(stageNames(Trace, "solve"), Expected);
  EXPECT_EQ(stageNames(Trace, "session_check"), Expected);
}

//===----------------------------------------------------------------------===//
// Incremental graph rebuild
//===----------------------------------------------------------------------===//

namespace {

void expectSameGraph(const DependencyGraph &A, const DependencyGraph &B,
                     const Problem &P) {
  ASSERT_EQ(A.numNodes(), B.numNodes());
  for (NodeId N = 0; N != A.numNodes(); ++N) {
    EXPECT_EQ(A.kind(N), B.kind(N)) << "node " << N;
    EXPECT_EQ(A.name(N), B.name(N)) << "node " << N;
    if (A.kind(N) == NodeKind::Constant) {
      EXPECT_EQ(A.constantLanguage(N).identity().encoding(),
                B.constantLanguage(N).identity().encoding())
          << "node " << N;
    }
  }
  for (VarId V = 0; V != P.numVariables(); ++V)
    EXPECT_EQ(A.nodeForVariable(V), B.nodeForVariable(V));
  ASSERT_EQ(A.concatEdges().size(), B.concatEdges().size());
  for (size_t I = 0; I != A.concatEdges().size(); ++I) {
    EXPECT_EQ(A.concatEdges()[I].Lhs, B.concatEdges()[I].Lhs);
    EXPECT_EQ(A.concatEdges()[I].Rhs, B.concatEdges()[I].Rhs);
    EXPECT_EQ(A.concatEdges()[I].Target, B.concatEdges()[I].Target);
  }
  ASSERT_EQ(A.subsetEdges().size(), B.subsetEdges().size());
  for (size_t I = 0; I != A.subsetEdges().size(); ++I) {
    EXPECT_EQ(A.subsetEdges()[I].From, B.subsetEdges()[I].From);
    EXPECT_EQ(A.subsetEdges()[I].To, B.subsetEdges()[I].To);
  }
  for (size_t I = 0; I != P.constraints().size(); ++I)
    EXPECT_EQ(A.constraintSpan(I), B.constraintSpan(I)) << "constraint " << I;
  EXPECT_EQ(A.ciGroups(), B.ciGroups());
}

} // namespace

TEST(SessionTest, IncrementalRebuildMatchesColdBuild) {
  Problem P;
  VarId X = P.addVariable("x");
  VarId Y = P.addVariable("y");
  P.addConstraint({P.var(X), P.var(Y)}, regexLanguage("ab|ba"));
  P.addConstraint({P.constant(regexLanguage("a")), P.var(Y)},
                  regexLanguage("a(a|b)*"));

  DependencyGraph Old = DependencyGraph::build(P);

  // Extend with a constraint that both reuses and adds nodes.
  VarId Z = P.addVariable("z");
  P.addConstraint({P.var(Z), P.var(X)}, regexLanguage("(a|b)*"));

  uint64_t Reused = 0;
  DependencyGraph Incremental = DependencyGraph::rebuild(
      P, /*CanonicalizeConstants=*/true, std::move(Old), /*StablePrefix=*/2,
      &Reused);
  DependencyGraph Cold = DependencyGraph::build(P);

  expectSameGraph(Incremental, Cold, P);
  // The two prefix constraints' constant machines (two RHS constants plus
  // one LHS constant term) moved over instead of being re-normalized.
  EXPECT_EQ(Reused, 3u);
}

TEST(SessionTest, RebuildFromEmptyPrefixMatchesColdBuild) {
  Problem P;
  VarId V = P.addVariable("v");
  P.addConstraint({P.var(V)}, regexLanguage("a*"));
  DependencyGraph Old = DependencyGraph::build(P);

  P.addConstraint({P.var(V), P.var(V)}, regexLanguage("(a|b)*"));
  uint64_t Reused = 0;
  DependencyGraph Incremental = DependencyGraph::rebuild(
      P, /*CanonicalizeConstants=*/true, std::move(Old), /*StablePrefix=*/0,
      &Reused);
  DependencyGraph Cold = DependencyGraph::build(P);
  expectSameGraph(Incremental, Cold, P);
  EXPECT_EQ(Reused, 0u);
}

//===----------------------------------------------------------------------===//
// Memoized minimization (the minimize.* satellite)
//===----------------------------------------------------------------------===//

TEST(SessionTest, MinimizedIsMemoizedByStructuralEncoding) {
  ASSERT_TRUE(minimizeCacheEnabled());
  clearMinimizeCache();
  MinimizeStats &Stats = MinimizeStats::global();
  uint64_t Hits0 = Stats.Hits.get();
  uint64_t Misses0 = Stats.Misses.get();

  Nfa M = regexLanguage("(a|b)*abb");
  Nfa First = minimized(M);
  EXPECT_EQ(Stats.Misses.get(), Misses0 + 1);
  EXPECT_EQ(Stats.Hits.get(), Hits0);

  Nfa Second = minimized(M);
  EXPECT_EQ(Stats.Hits.get(), Hits0 + 1);
  EXPECT_EQ(Second.identity().encoding(), First.identity().encoding());

  // A structurally identical but separately constructed machine hits too:
  // the key is content, not identity.
  Nfa Twin = regexLanguage("(a|b)*abb");
  Nfa Third = minimized(Twin);
  EXPECT_EQ(Stats.Hits.get(), Hits0 + 2);
  EXPECT_EQ(Third.identity().encoding(), First.identity().encoding());

  // Disabling the cache bypasses memoization but not correctness.
  setMinimizeCacheEnabled(false);
  Nfa Bypassed = minimized(M);
  EXPECT_EQ(Bypassed.identity().encoding(), First.identity().encoding());
  EXPECT_EQ(Stats.Hits.get(), Hits0 + 2);
  setMinimizeCacheEnabled(true);
}

//===----------------------------------------------------------------------===//
// Process-wide session.* counters
//===----------------------------------------------------------------------===//

TEST(SessionTest, WorkCountersFeedTheGlobalStats) {
  SessionStats &G = SessionStats::global();
  uint64_t Pushes0 = G.Pushes.get();
  uint64_t Pops0 = G.Pops.get();
  uint64_t Checks0 = G.Checks.get();
  uint64_t Groups0 = G.GroupsTotal.get();

  SolverSession S;
  std::string Error;
  ASSERT_TRUE(S.assertText("var a; var b; a . b <= /xy/;", &Error)) << Error;
  S.push();
  ASSERT_TRUE(S.check().Satisfiable);
  ASSERT_TRUE(S.pop());

  EXPECT_EQ(G.Pushes.get(), Pushes0 + 1);
  EXPECT_EQ(G.Pops.get(), Pops0 + 1);
  EXPECT_EQ(G.Checks.get(), Checks0 + 1);
  EXPECT_GT(G.GroupsTotal.get(), Groups0);
}
