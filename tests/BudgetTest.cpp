//===- BudgetTest.cpp - Resource-budget tests ---------------------------------//
//
// Covers support/Budget.h (docs/ROBUSTNESS.md): the charge/trip semantics
// of ResourceBudget, the ambient ResourceGuard, and the cooperative
// unwinding of every guarded kernel site — intersect, determinize, the
// decide searches, symbolic execution, and the full solver pipeline —
// including the disambiguation of resource exhaustion from cancellation
// and the decision-cache anti-poisoning rule.
//
//===----------------------------------------------------------------------===//

#include "support/Budget.h"

#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "miniphp/Cfg.h"
#include "miniphp/Parser.h"
#include "miniphp/SymExec.h"
#include "regex/RegexCompiler.h"
#include "regex/RegexParser.h"
#include "service/ThreadPool.h"
#include "solver/ConstraintParser.h"
#include "solver/Session.h"
#include "solver/Solver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>

using namespace dprle;

namespace {

Nfa machineFor(const std::string &Pattern) {
  RegexParseResult R = parseRegexExtended(Pattern);
  EXPECT_TRUE(R.ok()) << Pattern;
  return compileRegex(*R.Ast);
}

/// A machine whose determinization needs ~2^(N+1) macro states.
Nfa blowupMachine(unsigned N) {
  return machineFor("(a|b)*a(a|b){" + std::to_string(N) + "}");
}

ResourceLimits statesLimit(uint64_t Max) {
  ResourceLimits L;
  L.MaxStates = Max;
  return L;
}

/// Runs \p Fn with \p Budget as the calling thread's ambient budget.
template <typename F> auto underBudget(ResourceBudget &Budget, F Fn) {
  ResourceGuard Guard(&Budget);
  return Fn();
}

uint64_t counterValue(const char *Name) {
  for (const auto &[N, V] : StatsRegistry::global().snapshot())
    if (N == Name)
      return V;
  ADD_FAILURE() << "counter " << Name << " is not registered";
  return 0;
}

//===----------------------------------------------------------------------===//
// ResourceBudget / ResourceGuard unit semantics
//===----------------------------------------------------------------------===//

TEST(BudgetTest, ChargesAccumulateAndTripAboveTheLimit) {
  ResourceBudget B(statesLimit(10));
  B.chargeStates(10); // Exactly at the limit: still within budget.
  EXPECT_FALSE(B.exhausted());
  EXPECT_EQ(B.dimension(), BudgetDimension::None);
  EXPECT_EQ(B.describeExhaustion(), "");

  B.chargeStates(1); // One past: trips, stickily.
  EXPECT_TRUE(B.exhausted());
  EXPECT_EQ(B.dimension(), BudgetDimension::States);
  EXPECT_EQ(B.states(), 11u);
  EXPECT_NE(B.describeExhaustion().find("state budget"), std::string::npos);

  // Later charges on other dimensions do not change the first breach.
  B.chargeTransitions(1);
  EXPECT_EQ(B.dimension(), BudgetDimension::States);
}

TEST(BudgetTest, EachDimensionTripsIndependently) {
  {
    ResourceLimits L;
    L.MaxTransitions = 3;
    ResourceBudget B(L);
    B.chargeTransitions(4);
    EXPECT_EQ(B.dimension(), BudgetDimension::Transitions);
  }
  {
    ResourceLimits L;
    L.MaxMemoryBytes = 100;
    ResourceBudget B(L);
    B.chargeMemory(101);
    EXPECT_EQ(B.dimension(), BudgetDimension::Memory);
  }
  {
    ResourceLimits L;
    L.MaxStatesPerMachine = 4;
    ResourceBudget B(L);
    B.noteMachineStates(4); // At the limit: fine (does not accumulate).
    EXPECT_FALSE(B.exhausted());
    B.noteMachineStates(5);
    EXPECT_EQ(B.dimension(), BudgetDimension::MachineStates);
  }
}

TEST(BudgetTest, StateChargesCountTowardTheMemoryEstimate) {
  ResourceLimits L;
  L.MaxMemoryBytes = 10 * ResourceBudget::BytesPerState;
  ResourceBudget B(L);
  B.chargeStates(11);
  EXPECT_EQ(B.dimension(), BudgetDimension::Memory);
}

TEST(BudgetTest, GuardInstallsRestoresAndNests) {
  EXPECT_EQ(ResourceGuard::current(), nullptr);
  // No ambient budget: charges are no-ops that report "within budget".
  EXPECT_TRUE(ResourceGuard::chargeStates(1000));
  EXPECT_FALSE(ResourceGuard::exhausted());

  ResourceBudget B(statesLimit(5));
  {
    ResourceGuard Guard(&B);
    EXPECT_EQ(ResourceGuard::current(), &B);
    {
      // Installing nullptr suspends governance for the scope.
      ResourceGuard Suspend(nullptr);
      EXPECT_EQ(ResourceGuard::current(), nullptr);
      EXPECT_TRUE(ResourceGuard::chargeStates(1000));
    }
    EXPECT_EQ(ResourceGuard::current(), &B);
    EXPECT_FALSE(ResourceGuard::chargeStates(6)); // Trips.
    EXPECT_TRUE(ResourceGuard::exhausted());
  }
  EXPECT_EQ(ResourceGuard::current(), nullptr);
  EXPECT_FALSE(ResourceGuard::exhausted()); // Ambient again ungoverned.
  EXPECT_TRUE(B.exhausted());               // The budget itself stays tripped.
}

TEST(BudgetTest, ChargesFeedTheGlobalCounters) {
  uint64_t Before = counterValue("budget.states_charged");
  ResourceBudget B; // Unlimited.
  B.chargeStates(7);
  uint64_t After = counterValue("budget.states_charged");
  EXPECT_GE(After - Before, 7u);
}

TEST(BudgetTest, CancelAndDeadlineAreStopSignalsNotResources) {
  uint64_t ExhaustedBefore = counterValue("budget.exhausted_total");
  ResourceBudget Cancelled;
  EXPECT_FALSE(Cancelled.exhausted());
  Cancelled.cancel();
  EXPECT_TRUE(Cancelled.exhausted());
  EXPECT_EQ(Cancelled.dimension(), BudgetDimension::Cancelled);
  EXPECT_FALSE(isResourceDimension(Cancelled.dimension()));

  ResourceBudget Expired;
  Expired.armDeadlineAfterMs(0); // Already passed: trips on arming.
  EXPECT_TRUE(Expired.exhausted());
  EXPECT_EQ(Expired.dimension(), BudgetDimension::Deadline);
  // Neither stop signal counts as budget exhaustion.
  EXPECT_EQ(counterValue("budget.exhausted_total"), ExhaustedBefore);

  // A distant deadline never trips, however often it is polled.
  ResourceBudget Distant;
  Distant.armDeadlineAfterMs(60 * 60 * 1000);
  for (unsigned I = 0; I != 4 * ResourceBudget::PollsPerClockRead; ++I)
    EXPECT_FALSE(Distant.exhausted());
  EXPECT_EQ(Distant.dimension(), BudgetDimension::None);

  // Deadlines past the clock's range never pass (they used to overflow
  // into the past and time the request out at once).
  for (uint64_t Ms : {uint64_t(10000000000000), UINT64_MAX}) {
    ResourceBudget Huge;
    Huge.armDeadlineAfterMs(Ms);
    EXPECT_FALSE(Huge.exhausted()) << Ms;
    EXPECT_EQ(Huge.dimension(), BudgetDimension::None) << Ms;
  }
}

TEST(BudgetTest, DeadlineWinsOverExhaustionInTheTieBreak) {
  ResourceBudget Budget(statesLimit(1));
  Budget.chargeStates(2);
  EXPECT_EQ(Budget.dimension(), BudgetDimension::States);
  // A deadline that passes after the resource trip is reported over it,
  // and a later resource trip or cancel displaces neither.
  Budget.armDeadline(std::chrono::steady_clock::now());
  EXPECT_EQ(Budget.dimension(), BudgetDimension::Deadline);
  Budget.cancel();
  Budget.chargeMemory(uint64_t(1) << 40);
  EXPECT_EQ(Budget.dimension(), BudgetDimension::Deadline);
}

TEST(BudgetTest, DeadlineStopsAKernelMidConstruction) {
  // Determinizing (a|b)*a(a|b){20} needs ~2^21 macro states, seconds of
  // work; the kernel polls the ambient budget, so a 50 ms deadline stops
  // it long before that.
  Nfa Blowup = blowupMachine(20);
  ResourceBudget Budget;
  Budget.armDeadlineAfterMs(50);
  auto Start = std::chrono::steady_clock::now();
  underBudget(Budget, [&] { return determinize(Blowup); });
  auto Elapsed = std::chrono::steady_clock::now() - Start;
  EXPECT_EQ(Budget.dimension(), BudgetDimension::Deadline);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(Elapsed)
                .count(),
            1000);
}

TEST(BudgetTest, ParallelForCarriesTheCallersBudgetIntoHelpers) {
  // Every body, on whichever pool thread runs it, sees the caller's
  // ambient budget without installing it; a trip inside a helper is then
  // the caller's trip.
  service::ThreadPool Pool(4);
  ResourceBudget Budget(statesLimit(1000));
  std::atomic<unsigned> SawBudget{0};
  std::mutex Mutex;
  std::set<std::thread::id> Threads;
  {
    ResourceGuard Guard(&Budget);
    Pool.parallelFor(64, [&](size_t I) {
      if (ResourceGuard::current() == &Budget)
        ++SawBudget;
      {
        std::lock_guard<std::mutex> Lock(Mutex);
        Threads.insert(std::this_thread::get_id());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (I == 63)
        ResourceGuard::chargeStates(2000);
    });
    EXPECT_TRUE(ResourceGuard::exhausted());
  }
  EXPECT_EQ(SawBudget.load(), 64u);
  EXPECT_GT(Threads.size(), 1u); // Helpers really ran bodies.
  EXPECT_EQ(Budget.dimension(), BudgetDimension::States);
  // Pool workers drop the budget when their body is done.
  Pool.parallelFor(8, [&](size_t) {
    EXPECT_EQ(ResourceGuard::current(), nullptr);
  });
}

//===----------------------------------------------------------------------===//
// Guarded kernel sites unwind cooperatively
//===----------------------------------------------------------------------===//

TEST(BudgetTest, IntersectUnwindsUnderStateBudget) {
  Nfa A = machineFor("(a|b){10}");
  Nfa B = blowupMachine(5);
  Nfa Full = intersect(A, B); // Ungoverned reference.
  ASSERT_GT(Full.numStates(), 8u);

  ResourceBudget Budget(statesLimit(8));
  ResourceGuard Guard(&Budget);
  Nfa Truncated = intersect(A, B);
  EXPECT_TRUE(Budget.exhausted());
  EXPECT_EQ(Budget.dimension(), BudgetDimension::States);
  EXPECT_LT(Truncated.numStates(), Full.numStates());
}

TEST(BudgetTest, IntersectTripsThePerMachineLimit) {
  ResourceLimits L;
  L.MaxStatesPerMachine = 8;
  ResourceBudget Budget(L);
  ResourceGuard Guard(&Budget);
  (void)intersect(machineFor("(a|b){10}"), blowupMachine(5));
  EXPECT_TRUE(Budget.exhausted());
  EXPECT_EQ(Budget.dimension(), BudgetDimension::MachineStates);
}

TEST(BudgetTest, DeterminizeUnwindsToANonAcceptingSink) {
  Nfa M = blowupMachine(8); // ~2^9 macro states ungoverned.
  ResourceBudget Budget(statesLimit(16));
  ResourceGuard Guard(&Budget);
  Dfa D = determinize(M);
  EXPECT_TRUE(Budget.exhausted());
  // The truncated result is a well-formed complete DFA accepting nothing —
  // never a table with invalid rows.
  EXPECT_EQ(D.numStates(), 1u);
  EXPECT_TRUE(D.languageIsEmpty());
  EXPECT_FALSE(D.accepts("aaaaaaaaaa"));
}

TEST(BudgetTest, DecideQueriesUnwindWithoutPoisoningTheCache) {
  // L(A) is NOT a subset of L(B). The antichain search reports "subset"
  // when it unwinds before finding the counterexample, so a poisoned
  // cache would keep answering wrongly forever.
  Nfa A = machineFor("aaaa");
  Nfa B = machineFor("b*");

  ResourceLimits L;
  L.MaxMemoryBytes = 1;
  ResourceBudget Budget(L);
  Budget.chargeMemory(2); // Pre-tripped: the query unwinds immediately.
  {
    ResourceGuard Guard(&Budget);
    (void)subsetOf(A, B);
    (void)emptyIntersection(A, B);
    EXPECT_TRUE(Budget.exhausted());
  }

  // Ungoverned re-query computes fresh, correct answers: the truncated
  // results were not stored.
  EXPECT_FALSE(subsetOf(A, B));
  EXPECT_FALSE(emptyIntersection(A, A));
}

TEST(BudgetTest, SymExecReportsExhaustionWithTruncatedPaths) {
  const char *Source = R"php(<?php
$id = $_POST['id'];
$q = query("SELECT * FROM t WHERE id=" . $id);
?>)php";
  miniphp::ParseResult R = miniphp::parseProgram(Source);
  ASSERT_TRUE(R.Ok);
  miniphp::Cfg G = miniphp::Cfg::build(R.Prog);

  ResourceLimits L;
  L.MaxMemoryBytes = 1;
  ResourceBudget Budget(L);
  Budget.chargeMemory(2); // Pre-tripped.
  miniphp::SymExecResult SR = underBudget(Budget, [&] {
    return miniphp::runSymExec(R.Prog, G, miniphp::AttackSpec::sqlQuote());
  });
  EXPECT_TRUE(SR.Interrupted);
  EXPECT_TRUE(SR.Paths.empty());

  // Ungoverned, the same program yields its sink path.
  miniphp::SymExecResult Full =
      miniphp::runSymExec(R.Prog, G, miniphp::AttackSpec::sqlQuote());
  EXPECT_FALSE(Full.Interrupted);
  EXPECT_EQ(Full.Paths.size(), 1u);
}

TEST(BudgetTest, SymExecConditionMemoIsNotPoisonedByATrippedBudget) {
  // The else branch needs the complement of a ~2^11-state language; a
  // 200-state budget trips while it is built. The condition-language memo
  // must not keep that truncated machine for later, ungoverned runs.
  const char *Source = R"php(<?php
$x = $_POST['x'];
if (preg_match('/^(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)$/', $x)) {
  exit;
} else {
  $q = query("SELECT * FROM t WHERE id=" . $x);
}
?>)php";
  miniphp::ParseResult R = miniphp::parseProgram(Source);
  ASSERT_TRUE(R.Ok);
  miniphp::Cfg G = miniphp::Cfg::build(R.Prog);
  // "a" then ten symbols: matches the pattern, so it takes the then
  // branch and must be outside the else branch's condition language.
  const std::string ThenInput = "abbbbbbbbbb";
  auto ElseMachinesOfX = [&](const miniphp::SymExecResult &SR) {
    std::vector<Nfa> Out;
    for (const miniphp::PathCondition &PC : SR.Paths)
      for (const Constraint &C : PC.Instance.constraints())
        if (C.Lhs.size() == 1 && C.Lhs[0].isVariable())
          Out.push_back(C.Rhs);
    return Out;
  };

  {
    ResourceBudget Budget(statesLimit(200));
    underBudget(Budget, [&] {
      return miniphp::runSymExec(R.Prog, G, miniphp::AttackSpec::sqlQuote());
    });
    ASSERT_TRUE(Budget.exhausted());
  }
  miniphp::SymExecResult Same =
      miniphp::runSymExec(R.Prog, G, miniphp::AttackSpec::sqlQuote());
  miniphp::SymExecResult Fresh;
  std::thread([&] {
    Fresh = miniphp::runSymExec(R.Prog, G, miniphp::AttackSpec::sqlQuote());
  }).join();

  std::vector<Nfa> SameX = ElseMachinesOfX(Same);
  std::vector<Nfa> FreshX = ElseMachinesOfX(Fresh);
  ASSERT_FALSE(FreshX.empty());
  ASSERT_EQ(SameX.size(), FreshX.size());
  for (size_t I = 0; I != SameX.size(); ++I) {
    EXPECT_FALSE(SameX[I].accepts(ThenInput));
    EXPECT_EQ(SameX[I].numStates(), FreshX[I].numStates());
    EXPECT_EQ(SameX[I].identity().hash(), FreshX[I].identity().hash());
  }
}

//===----------------------------------------------------------------------===//
// Solver pipeline: exhaustion vs cancellation vs unsat
//===----------------------------------------------------------------------===//

TEST(BudgetTest, SolverReportsResourceExhaustedNotUnsat) {
  // Small operands, exploding construction: the complement of the RHS
  // determinizes to ~2^11 states, far past the 200-state budget.
  ConstraintParseResult Parsed = parseConstraintText(
      "var v; var w; v . w <= /(a|b)*a(a|b){10}/;");
  ASSERT_TRUE(Parsed.Ok) << Parsed.Error;

  ResourceBudget Budget(statesLimit(200));
  SolveResult R =
      underBudget(Budget, [&] { return Solver().solve(Parsed.Instance); });
  EXPECT_TRUE(R.Interrupted);
  EXPECT_TRUE(isResourceDimension(Budget.dimension()));
  // Satisfiable=false here means "abandoned", not a proof — the flag is
  // what tells the two apart.
  EXPECT_FALSE(R.Satisfiable);
}

TEST(BudgetTest, CancellationWinsOverExhaustionInTheTieBreak) {
  ConstraintParseResult Parsed =
      parseConstraintText("var v; v <= /a*/;");
  ASSERT_TRUE(Parsed.Ok);

  ResourceBudget Budget(statesLimit(1));
  Budget.chargeStates(2); // Both conditions hold before the solve starts.
  Budget.cancel();
  SolveResult R =
      underBudget(Budget, [&] { return Solver().solve(Parsed.Instance); });
  EXPECT_TRUE(R.Interrupted);
  EXPECT_EQ(Budget.dimension(), BudgetDimension::Cancelled);
}

TEST(BudgetTest, GenerousBudgetLeavesTheSolveUntouched) {
  ConstraintParseResult Parsed = parseConstraintText(
      "var v1; v1 <= /ab*/; \"x\" . v1 <= /xab*/;");
  ASSERT_TRUE(Parsed.Ok);

  SolveResult Reference = Solver().solve(Parsed.Instance);
  ASSERT_TRUE(Reference.Satisfiable);

  ResourceLimits L;
  L.MaxStates = 1 << 20;
  L.MaxTransitions = 1 << 20;
  L.MaxMemoryBytes = uint64_t(1) << 30;
  ResourceBudget Budget(L);
  SolveResult R =
      underBudget(Budget, [&] { return Solver().solve(Parsed.Instance); });
  EXPECT_FALSE(R.Interrupted);
  EXPECT_TRUE(R.Satisfiable);
  EXPECT_EQ(R.Assignments.size(), Reference.Assignments.size());
  EXPECT_GT(Budget.states(), 0u); // The kernels really were charging it.
}

TEST(BudgetTest, ExhaustionLeavesNoResidueForTheNextSolve) {
  ConstraintParseResult Pathological = parseConstraintText(
      "var v; var w; v . w <= /(a|b)*a(a|b){10}/;");
  ASSERT_TRUE(Pathological.Ok);
  ConstraintParseResult Small =
      parseConstraintText("var v1; v1 <= /ab*/; \"x\" . v1 <= /xab*/;");
  ASSERT_TRUE(Small.Ok);

  {
    ResourceBudget Budget(statesLimit(200));
    ASSERT_TRUE(underBudget(Budget, [&] {
                  return Solver().solve(Pathological.Instance);
                }).Interrupted);
  }
  // The ambient guard was restored and no truncated answer was cached:
  // a fresh, ungoverned solve on the same thread behaves normally.
  EXPECT_EQ(ResourceGuard::current(), nullptr);
  SolveResult After = Solver().solve(Small.Instance);
  EXPECT_TRUE(After.Satisfiable);
  EXPECT_FALSE(After.Interrupted);
}

TEST(BudgetTest, ParallelCanonicalizationTripReportsExhaustedAndCachesNothing) {
  // At jobs=4 the graph build canonicalizes constants on pool workers; a
  // state budget that trips there must surface as resource_exhausted, and
  // no machine minimized under the tripped budget may reach the minimize
  // cache. Every constant needs more than 100 DFA states, so with the
  // budget carried onto the workers no minimization completes.
  std::string Text = "var v, w, x;";
  for (unsigned N = 6; N != 10; ++N)
    Text += "v . w <= /(a|b)*a(a|b){" + std::to_string(N) + "}/;"
            "x <= /(a|b)*b(a|b){" + std::to_string(N) + "}/;";
  ConstraintParseResult Parsed = parseConstraintText(Text);
  ASSERT_TRUE(Parsed.Ok) << Parsed.Error;
  const Problem &P = Parsed.Instance;

  clearMinimizeCache();
  service::ThreadPool Pool(4);
  ResourceBudget Budget(statesLimit(100));
  SolverOptions Opts;
  Opts.Jobs = 4;
  Opts.Exec = &Pool;
  SolveResult R = underBudget(Budget, [&] { return Solver(Opts).solve(P); });
  EXPECT_TRUE(R.Interrupted);
  EXPECT_TRUE(isResourceDimension(Budget.dimension()));
  EXPECT_FALSE(R.Satisfiable);
  Pool.waitIdle();

  EXPECT_EQ(minimizeCacheSize(), 0u);
  // Later, unbudgeted callers get the true minimal machines.
  for (const Constraint &C : P.constraints()) {
    Nfa Cached = minimized(C.Rhs);
    setMinimizeCacheEnabled(false);
    Nfa Fresh = minimized(C.Rhs);
    setMinimizeCacheEnabled(true);
    EXPECT_EQ(Cached.identity().encoding(), Fresh.identity().encoding());
  }
}

TEST(BudgetTest, ParallelSessionRebuildTripReportsExhaustedAndCachesNothing) {
  // The session twin of the test above: at jobs=4 an incremental rebuild
  // canonicalizes a pushed delta's constants on pool workers. A state
  // budget that trips there must surface as resource_exhausted, leave no
  // truncated machine in the minimize cache, and drop the retained graph,
  // so the next check is cold and equals the cold solve.
  service::ThreadPool Pool(4);
  SolverOptions Opts;
  Opts.Jobs = 4;
  Opts.Exec = &Pool;
  SolverSession S(Opts);
  std::string Error;
  ASSERT_TRUE(S.assertText("var v, w, x; v . w <= /ab|ba/; x <= /a*/;",
                           &Error))
      << Error;
  ASSERT_TRUE(S.check().Satisfiable);

  std::string Delta;
  for (unsigned N = 6; N != 10; ++N)
    Delta += "v . w <= /(a|b)*a(a|b){" + std::to_string(N) + "}/;"
             "x <= /(a|b)*b(a|b){" + std::to_string(N) + "}/;";
  ASSERT_TRUE(S.push(Delta, &Error)) << Error;

  clearMinimizeCache();
  ResourceBudget Budget(statesLimit(100));
  SolveResult R = underBudget(Budget, [&] { return S.check(); });
  EXPECT_TRUE(S.lastCheckInfo().Incremental);
  EXPECT_TRUE(R.Interrupted);
  EXPECT_TRUE(isResourceDimension(Budget.dimension()));
  EXPECT_FALSE(R.Satisfiable);
  Pool.waitIdle();
  EXPECT_EQ(minimizeCacheSize(), 0u);

  SolveResult Next = S.check();
  EXPECT_FALSE(S.lastCheckInfo().Incremental);
  SolveResult Cold = Solver().solve(S.problem());
  EXPECT_FALSE(Next.Interrupted);
  EXPECT_EQ(Next.Satisfiable, Cold.Satisfiable);
  ASSERT_EQ(Next.Assignments.size(), Cold.Assignments.size());
  for (size_t A = 0; A != Cold.Assignments.size(); ++A)
    for (VarId V = 0; V != S.problem().numVariables(); ++V)
      EXPECT_EQ(Next.Assignments[A].language(V).identity().encoding(),
                Cold.Assignments[A].language(V).identity().encoding())
          << "assignment " << A << ", variable " << V;
}

} // namespace
