//===- FuzzDifferentialTest.cpp - Seeded differential fuzz smoke ----------===//
//
// Deterministic differential fuzzing of the two trusted-computing-base
// layers against independent oracles, on small random inputs over the
// alphabet {a, b}:
//
//   * Regex layer (250 cases): the compiled NFA's accepts() must agree
//     with the direct backtracking matcher (regex/Matcher.h) — two
//     implementations of regex semantics that share no code — on every
//     string of length <= 5, for both whole-string and substring
//     (searchLanguage) matching.
//
//   * Solver layer (250 cases): on random constraint systems,
//     (a) witness strings extracted from every reported assignment must
//     concretely satisfy every all-variable constraint by direct NFA
//     acceptance, (b) constraints are re-checked at the automata level
//     with subsetOf, and (c) if brute-force enumeration of short
//     string tuples finds a satisfying point, the solver must have
//     reported SAT (UNSAT soundness).
//
//   * Graph build (250 cases): on the same systems, the dependency graph
//     built with a 4-thread pool (constants canonicalized concurrently)
//     equals the serial build node for node.
//
// Every case is seeded through the gtest parameter, so a failure report
// names the exact reproducing seed and the sweep is bit-stable across
// runs — a smoke-level fuzz harness that rides in the regular ctest
// suite (see docs/TESTING guidance in ROADMAP.md).
//
//===----------------------------------------------------------------------===//

#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "regex/Matcher.h"
#include "regex/RegexCompiler.h"
#include "regex/RegexParser.h"
#include "service/ThreadPool.h"
#include "solver/DependencyGraph.h"
#include "solver/Solver.h"

#include <gtest/gtest.h>

#include <functional>
#include <random>

using namespace dprle;

namespace {

/// Random pattern over {a, b} in the core dialect (no extended operators:
/// the matcher oracle implements the core semantics).
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

/// Every string over {a, b} up to \p MaxLen, shortest first.
std::vector<std::string> shortStrings(size_t MaxLen) {
  std::vector<std::string> Universe = {""};
  for (size_t I = 0; I < Universe.size() && Universe[I].size() < MaxLen; ++I) {
    Universe.push_back(Universe[I] + "a");
    Universe.push_back(Universe[I] + "b");
  }
  return Universe;
}

class RegexDifferentialTest : public ::testing::TestWithParam<unsigned> {};
class SolverDifferentialTest : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(RegexDifferentialTest, NfaAgreesWithBacktrackingMatcher) {
  std::mt19937 Rng(GetParam() * 2654435761u + 97);
  std::string Pattern = randomPattern(Rng, 4);
  RegexParseResult Parsed = parseRegex(Pattern);
  ASSERT_TRUE(Parsed.ok()) << "seed " << GetParam() << ": /" << Pattern
                           << "/ failed to parse: " << Parsed.Error;
  Nfa Whole = compileRegex(*Parsed.Ast);
  Nfa Search = searchLanguage(Pattern);
  for (const std::string &W : shortStrings(5)) {
    EXPECT_EQ(Whole.accepts(W), matchesWholeString(*Parsed.Ast, W))
        << "seed " << GetParam() << ": /" << Pattern << "/ vs \"" << W
        << "\" (whole-string)";
    EXPECT_EQ(Search.accepts(W), matchesSomewhere(*Parsed.Ast, W))
        << "seed " << GetParam() << ": /" << Pattern << "/ vs \"" << W
        << "\" (substring)";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRegexes, RegexDifferentialTest,
                         ::testing::Range(1u, 251u));

namespace {

/// A reproducible random RMA instance over {a, b} (same shape as
/// PropertyTest's generator, but with its own seed stream so the two
/// sweeps explore different systems).
struct RandomSystem {
  Problem Instance;
  bool HasConstantTerms = false;
};

RandomSystem makeSystem(unsigned Seed) {
  std::mt19937 Rng(Seed * 48271u + 12345);
  std::uniform_int_distribution<int> VarCount(1, 3);
  std::uniform_int_distribution<int> ConstraintCount(1, 3);
  std::uniform_int_distribution<int> TermCount(1, 3);
  std::uniform_int_distribution<int> Percent(0, 99);

  RandomSystem Sys;
  unsigned NumVars = VarCount(Rng);
  for (unsigned V = 0; V != NumVars; ++V)
    Sys.Instance.addVariable("v" + std::to_string(V));

  unsigned NumConstraints = ConstraintCount(Rng);
  for (unsigned C = 0; C != NumConstraints; ++C) {
    std::vector<Term> Lhs;
    unsigned Terms = TermCount(Rng);
    for (unsigned T = 0; T != Terms; ++T) {
      if (Percent(Rng) < 75) {
        Lhs.push_back(Sys.Instance.var(
            std::uniform_int_distribution<unsigned>(0, NumVars - 1)(Rng)));
      } else {
        Lhs.push_back(
            Sys.Instance.constant(regexLanguage(randomPattern(Rng, 1))));
        Sys.HasConstantTerms = true;
      }
    }
    Sys.Instance.addConstraint(std::move(Lhs),
                               regexLanguage(randomPattern(Rng, 3)));
  }
  return Sys;
}

/// True when the concrete tuple (one string per variable) satisfies every
/// all-variable constraint by direct NFA acceptance of the concatenation.
/// Constraints with constant terms are skipped (their LHS denotes a
/// language, not a string) — the caller covers them at the automata level.
bool tupleSatisfiesVariableConstraints(
    const Problem &P, const std::vector<std::string> &Tuple) {
  for (const Constraint &C : P.constraints()) {
    std::string Whole;
    bool AllVars = true;
    for (const Term &T : C.Lhs) {
      if (!T.isVariable()) {
        AllVars = false;
        break;
      }
      Whole += Tuple[T.Var];
    }
    if (AllVars && !C.Rhs.accepts(Whole))
      return false;
  }
  return true;
}

} // namespace

TEST_P(SolverDifferentialTest, WitnessesAndVerdictMatchBruteForce) {
  RandomSystem Sys = makeSystem(GetParam());
  const Problem &P = Sys.Instance;
  SolveResult R = Solver().solve(P);

  // (a) + (b): every reported assignment, concretely and symbolically.
  for (const Assignment &A : R.Assignments) {
    std::vector<std::string> Witnesses(P.numVariables());
    for (VarId V = 0; V != P.numVariables(); ++V) {
      auto W = A.witness(V);
      ASSERT_TRUE(W.has_value())
          << "seed " << GetParam() << ": empty language for v" << V << "\n"
          << P.str();
      Witnesses[V] = *W;
    }
    EXPECT_TRUE(tupleSatisfiesVariableConstraints(P, Witnesses))
        << "seed " << GetParam() << ": witness tuple fails a constraint\n"
        << P.str();
    for (const Constraint &C : P.constraints()) {
      Nfa Lhs = Nfa::epsilonLanguage();
      for (const Term &T : C.Lhs)
        Lhs = concat(Lhs, T.isVariable() ? A.language(T.Var) : T.Language);
      EXPECT_TRUE(subsetOf(Lhs, C.Rhs))
          << "seed " << GetParam() << ": assignment violates a constraint\n"
          << P.str();
    }
  }

  // (c) UNSAT soundness: brute force over short tuples. Systems with
  // constant terms are not point-enumerable this way; the automata-level
  // checks above still fully apply to them.
  if (Sys.HasConstantTerms)
    return;
  std::vector<std::string> Universe = shortStrings(3);
  std::vector<std::string> Tuple(P.numVariables());
  bool FoundSatisfying = false;
  std::function<void(unsigned)> Rec = [&](unsigned V) {
    if (FoundSatisfying)
      return;
    if (V == P.numVariables()) {
      FoundSatisfying = tupleSatisfiesVariableConstraints(P, Tuple);
      return;
    }
    for (const std::string &S : Universe) {
      Tuple[V] = S;
      Rec(V + 1);
    }
  };
  Rec(0);
  if (FoundSatisfying) {
    EXPECT_TRUE(R.Satisfiable)
        << "seed " << GetParam()
        << ": solver reported UNSAT but a short satisfying tuple exists\n"
        << P.str();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, SolverDifferentialTest,
                         ::testing::Range(1u, 251u));

namespace {

class ParallelCanonicalizationTest
    : public ::testing::TestWithParam<unsigned> {};

/// The pool every parameter shares (constructing one per case would
/// dominate the sweep).
service::ThreadPool &sharedPool() {
  static service::ThreadPool Pool(4);
  return Pool;
}

} // namespace

TEST_P(ParallelCanonicalizationTest, PoolBuildEqualsSerialBuild) {
  // The graph build normalizes constants concurrently when given an
  // executor; the graph must be the serial build's, node for node. The
  // minimize cache is cleared before each build so both really minimize.
  const Problem P = makeSystem(GetParam()).Instance;
  for (bool Canonicalize : {true, false}) {
    clearMinimizeCache();
    DependencyGraph Serial = DependencyGraph::build(P, Canonicalize);
    clearMinimizeCache();
    DependencyGraph Parallel =
        DependencyGraph::build(P, Canonicalize, &sharedPool());
    ASSERT_EQ(Parallel.numNodes(), Serial.numNodes());
    for (NodeId N = 0; N != Serial.numNodes(); ++N) {
      ASSERT_EQ(Parallel.kind(N), Serial.kind(N)) << N;
      EXPECT_EQ(Parallel.name(N), Serial.name(N)) << N;
      if (Serial.kind(N) == NodeKind::Variable) {
        EXPECT_EQ(Parallel.variable(N), Serial.variable(N)) << N;
      }
      if (Serial.kind(N) == NodeKind::Constant) {
        EXPECT_EQ(Parallel.constantLanguage(N).identity().hash(),
                  Serial.constantLanguage(N).identity().hash())
            << "seed " << GetParam() << " node " << N;
      }
    }
    ASSERT_EQ(Parallel.concatEdges().size(), Serial.concatEdges().size());
    for (size_t I = 0; I != Serial.concatEdges().size(); ++I) {
      const ConcatEdge &A = Parallel.concatEdges()[I];
      const ConcatEdge &B = Serial.concatEdges()[I];
      EXPECT_TRUE(A.Lhs == B.Lhs && A.Rhs == B.Rhs && A.Target == B.Target);
    }
    ASSERT_EQ(Parallel.subsetEdges().size(), Serial.subsetEdges().size());
    for (size_t I = 0; I != Serial.subsetEdges().size(); ++I) {
      EXPECT_EQ(Parallel.subsetEdges()[I].From, Serial.subsetEdges()[I].From);
      EXPECT_EQ(Parallel.subsetEdges()[I].To, Serial.subsetEdges()[I].To);
    }
    for (size_t I = 0; I != P.constraints().size(); ++I)
      EXPECT_EQ(Parallel.constraintSpan(I), Serial.constraintSpan(I));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, ParallelCanonicalizationTest,
                         ::testing::Range(1u, 251u));
