//===- PropertyTest.cpp - Randomized cross-validation of the solver -------===//
//
// Parameterized property sweeps validating the decision procedure against
// first principles on randomly generated small systems over {a, b}:
//
//   * Soundness: every reported assignment satisfies every constraint
//     (checked with decidable automata inclusions — no sampling).
//   * Completeness (the paper's "All Solutions" condition, lifted to
//     RMA): every point tuple (w1..wk) of strings that satisfies all
//     constraints must be covered by some reported assignment.
//   * UNSAT soundness: if the solver reports no assignment, no point
//     tuple exists (up to the enumeration bound).
//   * Maximality: no variable's language can be extended by any short
//     string without breaking a constraint.
//
//===----------------------------------------------------------------------===//

#include "automata/NfaOps.h"
#include "automata/Decide.h"
#include "regex/RegexCompiler.h"
#include "regex/RegexParser.h"
#include "solver/Solver.h"

#include <gtest/gtest.h>

#include <functional>
#include <random>

using namespace dprle;

namespace {

/// A reproducible random RMA instance over the alphabet {a, b}.
struct RandomSystem {
  Problem Instance;
  std::vector<Nfa> ConstraintRhs; // parallel to Instance.constraints()
};

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

RandomSystem makeSystem(unsigned Seed) {
  std::mt19937 Rng(Seed);
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
      if (Percent(Rng) < 70) {
        Lhs.push_back(Sys.Instance.var(
            std::uniform_int_distribution<unsigned>(0, NumVars - 1)(Rng)));
      } else {
        Lhs.push_back(Sys.Instance.constant(
            regexLanguage(randomPattern(Rng, 1))));
      }
    }
    Nfa Rhs = regexLanguage(randomPattern(Rng, 3));
    Sys.ConstraintRhs.push_back(Rhs);
    Sys.Instance.addConstraint(std::move(Lhs), std::move(Rhs));
  }
  return Sys;
}

/// The language of one constraint's LHS under \p A.
Nfa lhsLanguage(const Problem &P, const Constraint &C, const Assignment &A) {
  Nfa Out = Nfa::epsilonLanguage();
  for (const Term &T : C.Lhs)
    Out = concat(Out, T.isVariable() ? A.language(T.Var) : T.Language);
  (void)P;
  return Out;
}

/// Enumerates point tuples over the variables (strings up to MaxLen drawn
/// from {a,b}*) and invokes Check on each satisfying tuple. Returns the
/// number of satisfying tuples found.
unsigned forEachSatisfyingTuple(
    const Problem &P, size_t MaxLen,
    const std::function<void(const std::vector<std::string> &)> &Check) {
  std::vector<std::string> Universe = {""};
  for (size_t Len = 1, Begin = 0; Len <= MaxLen; ++Len) {
    size_t End = Universe.size();
    for (size_t I = Begin; I != End; ++I) {
      Universe.push_back(Universe[I] + "a");
      Universe.push_back(Universe[I] + "b");
    }
    Begin = End;
  }

  unsigned Found = 0;
  std::vector<std::string> Tuple(P.numVariables());
  std::function<void(unsigned)> Rec = [&](unsigned V) {
    if (V == P.numVariables()) {
      for (const Constraint &C : P.constraints()) {
        std::string Whole;
        for (const Term &T : C.Lhs) {
          if (T.isVariable()) {
            Whole += Tuple[T.Var];
          } else {
            // Constants contribute *languages*; restrict the check to a
            // short witness per constant for tractability: skip tuples
            // involving constants here (covered by dedicated tests).
            auto W = shortestString(T.Language);
            if (!W)
              return;
            Whole += *W;
          }
        }
        if (!C.Rhs.accepts(Whole))
          return;
      }
      ++Found;
      Check(Tuple);
      return;
    }
    for (const std::string &S : Universe) {
      Tuple[V] = S;
      Rec(V + 1);
    }
  };
  Rec(0);
  return Found;
}

/// True if the system has a constant term anywhere (the point-tuple
/// enumeration above is exact only for all-variable terms).
bool hasConstantTerms(const Problem &P) {
  for (const Constraint &C : P.constraints())
    for (const Term &T : C.Lhs)
      if (!T.isVariable())
        return true;
  return false;
}

class SolverPropertyTest : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(SolverPropertyTest, SoundCompleteAndMaximal) {
  RandomSystem Sys = makeSystem(GetParam());
  const Problem &P = Sys.Instance;
  SolveResult R = Solver().solve(P);

  // --- Soundness: every assignment satisfies every constraint. ----------
  for (const Assignment &A : R.Assignments) {
    for (const Constraint &C : P.constraints()) {
      EXPECT_TRUE(subsetOf(lhsLanguage(P, C, A), C.Rhs))
          << "seed " << GetParam() << "\n"
          << P.str();
    }
    for (VarId V = 0; V != P.numVariables(); ++V)
      EXPECT_FALSE(A.language(V).languageIsEmpty());
  }

  if (hasConstantTerms(P)) {
    // Point-tuple enumeration is only exact for all-variable systems;
    // soundness above still fully applies.
    return;
  }

  // --- Completeness / UNSAT soundness over bounded tuples. --------------
  unsigned Satisfying = forEachSatisfyingTuple(
      P, /*MaxLen=*/3, [&](const std::vector<std::string> &Tuple) {
        bool Covered = false;
        for (const Assignment &A : R.Assignments) {
          bool All = true;
          for (VarId V = 0; V != P.numVariables(); ++V)
            All = All && A.language(V).accepts(Tuple[V]);
          Covered = Covered || All;
        }
        EXPECT_TRUE(Covered) << "seed " << GetParam() << ": tuple not "
                             << "covered by any assignment\n"
                             << P.str();
      });
  if (Satisfying > 0) {
    EXPECT_TRUE(R.Satisfiable) << "seed " << GetParam() << "\n" << P.str();
  }

  // --- Maximality: short extensions must break something. ---------------
  //
  // Exception: variables occurring several times within one constraint;
  // their maximal extension is not quotient-expressible (see
  // GciOptions::MaximizeSolutions) and the solver only guarantees a
  // satisfying, verified assignment there.
  std::vector<bool> RepeatedInOneConstraint(P.numVariables(), false);
  for (const Constraint &C : P.constraints()) {
    std::vector<unsigned> Count(P.numVariables(), 0);
    for (const Term &T : C.Lhs)
      if (T.isVariable() && ++Count[T.Var] > 1)
        RepeatedInOneConstraint[T.Var] = true;
  }
  for (const Assignment &A : R.Assignments) {
    for (VarId V = 0; V != P.numVariables(); ++V) {
      if (RepeatedInOneConstraint[V])
        continue;
      for (const std::string &S :
           {std::string(""), std::string("a"), std::string("b"),
            std::string("ab"), std::string("ba"), std::string("aa")}) {
        if (A.language(V).accepts(S))
          continue;
        // Build the extended assignment and re-check all constraints.
        Nfa Extended = alternate(A.language(V), Nfa::literal(S));
        bool StillSatisfying = true;
        for (const Constraint &C : P.constraints()) {
          Nfa Lhs = Nfa::epsilonLanguage();
          for (const Term &T : C.Lhs) {
            const Nfa &L = T.isVariable()
                               ? (T.Var == V ? Extended : A.language(T.Var))
                               : T.Language;
            Lhs = concat(Lhs, L);
          }
          if (!subsetOf(Lhs, C.Rhs)) {
            StillSatisfying = false;
            break;
          }
        }
        EXPECT_FALSE(StillSatisfying)
            << "seed " << GetParam() << ": language of v" << V
            << " extendable with \"" << S << "\"\n"
            << P.str();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, SolverPropertyTest,
                         ::testing::Range(1u, 61u));

//===----------------------------------------------------------------------===//
// Quotient properties
//===----------------------------------------------------------------------===//

class QuotientPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(QuotientPropertyTest, QuotientsAgreeWithDefinition) {
  std::mt19937 Rng(GetParam() * 7919 + 13);
  Nfa K = regexLanguage(randomPattern(Rng, 3));
  Nfa L = regexLanguage(randomPattern(Rng, 2));

  Nfa Right = rightQuotient(K, L);
  Nfa Left = leftQuotient(L, K);

  auto Ls = enumerateStrings(L, 4, 64);
  std::vector<std::string> Universe = {""};
  for (size_t I = 0; I < Universe.size() && Universe[I].size() < 4; ++I) {
    Universe.push_back(Universe[I] + "a");
    Universe.push_back(Universe[I] + "b");
  }
  for (const std::string &W : Universe) {
    bool ExpectRight = false, ExpectLeft = false;
    for (const std::string &S : Ls) {
      ExpectRight = ExpectRight || K.accepts(W + S);
      ExpectLeft = ExpectLeft || K.accepts(S + W);
    }
    // enumerateStrings is bounded, so the expected value may be a
    // under-approximation; only the implications in this direction hold
    // universally.
    if (ExpectRight) {
      EXPECT_TRUE(Right.accepts(W)) << "w=" << W;
    }
    if (ExpectLeft) {
      EXPECT_TRUE(Left.accepts(W)) << "w=" << W;
    }
  }
  // And the converse on machines: quotient members must have *some*
  // completion (checked via emptiness of the defining product).
  if (!L.languageIsEmpty()) {
    EXPECT_TRUE(subsetOf(Right, rightQuotient(K, L)));
    // x in rightQuotient => exists s in L with xs in K: verify via
    // concat: rightQuotient(K,L) . L must intersect K.
    if (!Right.languageIsEmpty()) {
      EXPECT_FALSE(intersect(concat(Right, L), K).languageIsEmpty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomQuotients, QuotientPropertyTest,
                         ::testing::Range(1u, 31u));
