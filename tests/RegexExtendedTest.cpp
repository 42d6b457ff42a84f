//===- RegexExtendedTest.cpp - Extended regex operators (& and ~) ---------===//

#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "regex/Matcher.h"
#include "regex/RegexCompiler.h"
#include "regex/RegexParser.h"
#include "solver/ConstraintParser.h"
#include "solver/Solver.h"

#include <gtest/gtest.h>

using namespace dprle;

namespace {

Nfa extLanguage(const std::string &Pattern) {
  RegexParseResult R = parseRegexExtended(Pattern);
  EXPECT_TRUE(R.ok()) << Pattern << ": " << R.Error;
  return compileRegex(*R.Ast);
}

} // namespace

TEST(RegexExtendedTest, IntersectionBasics) {
  // Strings of a,b that contain "aa" AND end with b.
  Nfa M = extLanguage("[ab]*aa[ab]*&[ab]*b");
  EXPECT_TRUE(M.accepts("aab"));
  EXPECT_TRUE(M.accepts("baab"));
  EXPECT_FALSE(M.accepts("aa"));
  EXPECT_FALSE(M.accepts("ab"));
}

TEST(RegexExtendedTest, IntersectionBindsTighterThanAlternation) {
  // x | (a & a): the alternation splits first.
  Nfa M = extLanguage("x|a&a");
  EXPECT_TRUE(M.accepts("x"));
  EXPECT_TRUE(M.accepts("a"));
  EXPECT_FALSE(M.accepts("xa"));
}

TEST(RegexExtendedTest, ComplementBasics) {
  Nfa M = extLanguage("~(ab)");
  EXPECT_FALSE(M.accepts("ab"));
  EXPECT_TRUE(M.accepts(""));
  EXPECT_TRUE(M.accepts("ba"));
  EXPECT_TRUE(M.accepts("abc"));
}

TEST(RegexExtendedTest, ComplementBindsToRepetitionUnit) {
  // ~a* is ~(a*): everything that is not a run of a's.
  Nfa M = extLanguage("~a*");
  EXPECT_FALSE(M.accepts(""));
  EXPECT_FALSE(M.accepts("aaa"));
  EXPECT_TRUE(M.accepts("b"));
  EXPECT_TRUE(M.accepts("ab"));
  // (~a)b: any non-"a" string followed by b.
  Nfa N = extLanguage("(~a)b");
  EXPECT_TRUE(N.accepts("b"));    // "" != "a", then b
  EXPECT_TRUE(N.accepts("xxb"));
  EXPECT_FALSE(N.accepts("ab")); // "a" is excluded before the final b
}

TEST(RegexExtendedTest, DoubleComplementIsIdentity) {
  Nfa A = extLanguage("~~(a(b|c)*)");
  Nfa B = regexLanguage("a(b|c)*");
  EXPECT_TRUE(equivalentTo(A, B));
}

TEST(RegexExtendedTest, DeMorganOnSyntax) {
  Nfa Lhs = extLanguage("~(a*&[ab]*b)");
  Nfa Rhs = extLanguage("~a*|~([ab]*b)");
  EXPECT_TRUE(equivalentTo(Lhs, Rhs));
}

TEST(RegexExtendedTest, MatcherAgreesWithCompiler) {
  for (const char *Pattern :
       {"[ab]*a&a[ab]*", "~(ab|ba)", "a&b", "(~a)(~b)", "~()",
        "x(a&[ab])y", "~[ab]*|ab"}) {
    RegexParseResult R = parseRegexExtended(Pattern);
    ASSERT_TRUE(R.ok()) << Pattern;
    Nfa M = compileRegex(*R.Ast);
    for (const char *S : {"", "a", "b", "x", "ab", "ba", "aa", "xay",
                          "xby", "aab", "abab"})
      EXPECT_EQ(M.accepts(S), matchesWholeString(*R.Ast, S))
          << Pattern << " on " << S;
  }
}

TEST(RegexExtendedTest, PrintRoundTripsThroughExtendedParser) {
  for (const char *Pattern :
       {"a&b&c", "~(ab)", "(~a)*", "a|b&c", "~a*x", "(a&b)|(c&d)"}) {
    RegexParseResult R = parseRegexExtended(Pattern);
    ASSERT_TRUE(R.ok()) << Pattern;
    std::string Printed = R.Ast->str();
    RegexParseResult R2 = parseRegexExtended(Printed);
    ASSERT_TRUE(R2.ok()) << Pattern << " printed as " << Printed;
    EXPECT_TRUE(equivalentTo(compileRegex(*R.Ast), compileRegex(*R2.Ast)))
        << Pattern << " vs " << Printed;
  }
}

TEST(RegexExtendedTest, PlainParserTreatsOperatorsAsLiterals) {
  Nfa M = regexLanguage("a&b");
  EXPECT_TRUE(M.accepts("a&b"));
  EXPECT_FALSE(M.accepts("a"));
  Nfa N = regexLanguage("~x");
  EXPECT_TRUE(N.accepts("~x"));
}

TEST(RegexExtendedTest, EscapedOperatorsAreLiteralInExtendedMode) {
  Nfa M = extLanguage("a\\&b");
  EXPECT_TRUE(M.accepts("a&b"));
  Nfa N = extLanguage("\\~x");
  EXPECT_TRUE(N.accepts("~x"));
}

TEST(RegexExtendedTest, ConstraintFilesUseExtendedDialect) {
  // "ends with a digit but is NOT all digits" — concise with ~ and &.
  auto R = parseConstraintText(R"(
    var v;
    v <= /(.*[0-9])&~([0-9]*)/;
  )");
  ASSERT_TRUE(R.Ok) << R.Error;
  SolveResult S = Solver().solve(R.Instance);
  ASSERT_TRUE(S.Satisfiable);
  const Nfa &L = S.Assignments.front().language(0);
  EXPECT_TRUE(L.accepts("x5"));
  EXPECT_FALSE(L.accepts("55"));
  EXPECT_FALSE(L.accepts("x"));
}

TEST(RegexExtendedTest, AttackSpecWithIntersection) {
  // An attack language: contains a quote AND ends in a digit — written
  // directly instead of intersecting two machines by hand.
  Nfa Attack = extLanguage(".*'.*&.*[0-9]");
  Nfa Manual = intersect(searchLanguage("'"), searchLanguage("[0-9]$"));
  EXPECT_TRUE(equivalentTo(Attack, Manual));
}
