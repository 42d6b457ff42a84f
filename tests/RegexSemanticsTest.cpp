//===- RegexSemanticsTest.cpp - Compiler vs. reference matcher ------------===//
//
// Property tests: the Thompson-compiled NFA must agree with the
// AST-interpreting reference matcher on every input, and searchLanguage
// must implement preg_match semantics (including the paper's missing-^
// subtlety).
//
//===----------------------------------------------------------------------===//

#include "automata/NfaOps.h"
#include "automata/Decide.h"
#include "regex/Matcher.h"
#include "regex/RegexCompiler.h"
#include "regex/RegexParser.h"

#include <gtest/gtest.h>

#include <random>

using namespace dprle;

namespace {

/// Exhaustively enumerates strings over \p Alphabet up to \p MaxLen and
/// checks NFA-vs-matcher agreement.
void checkAgreement(const std::string &Pattern, const std::string &Alphabet,
                    size_t MaxLen) {
  RegexParseResult R = parseRegex(Pattern);
  ASSERT_TRUE(R.ok()) << Pattern;
  Nfa M = compileRegex(*R.Ast);
  std::vector<std::string> Frontier = {""};
  for (size_t Len = 0; Len <= MaxLen; ++Len) {
    std::vector<std::string> Next;
    for (const std::string &S : Frontier) {
      EXPECT_EQ(M.accepts(S), matchesWholeString(*R.Ast, S))
          << "pattern " << Pattern << " input \"" << S << "\"";
      if (Len < MaxLen)
        for (char C : Alphabet)
          Next.push_back(S + C);
    }
    Frontier = std::move(Next);
  }
}

} // namespace

TEST(RegexSemanticsTest, LiteralAndClassBasics) {
  checkAgreement("ab", "ab", 4);
  checkAgreement("[ab]", "ab", 3);
  checkAgreement("[^a]", "ab", 3);
}

TEST(RegexSemanticsTest, QuantifierAgreement) {
  checkAgreement("a*", "ab", 4);
  checkAgreement("a+", "ab", 4);
  checkAgreement("a?", "ab", 3);
  checkAgreement("a{2}", "a", 5);
  checkAgreement("a{1,3}", "a", 5);
  checkAgreement("a{2,}", "a", 5);
  checkAgreement("(ab){1,2}", "ab", 5);
}

TEST(RegexSemanticsTest, AlternationAndNesting) {
  checkAgreement("a|bc", "abc", 4);
  checkAgreement("(a|b)*c", "abc", 4);
  checkAgreement("((a|b)(c|))*", "abc", 4);
  checkAgreement("(a*)*", "ab", 4);
  checkAgreement("(a|)(b|)", "ab", 3);
}

TEST(RegexSemanticsTest, EmptyLanguageNeverMatches) {
  checkAgreement("[]", "ab", 3);
  checkAgreement("[]a|b", "ab", 3);
  checkAgreement("([])*", "ab", 2); // ([])* matches only epsilon
}

TEST(RegexSemanticsTest, DotMatchesEveryByte) {
  Nfa M = regexLanguage(".");
  for (unsigned C = 0; C != 256; ++C)
    EXPECT_TRUE(M.accepts(std::string(1, static_cast<char>(C)))) << C;
  EXPECT_FALSE(M.accepts(""));
  EXPECT_FALSE(M.accepts("ab"));
}

TEST(RegexSemanticsTest, RandomPatternsAgreeWithMatcher) {
  // Generate random regexes over {a, b} and compare on all strings up to
  // length 4 — a classic differential test between two implementations.
  std::mt19937 Rng(20090615); // PLDI'09 publication date as seed
  std::uniform_int_distribution<int> Dist(0, 99);

  std::function<std::string(int)> Gen = [&](int Depth) -> std::string {
    int Roll = Dist(Rng);
    if (Depth <= 0 || Roll < 30)
      return Roll % 2 ? "a" : "b";
    if (Roll < 45)
      return "(" + Gen(Depth - 1) + "|" + Gen(Depth - 1) + ")";
    if (Roll < 60)
      return Gen(Depth - 1) + Gen(Depth - 1);
    if (Roll < 72)
      return "(" + Gen(Depth - 1) + ")*";
    if (Roll < 84)
      return "(" + Gen(Depth - 1) + ")+";
    if (Roll < 92)
      return "(" + Gen(Depth - 1) + ")?";
    return "[ab]";
  };

  for (int Iter = 0; Iter != 60; ++Iter) {
    std::string Pattern = Gen(3);
    checkAgreement(Pattern, "ab", 4);
  }
}

TEST(RegexSemanticsTest, SearchLanguageUnanchored) {
  // preg_match('/bc/', s) succeeds iff s contains "bc".
  Nfa M = searchLanguage("bc");
  EXPECT_TRUE(M.accepts("bc"));
  EXPECT_TRUE(M.accepts("abcd"));
  EXPECT_FALSE(M.accepts("b"));
  EXPECT_FALSE(M.accepts("cb"));
}

TEST(RegexSemanticsTest, SearchLanguageMatchesReferenceSearch) {
  RegexParseResult R = parseRegex("a(b|c)+");
  ASSERT_TRUE(R.ok());
  Nfa M = searchLanguage(R);
  for (const char *S :
       {"", "a", "ab", "xab", "abx", "xacx", "cba", "bca", "aa", "bc"})
    EXPECT_EQ(M.accepts(S), matchesSomewhere(*R.Ast, S)) << S;
}

TEST(RegexSemanticsTest, PaperVulnerableFilterLanguage) {
  // Paper Section 2: /[\d]+$/ without '^' accepts any string *ending* in
  // digits — including attack strings containing a quote.
  Nfa Filter = searchLanguage("[\\d]+$");
  EXPECT_TRUE(Filter.accepts("123"));
  EXPECT_TRUE(Filter.accepts("' OR 1=1 ; DROP news --9"));
  EXPECT_FALSE(Filter.accepts("123x"));
  EXPECT_FALSE(Filter.accepts(""));

  // The intended filter /^[\d]+$/ would reject the attack string.
  Nfa Fixed = searchLanguage("^[\\d]+$");
  EXPECT_TRUE(Fixed.accepts("123"));
  EXPECT_FALSE(Fixed.accepts("' OR 1=1 ; DROP news --9"));
}

TEST(RegexSemanticsTest, AnchorsOnBothSidesGiveExactLanguage) {
  Nfa A = searchLanguage("^abc$");
  Nfa B = regexLanguage("abc");
  EXPECT_TRUE(equivalentTo(A, B));
}
