//===- NfaToRegexTest.cpp - State-elimination round-trip tests ------------===//

#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "regex/NfaToRegex.h"
#include "regex/RegexCompiler.h"

#include <gtest/gtest.h>

using namespace dprle;

namespace {

/// Round-trip property: parse-compile(nfaToRegex(M)) must be equivalent
/// to M.
void checkRoundTrip(const Nfa &M) {
  std::string Pattern = nfaToRegex(M);
  SCOPED_TRACE("regenerated pattern: " + Pattern);
  Nfa Back = regexLanguage(Pattern);
  EXPECT_TRUE(equivalentTo(M, Back));
}

} // namespace

TEST(NfaToRegexTest, EmptyLanguage) {
  EXPECT_EQ(nfaToRegex(Nfa::emptyLanguage()), "[]");
  checkRoundTrip(Nfa::emptyLanguage());
}

TEST(NfaToRegexTest, EpsilonLanguage) { checkRoundTrip(Nfa::epsilonLanguage()); }

TEST(NfaToRegexTest, Literal) { checkRoundTrip(Nfa::literal("nid_")); }

TEST(NfaToRegexTest, LiteralWithMetachars) {
  checkRoundTrip(Nfa::literal("a.b*c(d"));
}

TEST(NfaToRegexTest, SigmaStar) { checkRoundTrip(Nfa::sigmaStar()); }

TEST(NfaToRegexTest, UnionOfLiterals) {
  checkRoundTrip(alternate(Nfa::literal("cat"), Nfa::literal("dog")));
}

TEST(NfaToRegexTest, StarAndPlus) {
  checkRoundTrip(star(Nfa::literal("ab")));
  checkRoundTrip(plus(Nfa::fromCharSet(CharSet::fromString("xyz"))));
}

TEST(NfaToRegexTest, RegexRoundTrips) {
  for (const char *Pattern :
       {"a(b|c)*d", "(0|1(01*0)*1)*", "x{2,4}y", "[a-f]+[0-9]?",
        "(ab|ba)*(a|)", "a|b|c|d"}) {
    SCOPED_TRACE(Pattern);
    checkRoundTrip(regexLanguage(Pattern));
  }
}

TEST(NfaToRegexTest, PaperAttackLanguage) {
  // Sigma* ' Sigma* — the attack language of paper Section 3.2.
  checkRoundTrip(searchLanguage("'"));
}

TEST(NfaToRegexTest, SolutionLanguageOfMotivatingExample) {
  // "All strings that contain a single quote and end with a digit."
  Nfa M = intersect(searchLanguage("'"), searchLanguage("[\\d]+$"));
  checkRoundTrip(M);
}
