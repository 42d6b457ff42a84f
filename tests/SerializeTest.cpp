//===- SerializeTest.cpp - Automata persistence tests ---------------------===//

#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "automata/Serialize.h"
#include "regex/RegexCompiler.h"

#include <gtest/gtest.h>

using namespace dprle;

namespace {

void checkRoundTrip(const Nfa &M, const std::string &Name = "m") {
  std::string Text = serializeNfa(M, Name);
  SCOPED_TRACE(Text);
  NfaParseResult R = parseNfa(Text);
  ASSERT_TRUE(R.ok()) << R.Error << " at line " << R.ErrorLine;
  EXPECT_EQ(R.Name, Name);
  EXPECT_EQ(R.Machine->numStates(), M.numStates());
  EXPECT_EQ(R.Machine->start(), M.start());
  EXPECT_EQ(R.Machine->numTransitions(), M.numTransitions());
  EXPECT_TRUE(equivalentTo(*R.Machine, M));
}

} // namespace

TEST(SerializeTest, RoundTripsBasicMachines) {
  checkRoundTrip(Nfa::emptyLanguage());
  checkRoundTrip(Nfa::epsilonLanguage());
  checkRoundTrip(Nfa::literal("nid_"));
  checkRoundTrip(Nfa::sigmaStar());
  checkRoundTrip(Nfa::fromCharSet(CharSet::range('0', '9')));
}

TEST(SerializeTest, RoundTripsRegexMachines) {
  for (const char *Pattern :
       {"a(b|c)*d", "[a-f0-9]+", "[^'\"]*", "x{2,4}", "(ab|ba)+"})
    checkRoundTrip(regexLanguage(Pattern), "re");
}

TEST(SerializeTest, RoundTripsMarkers) {
  Nfa M = concat(Nfa::literal("a"), Nfa::literal("b"), 42);
  std::string Text = serializeNfa(M);
  NfaParseResult R = parseNfa(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  auto Instances = R.Machine->markerInstances(42);
  ASSERT_EQ(Instances.size(), 1u);
  EXPECT_TRUE(R.Machine->accepts("ab"));
}

TEST(SerializeTest, RoundTripsNonPrintableLabels) {
  Nfa M = Nfa::literal(std::string("\x01\xff\n", 3));
  checkRoundTrip(M);
}

TEST(SerializeTest, RoundTripsMetacharLabels) {
  checkRoundTrip(Nfa::literal("a.b*c[d]e-f\\g"));
}

TEST(SerializeTest, RoundTripsNegatedClasses) {
  // More than half the alphabet prints as a negated class.
  checkRoundTrip(Nfa::fromCharSet(~CharSet::fromString("'\"`")));
}

TEST(SerializeTest, ParsesUnnamedMachines) {
  NfaParseResult R = parseNfa(serializeNfa(Nfa::literal("x")));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Name, "");
}

TEST(SerializeTest, RejectsMalformedInput) {
  EXPECT_FALSE(parseNfa("").ok());
  EXPECT_FALSE(parseNfa("nfa {").ok());
  EXPECT_FALSE(parseNfa("nfa {\n  bogus\n}\n").ok());
  EXPECT_FALSE(
      parseNfa("nfa {\n  states: 2, start: 5, accepting: {1}\n}\n").ok());
  EXPECT_FALSE(parseNfa("nfa {\n  states: 2, start: 0, accepting: {9}\n}\n")
                   .ok());
  EXPECT_FALSE(
      parseNfa(
          "nfa {\n  states: 2, start: 0, accepting: {1}\n  0 -> 9 on a\n}\n")
          .ok());
  EXPECT_FALSE(
      parseNfa(
          "nfa {\n  states: 2, start: 0, accepting: {1}\n  0 -> 1 on [a\n}\n")
          .ok());
  // Missing closing brace.
  EXPECT_FALSE(
      parseNfa("nfa {\n  states: 1, start: 0, accepting: {0}\n").ok());
}

TEST(SerializeTest, ErrorsCarryLineNumbers) {
  NfaParseResult R = parseNfa(
      "nfa {\n  states: 2, start: 0, accepting: {1}\n  0 -> 1 on ???\n}\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.ErrorLine, 3u);
}

TEST(SerializeTest, HandWrittenMachineParses) {
  NfaParseResult R = parseNfa(R"(nfa filter {
  states: 3, start: 0, accepting: {2}
  0 -> 0 on .
  0 -> 1 on '
  1 -> 2 on [0-9]
  1 -> 1 on eps#3
})");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Name, "filter");
  EXPECT_TRUE(R.Machine->accepts("xx'5"));
  EXPECT_FALSE(R.Machine->accepts("'x"));
  EXPECT_EQ(R.Machine->markerInstances(3).size(), 1u);
}
