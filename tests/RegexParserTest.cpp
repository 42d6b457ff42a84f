//===- RegexParserTest.cpp - Unit tests for the regex parser --------------===//

#include "regex/RegexParser.h"

#include <gtest/gtest.h>

using namespace dprle;

TEST(RegexParserTest, ParsesPlainLiteral) {
  RegexParseResult R = parseRegex("abc");
  ASSERT_TRUE(R.ok());
  EXPECT_FALSE(R.AnchoredStart);
  EXPECT_FALSE(R.AnchoredEnd);
}

TEST(RegexParserTest, ReportsAnchors) {
  RegexParseResult R = parseRegex("^abc$");
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R.AnchoredStart);
  EXPECT_TRUE(R.AnchoredEnd);
}

TEST(RegexParserTest, PaperFilterPatternSuffixAnchorOnly) {
  // The vulnerable filter of paper Figure 1 line 2: /[\d]+$/.
  RegexParseResult R = parseRegex("[\\d]+$");
  ASSERT_TRUE(R.ok());
  EXPECT_FALSE(R.AnchoredStart);
  EXPECT_TRUE(R.AnchoredEnd);
}

TEST(RegexParserTest, InnerAnchorIsError) {
  EXPECT_FALSE(parseRegex("a^b").ok());
  EXPECT_FALSE(parseRegex("a$b").ok());
}

TEST(RegexParserTest, AlternationAndGrouping) {
  EXPECT_TRUE(parseRegex("a(b|c)*d").ok());
  EXPECT_TRUE(parseRegex("(ab|cd|ef)").ok());
  EXPECT_TRUE(parseRegex("(|a)").ok());
}

TEST(RegexParserTest, EmptyPatternIsEpsilon) {
  RegexParseResult R = parseRegex("");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Ast->kind(), RegexNode::Kind::Epsilon);
}

TEST(RegexParserTest, EmptyGroupIsEpsilon) {
  RegexParseResult R = parseRegex("()");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Ast->kind(), RegexNode::Kind::Epsilon);
}

TEST(RegexParserTest, EmptyClassIsEmptyLanguage) {
  RegexParseResult R = parseRegex("[]");
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.Ast->kind(), RegexNode::Kind::Class);
  EXPECT_TRUE(R.Ast->charSet().empty());
}

TEST(RegexParserTest, ClassRangesAndNegation) {
  RegexParseResult R = parseRegex("[a-cx]");
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.Ast->kind(), RegexNode::Kind::Class);
  EXPECT_EQ(R.Ast->charSet().count(), 4u);
  RegexParseResult N = parseRegex("[^a]");
  ASSERT_TRUE(N.ok());
  EXPECT_EQ(N.Ast->charSet().count(), 255u);
  EXPECT_FALSE(N.Ast->charSet().contains('a'));
}

TEST(RegexParserTest, ClassEscapes) {
  RegexParseResult R = parseRegex("[\\d\\-]");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Ast->charSet().count(), 11u);
  EXPECT_TRUE(R.Ast->charSet().contains('-'));
  EXPECT_TRUE(R.Ast->charSet().contains('7'));
}

TEST(RegexParserTest, TrailingDashIsLiteral) {
  RegexParseResult R = parseRegex("[a-]");
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R.Ast->charSet().contains('a'));
  EXPECT_TRUE(R.Ast->charSet().contains('-'));
  EXPECT_EQ(R.Ast->charSet().count(), 2u);
}

TEST(RegexParserTest, EscapeClasses) {
  for (const char *Pat : {"\\d", "\\D", "\\w", "\\W", "\\s", "\\S"}) {
    RegexParseResult R = parseRegex(Pat);
    ASSERT_TRUE(R.ok()) << Pat;
    EXPECT_EQ(R.Ast->kind(), RegexNode::Kind::Class) << Pat;
  }
}

TEST(RegexParserTest, HexEscape) {
  RegexParseResult R = parseRegex("\\x41");
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.Ast->kind(), RegexNode::Kind::Literal);
  EXPECT_EQ(R.Ast->text(), "A");
  EXPECT_FALSE(parseRegex("\\x4").ok());
  EXPECT_FALSE(parseRegex("\\xzz").ok());
}

TEST(RegexParserTest, BoundedRepetition) {
  EXPECT_TRUE(parseRegex("a{3}").ok());
  EXPECT_TRUE(parseRegex("a{2,5}").ok());
  EXPECT_TRUE(parseRegex("a{2,}").ok());
  EXPECT_FALSE(parseRegex("a{5,2}").ok());
  EXPECT_FALSE(parseRegex("a{2,5").ok());
}

TEST(RegexParserTest, BraceWithoutDigitsIsLiteral) {
  RegexParseResult R = parseRegex("a{b}");
  ASSERT_TRUE(R.ok());
}

TEST(RegexParserTest, DanglingQuantifierIsError) {
  EXPECT_FALSE(parseRegex("*a").ok());
  EXPECT_FALSE(parseRegex("|*").ok());
  EXPECT_FALSE(parseRegex("(+)").ok());
}

TEST(RegexParserTest, UnbalancedParensIsError) {
  EXPECT_FALSE(parseRegex("(ab").ok());
  EXPECT_FALSE(parseRegex("ab)").ok());
}

TEST(RegexParserTest, UnterminatedClassIsError) {
  EXPECT_FALSE(parseRegex("[ab").ok());
}

TEST(RegexParserTest, DanglingBackslashIsError) {
  EXPECT_FALSE(parseRegex("ab\\").ok());
}

TEST(RegexParserTest, UnknownAlnumEscapeIsError) {
  EXPECT_FALSE(parseRegex("\\q").ok());
}

TEST(RegexParserTest, EscapedMetacharsAreLiterals) {
  RegexParseResult R = parseRegex("\\*\\.\\[\\$");
  ASSERT_TRUE(R.ok());
}

TEST(RegexParserTest, ErrorPositionIsReported) {
  RegexParseResult R = parseRegex("ab(cd");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.ErrorPos, 5u);
  EXPECT_FALSE(R.Error.empty());
}

TEST(RegexParserTest, AstRoundTripThroughStr) {
  // str() must re-parse to an equivalent AST shape for a sample of
  // patterns (language equivalence is covered by RegexSemanticsTest).
  for (const char *Pat :
       {"abc", "a|b|c", "(ab)*", "a+b?c{2,3}", "[a-z0-9]+", "[^'\"]*",
        "x(y|z)w", "a{4}", "(a*)*"}) {
    RegexParseResult R = parseRegex(Pat);
    ASSERT_TRUE(R.ok()) << Pat;
    std::string Printed = R.Ast->str();
    EXPECT_TRUE(parseRegex(Printed).ok())
        << Pat << " printed as " << Printed;
  }
}

TEST(RegexParserTest, RepetitionCountsAreCapped) {
  EXPECT_TRUE(parseRegex("a{1000}").ok());
  EXPECT_TRUE(parseRegex("a{0,1000}").ok());
  EXPECT_TRUE(parseRegex("a{1000,}").ok());
  for (const char *Pat :
       {"a{1001}", "a{2,1001}", "a{1001,}", "a{99999999999}",
        "a{2,99999999999999999999999}", "a{99999999999999999999999999,}"}) {
    RegexParseResult R = parseRegex(Pat);
    ASSERT_FALSE(R.ok()) << Pat;
    EXPECT_NE(R.Error.find("cap of 1000"), std::string::npos) << R.Error;
  }
  // The error points at the offending count.
  RegexParseResult R = parseRegex("ab{2,5000}");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.ErrorPos, 5u);
  // Not a quantifier: '{' without digits stays a literal.
  EXPECT_TRUE(parseRegex("a{x}").ok());
}

TEST(RegexParserTest, ExpandedSizeIsCapped) {
  // Counts within the cap one by one can still multiply out; the expanded
  // size (each leaf times the counts around it) is bounded too.
  EXPECT_TRUE(parseRegex("(a{100}){200}").ok()); // 20000 symbols
  EXPECT_TRUE(parseRegex(std::string(MaxExpandedSize, 'a')).ok());
  for (const std::string &Pat :
       {std::string("(a{1000}){1000}"), std::string("((ab){100}c){100}"),
        std::string("(a{100}){200}b"), std::string("(a|b{20}){1000}"),
        std::string(MaxExpandedSize + 1, 'a')}) {
    RegexParseResult R = parseRegex(Pat);
    ASSERT_FALSE(R.ok()) << Pat;
    EXPECT_NE(R.Error.find("expands to more than"), std::string::npos)
        << R.Error;
  }
  // Unbounded counts weigh their minimum plus one copy.
  EXPECT_TRUE(parseRegex("(a{19}){999,}").ok());
  EXPECT_FALSE(parseRegex("(a{20}){1000,}").ok());
  EXPECT_FALSE(parseRegexExtended("~((a{100}){201})").ok());
}
