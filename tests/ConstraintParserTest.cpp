//===- ConstraintParserTest.cpp - Constraint-file front-end tests ---------===//

#include "solver/ConstraintParser.h"
#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "regex/RegexCompiler.h"
#include "solver/Solver.h"

#include <gtest/gtest.h>

using namespace dprle;

TEST(ConstraintParserTest, ParsesVariableDeclarations) {
  auto R = parseConstraintText("var a, b, c;");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Instance.numVariables(), 3u);
  EXPECT_TRUE(R.Instance.variableByName("b").has_value());
}

TEST(ConstraintParserTest, ParsesSubsetConstraint) {
  auto R = parseConstraintText("var v;\nv <= /[ab]+/;");
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Instance.constraints().size(), 1u);
  const Constraint &C = R.Instance.constraints().front();
  ASSERT_EQ(C.Lhs.size(), 1u);
  EXPECT_TRUE(C.Lhs[0].isVariable());
  EXPECT_TRUE(C.Rhs.accepts("abba"));
  EXPECT_FALSE(C.Rhs.accepts("abc"));
}

TEST(ConstraintParserTest, ParsesConcatenationWithLiterals) {
  auto R = parseConstraintText(R"(
    var v1, v2;
    "nid_" . v1 . v2 <= /.*/;
  )");
  ASSERT_TRUE(R.Ok) << R.Error;
  const Constraint &C = R.Instance.constraints().front();
  ASSERT_EQ(C.Lhs.size(), 3u);
  EXPECT_FALSE(C.Lhs[0].isVariable());
  EXPECT_TRUE(C.Lhs[0].Language.accepts("nid_"));
  EXPECT_TRUE(C.Lhs[1].isVariable());
}

TEST(ConstraintParserTest, LetBindingAndReuse) {
  auto R = parseConstraintText(R"(
    var v;
    let attack := search(/'/);
    v <= attack;
  )");
  ASSERT_TRUE(R.Ok) << R.Error;
  const Constraint &C = R.Instance.constraints().front();
  EXPECT_EQ(C.RhsName, "attack");
  EXPECT_TRUE(C.Rhs.accepts("ab'cd"));
  EXPECT_FALSE(C.Rhs.accepts("abcd"));
}

TEST(ConstraintParserTest, SearchWidensUnanchoredSides) {
  auto R = parseConstraintText("var v;\nv <= search(/[\\d]+$/);");
  ASSERT_TRUE(R.Ok) << R.Error;
  const Nfa &Rhs = R.Instance.constraints().front().Rhs;
  EXPECT_TRUE(Rhs.accepts("abc123"));
  EXPECT_FALSE(Rhs.accepts("123abc"));
}

TEST(ConstraintParserTest, PlainRegexIsExactLanguage) {
  auto R = parseConstraintText("var v;\nv <= /abc/;");
  ASSERT_TRUE(R.Ok) << R.Error;
  const Nfa &Rhs = R.Instance.constraints().front().Rhs;
  EXPECT_TRUE(Rhs.accepts("abc"));
  EXPECT_FALSE(Rhs.accepts("xabc"));
}

TEST(ConstraintParserTest, EscapedSlashInRegex) {
  auto R = parseConstraintText("var v;\nv <= /a\\/b/;");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.Instance.constraints().front().Rhs.accepts("a/b"));
}

TEST(ConstraintParserTest, CommentsAreIgnored) {
  auto R = parseConstraintText(R"(
    # hash comment
    var v;   // slash comment
    v <= /a/; # trailing
  )");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Instance.constraints().size(), 1u);
}

TEST(ConstraintParserTest, StringEscapes) {
  auto R = parseConstraintText("var v;\nv <= \"a\\\"b\\n\";");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.Instance.constraints().front().Rhs.accepts("a\"b\n"));
}

TEST(ConstraintParserTest, ErrorsAreReportedWithLine) {
  auto R = parseConstraintText("var v;\nv <= ;\n");
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.ErrorLine, 2u);
  EXPECT_FALSE(R.Error.empty());
}

TEST(ConstraintParserTest, UnknownConstantIsError) {
  auto R = parseConstraintText("var v;\nv <= mystery;");
  EXPECT_FALSE(R.Ok);
}

TEST(ConstraintParserTest, RedefinitionIsError) {
  EXPECT_FALSE(parseConstraintText("var v, v;").Ok);
  EXPECT_FALSE(parseConstraintText("var v;\nlet v := /a/;").Ok);
}

TEST(ConstraintParserTest, UnterminatedRegexIsError) {
  EXPECT_FALSE(parseConstraintText("var v;\nv <= /abc;").Ok);
}

TEST(ConstraintParserTest, BadRegexInsideLiteralIsError) {
  auto R = parseConstraintText("var v;\nv <= /(/;");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("regex"), std::string::npos);
}

TEST(ConstraintParserTest, MissingSemicolonIsError) {
  EXPECT_FALSE(parseConstraintText("var v;\nv <= /a/").Ok);
}

TEST(ConstraintParserTest, EndToEndMotivatingExample) {
  // The Section 2 system in the file syntax, solved end to end.
  auto R = parseConstraintText(R"(
    # Utopia News Pro, Figure 1 of the paper
    var posted_newsid;
    let filter := search(/[\d]+$/);
    let attack := search(/'/);
    posted_newsid <= filter;
    "nid_" . posted_newsid <= attack;
  )");
  ASSERT_TRUE(R.Ok) << R.Error;
  SolveResult S = Solver().solve(R.Instance);
  ASSERT_TRUE(S.Satisfiable);
  VarId V = *R.Instance.variableByName("posted_newsid");
  Nfa Expected = intersect(searchLanguage("'"), searchLanguage("[\\d]+$"));
  EXPECT_TRUE(equivalentTo(S.Assignments.front().language(V), Expected));
}

TEST(ConstraintParserTest, ProblemStrRoundTripsThroughParser) {
  auto R = parseConstraintText(R"(
    var a, b;
    a <= /x[yz]*/;
    a . b <= /x[yz]*w/;
  )");
  ASSERT_TRUE(R.Ok) << R.Error;
  std::string Rendered = R.Instance.str();
  auto R2 = parseConstraintText(Rendered);
  ASSERT_TRUE(R2.Ok) << R2.Error << " in:\n" << Rendered;
  ASSERT_EQ(R2.Instance.constraints().size(),
            R.Instance.constraints().size());
  for (size_t I = 0; I != R.Instance.constraints().size(); ++I)
    EXPECT_TRUE(equivalentTo(R.Instance.constraints()[I].Rhs,
                             R2.Instance.constraints()[I].Rhs));
}
