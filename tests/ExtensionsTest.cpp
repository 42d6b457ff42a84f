//===- ExtensionsTest.cpp - Section 3.1.2 extensions ----------------------===//
//
// Length windows, unions, substring indexing (solver/Extensions.h), the
// mini-PHP strlen() front end, and path-slice generation (Section 2).
//
//===----------------------------------------------------------------------===//

#include "automata/NfaOps.h"
#include "automata/Decide.h"
#include "miniphp/Analysis.h"
#include "regex/RegexCompiler.h"
#include "solver/Extensions.h"
#include "solver/Solver.h"

#include <gtest/gtest.h>

using namespace dprle;
using namespace dprle::miniphp;

TEST(ExtensionsTest, LengthWindowBasics) {
  Nfa M = lengthWindow(2, 4);
  EXPECT_FALSE(M.accepts(""));
  EXPECT_FALSE(M.accepts("a"));
  EXPECT_TRUE(M.accepts("ab"));
  EXPECT_TRUE(M.accepts("abcd"));
  EXPECT_FALSE(M.accepts("abcde"));
}

TEST(ExtensionsTest, LengthExactly) {
  Nfa M = lengthExactly(3);
  EXPECT_TRUE(M.accepts("xyz"));
  EXPECT_FALSE(M.accepts("xy"));
  EXPECT_FALSE(M.accepts("wxyz"));
  EXPECT_TRUE(lengthExactly(0).accepts(""));
  EXPECT_FALSE(lengthExactly(0).accepts("a"));
}

TEST(ExtensionsTest, LengthUnboundedSide) {
  Nfa AtLeast = lengthAtLeast(2);
  EXPECT_FALSE(AtLeast.accepts("a"));
  EXPECT_TRUE(AtLeast.accepts("ab"));
  EXPECT_TRUE(AtLeast.accepts(std::string(100, 'x')));
  Nfa AtMost = lengthAtMost(2);
  EXPECT_TRUE(AtMost.accepts(""));
  EXPECT_TRUE(AtMost.accepts("ab"));
  EXPECT_FALSE(AtMost.accepts("abc"));
}

TEST(ExtensionsTest, LengthWindowIsDeterministicChain) {
  // Repeated products must stay flat (important for generated corpora).
  Nfa M = lengthWindow(1, 8);
  Nfa Twice = intersect(M, M).trimmed();
  EXPECT_LE(Twice.numStates(), M.numStates() + 1);
  EXPECT_TRUE(equivalentTo(Twice, M));
}

TEST(ExtensionsTest, UnionOfLanguages) {
  Nfa U = unionOf({Nfa::literal("a"), Nfa::literal("bb"),
                   regexLanguage("c+")});
  EXPECT_TRUE(U.accepts("a"));
  EXPECT_TRUE(U.accepts("bb"));
  EXPECT_TRUE(U.accepts("cccc"));
  EXPECT_FALSE(U.accepts("b"));
  EXPECT_TRUE(unionOf({}).languageIsEmpty());
}

TEST(ExtensionsTest, UnionAsConstraintRhs) {
  // e <= c1 ∪ c2 — the paper's "union" extension expressed directly.
  Problem P;
  VarId V = P.addVariable("v");
  P.addConstraint({P.var(V)},
                  unionOf({regexLanguage("a+"), regexLanguage("b+")}));
  SolveResult R = Solver().solve(P);
  ASSERT_TRUE(R.Satisfiable);
  EXPECT_TRUE(equivalentTo(R.Assignments[0].language(V),
                           regexLanguage("a+|b+")));
}

TEST(ExtensionsTest, SubstringAt) {
  // Strings whose characters 2..3 form "ab".
  Nfa M = substringAt(Nfa::literal("ab"), 2, 2);
  EXPECT_TRUE(M.accepts("xxab"));
  EXPECT_TRUE(M.accepts("xxabyy"));
  EXPECT_FALSE(M.accepts("ab"));
  EXPECT_FALSE(M.accepts("xxba"));
  EXPECT_FALSE(M.accepts("xxa"));
}

TEST(ExtensionsTest, LengthConstraintInSolver) {
  // The paper's example: "restrict the language of a variable to strings
  // of a specified length n (to model length checks in code)".
  Problem P;
  VarId V = P.addVariable("v");
  P.addConstraint({P.var(V)}, searchLanguage("[\\d]+$"));
  P.addConstraint({P.var(V)}, lengthExactly(4));
  SolveResult R = Solver().solve(P);
  ASSERT_TRUE(R.Satisfiable);
  auto W = R.Assignments[0].witness(V);
  ASSERT_TRUE(W.has_value());
  EXPECT_EQ(W->size(), 4u);
}

//===----------------------------------------------------------------------===//
// Mini-PHP strlen() front end
//===----------------------------------------------------------------------===//

TEST(StrlenTest, ParsesAllOperators) {
  for (const char *Op : {"==", "!=", "<", "<=", ">", ">="}) {
    std::string Source = std::string("if (strlen($x) ") + Op +
                         " 5) { exit; }";
    AnalysisResult R = analyzeSource(Source, AttackSpec::sqlQuote());
    EXPECT_TRUE(R.ParseOk) << Op << ": " << R.ParseError;
  }
  EXPECT_FALSE(analyzeSource("if (strlen($x) = 5) { exit; }",
                             AttackSpec::sqlQuote())
                   .ParseOk);
  EXPECT_FALSE(analyzeSource("if (strlen($x) == $y) { exit; }",
                             AttackSpec::sqlQuote())
                   .ParseOk);
}

TEST(StrlenTest, LengthCheckBoundsExploit) {
  // The input must be exactly 5 characters long and end with a digit —
  // and must still smuggle a quote.
  AnalysisResult R = analyzeSource(R"(
    $x = $_POST['id'];
    if (strlen($x) != 5) { exit; }
    if (!preg_match('/[\d]+$/', $x)) { exit; }
    query("SELECT a WHERE id=" . $x);
  )",
                                   AttackSpec::sqlQuote());
  ASSERT_TRUE(R.ParseOk) << R.ParseError;
  ASSERT_TRUE(R.vulnerable());
  const std::string &W = R.ExploitInputs.at("_POST:id");
  EXPECT_EQ(W.size(), 5u);
  EXPECT_NE(W.find('\''), std::string::npos);
  EXPECT_TRUE(isdigit(static_cast<unsigned char>(W.back())));
}

TEST(StrlenTest, TightLengthCheckBlocksExploit) {
  // Length 1 leaves no room for both the digit (filter) and the quote.
  AnalysisResult R = analyzeSource(R"(
    $x = $_POST['id'];
    if (strlen($x) > 1) { exit; }
    if (!preg_match('/[\d]+$/', $x)) { exit; }
    query("SELECT a WHERE id=" . $x);
  )",
                                   AttackSpec::sqlQuote());
  ASSERT_TRUE(R.ParseOk) << R.ParseError;
  EXPECT_FALSE(R.vulnerable());
}

TEST(StrlenTest, FalseBranchUsesComplementOperator) {
  // Not-taken `strlen == 3` means length != 3; the exploit witness must
  // avoid length 3.
  AnalysisResult R = analyzeSource(R"(
    $x = $_POST['id'];
    if (strlen($x) == 3) { exit; }
    if (!preg_match('/[\d]+$/', $x)) { exit; }
    query("k=" . $x);
  )",
                                   AttackSpec::sqlQuote());
  ASSERT_TRUE(R.ParseOk) << R.ParseError;
  ASSERT_TRUE(R.vulnerable());
  EXPECT_NE(R.ExploitInputs.at("_POST:id").size(), 3u);
}

//===----------------------------------------------------------------------===//
// Path slices (paper Section 2)
//===----------------------------------------------------------------------===//

TEST(SliceTest, Figure1SliceContainsReadCheckConcatAndSink) {
  const char *Source = R"php($newsid = $_POST['posted_newsid'];
if (!preg_match('/[\d]+$/', $newsid)) {
  unp_msgBox('Invalid article news ID.');
  exit;
}
$newsid = "nid_" . $newsid;
$idnews = query("SELECT * FROM news WHERE newsid=" . $newsid);)php";
  AnalysisResult R = analyzeSource(Source, AttackSpec::sqlQuote());
  ASSERT_TRUE(R.ParseOk) << R.ParseError;
  ASSERT_TRUE(R.vulnerable());
  // Lines: 1 read, 2 check, 6 concat, 7 sink. The msgBox/exit lines (3-4)
  // must NOT be in the slice — "the slice elides irrelevant statements".
  EXPECT_EQ(R.SliceLines, (std::set<unsigned>{1, 2, 6, 7}));
}

TEST(SliceTest, UnrelatedInputChecksAreElided) {
  AnalysisResult R = analyzeSource(R"php($a = $_POST['used'];
$b = $_POST['unused'];
if (!preg_match('/^[0-9]+$/', $b)) { exit; }
if (!preg_match('/[\d]+$/', $a)) { exit; }
$junk = 'noise';
query("k=" . $a);)php",
                                   AttackSpec::sqlQuote());
  ASSERT_TRUE(R.ParseOk) << R.ParseError;
  ASSERT_TRUE(R.vulnerable());
  // Line 3 checks $b, which never flows into the query; line 5 defines a
  // value that never flows anywhere. Both are elided.
  EXPECT_EQ(R.SliceLines, (std::set<unsigned>{1, 4, 6}));
}

TEST(SliceTest, ChainedAssignmentsAllAppear) {
  AnalysisResult R = analyzeSource(R"php($a = $_GET['q'];
$b = $a . "-suffix1";
$c = "prefix-" . $b;
query($c);)php",
                                   AttackSpec::sqlQuote());
  ASSERT_TRUE(R.ParseOk) << R.ParseError;
  ASSERT_TRUE(R.vulnerable());
  EXPECT_EQ(R.SliceLines, (std::set<unsigned>{1, 2, 3, 4}));
}
