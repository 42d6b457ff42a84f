//===- ToolsTest.cpp - dprle CLI command tests ----------------------------===//
//
// The command handlers take streams and return exit codes, so the CLI is
// tested end-to-end without spawning processes.
//
//===----------------------------------------------------------------------===//

#include "tools/Commands.h"

#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "automata/Serialize.h"
#include "regex/RegexCompiler.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace dprle;
using namespace dprle::tools;

namespace {

struct RunResult {
  int Code;
  std::string Out;
  std::string Err;
};

RunResult run(const std::vector<std::string> &Args,
              const std::string &Stdin = "") {
  std::istringstream In(Stdin);
  std::ostringstream Out, Err;
  int Code = runMain(Args, In, Out, Err);
  return {Code, Out.str(), Err.str()};
}

/// RAII temp directory for file-based commands.
struct TempDir {
  std::filesystem::path Path;
  TempDir() {
    Path = std::filesystem::temp_directory_path() /
           ("dprle-tools-test-" + std::to_string(::getpid()));
    std::filesystem::create_directories(Path);
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  std::string file(const std::string &Name, const std::string &Content) {
    std::string Full = (Path / Name).string();
    std::ofstream Out(Full);
    Out << Content;
    return Full;
  }
};

} // namespace

TEST(ToolsTest, HelpAndUnknownCommand) {
  EXPECT_EQ(run({"help"}).Code, 0);
  RunResult R = run({"frobnicate"});
  EXPECT_EQ(R.Code, 2);
  EXPECT_NE(R.Err.find("unknown command"), std::string::npos);
  EXPECT_EQ(run({}).Code, 2);
}

TEST(ToolsTest, SolveFromStdin) {
  RunResult R = run({"solve", "-"}, "var v;\nv <= /ab*/;\n");
  EXPECT_EQ(R.Code, 0);
  EXPECT_NE(R.Out.find("sat"), std::string::npos);
  EXPECT_NE(R.Out.find("v = /"), std::string::npos);
}

TEST(ToolsTest, SolveUnsatExitCode) {
  RunResult R = run({"solve", "-"}, "var v;\nv <= /a/;\nv <= /b/;\n");
  EXPECT_EQ(R.Code, 1);
  EXPECT_NE(R.Out.find("unsat"), std::string::npos);
}

TEST(ToolsTest, SolveReportsParseErrors) {
  RunResult R = run({"solve", "-"}, "var ;\n");
  EXPECT_EQ(R.Code, 2);
  EXPECT_NE(R.Err.find("error"), std::string::npos);
}

TEST(ToolsTest, SolveFirstFlag) {
  RunResult R = run({"solve", "--first", "-"},
                    "var a, b;\na . b <= /x{0,6}/;\n");
  EXPECT_EQ(R.Code, 0);
  EXPECT_NE(R.Out.find("sat (1 assignment)"), std::string::npos);
}

TEST(ToolsTest, SolveBudgetTripExitsTwoWithOneLine) {
  // The answer's 64-state minimal DFA solves at once, but its regex text
  // grows exponentially while rendering. Parse, solve and render share
  // one budget, so the memory cap stops the render: one line on stderr,
  // nothing on stdout, exit code 2.
  const std::string Exponential = "var x; x <= /(a|b)*a(a|b){5}/;";
  RunResult R =
      run({"solve", "--max-memory-bytes=100000000", "-"}, Exponential);
  EXPECT_EQ(R.Code, 2);
  EXPECT_EQ(R.Err, "resource_exhausted: memory\n");
  EXPECT_EQ(R.Out, "");

  // The memory cap is only a backstop here: the 1 ms deadline trips long
  // before a gigabyte of text is charged.
  RunResult Late = run(
      {"solve", "--deadline-ms=1", "--max-memory-bytes=1000000000", "-"},
      Exponential);
  EXPECT_EQ(Late.Code, 2);
  EXPECT_EQ(Late.Err, "resource_exhausted: deadline\n");

  // A roomy budget changes nothing.
  RunResult Roomy = run({"solve", "--max-memory-bytes=100000000",
                         "--deadline-ms=60000", "-"},
                        "var v;\nv <= /ab*/;\n");
  EXPECT_EQ(Roomy.Code, 0);
  EXPECT_EQ(Roomy.Out, run({"solve", "-"}, "var v;\nv <= /ab*/;\n").Out);

  EXPECT_EQ(run({"solve", "--max-memory-bytes=lots", "-"}, "var v;").Code,
            2);
}

TEST(ToolsTest, AnalyzeSqlFromStdin) {
  RunResult R = run({"analyze", "-"},
                    "$x = $_POST['k'];\n"
                    "if (!preg_match('/[\\d]+$/', $x)) { exit; }\n"
                    "query(\"id=\" . $x);\n");
  EXPECT_EQ(R.Code, 0);
  EXPECT_NE(R.Out.find("VULNERABLE"), std::string::npos);
  EXPECT_NE(R.Out.find("_POST:k"), std::string::npos);
  EXPECT_NE(R.Out.find("slice:"), std::string::npos);
}

TEST(ToolsTest, AnalyzeXssFlag) {
  RunResult R =
      run({"analyze", "--attack=xss", "-"}, "echo $_GET['c'];\n");
  EXPECT_EQ(R.Code, 0);
  EXPECT_NE(R.Out.find("<script"), std::string::npos);
}

TEST(ToolsTest, AnalyzeNotVulnerableExitCode) {
  RunResult R = run({"analyze", "-"},
                    "$x = $_POST['k'];\n"
                    "if (!preg_match('/^[0-9]+$/', $x)) { exit; }\n"
                    "query(\"id=\" . $x);\n");
  EXPECT_EQ(R.Code, 1);
  EXPECT_NE(R.Out.find("not vulnerable"), std::string::npos);
}

TEST(ToolsTest, AnalyzeNoSinksExitCode) {
  // "Parsed but nothing to audit" is exit 3, distinct from exit 1's
  // "audited and found safe" above.
  RunResult R = run({"analyze", "-"},
                    "$x = $_GET['a'];\n$y = $x . 'b';\n");
  EXPECT_EQ(R.Code, 3);
  EXPECT_NE(R.Out.find("no sinks found"), std::string::npos);
  EXPECT_EQ(R.Out.find("not vulnerable"), std::string::npos);
}

TEST(ToolsTest, AnalyzeNoTaintPruneFlag) {
  const std::string Safe = "$x = $_POST['k'];\n"
                           "if (!preg_match('/^[0-9]+$/', $x)) { exit; }\n"
                           "query(\"id=\" . $x);\n";
  RunResult Pruned = run({"analyze", "-"}, Safe);
  EXPECT_EQ(Pruned.Code, 1);
  EXPECT_NE(Pruned.Out.find("sink paths: 0"), std::string::npos);
  // Same verdict the slow way: the path is enumerated and solved.
  RunResult Raw = run({"analyze", "--no-taint-prune", "-"}, Safe);
  EXPECT_EQ(Raw.Code, 1);
  EXPECT_NE(Raw.Out.find("sink paths: 1"), std::string::npos);
  EXPECT_NE(Raw.Out.find("not vulnerable"), std::string::npos);
}

TEST(ToolsTest, TaintReportNeedsSolving) {
  RunResult R = run({"taint", "-"},
                    "$x = $_POST['k'];\n"
                    "if (!preg_match('/[0-9]+$/', $x)) { exit; }\n"
                    "query(\"id=\" . $x);\n");
  EXPECT_EQ(R.Code, 1);
  EXPECT_NE(R.Out.find("sink at line 3 (query): tainted"),
            std::string::npos);
  EXPECT_NE(R.Out.find("sources: _POST:k"), std::string::npos);
  EXPECT_NE(R.Out.find("verdict: needs solving"), std::string::npos);
  EXPECT_NE(R.Out.find("slice: 1 2 3"), std::string::npos);
}

TEST(ToolsTest, TaintReportProvenSafe) {
  RunResult R = run({"taint", "-"},
                    "$x = $_POST['k'];\n"
                    "if (!preg_match('/^[0-9]+$/', $x)) { exit; }\n"
                    "query(\"id=\" . $x);\n");
  EXPECT_EQ(R.Code, 0);
  EXPECT_NE(R.Out.find("verdict: proven safe"), std::string::npos);
  EXPECT_NE(R.Out.find("result: all sinks proven safe"),
            std::string::npos);
}

TEST(ToolsTest, TaintNoSinksExitCode) {
  RunResult R = run({"taint", "-"}, "$x = $_GET['a'];\n");
  EXPECT_EQ(R.Code, 3);
  EXPECT_NE(R.Out.find("no sinks found"), std::string::npos);
}

TEST(ToolsTest, TaintReportIsDeterministic) {
  const std::string Source =
      "$a = $_GET['u'];\n"
      "$b = $_POST['v'];\n"
      "if (preg_match('/x/', $a)) { $c = $a . $b; } else { $c = $b; }\n"
      "query($c);\nquery('constant');\n";
  RunResult First = run({"taint", "-"}, Source);
  RunResult Second = run({"taint", "-"}, Source);
  EXPECT_EQ(First.Code, 1);
  EXPECT_EQ(First.Out, Second.Out);
  EXPECT_EQ(First.Code, Second.Code);
  // Two sinks, reported in program order with stable source sets.
  EXPECT_NE(First.Out.find("sinks: 2, proven safe: 1"), std::string::npos);
  EXPECT_NE(First.Out.find("sources: _GET:u _POST:v"), std::string::npos);
}

TEST(ToolsTest, TaintErrors) {
  EXPECT_EQ(run({"taint", "--bogus", "-"}).Code, 2);
  EXPECT_EQ(run({"taint"}).Code, 2);
  RunResult R = run({"taint", "-"}, "$x = ;\n");
  EXPECT_EQ(R.Code, 2);
  EXPECT_NE(R.Err.find("parse error"), std::string::npos);
}

TEST(ToolsTest, AutomataInfo) {
  RunResult R = run({"automata", "info", "/(ab)+/"});
  EXPECT_EQ(R.Code, 0);
  EXPECT_NE(R.Out.find("states:"), std::string::npos);
  EXPECT_NE(R.Out.find("empty:       no"), std::string::npos);
}

TEST(ToolsTest, AutomataRoundTripThroughFiles) {
  TempDir Tmp;
  std::string MachineFile =
      Tmp.file("m.nfa", serializeNfa(regexLanguage("a(b|c)d"), "m"));
  RunResult Min = run({"automata", "minimize", MachineFile});
  ASSERT_EQ(Min.Code, 0);
  // The minimized output parses back and stays equivalent.
  NfaParseResult Parsed = parseNfa(Min.Out);
  ASSERT_TRUE(Parsed.ok()) << Parsed.Error;
  EXPECT_TRUE(equivalentTo(*Parsed.Machine, regexLanguage("a(b|c)d")));
}

TEST(ToolsTest, AutomataBinaryOps) {
  EXPECT_EQ(run({"automata", "equiv", "/a|b/", "/[ab]/"}).Code, 0);
  EXPECT_EQ(run({"automata", "equiv", "/a/", "/b/"}).Code, 1);
  EXPECT_EQ(run({"automata", "subset", "/ab/", "/a.*/"}).Code, 0);
  EXPECT_EQ(run({"automata", "subset", "/ba/", "/a.*/"}).Code, 1);
  RunResult I = run({"automata", "intersect", "/[ab]+/", "/.*a/"});
  ASSERT_EQ(I.Code, 0);
  NfaParseResult Parsed = parseNfa(I.Out);
  ASSERT_TRUE(Parsed.ok());
  EXPECT_TRUE(Parsed.Machine->accepts("ba"));
  EXPECT_FALSE(Parsed.Machine->accepts("ab"));
}

TEST(ToolsTest, AutomataAcceptsAndShortest) {
  EXPECT_EQ(run({"automata", "accepts", "/a+b/", "aab"}).Code, 0);
  EXPECT_EQ(run({"automata", "accepts", "/a+b/", "b"}).Code, 1);
  RunResult S = run({"automata", "shortest", "/x{3,}/"});
  EXPECT_EQ(S.Code, 0);
  EXPECT_NE(S.Out.find("\"xxx\""), std::string::npos);
  EXPECT_EQ(run({"automata", "shortest", "/[]/"}).Code, 1);
}

TEST(ToolsTest, AutomataEnumerateAndDot) {
  RunResult E = run({"automata", "enumerate", "/a{1,3}/"});
  EXPECT_EQ(E.Code, 0);
  EXPECT_NE(E.Out.find("\"a\""), std::string::npos);
  EXPECT_NE(E.Out.find("\"aaa\""), std::string::npos);
  EXPECT_EQ(E.Out.find("\"aaaa\""), std::string::npos);
  RunResult D = run({"automata", "dot", "/ab/"});
  EXPECT_EQ(D.Code, 0);
  EXPECT_EQ(D.Out.rfind("digraph", 0), 0u);
}

TEST(ToolsTest, AutomataToRegexRoundTrips) {
  RunResult R = run({"automata", "to-regex", "/(a|b)*abb/"});
  ASSERT_EQ(R.Code, 0);
  // Output is /regex/\n; feed it back through equiv.
  std::string Pattern = R.Out.substr(0, R.Out.size() - 1);
  EXPECT_EQ(run({"automata", "equiv", Pattern, "/(a|b)*abb/"}).Code, 0);
}

TEST(ToolsTest, AutomataExtendedDialect) {
  EXPECT_EQ(run({"automata", "equiv", "/~a&~b/", "/~(a|b)/"}).Code, 0);
}

TEST(ToolsTest, AutomataErrors) {
  EXPECT_EQ(run({"automata"}).Code, 2);
  EXPECT_EQ(run({"automata", "bogus-op", "/a/"}).Code, 2);
  EXPECT_EQ(run({"automata", "equiv", "/a/"}).Code, 2);
  RunResult R = run({"automata", "info", "/((/"});
  EXPECT_EQ(R.Code, 2);
  EXPECT_NE(R.Err.find("regex"), std::string::npos);
  EXPECT_EQ(run({"automata", "info", "/nonexistent/file.nfa"}).Code, 2);
}

TEST(ToolsTest, AnalyzeAttackAcceptsRegistryPolicies) {
  // Every registered policy id is a valid --attack= value; sql stays an
  // alias for sqli, and unknown ids name the known set.
  EXPECT_EQ(run({"analyze", "--attack=sql", "-"},
                "query($_GET['q']);\n")
                .Code,
            0);
  EXPECT_EQ(run({"analyze", "--attack=path", "-"},
                "fopen(\"data/\" . $_GET['p']);\n")
                .Code,
            0);
  EXPECT_EQ(run({"analyze", "--attack=cmd", "-"},
                "system(\"ls \" . $_GET['d']);\n")
                .Code,
            0);
  RunResult Bad = run({"analyze", "--attack=lisp", "-"}, "exit;\n");
  EXPECT_EQ(Bad.Code, 2);
  EXPECT_NE(Bad.Err.find("unknown policy"), std::string::npos);
  EXPECT_NE(Bad.Err.find("sqli"), std::string::npos);
}

namespace {

/// Parses the audit report a run printed on stdout.
Json auditReport(const RunResult &R) {
  std::string Error;
  auto Doc = Json::parse(R.Out, &Error);
  EXPECT_TRUE(Doc.has_value()) << Error << "\n" << R.Out;
  return Doc ? *Doc : Json::object();
}

/// The finding object for \p PolicyId in the first file of the report.
Json findingFor(const Json &Doc, const std::string &PolicyId) {
  const Json *Files = Doc.find("files");
  EXPECT_TRUE(Files && Files->size() == 1);
  const Json *Findings = Files->elements().front().find("findings");
  EXPECT_TRUE(Findings);
  for (const Json &F : Findings->elements())
    if (F.find("policy")->asString() == PolicyId)
      return F;
  ADD_FAILURE() << "no finding for " << PolicyId;
  return Json::object();
}

} // namespace

TEST(ToolsTest, AuditReportsEveryPolicyInOnePass) {
  RunResult R = run({"audit", "-"},
                    "$id = $_GET['id'];\n"
                    "query(\"SELECT \" . $id);\n"
                    "echo \"<div>\" . $id . \"</div>\";\n"
                    "system(\"report \" . $id);\n");
  EXPECT_EQ(R.Code, 0) << R.Err;
  Json Doc = auditReport(R);
  EXPECT_EQ(Doc.find("policies")->size(), 4u);
  EXPECT_EQ(findingFor(Doc, "sqli").find("verdict")->asString(),
            "vulnerable");
  EXPECT_EQ(findingFor(Doc, "xss").find("verdict")->asString(),
            "vulnerable");
  EXPECT_EQ(findingFor(Doc, "cmd").find("verdict")->asString(),
            "vulnerable");
  EXPECT_EQ(findingFor(Doc, "path").find("verdict")->asString(),
            "no-sinks");
  // The vulnerable findings carry exploit witnesses.
  Json Sqli = findingFor(Doc, "sqli");
  const Json *Exploit = Sqli.find("exploit_inputs");
  ASSERT_TRUE(Exploit);
  ASSERT_TRUE(Exploit->find("_GET:id"));
  EXPECT_NE(Exploit->find("_GET:id")->asString().find("'"),
            std::string::npos);
}

TEST(ToolsTest, AuditSanitizersProveSafeAndExitCodes) {
  // All sinks sanitized: exit 1 (audited, nothing vulnerable).
  RunResult Safe = run({"audit", "-"},
                       "$n = $_POST['n'];\n"
                       "$s = addslashes($n);\n"
                       "query(\"SELECT \" . $s);\n"
                       "$h = htmlspecialchars($n);\n"
                       "echo \"<p>\" . $h . \"</p>\";\n");
  EXPECT_EQ(Safe.Code, 1) << Safe.Err;
  Json Doc = auditReport(Safe);
  EXPECT_EQ(findingFor(Doc, "sqli").find("verdict")->asString(), "safe");
  EXPECT_EQ(findingFor(Doc, "sqli").find("sinks_proven_safe")->asUnsigned(),
            1u);
  EXPECT_EQ(findingFor(Doc, "xss").find("verdict")->asString(), "safe");

  // No sinks at all: exit 3.
  EXPECT_EQ(run({"audit", "-"}, "$x = $_GET['a'];\n").Code, 3);

  // Parse errors: exit 2.
  EXPECT_EQ(run({"audit", "-"}, "$x = ;\n").Code, 2);
}

TEST(ToolsTest, AuditPolicyFilterAndBatchMode) {
  TempDir Tmp;
  std::string Vuln = Tmp.file("vuln.php", "query($_GET['q']);\n");
  std::string Quiet = Tmp.file("quiet.php", "$x = $_GET['a'];\n");

  // --policy= restricts the audited set; an xss-only audit of a
  // SQL-vulnerable file sees no sinks.
  RunResult Filtered = run({"audit", "--policy=xss", Vuln});
  EXPECT_EQ(Filtered.Code, 3);
  Json FDoc = auditReport(Filtered);
  EXPECT_EQ(FDoc.find("policies")->size(), 1u);
  EXPECT_EQ(FDoc.find("policies")->elements().front().asString(), "xss");

  // Batch mode: both files in one report, summary counts the vulnerable
  // one, and any vulnerability dominates the exit code.
  RunResult Batch = run({"audit", Vuln, Quiet});
  EXPECT_EQ(Batch.Code, 0);
  Json BDoc = auditReport(Batch);
  EXPECT_EQ(BDoc.find("files")->size(), 2u);
  EXPECT_EQ(BDoc.find("summary")->find("files")->asUnsigned(), 2u);
  EXPECT_EQ(BDoc.find("summary")->find("vulnerable_files")->asUnsigned(),
            1u);

  EXPECT_EQ(run({"audit", "--policy=bogus", Vuln}).Code, 2);
}

TEST(ToolsTest, AuditRepeatedPolicyIdsAuditOnce) {
  // 65 ids overflow the shared walk's 64-bit per-path spec mask unless
  // repeats collapse; the alias "sql" names the same policy.
  std::string Ids = "sqli";
  for (int I = 0; I != 64; ++I)
    Ids += I % 2 ? ",sqli" : ",sql";
  RunResult R = run({"audit", "--policy=" + Ids, "-"},
                    "query(\"SELECT \" . $_GET['id']);\n");
  EXPECT_EQ(R.Code, 0) << R.Err;
  Json Doc = auditReport(R);
  ASSERT_EQ(Doc.find("policies")->size(), 1u);
  EXPECT_EQ(Doc.find("policies")->elements().front().asString(), "sqli");
  EXPECT_EQ(findingFor(Doc, "sqli").find("verdict")->asString(),
            "vulnerable");

  // First-occurrence order is kept.
  Json Order = auditReport(run({"audit", "--policy=xss,sqli,xss", "-"},
                               "echo $_GET['a'];\n"));
  ASSERT_EQ(Order.find("policies")->size(), 2u);
  EXPECT_EQ(Order.find("policies")->elements()[0].asString(), "xss");
  EXPECT_EQ(Order.find("policies")->elements()[1].asString(), "sqli");
}

TEST(ToolsTest, AuditMatchesSeparateAnalyzeRuns) {
  // The tentpole invariant at CLI level: the audit's per-policy verdicts
  // equal four separate --attack= runs on the same file.
  const std::string Source = "$u = $_POST['u'];\n"
                             "if (!preg_match('/[0-9]+$/', $u)) { exit; }\n"
                             "$e = addslashes($u);\n"
                             "query(\"SELECT \" . $e);\n"
                             "echo \"hi \" . $u;\n"
                             "exec(\"usermod \" . $u);\n";
  Json Doc = auditReport(run({"audit", "-"}, Source));
  for (const std::string Id : {"sqli", "xss", "path", "cmd"}) {
    int Single = run({"analyze", "--attack=" + Id, "-"}, Source).Code;
    const std::string Verdict = findingFor(Doc, Id).find("verdict")->asString();
    int Expected = Verdict == "vulnerable" ? 0
                   : Verdict == "safe"     ? 1
                                           : 3;
    EXPECT_EQ(Single, Expected) << Id;
  }
}

TEST(ToolsTest, CorpusWritesSuites) {
  TempDir Tmp;
  RunResult R = run({"corpus", (Tmp.Path / "corpus").string()});
  ASSERT_EQ(R.Code, 0);
  EXPECT_TRUE(std::filesystem::exists(Tmp.Path / "corpus" / "eve-1.0" /
                                      "edit.php"));
  EXPECT_TRUE(std::filesystem::exists(Tmp.Path / "corpus" / "warp-1.2.1" /
                                      "secure.php"));
}

TEST(ToolsTest, ReplPushPopCheckRoundTrip) {
  RunResult R = run({"repl"}, "var v; var w; v . w <= /ab|ba/;\n"
                              "check\n"
                              "check\n"
                              "push\n"
                              "v <= /a/;\n"
                              "check\n"
                              "pop\n"
                              "check\n"
                              "depth\n"
                              "quit\n");
  EXPECT_EQ(R.Code, 0) << R.Err;
  // Base assertion acknowledged; the first check is cold, the re-check
  // warm with every group spliced.
  EXPECT_NE(R.Out.find("ok\n"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("[cold, groups 0/1 reused]"), std::string::npos)
      << R.Out;
  EXPECT_NE(R.Out.find("[warm, groups 1/1 reused]"), std::string::npos)
      << R.Out;
  // The delta dirties the group; pop restores the cached state.
  EXPECT_NE(R.Out.find("pushed (depth 1)"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("[warm, groups 0/1 reused]"), std::string::npos)
      << R.Out;
  EXPECT_NE(R.Out.find("popped (depth 0)"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("\n0\n"), std::string::npos) << R.Out;
  // Every check on this instance agrees.
  EXPECT_EQ(R.Out.find("unsat"), std::string::npos) << R.Out;
}

TEST(ToolsTest, ReplReportsErrorsAndReset) {
  RunResult R = run({"repl"}, "var v; v <= /a*/;\n"
                              "check\n"
                              "reset\n"
                              "check\n"
                              "pop\n"
                              "w <= /a/;\n"
                              "quit\n");
  EXPECT_EQ(R.Code, 0) << R.Err;
  EXPECT_NE(R.Out.find("caches cleared"), std::string::npos) << R.Out;
  // Both checks are cold: reset drops the warm caches.
  EXPECT_EQ(R.Out.find("[warm"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("error: no frame to pop"), std::string::npos) << R.Out;
  // Undeclared variable: a parse error naming the input line, session
  // intact afterwards.
  EXPECT_NE(R.Out.find("error: line 6"), std::string::npos) << R.Out;

  EXPECT_EQ(run({"repl", "--bogus"}).Code, 2);
}

TEST(ToolsTest, AuditWatchSkipsUnchangedContent) {
  TempDir Tmp;
  Tmp.file("vuln.php", "query($_GET['q']);\n");
  Tmp.file("quiet.php", "$x = $_GET['a'];\n");
  Tmp.file("notes.txt", "not php\n");

  RunResult R = run({"audit", "--watch=" + Tmp.Path.string(),
                     "--watch-poll-ms=10", "--watch-max-sweeps=2"});
  EXPECT_EQ(R.Code, 0) << R.Err;

  // One NDJSON line per sweep.
  std::vector<Json> Sweeps;
  std::istringstream Lines(R.Out);
  std::string Line;
  while (std::getline(Lines, Line)) {
    if (Line.empty())
      continue;
    std::string Error;
    auto Doc = Json::parse(Line, &Error);
    ASSERT_TRUE(Doc.has_value()) << Error << "\n" << Line;
    Sweeps.push_back(*Doc);
  }
  ASSERT_EQ(Sweeps.size(), 2u);

  // Sweep 0 audits both .php files (and ignores the .txt).
  EXPECT_EQ(Sweeps[0].find("sweep")->asUnsigned(), 0u);
  EXPECT_EQ(Sweeps[0].find("files_scanned")->asUnsigned(), 2u);
  EXPECT_EQ(Sweeps[0].find("files_changed")->asUnsigned(), 2u);
  EXPECT_EQ(Sweeps[0].find("reports")->size(), 2u);

  // Sweep 1: identical content hashes, nothing re-audited.
  EXPECT_EQ(Sweeps[1].find("sweep")->asUnsigned(), 1u);
  EXPECT_EQ(Sweeps[1].find("files_scanned")->asUnsigned(), 2u);
  EXPECT_EQ(Sweeps[1].find("files_changed")->asUnsigned(), 0u);
  EXPECT_EQ(Sweeps[1].find("reports")->size(), 0u);
}

TEST(ToolsTest, AuditWatchRejectsBadUsage) {
  TempDir Tmp;
  std::string Php = Tmp.file("a.php", "exit;\n");
  // Positional paths, --stats, and --trace are batch-mode only.
  EXPECT_EQ(run({"audit", "--watch=" + Tmp.Path.string(), Php}).Code, 2);
  EXPECT_EQ(run({"audit", "--watch=" + Tmp.Path.string(),
                 "--stats=" + (Tmp.Path / "s.json").string()})
                .Code,
            2);
  // The watch target must be a directory.
  EXPECT_EQ(run({"audit", "--watch=" + Php}).Code, 2);
}
