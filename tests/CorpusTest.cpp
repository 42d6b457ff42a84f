//===- CorpusTest.cpp - Synthetic corpus generator tests ------------------===//
//
// The corpus generator must hit the Figure 11/12 statistics *exactly*:
// every generated vulnerable file is parsed, lowered to a CFG, and
// symbolically executed, and the resulting |FG| and |C| are compared to
// the paper's numbers. Solving behaviour is covered by the benchmarks;
// here we solve only the small rows.
//
//===----------------------------------------------------------------------===//

#include "miniphp/Analysis.h"
#include "miniphp/Corpus.h"
#include "miniphp/Inline.h"
#include "miniphp/Parser.h"
#include "miniphp/Unroll.h"
#include "regex/RegexCompiler.h"

#include <gtest/gtest.h>

#include <ostream>

using namespace dprle;
using namespace dprle::miniphp;

namespace dprle::miniphp {
/// Without this, gtest names each CorpusRowTest case after a byte dump of
/// the VulnSpec, which includes heap pointers and so changes every run.
void PrintTo(const VulnSpec &Spec, std::ostream *OS) {
  *OS << Spec.Suite << "/" << Spec.Name;
}
} // namespace dprle::miniphp

TEST(CorpusTest, Figure12Has17Rows) {
  auto Specs = figure12Specs();
  ASSERT_EQ(Specs.size(), 17u);
  unsigned Pathological = 0;
  for (const VulnSpec &S : Specs)
    Pathological += S.Pathological;
  EXPECT_EQ(Pathological, 1u);
  EXPECT_EQ(Specs[0].Suite, "eve");
  EXPECT_EQ(Specs[0].Name, "edit");
  EXPECT_EQ(Specs[0].TargetBlocks, 58u);
  EXPECT_EQ(Specs[0].TargetConstraints, 29u);
}

/// Structural sweep over every Figure 12 row: generated sources must
/// parse, and |FG| / |C| must match the paper exactly.
class CorpusRowTest : public ::testing::TestWithParam<VulnSpec> {};

TEST_P(CorpusRowTest, MatchesPaperStatistics) {
  const VulnSpec &Spec = GetParam();
  std::string Source = generateVulnerableSource(Spec);
  ParseResult R = parseProgram(Source);
  ASSERT_TRUE(R.Ok) << Spec.Name << ": " << R.Error;

  // Mirror the analysis pipeline: inline helpers and unroll loops
  // before the CFG is built (AnalysisResult::NumBlocks is |FG|).
  InlineResult Inlined = inlineFunctions(R.Prog);
  ASSERT_TRUE(Inlined.Ok) << Spec.Name << ": " << Inlined.Error;
  Program Prog = unrollLoops(Inlined.Prog, 3);

  Cfg G = Cfg::build(Prog);
  EXPECT_EQ(G.numBlocks(), Spec.TargetBlocks) << Spec.Name;

  auto Paths = enumerateSinkPaths(Prog, G, AttackSpec::sqlQuote());
  ASSERT_GE(Paths.size(), 1u) << Spec.Name;
  EXPECT_EQ(Paths.front().NumConstraints, Spec.TargetConstraints)
      << Spec.Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllRows, CorpusRowTest, ::testing::ValuesIn(figure12Specs()),
    [](const ::testing::TestParamInfo<VulnSpec> &Info) {
      return Info.param.Suite + "_" + Info.param.Name;
    });

TEST(CorpusTest, SmallRowsAreVulnerableWithValidExploits) {
  // Solve the rows the paper reports as fastest; the full 17-row sweep is
  // bench_fig12_solving.
  for (const VulnSpec &Spec : figure12Specs()) {
    if (Spec.TargetConstraints > 31 || Spec.Pathological)
      continue;
    SCOPED_TRACE(Spec.Suite + "/" + Spec.Name);
    AnalysisResult R = analyzeSource(generateVulnerableSource(Spec),
                                     AttackSpec::sqlQuote());
    ASSERT_TRUE(R.ParseOk) << R.ParseError;
    ASSERT_TRUE(R.vulnerable());
    // The designated exploit input carries the quote and still passes
    // its (faulty) filters: it must end in a digit.
    const std::string &Exploit = R.ExploitInputs.at("_POST:id");
    EXPECT_NE(Exploit.find('\''), std::string::npos);
    EXPECT_TRUE(searchLanguage("[\\d]+$").accepts(Exploit));
  }
}

TEST(CorpusTest, BenignSourceIsNotVulnerable) {
  for (unsigned Seed : {1u, 7u, 42u}) {
    std::string Source = generateBenignSource(Seed, 120);
    AnalysisResult R = analyzeSource(Source, AttackSpec::sqlQuote());
    ASSERT_TRUE(R.ParseOk) << R.ParseError;
    EXPECT_GE(R.SinksFound, 1u); // the generator always emits sinks
    EXPECT_FALSE(R.vulnerable());

    // The un-pruned pipeline walks the sink paths (loop unrolling
    // multiplies them) and reaches the same verdict.
    AnalysisOptions NoPrune;
    NoPrune.TaintPrune = false;
    AnalysisResult Raw = analyzeSource(Source, AttackSpec::sqlQuote(),
                                       NoPrune);
    ASSERT_TRUE(Raw.ParseOk) << Raw.ParseError;
    EXPECT_GE(Raw.SinkPaths, 1u);
    EXPECT_FALSE(Raw.vulnerable());
  }
}

TEST(CorpusTest, TaintPruningNeverChangesFig11Verdicts) {
  // Prune-soundness regression test: over the whole Fig. 11 corpus the
  // taint pre-pass must report the exact same vulnerable-file set as the
  // un-pruned pipeline, while symbolically executing fewer sink paths
  // for at least one file.
  unsigned PrunedPaths = 0, RawPaths = 0, FilesWithFewerPaths = 0;
  for (const Suite &S : figure11Suites()) {
    for (const SuiteFile &F : S.Files) {
      SCOPED_TRACE(S.Name + "/" + F.Name);
      AnalysisOptions Pruned;
      Pruned.Solver.CanonicalizeConstants = F.Name == "secure.php";
      AnalysisOptions Raw = Pruned;
      Raw.TaintPrune = false;
      AnalysisResult PR = analyzeSource(F.Source, AttackSpec::sqlQuote(),
                                        Pruned);
      AnalysisResult RR = analyzeSource(F.Source, AttackSpec::sqlQuote(),
                                        Raw);
      ASSERT_TRUE(PR.ParseOk) << PR.ParseError;
      ASSERT_TRUE(RR.ParseOk) << RR.ParseError;
      EXPECT_EQ(PR.vulnerable(), RR.vulnerable());
      EXPECT_EQ(PR.noSinks(), RR.noSinks());
      EXPECT_LE(PR.SinkPaths, RR.SinkPaths);
      PrunedPaths += PR.SinkPaths;
      RawPaths += RR.SinkPaths;
      FilesWithFewerPaths += PR.SinkPaths < RR.SinkPaths;
    }
  }
  EXPECT_LT(PrunedPaths, RawPaths);
  EXPECT_GE(FilesWithFewerPaths, 1u);
}

TEST(CorpusTest, BenignSourceHitsLineTarget) {
  std::string Source = generateBenignSource(3, 200);
  unsigned Lines = 0;
  for (char C : Source)
    Lines += C == '\n';
  EXPECT_GE(Lines, 195u);
  EXPECT_LE(Lines, 205u);
}

TEST(CorpusTest, Figure11SuiteShapes) {
  auto Suites = figure11Suites();
  ASSERT_EQ(Suites.size(), 3u);

  EXPECT_EQ(Suites[0].Name, "eve");
  EXPECT_EQ(Suites[0].Version, "1.0");
  EXPECT_EQ(Suites[0].Files.size(), 8u);

  EXPECT_EQ(Suites[1].Name, "utopia");
  EXPECT_EQ(Suites[1].Files.size(), 24u);

  EXPECT_EQ(Suites[2].Name, "warp");
  EXPECT_EQ(Suites[2].Files.size(), 44u);

  // Vulnerable-file counts match the paper: 1 / 4 / 12.
  unsigned Expected[] = {1, 4, 12};
  for (unsigned I = 0; I != 3; ++I) {
    unsigned Seeded = 0;
    for (const SuiteFile &F : Suites[I].Files)
      Seeded += F.SeededVulnerable;
    EXPECT_EQ(Seeded, Expected[I]) << Suites[I].Name;
  }
}

TEST(CorpusTest, Figure11LocApproximatelyMatches) {
  auto Suites = figure11Suites();
  unsigned Targets[] = {905, 5438, 24365};
  for (unsigned I = 0; I != 3; ++I) {
    unsigned Lines = Suites[I].totalLines();
    // Within 5% of the paper's LOC column.
    EXPECT_GE(Lines, Targets[I] * 95 / 100) << Suites[I].Name;
    EXPECT_LE(Lines, Targets[I] * 105 / 100) << Suites[I].Name;
  }
}

TEST(CorpusTest, EveryFileParses) {
  for (const Suite &S : figure11Suites())
    for (const SuiteFile &F : S.Files) {
      ParseResult R = parseProgram(F.Source);
      EXPECT_TRUE(R.Ok) << S.Name << "/" << F.Name << ": " << R.Error;
    }
}

TEST(CorpusTest, GenerationIsDeterministic) {
  const VulnSpec Spec = figure12Specs().front();
  EXPECT_EQ(generateVulnerableSource(Spec), generateVulnerableSource(Spec));
  EXPECT_EQ(generateBenignSource(5, 100), generateBenignSource(5, 100));
}
