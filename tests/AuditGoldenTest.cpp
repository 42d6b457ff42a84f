//===- AuditGoldenTest.cpp - Pinned explorer and audit output -------------===//
//
// Pins a digest of everything the symbolic executor hands the solver, and
// of every audit finding, over the 76 Figure 11 files and the 6 audit-
// showcase files with the four registry policies. The digests were
// recorded from the two-explorer implementation (one single-spec walker,
// one multi-spec walker); any refactor of the path walk or the analysis
// driver must reproduce them exactly.
//
// Per path the digest covers the constraint shapes (which terms are
// variables, the identity hash of each constant and right-hand side
// machine, the right-hand side names), the variable names, InputVariables,
// SliceLines, SinkLine and NumConstraints. Problem::str() is avoided on
// purpose: rendering every machine would cost more than the walks.
//
//===----------------------------------------------------------------------===//

#include "miniphp/Analysis.h"
#include "miniphp/Corpus.h"
#include "miniphp/Inline.h"
#include "miniphp/Parser.h"
#include "miniphp/Unroll.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>

using namespace dprle;
using namespace dprle::miniphp;

namespace {

/// The 82 audited files: Figure 11 first, then the showcase.
std::vector<SuiteFile> corpusFiles(bool ShowcaseOnly) {
  std::vector<SuiteFile> Out;
  if (!ShowcaseOnly)
    for (const Suite &S : figure11Suites())
      for (const SuiteFile &F : S.Files)
        Out.push_back(F);
  for (const SuiteFile &F : auditShowcase().Files)
    Out.push_back(F);
  return Out;
}

std::vector<AttackSpec> registrySpecs() {
  std::vector<AttackSpec> Out;
  for (const Policy &P : PolicyRegistry::global().policies())
    Out.push_back(P.Attack);
  return Out;
}

std::vector<const Policy *> registryPolicies() {
  std::vector<const Policy *> Out;
  for (const Policy &P : PolicyRegistry::global().policies())
    Out.push_back(&P);
  return Out;
}

/// The analysis front end: parse, inline, unroll three times, build the
/// CFG (the CFG points into the program, so both live together).
struct FrontEnd {
  Program Prog;
  std::unique_ptr<Cfg> G;
};

FrontEnd frontEnd(const SuiteFile &F) {
  ParseResult Parsed = parseProgram(F.Source);
  EXPECT_TRUE(Parsed.Ok) << F.Name;
  InlineResult Inlined = inlineFunctions(Parsed.Prog);
  EXPECT_TRUE(Inlined.Ok) << F.Name;
  FrontEnd Out;
  Out.Prog = unrollLoops(Inlined.Prog, 3);
  Out.G = std::make_unique<Cfg>(Cfg::build(Out.Prog));
  return Out;
}

std::string hex(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

uint64_t fnv1a(const std::string &Text) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

void describePath(const PathCondition &PC, std::string &Out) {
  Out += " path c=" + std::to_string(PC.NumConstraints) +
         " line=" + std::to_string(PC.SinkLine) + " slice=";
  for (unsigned L : PC.SliceLines)
    Out += std::to_string(L) + ",";
  Out += " inputs=";
  for (const auto &[Key, Var] : PC.InputVariables)
    Out += Key + "=" + std::to_string(Var) + ",";
  const Problem &I = PC.Instance;
  Out += " vars=";
  for (VarId V = 0; V != I.numVariables(); ++V)
    Out += I.variableName(V) + ",";
  for (const Constraint &C : I.constraints()) {
    Out += " [";
    for (const Term &T : C.Lhs)
      Out += (T.isVariable() ? "v" + std::to_string(T.Var)
                             : "c" + hex(T.Language.identity().hash())) +
             ".";
    Out += "<=" + hex(C.Rhs.identity().hash()) + ":" + C.RhsName + "]";
  }
  Out += "\n";
}

void describe(const SymExecResult &R, std::string &Out) {
  Out += "sinks=" + std::to_string(R.SinksFound) +
         " safe=" + std::to_string(R.SinksProvenSafe) +
         " taint=" + std::to_string(R.TaintUsed) +
         " interrupted=" + std::to_string(R.Interrupted) +
         " paths=" + std::to_string(R.Paths.size()) + "\n";
  for (const PathCondition &PC : R.Paths)
    describePath(PC, Out);
}

/// The fields of one policy's verdict that the audit fingerprint covers:
/// everything but timings and solver statistics.
template <typename FindingT>
void describeFinding(const FindingT &F, std::string &Out) {
  Out += "sinks=" + std::to_string(F.SinksFound) +
         " safe=" + std::to_string(F.SinksProvenSafe) +
         " paths=" + std::to_string(F.SinkPaths) +
         " vuln=" + std::to_string(F.VulnerablePaths) +
         " c=" + std::to_string(F.NumConstraints) +
         " line=" + std::to_string(F.SinkLine) + " slice=";
  for (unsigned L : F.SliceLines)
    Out += std::to_string(L) + ",";
  for (const auto &[Key, W] : F.ExploitInputs)
    Out += " " + Key + "=" + hex(fnv1a(W));
  Out += "\n";
}

/// Digests of the four-spec shared walk and of the four one-spec walks
/// over \p Files under \p Opts.
struct WalkDigests {
  std::string Shared, Single;
  size_t Paths = 0;
};

WalkDigests walkAll(const std::vector<SuiteFile> &Files,
                    const SymExecOptions &Opts) {
  std::vector<AttackSpec> Specs = registrySpecs();
  WalkDigests Out;
  for (const SuiteFile &F : Files) {
    FrontEnd FE = frontEnd(F);
    Out.Shared += F.Name + "\n";
    Out.Single += F.Name + "\n";
    for (const SymExecResult &R : runSymExecAll(FE.Prog, *FE.G, Specs, Opts))
      describe(R, Out.Shared);
    for (const AttackSpec &A : Specs) {
      SymExecResult R = runSymExec(FE.Prog, *FE.G, A, Opts);
      Out.Paths += R.Paths.size();
      describe(R, Out.Single);
    }
  }
  return Out;
}

} // namespace

TEST(AuditGoldenTest, CorpusHasEightyTwoFiles) {
  EXPECT_EQ(corpusFiles(false).size(), 82u);
  EXPECT_EQ(corpusFiles(true).size(), 6u);
  EXPECT_EQ(registrySpecs().size(), 4u);
}

TEST(AuditGoldenTest, PrunedWalksMatchTheRecordedDigests) {
  SymExecOptions Opts;
  Opts.TaintPrune = true;
  WalkDigests D = walkAll(corpusFiles(false), Opts);
  EXPECT_TRUE(D.Shared == D.Single);
  EXPECT_EQ(D.Paths, 27u);
  EXPECT_EQ(hex(fnv1a(D.Single)), "f2c7b20f6e597bb6");
}

TEST(AuditGoldenTest, UnprunedAllSinkWalksMatchTheRecordedDigests) {
  SymExecOptions Opts;
  Opts.TaintPrune = false;
  Opts.StopAtFirstSink = false;
  WalkDigests D = walkAll(corpusFiles(true), Opts);
  EXPECT_TRUE(D.Shared == D.Single);
  EXPECT_EQ(D.Paths, 19u);
  EXPECT_EQ(hex(fnv1a(D.Single)), "586b70f03b370384");
}

TEST(AuditGoldenTest, AnalysisAndAuditFindingsMatchTheRecordedDigests) {
  std::vector<const Policy *> Policies = registryPolicies();
  std::string Audit, Single;
  for (const SuiteFile &F : corpusFiles(false)) {
    AuditResult R = auditSource(F.Source, Policies);
    ASSERT_TRUE(R.ParseOk) << F.Name;
    ASSERT_EQ(R.Findings.size(), Policies.size());
    for (size_t I = 0; I != Policies.size(); ++I) {
      EXPECT_EQ(R.Findings[I].PolicyId, Policies[I]->Id);
      Audit += F.Name + " " + Policies[I]->Id +
               " blocks=" + std::to_string(R.NumBlocks) + " ";
      describeFinding(R.Findings[I], Audit);

      AnalysisResult A = analyzeSource(F.Source, Policies[I]->Attack);
      ASSERT_TRUE(A.ParseOk) << F.Name;
      EXPECT_EQ(A.noSinks(), R.Findings[I].noSinks()) << F.Name;
      Single += F.Name + " " + Policies[I]->Id +
                " blocks=" + std::to_string(A.NumBlocks) + " ";
      describeFinding(A, Single);
    }
  }
  EXPECT_TRUE(Audit == Single);
  EXPECT_EQ(hex(fnv1a(Single)), "b37e6c8bd854d989");
}
