//===- RenderMemoTest.cpp - The render memo (solver/Solution.h) -----------===//
//
// renderLanguage memoizes each answer's regex text and witness by the
// machine's content identity. A hit must be byte-identical to a fresh
// render: over every assignment of the Figure 11 corpus and of the small
// Figure 12 rows, across epsilon-marker twins, and under four threads
// sharing machines. A render cut short by a tripped budget is never filed.
//
//===----------------------------------------------------------------------===//

#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "miniphp/Cfg.h"
#include "miniphp/Corpus.h"
#include "miniphp/Parser.h"
#include "miniphp/SymExec.h"
#include "miniphp/Unroll.h"
#include "regex/NfaToRegex.h"
#include "regex/RegexCompiler.h"
#include "solver/Solution.h"
#include "solver/Solver.h"
#include "support/Budget.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

using namespace dprle;
using namespace dprle::miniphp;

namespace {

/// Every sink path's constraint system in \p Source.
void collectSinkPaths(const std::string &Source, std::vector<Problem> &Out) {
  ParseResult P = parseProgram(Source);
  ASSERT_TRUE(P.Ok) << P.Error;
  Program Unrolled = unrollLoops(P.Prog, 3);
  Cfg G = Cfg::build(Unrolled);
  SymExecOptions Opts;
  Opts.TaintPrune = true;
  for (PathCondition &PC :
       enumerateSinkPaths(Unrolled, G, AttackSpec::sqlQuote(), Opts))
    Out.push_back(std::move(PC.Instance));
}

/// The answers' machines: every assignment of the Figure 11 corpus and of
/// the Figure 12 rows CorpusTest solves.
std::vector<Nfa> corpusAnswers() {
  std::vector<Problem> Problems;
  for (const Suite &S : figure11Suites())
    for (const SuiteFile &F : S.Files)
      collectSinkPaths(F.Source, Problems);
  for (const VulnSpec &Spec : figure12Specs())
    if (Spec.TargetConstraints <= 31 && !Spec.Pathological)
      collectSinkPaths(generateVulnerableSource(Spec), Problems);
  SolverOptions Opts;
  Opts.MaxSolutions = 1;
  std::vector<Nfa> Answers;
  for (const Problem &P : Problems)
    for (const Assignment &A : Solver(Opts).solve(P).Assignments)
      for (VarId V = 0; V != A.numVariables(); ++V)
        Answers.push_back(A.language(V));
  return Answers;
}

/// Renders \p M with every memo off.
RenderedLanguage renderCold(const Nfa &M) {
  DecisionCache::global().setEnabled(false);
  RenderedLanguage R = renderLanguage(M);
  DecisionCache::global().setEnabled(true);
  return R;
}

void expectSame(const RenderedLanguage &Want, const RenderedLanguage &Got,
                const std::string &What) {
  EXPECT_EQ(Want.Regex, Got.Regex) << What;
  EXPECT_EQ(Want.Witness, Got.Witness) << What;
}

TEST(RenderMemoTest, HitsEqualFreshRendersOverTheCorpus) {
  ASSERT_TRUE(DecisionCache::global().enabled());
  std::vector<Nfa> Answers = corpusAnswers();
  ASSERT_GT(Answers.size(), 50u) << "the corpus no longer yields answers";
  clearRenderCache();
  uint64_t Hits0 = RenderStats::global().Hits.get();
  for (size_t I = 0; I != Answers.size(); ++I) {
    RenderedLanguage Cold = renderCold(Answers[I]);
    // The rendering the memo replaces: regex text, then a shortest member.
    EXPECT_EQ(Cold.Regex, nfaToRegex(Answers[I]));
    EXPECT_EQ(Cold.Witness, shortestString(Answers[I]));
    std::string What = "answer " + std::to_string(I);
    expectSame(Cold, renderLanguage(Answers[I]), What + " (first)");
    expectSame(Cold, renderLanguage(Answers[I]), What + " (repeat)");
  }
  // Every repeat hits; answers shared across paths hit on first use too.
  EXPECT_GE(RenderStats::global().Hits.get() - Hits0, Answers.size());
}

TEST(RenderMemoTest, MarkerTwinsRenderIdentically) {
  Nfa Marked = concat(regexLanguage("(ab)*"), regexLanguage("c[de]+"),
                      EpsilonMarker(7));
  Nfa Remarked = concat(regexLanguage("(ab)*"), regexLanguage("c[de]+"),
                        EpsilonMarker(9));
  Nfa Plain = Marked.withoutMarkers();
  ASSERT_TRUE(Marked.identity() == Remarked.identity());
  RenderedLanguage Want = renderCold(Plain);
  expectSame(Want, renderCold(Marked), "marked, memo off");
  expectSame(Want, renderCold(Remarked), "remarked, memo off");

  clearRenderCache();
  uint64_t Hits0 = RenderStats::global().Hits.get();
  expectSame(Want, renderLanguage(Marked), "marked, memo on");
  expectSame(Want, renderLanguage(Remarked), "remarked, memo on");
  expectSame(Want, renderLanguage(Plain), "plain, memo on");
  // One entry serves all three.
  EXPECT_EQ(RenderStats::global().Hits.get() - Hits0, 2u);
}

TEST(RenderMemoTest, RendersUnderATrippedBudgetAreNeverFiled) {
  Nfa M = regexLanguage("(a|b)*a(a|b)");
  RenderedLanguage Want = renderCold(M);
  clearRenderCache();
  {
    ResourceLimits L;
    L.MaxStates = 1;
    ResourceBudget Budget(L);
    ResourceGuard Guard(&Budget);
    ResourceGuard::chargeStates(2);
    ASSERT_TRUE(ResourceGuard::exhausted());
    (void)renderLanguage(M);
  }
  // The next render misses and computes the true answer.
  uint64_t Hits0 = RenderStats::global().Hits.get();
  uint64_t Misses0 = RenderStats::global().Misses.get();
  expectSame(Want, renderLanguage(M), "after the tripped render");
  EXPECT_EQ(RenderStats::global().Hits.get(), Hits0);
  EXPECT_EQ(RenderStats::global().Misses.get(), Misses0 + 1);
  expectSame(Want, renderLanguage(M), "filed once untripped");
  EXPECT_EQ(RenderStats::global().Hits.get(), Hits0 + 1);
}

TEST(RenderMemoTest, ConcurrentRendersOfSharedMachinesAgree) {
  // Four threads render one pool of machines (marker twins included) in
  // random order while one of them keeps flushing the memo, so lookups,
  // inserts and flushes interleave on every stripe.
  std::vector<Nfa> Pool;
  const char *Patterns[] = {"a*b",      "(ab|ba)*",     "[0-9]+'",
                            "x(y|z)*x", "[^a]*a[^a]*",  "(a|b)*abb",
                            "'[a-z]*",  "(0|1(01*0)*1)*"};
  for (const char *P : Patterns) {
    Pool.push_back(regexLanguage(P));
    for (EpsilonMarker Marker : {1, 2})
      Pool.push_back(concat(regexLanguage(P), Nfa::literal("q"), Marker));
  }
  std::vector<RenderedLanguage> Want;
  for (const Nfa &M : Pool)
    Want.push_back(renderCold(M));

  clearRenderCache();
  std::atomic<unsigned> Mismatches{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 4; ++T)
    Threads.emplace_back([&, T] {
      std::mt19937 R(T);
      for (unsigned Q = 0; Q != 400; ++Q) {
        if (T == 0 && Q % 50 == 0)
          clearRenderCache();
        size_t I = R() % Pool.size();
        RenderedLanguage Got = renderLanguage(Pool[I]);
        if (Got.Regex != Want[I].Regex || Got.Witness != Want[I].Witness)
          ++Mismatches;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0u);
}

} // namespace
