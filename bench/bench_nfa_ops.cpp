//===- bench_nfa_ops.cpp - Automata substrate characterization ------------===//
//
// Experiment E10 (DESIGN.md): microbenchmarks of the low-level machine
// operations every decision-procedure step is built from — the "basic
// operations over NFAs" of paper Figure 3 plus the boolean-closure
// operations the comparisons and complements rely on.
//
// Two phases, one merged BENCH_nfa_ops.json artifact:
//
//  1. CSR A/B gate: every rebuilt kernel (Nfa::accepts, epsilon closure,
//     intersect, determinize, and the lazy decide searches) is timed
//     against its preserved adjacency-list baseline
//     (automata/BaselineKernels.h) on machines drawn from the Figure 11
//     corpus's filter/attack languages (the pattern tables of
//     src/miniphp/Corpus.cpp) plus the synthetic search-chain shapes.
//     Outputs are checked bit-identical first — machines via toString(),
//     DFAs via printDfa, verdicts and witness strings exactly — then the
//     geometric-mean speedup gates the run (>= 1.5x full, a reduced bar
//     under --smoke where sizes are too small for the gap to open fully).
//  2. The google-benchmark microbenchmarks, unchanged, now exercising the
//     CSR kernels through the public API.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "automata/BaselineKernels.h"
#include "automata/CsrNfa.h"
#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "automata/Print.h"
#include "regex/RegexCompiler.h"
#include "support/Timer.h"

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

using namespace dprle;

namespace {

/// A literal chain of length N over a small alphabet (like the tracked
/// string constants of the evaluation).
Nfa literalChain(unsigned N) {
  std::string S;
  for (unsigned I = 0; I != N; ++I)
    S += static_cast<char>('a' + I % 7);
  return Nfa::literal(S);
}

/// A nondeterministic search machine: Sigma* <chain> Sigma*.
Nfa searchChain(unsigned N) {
  Nfa Core = literalChain(N);
  return concat(concat(Nfa::sigmaStar(), Core), Nfa::sigmaStar())
      .withoutEpsilonTransitions();
}

//===----------------------------------------------------------------------===//
// Phase 1: CSR vs adjacency-list A/B gate
//===----------------------------------------------------------------------===//

/// The filter and attack languages of the Figure 11 corpus, compiled with
/// preg_match (substring-search) semantics exactly as the analysis does.
/// The pattern tables mirror src/miniphp/Corpus.cpp: anchored validators,
/// the faulty Figure 1-style validators, and the pathological `secure`
/// suffix checks, plus the SQL attack language.
std::vector<Nfa> figure11Machines() {
  static const char *const Patterns[] = {
      "^[0-9]+$",  "^\\d+$",      "^[0-9][0-9a-f]*$", "^[0-9a-f]+$",
      "[\\d]+$",   "[0-9]$",      "\\d$",             "[0-9]{1,6}$",
      "[0-9]{1,8}$",
  };
  std::vector<Nfa> Out;
  for (const char *P : Patterns)
    Out.push_back(searchLanguage(P).withoutEpsilonTransitions());
  Out.push_back(searchLanguage("'").withoutEpsilonTransitions());
  return Out;
}

std::string dfaToString(const Dfa &D) {
  std::ostringstream Os;
  printDfa(Os, D);
  return Os.str();
}

struct AbRow {
  std::string Name;
  double BaselineSeconds = 0.0;
  double CsrSeconds = 0.0;
  unsigned Reps = 0;

  double speedup() const {
    return CsrSeconds > 0 ? BaselineSeconds / CsrSeconds : 0.0;
  }
};

bool GOutputsAgree = true;

void mismatch(const std::string &Where) {
  std::fprintf(stderr, "FAIL: CSR output diverges from baseline in %s\n",
               Where.c_str());
  GOutputsAgree = false;
}

/// Membership A/B: every corpus machine against accepted and rejected
/// probes of growing length.
AbRow abAccepts(const std::vector<Nfa> &Machines, unsigned Reps) {
  AbRow Row{"accepts", 0, 0, Reps};
  std::vector<std::string> Probes;
  for (unsigned Len : {0u, 3u, 17u, 64u, 256u}) {
    std::string Digits, Mixed;
    for (unsigned I = 0; I != Len; ++I) {
      Digits += static_cast<char>('0' + I % 10);
      Mixed += static_cast<char>(I % 3 ? 'a' + I % 7 : '0' + I % 10);
    }
    Probes.push_back(Digits);
    Probes.push_back(Mixed + "'");
  }
  for (const Nfa &M : Machines)
    for (const std::string &P : Probes)
      if (M.accepts(P) != baseline::accepts(M, P))
        mismatch("accepts");
  Timer Baseline;
  for (unsigned R = 0; R != Reps; ++R)
    for (const Nfa &M : Machines)
      for (const std::string &P : Probes)
        benchmark::DoNotOptimize(baseline::accepts(M, P));
  Row.BaselineSeconds = Baseline.seconds();
  Timer Csr;
  for (unsigned R = 0; R != Reps; ++R)
    for (const Nfa &M : Machines)
      for (const std::string &P : Probes)
        benchmark::DoNotOptimize(M.accepts(P));
  Row.CsrSeconds = Csr.seconds();
  return Row;
}

/// Epsilon-closure A/B on the corpus machines *before* epsilon removal —
/// the shape concat/alternate chains feed the kernels.
AbRow abClosure(unsigned ChainLen, unsigned Reps) {
  AbRow Row{"epsilon_closure", 0, 0, Reps};
  std::vector<Nfa> Machines;
  Machines.push_back(
      concat(concat(Nfa::sigmaStar(), literalChain(ChainLen)),
             Nfa::sigmaStar()));
  Machines.push_back(star(alternate(literalChain(ChainLen / 2),
                                    literalChain(ChainLen / 2))));
  for (const Nfa &M : Machines) {
    std::vector<StateId> Fast = {M.start()}, Slow = {M.start()};
    StateBits Bits;
    M.csr()->epsilonClosure(Fast, Bits, /*SortResult=*/true);
    baseline::epsilonClosure(M, Slow);
    if (Fast != Slow)
      mismatch("epsilon_closure");
  }
  Timer Baseline;
  for (unsigned R = 0; R != Reps; ++R)
    for (const Nfa &M : Machines) {
      std::vector<StateId> Set = {M.start()};
      baseline::epsilonClosure(M, Set);
      benchmark::DoNotOptimize(Set);
    }
  Row.BaselineSeconds = Baseline.seconds();
  Timer Csr;
  StateBits Bits;
  std::vector<StateId> Set;
  for (unsigned R = 0; R != Reps; ++R)
    for (const Nfa &M : Machines) {
      Set.clear();
      Set.push_back(M.start());
      M.csr()->epsilonClosure(Set, Bits, /*SortResult=*/true);
      benchmark::DoNotOptimize(Set);
    }
  Row.CsrSeconds = Csr.seconds();
  return Row;
}

AbRow abIntersect(const std::vector<Nfa> &Machines, unsigned ChainLen,
                  unsigned Reps) {
  AbRow Row{"intersect", 0, 0, Reps};
  Nfa Chain = searchChain(ChainLen);
  std::vector<std::pair<const Nfa *, const Nfa *>> Pairs;
  for (const Nfa &M : Machines)
    Pairs.push_back({&Chain, &M});
  for (size_t I = 0; I + 1 < Machines.size(); I += 2)
    Pairs.push_back({&Machines[I], &Machines[I + 1]});
  for (auto [A, B] : Pairs)
    if (toString(intersect(*A, *B)) != toString(baseline::intersect(*A, *B)))
      mismatch("intersect");
  Timer Baseline;
  for (unsigned R = 0; R != Reps; ++R)
    for (auto [A, B] : Pairs)
      benchmark::DoNotOptimize(baseline::intersect(*A, *B));
  Row.BaselineSeconds = Baseline.seconds();
  Timer Csr;
  for (unsigned R = 0; R != Reps; ++R)
    for (auto [A, B] : Pairs)
      benchmark::DoNotOptimize(intersect(*A, *B));
  Row.CsrSeconds = Csr.seconds();
  return Row;
}

AbRow abDeterminize(const std::vector<Nfa> &Machines, unsigned ChainLen,
                    unsigned Reps) {
  AbRow Row{"determinize", 0, 0, Reps};
  std::vector<Nfa> Inputs = Machines;
  Inputs.push_back(searchChain(ChainLen));
  for (const Nfa &M : Inputs)
    if (dfaToString(determinize(M)) != dfaToString(baseline::determinize(M)))
      mismatch("determinize");
  Timer Baseline;
  for (unsigned R = 0; R != Reps; ++R)
    for (const Nfa &M : Inputs)
      benchmark::DoNotOptimize(baseline::determinize(M));
  Row.BaselineSeconds = Baseline.seconds();
  Timer Csr;
  for (unsigned R = 0; R != Reps; ++R)
    for (const Nfa &M : Inputs)
      benchmark::DoNotOptimize(determinize(M));
  Row.CsrSeconds = Csr.seconds();
  return Row;
}

/// Lazy decide searches A/B, cache disabled so every query pays the
/// search. Verdicts and witness/counterexample strings must match the
/// baseline exactly.
AbRow abDecide(const std::vector<Nfa> &Machines, unsigned ChainLen,
               unsigned Reps) {
  AbRow Row{"decide", 0, 0, Reps};
  Nfa Chain = searchChain(ChainLen);
  Nfa Attack = searchLanguage("'").withoutEpsilonTransitions();
  std::vector<std::pair<const Nfa *, const Nfa *>> Pairs;
  for (const Nfa &M : Machines) {
    Pairs.push_back({&M, &Chain});
    Pairs.push_back({&M, &Attack});
  }
  for (auto [A, B] : Pairs) {
    if (subsetOf(*A, *B) != baseline::subsetOf(*A, *B) ||
        subsetCounterexample(*A, *B) != baseline::subsetCounterexample(*A, *B))
      mismatch("decide/subset");
    if (emptyIntersection(*A, *B) != baseline::emptyIntersection(*A, *B) ||
        intersectionWitness(*A, *B) != baseline::intersectionWitness(*A, *B))
      mismatch("decide/empty_intersection");
  }
  Timer Baseline;
  for (unsigned R = 0; R != Reps; ++R)
    for (auto [A, B] : Pairs) {
      benchmark::DoNotOptimize(baseline::subsetOf(*A, *B));
      benchmark::DoNotOptimize(baseline::emptyIntersection(*A, *B));
    }
  Row.BaselineSeconds = Baseline.seconds();
  Timer Csr;
  for (unsigned R = 0; R != Reps; ++R)
    for (auto [A, B] : Pairs) {
      benchmark::DoNotOptimize(subsetOf(*A, *B));
      benchmark::DoNotOptimize(emptyIntersection(*A, *B));
    }
  Row.CsrSeconds = Csr.seconds();
  return Row;
}

} // namespace

//===----------------------------------------------------------------------===//
// Phase 2: google-benchmark microbenchmarks (CSR kernels via public API)
//===----------------------------------------------------------------------===//

namespace {

void BM_Intersect(benchmark::State &State) {
  Nfa A = searchChain(State.range(0));
  Nfa B = searchLanguage("'").withoutEpsilonTransitions();
  for (auto _ : State) {
    Nfa M = intersect(A, B);
    benchmark::DoNotOptimize(M);
  }
  State.SetComplexityN(State.range(0));
}

void BM_Concat(benchmark::State &State) {
  Nfa A = literalChain(State.range(0));
  Nfa B = literalChain(State.range(0));
  for (auto _ : State) {
    Nfa M = concat(A, B, /*Marker=*/1);
    benchmark::DoNotOptimize(M);
  }
  State.SetComplexityN(State.range(0));
}

void BM_Trim(benchmark::State &State) {
  Nfa A = intersect(searchChain(State.range(0)),
                    searchLanguage("'").withoutEpsilonTransitions());
  for (auto _ : State) {
    Nfa M = A.trimmed();
    benchmark::DoNotOptimize(M);
  }
  State.SetComplexityN(State.range(0));
}

void BM_Determinize(benchmark::State &State) {
  Nfa A = searchChain(State.range(0));
  for (auto _ : State) {
    Dfa D = determinize(A);
    benchmark::DoNotOptimize(D);
  }
  State.SetComplexityN(State.range(0));
}

void BM_Minimize(benchmark::State &State) {
  Nfa A = searchChain(State.range(0));
  for (auto _ : State) {
    Nfa M = minimized(A);
    benchmark::DoNotOptimize(M);
  }
  State.SetComplexityN(State.range(0));
}

void BM_Complement(benchmark::State &State) {
  Nfa A = searchChain(State.range(0));
  for (auto _ : State) {
    Nfa M = complement(A);
    benchmark::DoNotOptimize(M);
  }
  State.SetComplexityN(State.range(0));
}

void BM_SubsetCheck(benchmark::State &State) {
  Nfa Small = literalChain(State.range(0));
  Nfa Big = searchChain(State.range(0) / 2);
  for (auto _ : State) {
    bool R = subsetOf(Small, Big);
    benchmark::DoNotOptimize(R);
  }
  State.SetComplexityN(State.range(0));
}

void BM_ShortestString(benchmark::State &State) {
  Nfa A = intersect(searchChain(State.range(0)),
                    searchLanguage("[0-9]$").withoutEpsilonTransitions());
  for (auto _ : State) {
    auto S = shortestString(A);
    benchmark::DoNotOptimize(S);
  }
  State.SetComplexityN(State.range(0));
}

void BM_Accepts(benchmark::State &State) {
  Nfa A = searchChain(16);
  std::string Probe(State.range(0), 'a');
  for (auto _ : State) {
    bool R = A.accepts(Probe);
    benchmark::DoNotOptimize(R);
  }
  State.SetComplexityN(State.range(0));
}

} // namespace

BENCHMARK(BM_Concat)->Range(64, 4096)->Complexity();
BENCHMARK(BM_Intersect)->Range(64, 4096)->Complexity();
BENCHMARK(BM_Trim)->Range(64, 4096)->Complexity();
BENCHMARK(BM_Determinize)->Range(64, 1024)->Complexity();
BENCHMARK(BM_Minimize)->Range(64, 1024)->Complexity();
BENCHMARK(BM_Complement)->Range(64, 1024)->Complexity();
BENCHMARK(BM_SubsetCheck)->Range(64, 1024)->Complexity();
BENCHMARK(BM_ShortestString)->Range(64, 1024)->Complexity();
BENCHMARK(BM_Accepts)->Range(64, 4096)->Complexity();

int main(int Argc, char **Argv) {
  bool Smoke = false;
  std::vector<char *> Passthrough = {Argv[0]};
  for (int I = 1; I != Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
    else
      Passthrough.push_back(Argv[I]);
  }

  std::printf("CSR kernel A/B vs adjacency-list baseline%s\n\n",
              Smoke ? " (smoke)" : "");
  unsigned ChainLen = Smoke ? 48 : 192;
  unsigned Reps = Smoke ? 6 : 24;

  DecisionCache::global().setEnabled(false);
  std::vector<Nfa> Corpus = figure11Machines();
  uint64_t Builds0 = CsrStats::global().Builds.get();
  uint64_t Reuses0 = CsrStats::global().Reuses.get();
  uint64_t Classes0 = CsrStats::global().MintermClasses.get();

  std::vector<AbRow> Rows = {
      abAccepts(Corpus, Reps * 4),
      abClosure(ChainLen, Reps * 4),
      abIntersect(Corpus, ChainLen, Reps),
      abDeterminize(Corpus, ChainLen, Reps),
      abDecide(Corpus, ChainLen, Reps),
  };
  DecisionCache::global().setEnabled(true);

  double LogSum = 0.0;
  for (const AbRow &R : Rows) {
    std::printf("%-18s baseline %9.3fms   csr %9.3fms   %5.2fx\n",
                R.Name.c_str(), R.BaselineSeconds * 1e3, R.CsrSeconds * 1e3,
                R.speedup());
    LogSum += std::log(R.speedup() > 0 ? R.speedup() : 1e-9);
  }
  double Geomean = std::exp(LogSum / double(Rows.size()));
  std::printf("\ngeomean speedup: %.2fx  (csr: %llu builds, %llu reuses, "
              "%llu minterm classes)\n\n",
              Geomean,
              static_cast<unsigned long long>(CsrStats::global().Builds.get() -
                                              Builds0),
              static_cast<unsigned long long>(CsrStats::global().Reuses.get() -
                                              Reuses0),
              static_cast<unsigned long long>(
                  CsrStats::global().MintermClasses.get() - Classes0));

  // Phase 2: the microbenchmarks, captured into the same artifact.
  int PassArgc = int(Passthrough.size());
  benchmark::Initialize(&PassArgc, Passthrough.data());
  benchjson::CaptureReporter Reporter;
  Timer Clock;
  uint64_t StatesBefore = OpStats::global().totalStatesVisited();
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();

  std::vector<benchjson::BenchRun> Runs;
  for (const AbRow &R : Rows) {
    benchjson::BenchRun Run;
    Run.Name = "ab/" + R.Name;
    Run.Iterations = R.Reps;
    Run.RealSeconds = R.BaselineSeconds + R.CsrSeconds;
    Run.Counters = {{"baseline_seconds", R.BaselineSeconds},
                    {"csr_seconds", R.CsrSeconds},
                    {"speedup", R.speedup()}};
    Runs.push_back(std::move(Run));
  }
  {
    benchjson::BenchRun Summary;
    Summary.Name = "ab/geomean";
    Summary.Counters = {
        {"speedup_geomean", Geomean},
        {"csr.builds", double(CsrStats::global().Builds.get() - Builds0)},
        {"csr.reuses", double(CsrStats::global().Reuses.get() - Reuses0)},
        {"minterm.classes",
         double(CsrStats::global().MintermClasses.get() - Classes0)},
    };
    Runs.push_back(std::move(Summary));
  }
  for (benchjson::BenchRun &R : Reporter.Captured)
    Runs.push_back(std::move(R));
  benchjson::writeBenchJson("nfa_ops", Runs, Clock.seconds(),
                            OpStats::global().totalStatesVisited() -
                                StatesBefore);

  if (!GOutputsAgree) {
    std::printf("FAIL: CSR outputs diverge from the baseline\n");
    return 1;
  }
  // The smoke sizes are too small for the locality gap to fully open;
  // gate the headline claim only on the full run.
  double Gate = Smoke ? 1.1 : 1.5;
  if (Geomean < Gate) {
    std::printf("FAIL: geomean speedup %.2fx below the %.2fx gate\n", Geomean,
                Gate);
    return 1;
  }
  return 0;
}
