//===- RegexCompilerTest.cpp - Thompson compiler goldens and linearity ----===//
//
// The compiler must emit exactly the machines the reference fold emitted
// (compile every operand, then concat()/alternate() it onto the
// accumulated machine): same state numbering, start state, accepting set
// and per-state transition order. Constant canonicalization (Hopcroft)
// must likewise keep its block numbering. The digests below pin both for a
// seeded corpus generated here; they were recorded with the fold-based
// compiler and the allocation-heavy Hopcroft it replaced.
//
//===----------------------------------------------------------------------===//

#include "automata/NfaOps.h"
#include "regex/RegexCompiler.h"
#include "regex/RegexParser.h"
#include "support/Budget.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <string>
#include <vector>

using namespace dprle;

namespace {

/// splitmix64: a fixed, platform-independent sequence (the standard
/// distributions are implementation-defined).
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }
  char pick(const std::string &From) { return From[below(From.size())]; }
};

struct Fnv {
  uint64_t H = 14695981039346656037ull;
  void add(uint64_t V) {
    for (unsigned I = 0; I != 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 1099511628211ull;
    }
  }
};

/// Exact structure: state count, start, acceptance, and every transition
/// (target, kind, marker, label) in storage order.
uint64_t digest(const Nfa &M) {
  Fnv F;
  F.add(M.numStates());
  F.add(M.start());
  for (StateId S = 0; S != M.numStates(); ++S) {
    F.add(M.isAccepting(S));
    F.add(M.transitionsFrom(S).size());
    for (const Transition &T : M.transitionsFrom(S)) {
      F.add(T.To);
      F.add(T.IsEpsilon);
      F.add(static_cast<uint64_t>(static_cast<int64_t>(T.Marker)));
      if (T.IsEpsilon)
        continue;
      T.Label.forEach([&](unsigned char C) { F.add(C); });
      F.add(0x100);
    }
  }
  return F.H;
}

const char *const LiteralAlphabet = "abcdefxyz0123'<> -_";

std::string literalText(Rng &R, unsigned Len) {
  std::string Out;
  for (unsigned I = 0; I != Len; ++I)
    Out += R.pick(LiteralAlphabet);
  return Out;
}

std::string randomClass(Rng &R) {
  static const char *const Classes[] = {
      "[a-z]",  "[^0-9]", "\\d",     "\\w",  "\\s", ".",
      "[a-fA-F0-9]", "[]", "[^']", "[xyz']", "\\D", "[-a]"};
  return Classes[R.below(sizeof(Classes) / sizeof(Classes[0]))];
}

std::string quantifier(Rng &R) {
  switch (R.below(7)) {
  case 0:
    return "*";
  case 1:
    return "+";
  case 2:
    return "?";
  case 3:
    return "{" + std::to_string(R.below(4)) + "}";
  case 4: {
    unsigned Lo = R.below(3);
    return "{" + std::to_string(Lo) + "," + std::to_string(Lo + R.below(4)) +
           "}";
  }
  case 5:
    return "{" + std::to_string(R.below(3)) + ",}";
  default:
    return "";
  }
}

/// A random regex over a small alphabet; \p Extended admits & and ~.
std::string randomRegex(Rng &R, unsigned Depth, bool Extended) {
  unsigned Choice = Depth == 0 ? R.below(3) : R.below(Extended ? 9 : 7);
  switch (Choice) {
  case 0:
    return std::string(1, R.pick("abc'"));
  case 1:
    return randomClass(R);
  case 2:
    return R.below(4) == 0 ? "()" : std::string(1, R.pick("ab"));
  case 3:
  case 4: {
    std::string Out;
    unsigned N = 2 + R.below(3);
    for (unsigned I = 0; I != N; ++I)
      Out += randomRegex(R, Depth - 1, Extended);
    return Out;
  }
  case 5: {
    std::string Out = "(";
    unsigned N = 2 + R.below(3);
    for (unsigned I = 0; I != N; ++I) {
      if (I)
        Out += "|";
      Out += randomRegex(R, Depth - 1, Extended);
    }
    return Out + ")";
  }
  case 6: {
    std::string Inner = randomRegex(R, Depth - 1, Extended);
    return "(" + Inner + ")" + quantifier(R);
  }
  case 7: {
    std::string Lhs = randomRegex(R, Depth - 1, Extended);
    return "(" + Lhs + "&" + randomRegex(R, Depth - 1, Extended) + ")";
  }
  default:
    return "~(" + randomRegex(R, Depth - 1, Extended) + ")";
  }
}

struct Category {
  const char *Name;
  std::vector<std::string> Patterns;
};

std::vector<Category> goldenCorpus() {
  Rng R(20090615);
  std::vector<Category> Out;

  Category Literals{"literals", {}};
  for (unsigned I = 0; I != 16; ++I)
    Literals.Patterns.push_back(literalText(R, 160 + R.below(240)));
  Out.push_back(Literals);

  Category Alternations{"alternations", {}};
  for (unsigned I = 0; I != 12; ++I) {
    std::string P = "(";
    for (unsigned B = 0; B != 50; ++B) {
      if (B)
        P += "|";
      P += R.below(4) == 0 ? randomClass(R) : literalText(R, 1 + R.below(6));
    }
    Alternations.Patterns.push_back(P + ")" + (I % 3 == 0 ? "*" : ""));
  }
  Out.push_back(Alternations);

  Category Counts{"nested_counts", {}};
  for (unsigned I = 0; I != 16; ++I) {
    auto N = [&] { return std::to_string(R.below(5)); };
    auto Range = [&] {
      unsigned Lo = R.below(4);
      return std::to_string(Lo) + "," + std::to_string(Lo + R.below(4));
    };
    // Draw every count before assembling: the operands of a chained
    // operator+ are unsequenced, so inline draws could be reordered.
    std::string A = Range(), B = Range(), C = N(), D = N();
    switch (I % 8) {
    case 0:
      Counts.Patterns.push_back("((ab|c){" + A + "}d){" + B + "}");
      break;
    case 1:
      Counts.Patterns.push_back("(x{" + C + "}){" + D + ",}");
      break;
    case 2:
      Counts.Patterns.push_back("([a-c]{" + A + "}|z?){" + B + "}");
      break;
    case 3:
      Counts.Patterns.push_back("(a?){" + C + "}b{" + A + "}");
      break;
    case 4:
      Counts.Patterns.push_back("((a|)|b){" + A + "}");
      break;
    case 5:
      Counts.Patterns.push_back("(){" + A + "}x(y*){" + B + "}");
      break;
    case 6:
      Counts.Patterns.push_back("(((a{" + C + "}b){" + A + "}c){" + D + ",})");
      break;
    default:
      Counts.Patterns.push_back("'{" + A + "}(\\d{" + B + "}|[^a]{" + C +
                                "}){" + A + "}");
      break;
    }
  }
  Out.push_back(Counts);

  Category Classes{"classes", {}};
  for (unsigned I = 0; I != 16; ++I) {
    std::string P;
    unsigned N = 1 + R.below(8);
    for (unsigned J = 0; J != N; ++J) {
      P += randomClass(R);
      P += quantifier(R);
    }
    Classes.Patterns.push_back(P);
  }
  Out.push_back(Classes);

  Category ExtendedOps{"extended", {}};
  for (const char *P :
       {"~(.*ab.*)&[a-c]{0,6}", "~a*", "(a|b)*&~(.*aa.*)", "~~(ab)",
        "[a-d]{2,4}&.*c.*", "~([a-c]*)", "~()", "~[]", "x~(y)z",
        "(a|~b)&(~a|b)", "~(a&b)c", "(.*'.*&~(.*<.*))x"})
    ExtendedOps.Patterns.push_back(P);
  Out.push_back(ExtendedOps);

  Category Random{"random", {}};
  for (unsigned I = 0; I != 48; ++I)
    Random.Patterns.push_back(randomRegex(R, 1 + R.below(4), false));
  Out.push_back(Random);

  Category RandomExtended{"random_extended", {}};
  for (unsigned I = 0; I != 24; ++I)
    RandomExtended.Patterns.push_back(randomRegex(R, 1 + R.below(3), true));
  Out.push_back(RandomExtended);

  // Anchor variants exercise every searchLanguage shape.
  for (Category &C : Out)
    for (size_t I = 0; I != C.Patterns.size(); ++I) {
      if (I % 4 == 1 || I % 4 == 3)
        C.Patterns[I] = "^" + C.Patterns[I];
      if (I % 4 == 2 || I % 4 == 3)
        C.Patterns[I] += "$";
    }
  return Out;
}

struct Golden {
  const char *Name;
  size_t Count;
  uint64_t Compiled;
  uint64_t Search;
  uint64_t Minimized;
};

// Recorded with the fold-based compiler; see the file comment.
const Golden Goldens[] = {
    {"literals", 16, 0xff62c3d25abdb37aull, 0x5aa52e9ac7bc8620ull, 0x92383f3815e8ecdfull},
    {"alternations", 12, 0x17921f64b267f2abull, 0x1be17955ee08261eull, 0xddb0f5fc06564f02ull},
    {"nested_counts", 16, 0x89ebf32d9fbf1ee6ull, 0xd6743cbd7d021985ull, 0x83642507d1f41c5full},
    {"classes", 16, 0x45363b9c4a779000ull, 0xf75c2b70397d9539ull, 0xad5c476b7ccbe76bull},
    {"extended", 12, 0x6d966fe52604737aull, 0x75974dc6de01dedcull, 0xd67d351ec5d143f6ull},
    {"random", 48, 0xd081e82ecc09fa9bull, 0x31bc91a1ed685c4aull, 0x68d79e4e13d736bcull},
    {"random_extended", 24, 0xb7f34c9aab4d93faull, 0xaa887ae5db76d273ull, 0xd590cea144189543ull},
};

TEST(RegexCompilerTest, GoldenDigestsMatchReferenceCompiler) {
  std::vector<Category> Corpus = goldenCorpus();
  ASSERT_EQ(Corpus.size(), sizeof(Goldens) / sizeof(Goldens[0]));
  for (size_t CI = 0; CI != Corpus.size(); ++CI) {
    const Category &C = Corpus[CI];
    const Golden &G = Goldens[CI];
    SCOPED_TRACE(C.Name);
    ASSERT_STREQ(C.Name, G.Name);
    ASSERT_EQ(C.Patterns.size(), G.Count);
    Fnv Compiled, Search, Minimized;
    for (const std::string &P : C.Patterns) {
      RegexParseResult Parsed = parseRegexExtended(P);
      ASSERT_TRUE(Parsed.ok()) << P << ": " << Parsed.Error;
      Nfa M = compileRegex(*Parsed.Ast);
      Compiled.add(digest(M));
      Search.add(digest(searchLanguage(Parsed)));
      Minimized.add(digest(minimized(M)));
    }
    EXPECT_EQ(Compiled.H, G.Compiled) << std::hex << Compiled.H;
    EXPECT_EQ(Search.H, G.Search) << std::hex << Search.H;
    EXPECT_EQ(Minimized.H, G.Minimized) << std::hex << Minimized.H;
  }
}

/// BudgetStats::StatesCharged while compiling \p Pattern under an
/// unlimited budget (the charges are counted only with a budget installed).
uint64_t statesCharged(const std::string &Pattern) {
  RegexParseResult Parsed = parseRegex(Pattern);
  EXPECT_TRUE(Parsed.ok()) << Parsed.Error;
  ResourceBudget Budget{ResourceLimits{}};
  ResourceGuard Guard(&Budget);
  uint64_t Before = BudgetStats::global().StatesCharged.get();
  compileRegex(*Parsed.Ast);
  return BudgetStats::global().StatesCharged.get() - Before;
}

TEST(RegexCompilerTest, CompilationChargesAreLinearInPatternLength) {
  // A quadratic compiler (one that copies the accumulated machine at every
  // concatenation step) charges ~16x for four times the input; a linear
  // one ~4x. No wall clock involved.
  uint64_t Short = statesCharged(std::string(1000, 'a'));
  uint64_t Long = statesCharged(std::string(4000, 'a'));
  ASSERT_GT(Short, 0u);
  EXPECT_LE(double(Long), 4.5 * double(Short)) << Short << " vs " << Long;
  // The same holds for counted repetition and alternation.
  uint64_t ShortRepeat = statesCharged("(ab|c){250}");
  uint64_t LongRepeat = statesCharged("(ab|c){1000}");
  EXPECT_LE(double(LongRepeat), 4.5 * double(ShortRepeat));
  std::string ShortAlt = "x", LongAlt = "x";
  for (int I = 0; I != 250; ++I)
    ShortAlt += "|y" + std::to_string(I);
  for (int I = 0; I != 1000; ++I)
    LongAlt += "|y" + std::to_string(I);
  EXPECT_LE(double(statesCharged(LongAlt)),
            4.5 * double(statesCharged(ShortAlt)));
}

TEST(RegexCompilerTest, EmbedFaultSiteFiresDuringCompilation) {
  RegexParseResult Parsed = parseRegex("ab(c|d)*");
  ASSERT_TRUE(Parsed.ok());
  ASSERT_TRUE(FaultInjector::global().arm("alloc.embed:3"));
  EXPECT_THROW(compileRegex(*Parsed.Ast), std::bad_alloc);
  FaultInjector::global().disarm();
  EXPECT_TRUE(compileRegex(*Parsed.Ast).accepts("abcdc"));
}

TEST(RegexCompilerTest, MachineBudgetSeesTheCompiledMachine) {
  RegexParseResult Parsed = parseRegex(std::string(200, 'a'));
  ASSERT_TRUE(Parsed.ok());
  ResourceLimits Limits;
  Limits.MaxStatesPerMachine = 100;
  ResourceBudget Budget(Limits);
  ResourceGuard Guard(&Budget);
  compileRegex(*Parsed.Ast);
  EXPECT_EQ(Budget.dimension(), BudgetDimension::MachineStates);
}

} // namespace
