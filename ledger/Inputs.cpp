//===- Inputs.cpp - Seeded workload generators ----------------------------===//

#include "Inputs.h"

#include "automata/Serialize.h"
#include "miniphp/Cfg.h"
#include "miniphp/Corpus.h"
#include "miniphp/Parser.h"
#include "miniphp/SymExec.h"
#include "miniphp/Unroll.h"
#include "regex/RegexCompiler.h"
#include "regex/RegexParser.h"

#include <cctype>
#include <map>
#include <optional>
#include <set>

using namespace dprle;

namespace ledger {

namespace {

/// Regex building blocks over {a, b, c}; a pattern of N blocks compiles
/// to a Thompson machine of roughly 4N-10N states.
const char *const Blocks[] = {
    "(a|b)*",  "[abc]",    "(ab|c)*",      "a(b|c)",     "(a|bc)+",
    "c*",      "[ab][bc]", "(abc|b)*",     "b?a",        "(c|ab)(a|b)*",
    "[abc]{2,3}", "(a|c)*b",
};
constexpr size_t NumBlocks = sizeof(Blocks) / sizeof(Blocks[0]);

std::string pattern(Rng &R, int NumParts) {
  std::string P;
  for (int I = 0; I != NumParts; ++I)
    P += Blocks[R.below(NumBlocks)];
  return P;
}

/// A pattern of \p NumParts blocks followed by a random 3-5 symbol tail, so
/// that machines (and the products built from them) rarely recur across
/// generated systems: the caches cannot serve one request from another.
std::string distinctPattern(Rng &R, int NumParts) {
  std::string P = pattern(R, NumParts);
  for (int I = 0, N = R.between(3, 5); I != N; ++I)
    P += char('a' + R.below(3));
  return P;
}

/// A planted string: 1-3 symbols over {a, b, c}.
std::string planted(Rng &R) {
  std::string S;
  for (int I = 0, N = R.between(1, 3); I != N; ++I)
    S += char('a' + R.below(3));
  return S;
}

/// `(P)|W`: the pattern widened by the planted witness W.
std::string withPlanted(const std::string &P, const std::string &W) {
  return "(" + P + ")|" + W;
}

std::string escapeSlashes(const std::string &Body) {
  std::string Out;
  for (char C : Body) {
    if (C == '/')
      Out += '\\';
    Out += C;
  }
  return Out;
}

RmaConstraint makeConstraint(std::vector<std::string> LhsVars,
                             std::string Rhs) {
  RmaConstraint C;
  for (std::string &V : LhsVars)
    C.Lhs.push_back({true, std::move(V)});
  C.Rhs = std::move(Rhs);
  return C;
}

bool identStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_' || C == '$';
}
bool identChar(char C) {
  return identStart(C) || std::isdigit(static_cast<unsigned char>(C));
}

/// Parses the display form Problem::str() prints. Variable names the
/// .rma lexer does not accept as identifiers (the corpus's `_POST:id`)
/// are mapped to identifiers; nullopt when the text uses other syntax.
std::optional<RmaSystem> parseDisplayForm(const std::string &Text) {
  RmaSystem Sys;
  std::map<std::string, std::string> Rename;
  std::set<std::string> Taken;
  auto AddVar = [&](const std::string &Raw) {
    std::string Name;
    for (char C : Raw)
      Name += identChar(C) ? C : '_';
    if (Name.empty() || !identStart(Name[0]))
      Name = "_" + Name;
    std::string Unique = Name;
    for (unsigned N = 1; Taken.count(Unique); ++N)
      Unique = Name + "_" + std::to_string(N);
    Taken.insert(Unique);
    Rename[Raw] = Unique;
    Sys.Vars.push_back(Unique);
  };

  size_t Pos = 0;
  auto SkipSpace = [&] {
    while (Pos < Text.size() && std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  };
  // Word: a run of characters that cannot start or end another token.
  auto ReadWord = [&] {
    size_t Start = Pos;
    while (Pos < Text.size() && !std::isspace(static_cast<unsigned char>(Text[Pos])) &&
           Text[Pos] != ',' && Text[Pos] != ';' && Text[Pos] != '.' &&
           Text[Pos] != '<' && Text[Pos] != '/')
      ++Pos;
    return Text.substr(Start, Pos - Start);
  };
  // Regex literal, with the constraint lexer's `\/` unescaping.
  auto ReadRegex = [&](std::string &Body) {
    if (Pos >= Text.size() || Text[Pos] != '/')
      return false;
    ++Pos;
    while (Pos < Text.size() && Text[Pos] != '/') {
      if (Text[Pos] == '\\' && Pos + 1 < Text.size() && Text[Pos + 1] == '/') {
        Body += '/';
        Pos += 2;
        continue;
      }
      Body += Text[Pos++];
    }
    if (Pos >= Text.size())
      return false;
    ++Pos;
    return true;
  };

  while (true) {
    SkipSpace();
    if (Pos >= Text.size())
      break;
    if (Text.compare(Pos, 4, "var ") == 0) {
      Pos += 4;
      while (true) {
        SkipSpace();
        std::string Name = ReadWord();
        if (Name.empty())
          return std::nullopt;
        AddVar(Name);
        SkipSpace();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == ';') {
          ++Pos;
          break;
        }
        return std::nullopt;
      }
      continue;
    }
    RmaConstraint C;
    while (true) {
      SkipSpace();
      RmaTerm T;
      if (Pos < Text.size() && Text[Pos] == '/') {
        T.IsVar = false;
        if (!ReadRegex(T.Text))
          return std::nullopt;
      } else {
        std::string Name = ReadWord();
        auto It = Rename.find(Name);
        if (It == Rename.end())
          return std::nullopt;
        T.Text = It->second;
      }
      C.Lhs.push_back(std::move(T));
      SkipSpace();
      if (Pos < Text.size() && Text[Pos] == '.') {
        ++Pos;
        continue;
      }
      break;
    }
    if (Text.compare(Pos, 2, "<=") != 0)
      return std::nullopt;
    Pos += 2;
    SkipSpace();
    if (!ReadRegex(C.Rhs))
      return std::nullopt;
    SkipSpace();
    if (Pos >= Text.size() || Text[Pos] != ';')
      return std::nullopt;
    ++Pos;
    Sys.Constraints.push_back(std::move(C));
  }
  return Sys;
}

} // namespace

std::string RmaSystem::renderConstraints(const std::vector<RmaConstraint> &Cs) {
  std::string Out;
  for (const RmaConstraint &C : Cs) {
    for (size_t I = 0; I != C.Lhs.size(); ++I) {
      if (I)
        Out += " . ";
      const RmaTerm &T = C.Lhs[I];
      Out += T.IsVar ? T.Text : "/" + escapeSlashes(T.Text) + "/";
    }
    Out += " <= /" + escapeSlashes(C.Rhs) + "/;\n";
  }
  return Out;
}

std::string RmaSystem::render() const {
  std::string Out;
  if (!Vars.empty()) {
    Out += "var ";
    for (size_t I = 0; I != Vars.size(); ++I)
      Out += (I ? ", " : "") + Vars[I];
    Out += ";\n";
  }
  return Out + renderConstraints(Constraints);
}

std::vector<SolveInput> figure11SolveInputs(size_t &Skipped) {
  using namespace dprle::miniphp;
  std::vector<SolveInput> Out;
  SymExecOptions SymOpts;
  SymOpts.TaintPrune = true;
  for (const Suite &S : figure11Suites())
    for (const SuiteFile &F : S.Files) {
      ParseResult P = parseProgram(F.Source);
      if (!P.Ok)
        continue;
      Program Unrolled = unrollLoops(P.Prog, 3);
      Cfg G = Cfg::build(Unrolled);
      for (const PathCondition &PC :
           enumerateSinkPaths(Unrolled, G, AttackSpec::sqlQuote(), SymOpts)) {
        std::optional<RmaSystem> Sys = parseDisplayForm(PC.Instance.str());
        if (!Sys) {
          ++Skipped;
          continue;
        }
        SolveInput In;
        In.Text = Sys->render();
        In.System = std::move(*Sys);
        In.MaxSolutions = 1;
        In.Origin = S.Name + "/" + F.Name;
        Out.push_back(std::move(In));
      }
    }
  return Out;
}

SolveInput heavyInput(Rng &R, unsigned Groups, bool Enumerate) {
  SolveInput In;
  RmaSystem &Sys = In.System;
  for (unsigned G = 0; G != Groups; ++G) {
    int Depth = R.between(2, 4);
    std::vector<std::string> Vars, Planted;
    std::string Chain;
    for (int I = 0; I != Depth; ++I) {
      Vars.push_back("g" + std::to_string(G) + "v" + std::to_string(I));
      Planted.push_back(planted(R));
      Chain += Planted.back();
      Sys.Vars.push_back(Vars.back());
    }
    // The chain itself, over a 16-64 state machine.
    Sys.Constraints.push_back(
        makeConstraint(Vars, withPlanted(distinctPattern(R, R.between(2, 3)), Chain)));
    // An overlapping pair, so the group's concat graph is not a tree.
    Sys.Constraints.push_back(makeConstraint(
        {Vars[0], Vars[1]},
        withPlanted(distinctPattern(R, R.between(1, 3)), Planted[0] + Planted[1])));
    for (int I = 0; I != Depth; ++I)
      Sys.Constraints.push_back(makeConstraint(
          {Vars[I]}, withPlanted(distinctPattern(R, R.between(1, 2)), Planted[I])));
  }
  In.Text = Sys.render();
  In.MaxSolutions = Enumerate && R.below(2) ? unsigned(R.between(2, 3)) : 1;
  In.KnownSat = true;
  return In;
}

DecideInput decidePair(uint64_t Seed, size_t Index) {
  Rng R(subSeed(Seed, 0xD3C1DE00ull + Index));
  std::string Lhs = pattern(R, R.between(2, 4));
  std::string Rhs;
  switch (R.below(3)) {
  case 0: // A superset by construction: the answer is true.
    Rhs = "(" + Lhs + ")|" + pattern(R, R.between(1, 3));
    break;
  case 1: // Also a superset: L ⊆ L*.
    Rhs = "(" + Lhs + ")*";
    break;
  default: // Unrelated; usually false.
    Rhs = pattern(R, R.between(2, 4));
    break;
  }
  auto Machine = [](const std::string &Re) {
    RegexParseResult P = parseRegexExtended(Re);
    return serializeNfa(compileRegex(*P.Ast));
  };
  return {Machine(Lhs), Machine(Rhs)};
}

ZipfSampler::ZipfSampler(size_t N, double S) {
  Cdf.reserve(N);
  double Sum = 0.0;
  for (size_t K = 1; K <= N; ++K) {
    Sum += 1.0 / std::pow(double(K), S);
    Cdf.push_back(Sum);
  }
  for (double &C : Cdf)
    C /= Sum;
}

size_t ZipfSampler::sample(Rng &R) const {
  double U = R.uniform();
  size_t I = size_t(std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
  return std::min(I, Cdf.size() - 1);
}

SessionInput sessionInput(Rng &R, const std::string &Id) {
  SessionInput S;
  S.Id = Id;
  RmaSystem &B = S.Base;
  std::map<std::string, std::string> Plant;
  auto Var = [&](const std::string &Name) {
    B.Vars.push_back(Name);
    Plant[Name] = planted(R);
  };
  constexpr unsigned Groups = 16;
  for (unsigned G = 0; G != Groups; ++G) {
    std::string X = "g" + std::to_string(G) + "x";
    std::string Y = "g" + std::to_string(G) + "y";
    std::string Z = "g" + std::to_string(G) + "z";
    Var(X), Var(Y), Var(Z);
    B.Constraints.push_back(makeConstraint(
        {X, Y}, withPlanted(pattern(R, R.between(2, 3)), Plant[X] + Plant[Y])));
    B.Constraints.push_back(makeConstraint(
        {Y, Z}, withPlanted(pattern(R, R.between(2, 3)), Plant[Y] + Plant[Z])));
    B.Constraints.push_back(
        makeConstraint({Z}, withPlanted(pattern(R, 2), Plant[Z])));
  }
  for (const char *F : {"f0", "f1"}) {
    Var(F);
    B.Constraints.push_back(
        makeConstraint({F}, withPlanted(pattern(R, 3), Plant[F])));
  }
  // The large constants: machines of a few hundred states (long literal
  // alternatives, as SQL fragments are) that every graph build must
  // normalize. Their languages render back to short regexes, so check
  // responses stay small.
  auto Literal = [&](int Len) {
    std::string L;
    for (int I = 0; I != Len; ++I)
      L += char('a' + R.below(3));
    return L;
  };
  Var("big0"), Var("big1"), Var("big2");
  B.Constraints.push_back(makeConstraint(
      {"big0"}, withPlanted(Literal(160) + "|" + Literal(160), Plant["big0"])));
  B.Constraints.push_back(makeConstraint(
      {"big1"}, withPlanted(Literal(120) + "(a|b)*", Plant["big1"])));
  B.Constraints.push_back(makeConstraint(
      {"big2", "f0"},
      withPlanted(Literal(80) + "(a|b|c)*", Plant["big2"] + Plant["f0"])));

  constexpr unsigned NumDeltas = 16;
  for (unsigned K = 0; K != NumDeltas; ++K) {
    SessionInput::Delta D;
    std::string G = "g" + std::to_string(R.below(Groups));
    std::string E = "e" + std::to_string(K);
    std::string PE = planted(R);
    switch (R.below(3)) {
    case 0: // A fresh free variable.
      D.NewVars.push_back(E);
      D.Constraints.push_back(
          makeConstraint({E}, withPlanted(pattern(R, 2), PE)));
      break;
    case 1: // Tighten an existing group variable: dirties its group.
      D.Constraints.push_back(makeConstraint(
          {G + "x"}, withPlanted(pattern(R, 2), Plant[G + "x"])));
      break;
    default: // Extend a group's concat chain with a fresh variable.
      D.NewVars.push_back(E);
      D.Constraints.push_back(makeConstraint(
          {G + "z", E}, withPlanted(pattern(R, 3), Plant[G + "z"] + PE)));
      break;
    }
    for (const std::string &V : D.NewVars)
      D.Text += "var " + V + ";\n";
    D.Text += RmaSystem::renderConstraints(D.Constraints);
    S.Deltas.push_back(std::move(D));
  }
  return S;
}

EditCycle nextCycle(Rng &R, const SessionInput &S,
                    const std::vector<size_t> &Stack) {
  constexpr size_t MaxDepth = 6;
  EditCycle C;
  bool Push = Stack.empty() || (Stack.size() < MaxDepth && R.below(100) < 55);
  if (!Push)
    return C;
  std::vector<size_t> Free;
  for (size_t I = 0; I != S.Deltas.size(); ++I)
    if (std::find(Stack.begin(), Stack.end(), I) == Stack.end())
      Free.push_back(I);
  size_t N = std::min<size_t>({size_t(R.between(1, 3)), Free.size(),
                               MaxDepth - Stack.size()});
  for (size_t K = 0; K != N; ++K) {
    size_t Pick = R.below(Free.size());
    C.Push.push_back(Free[Pick]);
    Free.erase(Free.begin() + Pick);
  }
  return C;
}

std::vector<AuditFile> auditFiles() {
  using namespace dprle::miniphp;
  std::vector<AuditFile> Out;
  std::vector<Suite> Suites = figure11Suites();
  Suites.push_back(auditShowcase());
  for (const Suite &S : Suites)
    for (const SuiteFile &F : S.Files)
      Out.push_back({S.Name + "/" + F.Name, F.Source});
  return Out;
}

} // namespace ledger
