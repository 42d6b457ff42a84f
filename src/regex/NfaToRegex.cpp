//===- NfaToRegex.cpp - State-elimination regex extraction --------------------//

#include "regex/NfaToRegex.h"
#include "automata/NfaOps.h"
#include "support/Budget.h"
#include "support/StringUtils.h"

#include <map>
#include <optional>
#include <utility>
#include <vector>

using namespace dprle;

namespace {

/// A regex fragment annotated with the loosest operator it contains, so
/// composition can parenthesize minimally. Precedences follow RegexAst:
/// 0 alternation, 1 concatenation, 2 repetition, 3 atom.
struct Fragment {
  std::string Text;
  int Prec = 3;
  bool IsEpsilon = false;

  std::string atPrec(int Needed) const {
    if (Prec >= Needed)
      return Text;
    return "(" + Text + ")";
  }
};

Fragment epsilonFragment() { return {"()", 3, true}; }

Fragment charSetFragment(const CharSet &Set) {
  return {Set.str(), 3, false};
}

Fragment alternateFragments(const std::optional<Fragment> &A,
                            const Fragment &B) {
  if (!A)
    return B;
  if (A->Text == B.Text)
    return *A;
  return {A->atPrec(0) + "|" + B.atPrec(0), 0, false};
}

Fragment concatFragments(const Fragment &A, const Fragment &B) {
  if (A.IsEpsilon)
    return B;
  if (B.IsEpsilon)
    return A;
  return {A.atPrec(1) + B.atPrec(1), 1, false};
}

Fragment starFragment(const Fragment &A) {
  if (A.IsEpsilon)
    return A;
  return {A.atPrec(3) + "*", 2, false};
}

/// Fragment text is charged to the ambient budget once this much has
/// accumulated within an elimination step, and at the end of every step.
constexpr uint64_t ChargeQuantumBytes = 64 * 1024;

} // namespace

std::string dprle::nfaToRegex(const Nfa &Input) {
  Nfa M = minimized(Input);
  if (M.languageIsEmpty())
    return "[]";

  // Generalized NFA edges: (from, to) -> regex fragment. A fresh start
  // (-1 conceptually: index N) and final (N+1) state bracket the machine.
  const unsigned N = M.numStates();
  const unsigned GStart = N, GFinal = N + 1;
  std::map<std::pair<unsigned, unsigned>, Fragment> Edges;

  // Returns the length of the edge's new text.
  auto AddEdge = [&](unsigned From, unsigned To, const Fragment &F) {
    auto It = Edges.find({From, To});
    if (It == Edges.end())
      It = Edges.emplace(std::make_pair(From, To), F).first;
    else
      It->second = alternateFragments(It->second, F);
    return It->second.Text.size();
  };

  for (StateId S = 0; S != N; ++S) {
    // Merge parallel labels per target first.
    std::map<StateId, CharSet> Merged;
    bool EpsToSelf = false;
    std::vector<StateId> EpsTargets;
    for (const Transition &T : M.transitionsFrom(S)) {
      if (T.IsEpsilon) {
        if (T.To == S)
          EpsToSelf = true;
        else
          EpsTargets.push_back(T.To);
        continue;
      }
      Merged[T.To] |= T.Label;
    }
    (void)EpsToSelf; // Epsilon self-loops contribute nothing.
    for (const auto &[To, Label] : Merged)
      AddEdge(S, To, charSetFragment(Label));
    for (StateId To : EpsTargets)
      AddEdge(S, To, epsilonFragment());
  }
  AddEdge(GStart, M.start(), epsilonFragment());
  for (StateId S : M.acceptingStates())
    AddEdge(S, GFinal, epsilonFragment());

  // Eliminate original states one at a time. The text each step adds is
  // charged to the ambient budget as memory; once it trips the render
  // stops, and the caller reads the interrupt from its budget.
  uint64_t Uncharged = 0;
  auto Charge = [&] {
    bool Running = ResourceGuard::chargeMemory(Uncharged);
    Uncharged = 0;
    return Running;
  };
  for (unsigned Victim = 0; Victim != N; ++Victim) {
    // Collect incoming and outgoing edges of Victim.
    std::optional<Fragment> SelfLoop;
    std::vector<std::pair<unsigned, Fragment>> In, Out;
    for (auto It = Edges.begin(); It != Edges.end();) {
      auto [From, To] = It->first;
      if (From == Victim && To == Victim) {
        SelfLoop = SelfLoop ? alternateFragments(SelfLoop, It->second)
                            : It->second;
        It = Edges.erase(It);
      } else if (To == Victim) {
        In.push_back({From, It->second});
        It = Edges.erase(It);
      } else if (From == Victim) {
        Out.push_back({To, It->second});
        It = Edges.erase(It);
      } else {
        ++It;
      }
    }
    if (In.empty() || Out.empty())
      continue;
    Fragment Loop = SelfLoop ? starFragment(*SelfLoop) : epsilonFragment();
    for (const auto &[From, FIn] : In)
      for (const auto &[To, FOut] : Out) {
        Uncharged += AddEdge(
            From, To, concatFragments(concatFragments(FIn, Loop), FOut));
        if (Uncharged >= ChargeQuantumBytes && !Charge())
          return "";
      }
    if (!Charge())
      return "";
  }

  auto It = Edges.find({GStart, GFinal});
  if (It == Edges.end())
    return "[]";
  return It->second.Text;
}
