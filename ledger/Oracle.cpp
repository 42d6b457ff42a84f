//===- Oracle.cpp - Correctness checks for every op -----------------------===//

#include "Oracle.h"

#include "automata/Decide.h"
#include "automata/NfaOps.h"
#include "automata/Serialize.h"
#include "miniphp/Policy.h"
#include "regex/Matcher.h"
#include "regex/RegexParser.h"
#include "solver/ConstraintParser.h"
#include "solver/Solver.h"
#include "support/Executor.h"

#include <optional>
#include <sstream>
#include <thread>

using namespace dprle;

namespace ledger {

namespace {

/// Some string of L(N), built from the syntax tree alone; nullopt for the
/// empty language and for the extended operators (never generated).
std::optional<std::string> sampleMember(const RegexNode &N) {
  switch (N.kind()) {
  case RegexNode::Kind::Empty:
    return std::nullopt;
  case RegexNode::Kind::Epsilon:
    return std::string();
  case RegexNode::Kind::Literal:
    return N.text();
  case RegexNode::Kind::Class:
    if (N.charSet().empty())
      return std::nullopt;
    return std::string(1, char(N.charSet().min()));
  case RegexNode::Kind::Concat: {
    std::string Out;
    for (const RegexPtr &C : N.children()) {
      std::optional<std::string> S = sampleMember(*C);
      if (!S)
        return std::nullopt;
      Out += *S;
    }
    return Out;
  }
  case RegexNode::Kind::Alternate:
    for (const RegexPtr &C : N.children())
      if (std::optional<std::string> S = sampleMember(*C))
        return S;
    return std::nullopt;
  case RegexNode::Kind::Repeat: {
    if (N.repeatMin() == 0)
      return std::string();
    std::optional<std::string> S = sampleMember(*N.children()[0]);
    if (!S)
      return std::nullopt;
    std::string Out;
    for (int I = 0; I != N.repeatMin(); ++I)
      Out += *S;
    return Out;
  }
  case RegexNode::Kind::Intersect:
  case RegexNode::Kind::Complement:
    return std::nullopt;
  }
  return std::nullopt;
}

} // namespace

const RegexNode *RegexCache::get(const std::string &Body) {
  auto It = Parsed.find(Body);
  if (It == Parsed.end())
    It = Parsed.emplace(Body, parseRegexExtended(Body).Ast).first;
  return It->second.get();
}

bool replayWitnesses(const std::vector<RmaConstraint> &Constraints,
                     const Json &Assignments, RegexCache &Regexes,
                     std::string *Why) {
  if (!Assignments.isArray() || Assignments.size() == 0) {
    *Why = "sat answer without assignments";
    return false;
  }
  for (const Json &A : Assignments.elements()) {
    for (size_t CI = 0; CI != Constraints.size(); ++CI) {
      const RmaConstraint &C = Constraints[CI];
      std::string Word;
      bool Sampled = true;
      for (const RmaTerm &T : C.Lhs) {
        if (T.IsVar) {
          const Json *Var = A.find(T.Text);
          const Json *W = Var ? Var->find("witness") : nullptr;
          if (!W || !W->isString()) {
            *Why = "no witness for variable " + T.Text;
            return false;
          }
          Word += W->asString();
          continue;
        }
        const RegexNode *Node = Regexes.get(T.Text);
        std::optional<std::string> S =
            Node ? sampleMember(*Node) : std::nullopt;
        if (!S) {
          // An empty constant makes the left side empty: nothing to check.
          Sampled = false;
          break;
        }
        Word += *S;
      }
      if (!Sampled)
        continue;
      const RegexNode *Rhs = Regexes.get(C.Rhs);
      if (!Rhs) {
        *Why = "unparseable regex /" + C.Rhs + "/";
        return false;
      }
      if (!matchesWholeString(*Rhs, Word)) {
        *Why = "witness \"" + Word + "\" violates constraint " +
               std::to_string(CI) + " (/" + C.Rhs + "/)";
        return false;
      }
    }
  }
  return true;
}

/// Failure code of a response, or empty when it is a correct sat answer.
std::string checkSatResponse(const std::string &Line, const RmaSystem &System,
                     RegexCache &Regexes, const char *Workload) {
  std::optional<Json> Resp = Json::parse(Line);
  const Json *Ok = Resp ? Resp->find("ok") : nullptr;
  if (!Ok || !Ok->isBool())
    return "malformed";
  if (!Ok->asBool()) {
    const Json *E = Resp->find("error");
    const Json *Code = E ? E->find("code") : nullptr;
    return Code && Code->isString() ? Code->asString() : "malformed";
  }
  const Json *Result = Resp->find("result");
  const Json *Sat = Result ? Result->find("satisfiable") : nullptr;
  const Json *Assignments = Result ? Result->find("assignments") : nullptr;
  // Satisfiable by construction: a planted assignment satisfies it.
  if (!Sat || !Sat->isBool() || !Sat->asBool() || !Assignments)
    return "wrong_answer";
  std::string Why;
  if (!replayWitnesses(System.Constraints, *Assignments, Regexes, &Why)) {
    std::fprintf(stderr, "%s: %s\n", Workload, Why.c_str());
    return "wrong_answer";
  }
  return "";
}

std::string verdictFingerprint(const Json &Result) {
  const Json *Sat = Result.find("satisfiable");
  const Json *As = Result.find("assignments");
  return std::string(Sat && Sat->isBool() && Sat->asBool() ? "sat " : "unsat ") +
         (As ? As->dump(0) : "[]");
}

std::string referenceFingerprint(const std::string &Text,
                                 unsigned MaxSolutions) {
  ConstraintParseResult Parsed = parseConstraintText(Text);
  if (!Parsed.Ok)
    return "parse_error";
  SolverOptions Opts;
  if (MaxSolutions)
    Opts.MaxSolutions = MaxSolutions;
  SolveResult SR = Solver(Opts).solve(Parsed.Instance);
  const Problem &P = Parsed.Instance;
  // Rendered exactly as SolverService renders a solve result.
  Json Result = Json::object();
  Result["satisfiable"] = SR.Satisfiable;
  Json Assignments = Json::array();
  for (const Assignment &A : SR.Assignments) {
    Json Obj = Json::object();
    for (VarId V = 0; V != P.numVariables(); ++V) {
      Json Var = Json::object();
      Var["regex"] = A.regexFor(V);
      if (auto W = A.witness(V))
        Var["witness"] = *W;
      Obj[P.variableName(V)] = std::move(Var);
    }
    Assignments.push(std::move(Obj));
  }
  Result["assignments"] = std::move(Assignments);
  return verdictFingerprint(Result);
}

void quiesce() {
  while (parallelRegionActive())
    std::this_thread::yield();
}

ColdCaches::ColdCaches()
    : DecideWas(DecisionCache::global().enabled()),
      MinimizeWas(minimizeCacheEnabled()) {
  quiesce();
  DecisionCache::global().setEnabled(false);
  setMinimizeCacheEnabled(false);
}

ColdCaches::~ColdCaches() {
  quiesce();
  DecisionCache::global().setEnabled(DecideWas);
  setMinimizeCacheEnabled(MinimizeWas);
}

bool referenceSubset(const std::string &Lhs, const std::string &Rhs,
                     bool &Ok) {
  NfaParseResult L = parseNfa(Lhs), R = parseNfa(Rhs);
  Ok = L.ok() && R.ok();
  return Ok && subsetOf(*L.Machine, *R.Machine);
}

std::string auditFingerprint(const miniphp::AuditResult &R) {
  std::ostringstream Os;
  Os << "parse=" << R.ParseOk << " blocks=" << R.NumBlocks << "\n";
  for (const miniphp::PolicyFinding &F : R.Findings) {
    Os << F.PolicyId << " sinks=" << F.SinksFound
       << " safe=" << F.SinksProvenSafe << " paths=" << F.SinkPaths
       << " vuln=" << F.VulnerablePaths << " c=" << F.NumConstraints
       << " line=" << F.SinkLine << " slice=";
    for (unsigned L : F.SliceLines)
      Os << L << ",";
    for (const auto &[Key, W] : F.ExploitInputs)
      Os << " " << Key << "=" << Json(W).dump(0);
    Os << "\n";
  }
  return Os.str();
}

std::vector<const miniphp::Policy *> allPolicies() {
  std::vector<const miniphp::Policy *> Out;
  for (const miniphp::Policy &P : miniphp::PolicyRegistry::global().policies())
    Out.push_back(&P);
  return Out;
}

} // namespace ledger
