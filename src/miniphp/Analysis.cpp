//===- Analysis.cpp - End-to-end vulnerability analysis -------------------===//

#include "miniphp/Analysis.h"
#include "miniphp/Inline.h"
#include "miniphp/Parser.h"
#include "miniphp/Unroll.h"
#include "support/Timer.h"

using namespace dprle;
using namespace dprle::miniphp;

namespace {

/// Solves one spec's sink paths, in order, into its finding.
void solvePaths(const SymExecResult &Sym, const AnalysisOptions &Opts,
                SpecFinding &F) {
  F.SinksFound = Sym.SinksFound;
  F.SinksProvenSafe = Sym.SinksProvenSafe;
  F.SinkPaths = Sym.Paths.size();

  Solver TheSolver(Opts.Solver);
  for (const PathCondition &PC : Sym.Paths) {
    Timer Clock;
    SolveResult SR = TheSolver.solve(PC.Instance);
    double Seconds = Clock.seconds();
    if (!SR.Satisfiable)
      continue;
    ++F.VulnerablePaths;
    if (F.VulnerablePaths == 1) {
      F.NumConstraints = PC.NumConstraints;
      F.SolveSeconds = Seconds;
      F.SinkLine = PC.SinkLine;
      F.SliceLines = PC.SliceLines;
      F.Stats = SR.Stats;
      const Assignment &A = SR.Assignments.front();
      for (const auto &[Key, Var] : PC.InputVariables) {
        auto Witness = A.witness(Var);
        F.ExploitInputs[Key] = Witness ? *Witness : "";
      }
    }
    if (Opts.StopAtFirstVulnerability)
      break;
  }
}

/// The one audit pipeline: the front end, one walk of the CFG for every
/// spec (runSymExecAll), then each spec's solves. The findings carry no
/// policy id; auditSource names them.
AuditResult auditSpecs(const std::string &Source,
                       const std::vector<AttackSpec> &Specs,
                       const AnalysisOptions &Opts) {
  AuditResult Result;
  FrontEnd Front = buildFrontEnd(Source, Opts.LoopUnroll);
  if (!Front.Ok) {
    Result.ParseError = std::move(Front.Error);
    return Result;
  }
  Result.ParseOk = true;
  Result.NumBlocks = Front.G.numBlocks();

  SymExecOptions SymOpts = Opts.SymExec;
  SymOpts.TaintPrune = Opts.TaintPrune;
  std::vector<SymExecResult> Sym =
      runSymExecAll(Front.Prog, Front.G, Specs, SymOpts);

  // The solve fan-out: one fresh Solver per spec, so each spec's verdict
  // is the one a one-spec audit reaches (the DecisionCache is
  // process-wide either way, which is where the cross-spec sharing
  // happens).
  Result.Findings.resize(Specs.size());
  for (size_t I = 0; I != Specs.size(); ++I)
    solvePaths(Sym[I], Opts, Result.Findings[I]);
  return Result;
}

} // namespace

FrontEnd dprle::miniphp::buildFrontEnd(const std::string &Source,
                                       unsigned LoopUnroll) {
  FrontEnd Result;
  ParseResult Parsed = parseProgram(Source);
  if (!Parsed.Ok) {
    Result.Error =
        Parsed.Error + " (line " + std::to_string(Parsed.ErrorLine) + ")";
    return Result;
  }
  InlineResult Inlined = inlineFunctions(Parsed.Prog);
  if (!Inlined.Ok) {
    Result.Error =
        Inlined.Error + " (line " + std::to_string(Inlined.ErrorLine) + ")";
    return Result;
  }
  Result.Ok = true;
  Result.Prog = unrollLoops(Inlined.Prog, LoopUnroll);
  Result.G = Cfg::build(Result.Prog);
  return Result;
}

AnalysisResult dprle::miniphp::analyzeSource(const std::string &Source,
                                             const AttackSpec &Attack,
                                             const AnalysisOptions &Opts) {
  AuditResult Audit = auditSpecs(Source, {Attack}, Opts);
  AnalysisResult Result;
  Result.ParseOk = Audit.ParseOk;
  Result.ParseError = std::move(Audit.ParseError);
  Result.NumBlocks = Audit.NumBlocks;
  if (Audit.ParseOk)
    static_cast<SpecFinding &>(Result) = std::move(Audit.Findings.front());
  return Result;
}

bool AuditResult::anyVulnerable() const {
  for (const PolicyFinding &F : Findings)
    if (F.vulnerable())
      return true;
  return false;
}

bool AuditResult::anySinks() const {
  for (const PolicyFinding &F : Findings)
    if (F.SinksFound > 0)
      return true;
  return false;
}

AuditResult dprle::miniphp::auditSource(
    const std::string &Source, const std::vector<const Policy *> &Policies,
    const AnalysisOptions &Opts) {
  std::vector<AttackSpec> Specs;
  Specs.reserve(Policies.size());
  for (const Policy *P : Policies)
    Specs.push_back(P->Attack);
  AuditResult Result = auditSpecs(Source, Specs, Opts);
  for (size_t I = 0; I != Result.Findings.size(); ++I) {
    Result.Findings[I].PolicyId = Policies[I]->Id;
    Result.Findings[I].Summary = Policies[I]->Summary;
  }
  return Result;
}
