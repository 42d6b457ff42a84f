//===- Analysis.h - End-to-end vulnerability analysis -----------*- C++ -*-==//
///
/// \file
/// The complete pipeline of the paper's evaluation: parse a mini-PHP
/// source file, build its CFG, symbolically execute paths to query()
/// sinks, solve the resulting RMA systems, and report concrete exploit
/// inputs (testcases) for satisfiable paths.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_MINIPHP_ANALYSIS_H
#define DPRLE_MINIPHP_ANALYSIS_H

#include "miniphp/SymExec.h"
#include "solver/Solver.h"

#include <map>
#include <set>
#include <string>

namespace dprle {
namespace miniphp {

/// Analysis knobs.
struct AnalysisOptions {
  SymExecOptions SymExec;
  SolverOptions Solver;
  /// Bounded unrolling factor for while loops (miniphp/Unroll.h); any
  /// exploit found uses at most this many iterations per loop.
  unsigned LoopUnroll = 3;
  /// Stop after the first vulnerable path, as the paper's experiments do
  /// ("we attempt to find inputs for the first vulnerability in each
  /// file").
  bool StopAtFirstVulnerability = true;
  /// Run the taint dataflow pre-pass and slicing (miniphp/Taint.h,
  /// miniphp/Slice.h) to prune path exploration. Sound: never changes
  /// the vulnerable/safe verdict (see docs/TAINT.md); only skips work
  /// whose outcome is already known.
  bool TaintPrune = true;

  AnalysisOptions() {
    // Witness generation needs any satisfying assignment; skip the
    // maximality widening and further disjuncts for speed.
    Solver.MaxSolutions = 1;
    Solver.MaximizeSolutions = false;
  }
};

/// One attack spec's verdict on one source file: the part of a report
/// that analyzeSource and each auditSource finding share.
struct SpecFinding {
  /// Sinks matching the attack spec in the (unrolled) CFG. Zero means
  /// the file has nothing to audit — a different claim than "audited
  /// and found safe" (see noSinks()).
  unsigned SinksFound = 0;
  /// Sinks the taint pre-pass proved safe without solving (0 when
  /// TaintPrune is off).
  unsigned SinksProvenSafe = 0;
  /// Paths that reached a sink.
  unsigned SinkPaths = 0;
  /// Paths whose constraint system was satisfiable (vulnerable).
  unsigned VulnerablePaths = 0;

  /// Statistics for the first vulnerable path (matching Figure 12's
  /// per-vulnerability rows).
  unsigned NumConstraints = 0; ///< |C|
  double SolveSeconds = 0.0;   ///< T_S
  unsigned SinkLine = 0;
  SolverStats Stats;

  /// Exploit inputs for the first vulnerable path: "source:key" ->
  /// witness string.
  std::map<std::string, std::string> ExploitInputs;

  /// Program slice for the first vulnerable path (paper Section 2: "a
  /// program slice that elides irrelevant statements may further help a
  /// developer understand a bug report"): source lines defining the sink
  /// value plus the checks constraining inputs that flow into it.
  std::set<unsigned> SliceLines;

  bool vulnerable() const { return VulnerablePaths > 0; }
  bool noSinks() const { return SinksFound == 0; }
};

/// The report for one analyzed source file.
struct AnalysisResult : SpecFinding {
  bool ParseOk = false;
  std::string ParseError;

  /// |FG|: basic blocks in the file's CFG.
  unsigned NumBlocks = 0;

  /// True when the file parsed but contains no sink to audit; "not
  /// vulnerable" would overstate what was checked.
  bool noSinks() const { return ParseOk && SinksFound == 0; }
};

/// Runs the full pipeline on \p Source: auditSource with one spec.
AnalysisResult analyzeSource(const std::string &Source,
                             const AttackSpec &Attack,
                             const AnalysisOptions &Opts = {});

/// One policy's verdict within an audit (parse state and CFG size are
/// file-level and live on AuditResult).
struct PolicyFinding : SpecFinding {
  /// Policy::Id of the audited policy ("sqli", "xss", ...).
  std::string PolicyId;
  /// Policy::Summary, for reports.
  std::string Summary;
};

/// The report of one multi-policy audit of one source file.
struct AuditResult {
  bool ParseOk = false;
  std::string ParseError;
  /// |FG|: basic blocks in the file's CFG.
  unsigned NumBlocks = 0;
  /// One finding per audited policy, in the order given to auditSource.
  std::vector<PolicyFinding> Findings;

  bool anyVulnerable() const;
  /// True when some audited policy found a sink to check.
  bool anySinks() const;
};

/// Audits \p Source against every policy in \p Policies over ONE parse,
/// one CFG, one taint/slice pre-pass, and one symbolic-execution walk
/// (runSymExecAll); only the per-sink constraint solving fans out per
/// policy, sharing the process-wide DecisionCache. analyzeSource is this
/// pipeline with one spec, so Findings[i] carries verdicts identical to
/// analyzeSource(Source, Policies[i]->Attack, Opts) — see runSymExecAll
/// for the one variable-set caveat.
AuditResult auditSource(const std::string &Source,
                        const std::vector<const Policy *> &Policies,
                        const AnalysisOptions &Opts = {});

} // namespace miniphp
} // namespace dprle

#endif // DPRLE_MINIPHP_ANALYSIS_H
