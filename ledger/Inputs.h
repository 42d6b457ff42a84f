//===- Inputs.h - Seeded workload generators --------------------*- C++ -*-==//
///
/// \file
/// Everything the program under test receives is built here, from the
/// run's seed: Figure 11 corpus solve requests, decide subset queries over
/// a Zipf-skewed pool of machine pairs, ci_heavy-class constraint systems,
/// session bases with their edit deltas, and the audit file order.
///
/// Generated constraint systems are kept in structured form (RmaSystem)
/// next to their text, so the oracle (Oracle.h) can replay witnesses
/// against the very regexes that were sent. Every generated system plants
/// one satisfying assignment (each right-hand side is a union with the
/// planted strings), so it is satisfiable by construction.
///
//===----------------------------------------------------------------------===//

#ifndef LEDGER_INPUTS_H
#define LEDGER_INPUTS_H

#include "Common.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ledger {

/// One left-hand-side term: a variable name or a regex constant.
struct RmaTerm {
  bool IsVar = true;
  /// Variable name, or regex body without delimiters.
  std::string Text;
};

/// `t1 . t2 ... <= /Rhs/;`
struct RmaConstraint {
  std::vector<RmaTerm> Lhs;
  std::string Rhs;
};

/// A constraint system in the subset of the .rma language the ledger
/// sends: one `var` line and regex-only constraints.
struct RmaSystem {
  std::vector<std::string> Vars;
  std::vector<RmaConstraint> Constraints;

  /// Renders the system as .rma text (docs/CONSTRAINTS.md).
  std::string render() const;
  /// Renders only the constraints, for appending to an existing system.
  static std::string renderConstraints(const std::vector<RmaConstraint> &Cs);
};

/// One solve request's payload.
struct SolveInput {
  std::string Text;
  RmaSystem System;
  /// 0 = the service default (all solutions).
  unsigned MaxSolutions = 1;
  /// True when the generator planted a satisfying assignment.
  bool KnownSat = false;
  /// Figure 11 inputs: the file the sink path is in, "suite/file.php".
  std::string Origin;
};

/// The Figure 11 corpus: one solve input per sink path (253), rendered
/// as parseable .rma text. \p Skipped counts paths whose display form
/// could not be re-rendered.
std::vector<SolveInput> figure11SolveInputs(size_t &Skipped);

/// A ci_heavy-class system: \p Groups independent CI-groups, each a concat
/// chain of depth 2-4 over machines of roughly 16-64 states. With
/// \p Enumerate, half the systems ask for 2-3 solutions (bounded
/// enumeration) instead of the first one.
SolveInput heavyInput(Rng &R, unsigned Groups, bool Enumerate);

/// One decide subset query over two serialized machines.
struct DecideInput {
  std::string Lhs, Rhs;
};

/// The decide pool of serve_mix: pair \p Index of a pool whose contents
/// depend only on (\p Seed, \p Index), so the run generates just the
/// pairs its schedule draws.
DecideInput decidePair(uint64_t Seed, size_t Index);

/// Zipf(s) sampler over ranks [0, N).
class ZipfSampler {
public:
  ZipfSampler(size_t N, double S);
  size_t sample(Rng &R) const;

private:
  std::vector<double> Cdf;
};

/// A session of session_edit: the base system and a pool of edit deltas
/// (each 1 constraint, optionally declaring one fresh variable). Deltas
/// keep the planted assignment satisfying, so every check is sat.
struct SessionInput {
  std::string Id;
  RmaSystem Base;
  struct Delta {
    std::vector<std::string> NewVars;
    std::vector<RmaConstraint> Constraints;
    std::string Text;
  };
  std::vector<Delta> Deltas;
};

SessionInput sessionInput(Rng &R, const std::string &Id);

/// An edit cycle: push 1-3 deltas then check, or pop then check.
struct EditCycle {
  /// Delta indices to push (empty = a pop cycle).
  std::vector<size_t> Push;
};

/// Plans the next cycle for a session whose open frames are \p Stack
/// (delta indices, bottom first); never pushes a delta already open.
EditCycle nextCycle(Rng &R, const SessionInput &S,
                    const std::vector<size_t> &Stack);

/// The audit_sweep corpus: the Figure 11 suites plus auditShowcase().
struct AuditFile {
  std::string Name;
  std::string Source;
};
std::vector<AuditFile> auditFiles();

} // namespace ledger

#endif // LEDGER_INPUTS_H
