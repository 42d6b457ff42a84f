//===- Oracle.h - Correctness checks for every op ---------------*- C++ -*-==//
///
/// \file
/// Two checks decide whether an answer is correct:
///
///  * Witness replay: for a `sat` answer to regex constraint text, every
///    assignment's witnesses are concatenated per constraint and matched
///    against the constraint's regexes by regex/Matcher
///    (matchesWholeString), a backtracking AST interpreter that shares no
///    code with the automata kernels that produced the answer.
///  * Cold reference: every other verdict is compared with one computed
///    during set-up by Solver::solve at jobs=1 with the decision and
///    minimize caches off ("satisfiable" plus the assignment
///    fingerprint), or for decide with subsetOf with the cache off.
///
//===----------------------------------------------------------------------===//

#ifndef LEDGER_ORACLE_H
#define LEDGER_ORACLE_H

#include "Inputs.h"

#include "miniphp/Analysis.h"
#include "regex/RegexAst.h"
#include "support/Json.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ledger {

/// Parsed regex constants, by body text, shared across checks.
class RegexCache {
public:
  /// Null when \p Body does not parse.
  const dprle::RegexNode *get(const std::string &Body);

private:
  std::map<std::string, dprle::RegexPtr> Parsed;
};

/// Replays the witnesses of \p Assignments (the `assignments` array of a
/// solve or session_check result) against \p Constraints. False, with
/// \p Why set, on a missing witness or a constraint a witness tuple
/// violates.
bool replayWitnesses(const std::vector<RmaConstraint> &Constraints,
                     const dprle::Json &Assignments, RegexCache &Regexes,
                     std::string *Why);

/// The failure code of a solve or session_check response line to a
/// system satisfiable by construction: the protocol error code,
/// "malformed", or "wrong_answer" (unsat, or a witness replay failed;
/// the reason goes to stderr under \p Workload). Empty when correct.
std::string checkSatResponse(const std::string &Line, const RmaSystem &System,
                             RegexCache &Regexes, const char *Workload);

/// `satisfiable` plus the assignments, as the service renders them.
std::string verdictFingerprint(const dprle::Json &Result);

/// The cold reference of a solve: the fingerprint of Solver::solve at
/// jobs=1 over \p Text. Callers disable the caches (ColdCaches) first.
std::string referenceFingerprint(const std::string &Text,
                                 unsigned MaxSolutions);

/// Waits until no thread runs work of a parallel executor. Pool workers
/// leave their region just after handing a job's result over, and the
/// caches may be cleared or switched only outside every region.
void quiesce();

/// Disables the decision and minimize caches for its lifetime.
class ColdCaches {
public:
  ColdCaches();
  ~ColdCaches();
  ColdCaches(const ColdCaches &) = delete;
  ColdCaches &operator=(const ColdCaches &) = delete;

private:
  bool DecideWas, MinimizeWas;
};

/// subsetOf over the serialized machines, cache off. False in \p Ok when
/// a machine does not parse.
bool referenceSubset(const std::string &Lhs, const std::string &Rhs,
                     bool &Ok);

/// Every verdict-bearing field of an audit result.
std::string auditFingerprint(const dprle::miniphp::AuditResult &R);

/// The four built-in policies, in registry order.
std::vector<const dprle::miniphp::Policy *> allPolicies();

} // namespace ledger

#endif // LEDGER_ORACLE_H
