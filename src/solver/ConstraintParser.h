//===- ConstraintParser.h - Textual constraint front end --------*- C++ -*-==//
///
/// \file
/// A small textual input language for RMA instances, in the spirit of the
/// stand-alone DPRLE utility the paper describes ("We have implemented our
/// decision procedure as a stand-alone utility in the style of a theorem
/// prover or SAT solver").
///
/// Syntax (see also examples/motivating.rma):
///
/// \code
///   # SQL-injection motivating example (paper Section 2)
///   var v1;
///   let attack := search(/'/);        # named constant; search() widens
///                                     # by Sigma* on unanchored sides
///   v1 <= search(/[\d]+$/);           # the faulty filter on line 2
///   "nid_" . v1 <= attack;            # the query built on lines 6-7
/// \endcode
///
/// Statements end with ';'. '#' and '//' start line comments. Constants
/// are regex literals `/.../` (denoting exactly L(re)), string literals
/// `"..."`, `search(/.../)` match languages, or `let`-bound names.
///
/// Regex literals use the *extended* dialect (RegexParser.h's
/// parseRegexExtended): `&` is language intersection and `~` is
/// complement; escape them (`\&`, `\~`) for the literal characters.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_SOLVER_CONSTRAINTPARSER_H
#define DPRLE_SOLVER_CONSTRAINTPARSER_H

#include "solver/Problem.h"

#include <map>
#include <string>
#include <vector>

namespace dprle {

/// Outcome of parsing a constraint file.
struct ConstraintParseResult {
  Problem Instance;
  bool Ok = false;
  std::string Error;
  /// 1-based line of the first error.
  size_t ErrorLine = 0;
};

/// Parses the constraint language described above. Never throws.
ConstraintParseResult parseConstraintText(const std::string &Text);

/// Outcome of parsing a delta in place (parseConstraintDelta).
struct ConstraintDeltaResult {
  bool Ok = false;
  std::string Error;
  /// 1-based line of the first error.
  size_t ErrorLine = 0;
  /// The `let` names the text declared, in order (on failure, those
  /// declared before the error).
  std::vector<std::string> DeclaredLets;
};

/// Parses \p Text as a *delta* straight into an existing instance:
/// constraints in \p Text may reference \p Instance's variables (and the
/// `let` constants in \p Lets), and new `var`/`let` declarations and
/// constraints are appended to both in place. Used by the session API
/// (Session.h): parsing push(delta) in context yields exactly the Problem
/// a cold parse of the concatenated texts would, at a cost proportional to
/// the delta. Never throws.
///
/// On failure the text's additions up to the error stay in place: the
/// caller rewinds \p Instance to its earlier watermark
/// (Problem::truncate) and erases DeclaredLets from \p Lets.
ConstraintDeltaResult parseConstraintDelta(const std::string &Text,
                                           Problem &Instance,
                                           std::map<std::string, Nfa> &Lets);

} // namespace dprle

#endif // DPRLE_SOLVER_CONSTRAINTPARSER_H
