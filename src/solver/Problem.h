//===- Problem.h - RMA problem instances ------------------------*- C++ -*-==//
//
// Part of dprle-cpp, a reproduction of Hooimeijer & Weimer, "A Decision
// Procedure for Subset Constraints over Regular Languages" (PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public constraint API: a Problem is a Regular Matching Assignments
/// (RMA) instance in the sense of paper Section 3.1 — a set of constraints
/// `e ⊆ c` where `e` concatenates regular-language variables and constants
/// (grammar of paper Figure 2) and `c` is a regular-language constant.
///
/// Typical use:
/// \code
///   Problem P;
///   VarId Input = P.addVariable("posted_newsid");
///   P.addConstraint({P.var(Input)}, searchLanguage("[\\d]+$"));
///   P.addConstraint({P.constant(Nfa::literal("nid_"), "prefix"),
///                    P.var(Input)},
///                   searchLanguage("'"));
///   SolveResult R = Solver().solve(P);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_SOLVER_PROBLEM_H
#define DPRLE_SOLVER_PROBLEM_H

#include "automata/Nfa.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace dprle {

/// Identifies a regular-language variable within a Problem.
using VarId = uint32_t;

/// One term of a constraint's left-hand-side concatenation.
struct Term {
  enum class Kind { Variable, Constant };

  Kind TermKind = Kind::Variable;
  /// Valid when TermKind == Variable.
  VarId Var = 0;
  /// Valid when TermKind == Constant.
  Nfa Language;
  /// Display name for constants (optional).
  std::string Name;

  bool isVariable() const { return TermKind == Kind::Variable; }
};

/// One subset constraint: Lhs[0] . Lhs[1] . ... . Lhs[n-1]  ⊆  Rhs.
struct Constraint {
  std::vector<Term> Lhs;
  Nfa Rhs;
  /// Display name for the right-hand-side constant (optional).
  std::string RhsName;
};

/// An RMA problem instance: variables plus subset constraints over them.
class Problem {
public:
  /// Declares a fresh variable. Names are for diagnostics and need not be
  /// unique, though the constraint-file parser keeps them unique.
  VarId addVariable(std::string Name);

  unsigned numVariables() const { return VariableNames.size(); }
  const std::string &variableName(VarId V) const { return VariableNames[V]; }

  /// Finds a variable by name; nullopt when absent.
  std::optional<VarId> variableByName(const std::string &Name) const;

  /// \name Term builders
  /// @{
  Term var(VarId V) const;
  Term constant(Nfa Language, std::string Name = "") const;
  /// @}

  /// Adds the constraint `Lhs[0] . ... . Lhs[n-1] ⊆ Rhs`. \p Lhs must be
  /// non-empty.
  void addConstraint(std::vector<Term> Lhs, Nfa Rhs,
                     std::string RhsName = "");

  const std::vector<Constraint> &constraints() const { return Constraints; }

  /// Truncates the instance back to its first \p NumVars variables and
  /// \p NumConstraints constraints. Only valid for watermarks captured
  /// earlier on this instance (the session API's pop(), and its rollback
  /// of a delta that failed to parse: constraints never reference
  /// variables declared after them, so rewinding both vectors to a common
  /// watermark is always consistent).
  void truncate(unsigned NumVars, size_t NumConstraints);

  /// Renders the instance in the constraint-file syntax (see
  /// ConstraintParser.h); useful for debugging and for persisting generated
  /// systems.
  std::string str() const;

private:
  std::vector<std::string> VariableNames;
  std::vector<Constraint> Constraints;
};

} // namespace dprle

#endif // DPRLE_SOLVER_PROBLEM_H
