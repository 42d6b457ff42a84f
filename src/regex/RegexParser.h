//===- RegexParser.h - PCRE-subset regex parser -----------------*- C++ -*-==//
///
/// \file
/// Recursive-descent parser for the regex dialect used throughout the
/// reproduction (see RegexAst.h for dialect notes). The dialect covers the
/// constructs appearing in the paper: literals, escapes, character classes,
/// alternation, grouping, the *, +, ?, and {m,n} quantifiers, '.', and the
/// ^/$ anchors used by PHP's preg_match (reported as flags, not AST nodes).
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_REGEX_REGEXPARSER_H
#define DPRLE_REGEX_REGEXPARSER_H

#include "regex/RegexAst.h"

#include <cstdint>
#include <string>

namespace dprle {

/// Outcome of parsing a regular expression.
struct RegexParseResult {
  /// The syntax tree; null when parsing failed.
  RegexPtr Ast;
  /// True when the pattern began with '^'.
  bool AnchoredStart = false;
  /// True when the pattern ended with '$'.
  bool AnchoredEnd = false;
  /// Empty on success; otherwise a description of the failure.
  std::string Error;
  /// Byte offset of the failure in the input pattern.
  size_t ErrorPos = 0;

  bool ok() const { return Ast != nullptr; }
};

/// The largest count a `{m}`, `{m,}` or `{m,n}` quantifier may name;
/// larger counts are parse errors. Compilation unrolls counted
/// repetition, and constraint text is compiled before any request budget
/// exists (docs/ROBUSTNESS.md), so the counts must be bounded up front.
constexpr long MaxRepeatCount = 1000;

/// The largest expanded size a pattern may have; larger patterns are parse
/// errors. The expanded size is the number of symbols the pattern spells
/// out once every counted repetition is unrolled: a literal counts its
/// length, every other atom one; `{m,n}` multiplies its operand by n,
/// `{m,}` by m + 1 (`*` and `?` by one). This catches nested counts such
/// as `(a{1000}){1000}` whose counts pass MaxRepeatCount one by one. The
/// compiled machine has at most about three states per unit.
constexpr uint64_t MaxExpandedSize = 20000;

/// Parses \p Pattern. Never throws; failures are reported in the result.
RegexParseResult parseRegex(const std::string &Pattern);

/// Parses \p Pattern with the *extended* operators enabled:
///
///   * `a&b` — language intersection (binds tighter than `|`, looser
///     than concatenation);
///   * `~a`  — language complement (prefix; binds to the following
///     repetition unit: `~a*` is `~(a*)` but `~ab` is `(~a)b`;
///     complement a longer expression with parentheses: `~(ab)`).
///
/// In extended mode a literal `&` or `~` must be escaped (`\&`, `\~`).
/// The constraint-file front end uses this dialect for its /.../
/// literals; preg_match patterns in mini-PHP stay PCRE-compatible and use
/// plain parseRegex.
RegexParseResult parseRegexExtended(const std::string &Pattern);

/// Convenience wrapper: parses \p Pattern and asserts success. Intended for
/// string constants in tests, examples, and benchmarks.
RegexPtr parseRegexOrDie(const std::string &Pattern);

} // namespace dprle

#endif // DPRLE_REGEX_REGEXPARSER_H
