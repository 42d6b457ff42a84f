//===- RegexCompiler.h - Thompson construction ------------------*- C++ -*-==//
///
/// \file
/// Compiles regex syntax trees into NFAs (Thompson construction) and
/// implements the preg_match-style *search* language used by the paper's
/// motivating example: an unanchored pattern P matches string s iff
/// s is in Sigma* L(P) Sigma*, with '^'/'$' trimming the corresponding
/// Sigma* (paper Section 2: the vulnerable filter /[\d]+$/ is missing '^').
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_REGEX_REGEXCOMPILER_H
#define DPRLE_REGEX_REGEXCOMPILER_H

#include "automata/Nfa.h"
#include "regex/RegexAst.h"
#include "regex/RegexParser.h"

#include <string>

namespace dprle {

/// Compiles \p Node into an NFA recognizing exactly L(Node). The result
/// always has a single accepting state. Takes time linear in the
/// pattern's expanded size (RegexParser.h's MaxExpandedSize), plus the
/// determinizations of any `&` / `~` operators.
Nfa compileRegex(const RegexNode &Node);

/// Parses and compiles \p Pattern as a whole-string (fully anchored)
/// language. Aborts on parse errors; intended for constant patterns.
Nfa regexLanguage(const std::string &Pattern);

/// The language of strings *accepted by a search* for \p Parsed: L(P)
/// widened by Sigma* on each unanchored side.
Nfa searchLanguage(const RegexParseResult &Parsed);

/// Parses \p Pattern and returns its search language. Aborts on parse
/// errors; intended for constant patterns.
Nfa searchLanguage(const std::string &Pattern);

} // namespace dprle

#endif // DPRLE_REGEX_REGEXCOMPILER_H
