//===- NfaToRegex.h - State-elimination regex extraction --------*- C++ -*-==//
///
/// \file
/// Converts NFAs back into concrete regex syntax via Brzozowski/McNaughton-
/// Yamada state elimination. The solver uses this to present satisfying
/// assignments (which are languages, not strings) in readable form, e.g.
/// the paper's solution "all strings that contain a single quote and end
/// with a digit" for the motivating example.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_REGEX_NFATOREGEX_H
#define DPRLE_REGEX_NFATOREGEX_H

#include "automata/Nfa.h"

#include <string>

namespace dprle {

/// Returns a regex (in the dialect of RegexParser) denoting L(M).
/// The empty language renders as "[]". The machine is minimized first so
/// the output is reasonably small, but no further simplification is
/// attempted; parse-and-compare with `equivalentTo` rather than string
/// comparison.
///
/// The output can be exponential in the number of states, so the text is
/// charged to the calling thread's ambient budget (support/Budget.h) as it
/// grows — in 64 KiB installments and once per eliminated state. When the
/// budget trips mid-render the result is an empty string, meaningless;
/// the caller checks its budget.
std::string nfaToRegex(const Nfa &M);

} // namespace dprle

#endif // DPRLE_REGEX_NFATOREGEX_H
