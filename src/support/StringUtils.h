//===- StringUtils.h - Small string helpers ---------------------*- C++ -*-==//
///
/// \file
/// String escaping and formatting helpers shared by the automata printers,
/// the regex pretty-printer, and the tools.
///
//===----------------------------------------------------------------------===//

#ifndef DPRLE_SUPPORT_STRINGUTILS_H
#define DPRLE_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dprle {

/// Escapes one byte for display inside regex-like output: printable symbols
/// pass through (regex metacharacters gain a backslash); everything else is
/// rendered as \\xNN.
std::string escapeChar(unsigned char C);

/// Escapes every byte of \p Str for display (see escapeChar).
std::string escapeString(const std::string &Str);

/// Escapes \p Str for inclusion in a double-quoted literal: quotes,
/// backslashes, and non-printables become escape sequences.
std::string quoteString(const std::string &Str);

/// Joins \p Parts with \p Sep.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Returns true if \p C is one of the regex metacharacters that escapeChar
/// protects with a backslash.
bool isRegexMetaChar(unsigned char C);

/// Parses a non-negative decimal integer from \p Str starting at \p Pos,
/// advancing \p Pos past the digits. Returns -1 if no digit is present;
/// values past LONG_MAX saturate to LONG_MAX.
long parseDecimal(const std::string &Str, size_t &Pos);

/// FNV-1a (64-bit) over \p Bytes, continuing from \p H: cheap,
/// dependency-free and identical in every process, unlike std::hash.
inline uint64_t fnv1a(std::string_view Bytes,
                      uint64_t H = 14695981039346656037ull) {
  for (unsigned char C : Bytes)
    H = (H ^ C) * 1099511628211ull;
  return H;
}

/// Strict UTF-8 validation: true iff \p Str is a well-formed UTF-8 byte
/// sequence (rejects overlong encodings, surrogates, and code points past
/// U+10FFFF). The service validates request lines with this before any
/// byte of them can be echoed into an NDJSON response (the JSON writer
/// passes bytes >= 0x80 through verbatim).
bool isValidUtf8(const std::string &Str);

} // namespace dprle

#endif // DPRLE_SUPPORT_STRINGUTILS_H
