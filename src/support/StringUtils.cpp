//===- StringUtils.cpp - Small string helpers ------------------------------==//

#include "support/StringUtils.h"

#include <cctype>
#include <climits>
#include <cstdint>
#include <cstdio>

using namespace dprle;

bool dprle::isRegexMetaChar(unsigned char C) {
  switch (C) {
  case '\\':
  case '.':
  case '*':
  case '+':
  case '?':
  case '(':
  case ')':
  case '[':
  case ']':
  case '{':
  case '}':
  case '|':
  case '^':
  case '$':
  case '-':
    return true;
  default:
    return false;
  }
}

std::string dprle::escapeChar(unsigned char C) {
  if (isRegexMetaChar(C))
    return std::string("\\") + static_cast<char>(C);
  if (std::isprint(C))
    return std::string(1, static_cast<char>(C));
  char Buf[8];
  std::snprintf(Buf, sizeof(Buf), "\\x%02x", C);
  return Buf;
}

std::string dprle::escapeString(const std::string &Str) {
  std::string Out;
  for (char C : Str)
    Out += escapeChar(static_cast<unsigned char>(C));
  return Out;
}

std::string dprle::quoteString(const std::string &Str) {
  std::string Out = "\"";
  for (char C : Str) {
    unsigned char U = static_cast<unsigned char>(C);
    switch (U) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (std::isprint(U)) {
        Out += static_cast<char>(U);
      } else {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\x%02x", U);
        Out += Buf;
      }
    }
  }
  Out += '"';
  return Out;
}

std::string dprle::join(const std::vector<std::string> &Parts,
                        const std::string &Sep) {
  std::string Out;
  for (size_t I = 0; I != Parts.size(); ++I) {
    if (I)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

long dprle::parseDecimal(const std::string &Str, size_t &Pos) {
  if (Pos >= Str.size() || !std::isdigit(static_cast<unsigned char>(Str[Pos])))
    return -1;
  long Value = 0;
  while (Pos < Str.size() &&
         std::isdigit(static_cast<unsigned char>(Str[Pos]))) {
    long Digit = Str[Pos] - '0';
    Value = Value > (LONG_MAX - Digit) / 10 ? LONG_MAX : Value * 10 + Digit;
    ++Pos;
  }
  return Value;
}

bool dprle::isValidUtf8(const std::string &Str) {
  const unsigned char *P =
      reinterpret_cast<const unsigned char *>(Str.data());
  const unsigned char *End = P + Str.size();
  while (P != End) {
    unsigned char Lead = *P;
    if (Lead < 0x80) {
      ++P;
      continue;
    }
    unsigned Len;
    uint32_t Code;
    if ((Lead & 0xE0) == 0xC0) {
      Len = 2;
      Code = Lead & 0x1F;
    } else if ((Lead & 0xF0) == 0xE0) {
      Len = 3;
      Code = Lead & 0x0F;
    } else if ((Lead & 0xF8) == 0xF0) {
      Len = 4;
      Code = Lead & 0x07;
    } else {
      return false; // Continuation byte or 0xF8+ lead.
    }
    if (static_cast<size_t>(End - P) < Len)
      return false;
    for (unsigned I = 1; I != Len; ++I) {
      if ((P[I] & 0xC0) != 0x80)
        return false;
      Code = (Code << 6) | (P[I] & 0x3F);
    }
    if ((Len == 2 && Code < 0x80) || (Len == 3 && Code < 0x800) ||
        (Len == 4 && Code < 0x10000))
      return false; // Overlong encoding.
    if (Code > 0x10FFFF || (Code >= 0xD800 && Code <= 0xDFFF))
      return false;
    P += Len;
  }
  return true;
}
