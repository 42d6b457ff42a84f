//===- RegexParser.cpp - PCRE-subset regex parser -----------------------------//

#include "regex/RegexParser.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cstdio>
#include <cstdlib>

using namespace dprle;

namespace {

/// Character classes for the common escapes.
CharSet digitSet() { return CharSet::range('0', '9'); }

CharSet wordSet() {
  CharSet S = CharSet::range('a', 'z');
  S |= CharSet::range('A', 'Z');
  S |= digitSet();
  S.insert('_');
  return S;
}

CharSet spaceSet() {
  CharSet S;
  S.insert(' ');
  S.insert('\t');
  S.insert('\n');
  S.insert('\r');
  S.insert('\f');
  S.insert('\v');
  return S;
}

/// MaxExpandedSize's measure of \p Node, saturating just past the limit.
uint64_t expandedSize(const RegexNode &Node) {
  const uint64_t Cap = MaxExpandedSize + 1;
  switch (Node.kind()) {
  case RegexNode::Kind::Literal:
    return std::min<uint64_t>(Node.text().size(), Cap);
  case RegexNode::Kind::Concat:
  case RegexNode::Kind::Alternate:
  case RegexNode::Kind::Intersect: {
    uint64_t Sum = 0;
    for (const RegexPtr &Child : Node.children())
      Sum = std::min(Cap, Sum + expandedSize(*Child));
    return Sum;
  }
  case RegexNode::Kind::Complement:
    return expandedSize(*Node.children().front());
  case RegexNode::Kind::Repeat: {
    uint64_t Copies = Node.repeatMax() == RepeatUnbounded
                          ? uint64_t(Node.repeatMin()) + 1
                          : uint64_t(Node.repeatMax());
    // Both factors are at most Cap, so the product cannot overflow.
    return std::min(Cap, std::max<uint64_t>(Copies, 1) *
                             expandedSize(*Node.children().front()));
  }
  case RegexNode::Kind::Empty:
  case RegexNode::Kind::Epsilon:
  case RegexNode::Kind::Class:
    return 1;
  }
  return 1;
}

class Parser {
public:
  Parser(const std::string &Pattern, bool Extended)
      : Src(Pattern), Extended(Extended) {}

  RegexParseResult run() {
    RegexParseResult Result;
    if (peek() == '^') {
      Result.AnchoredStart = true;
      ++Pos;
    }
    RegexPtr Ast = parseAlternation();
    if (!Failed && Pos < Src.size() && Src[Pos] == '$' &&
        Pos + 1 == Src.size()) {
      Result.AnchoredEnd = true;
      ++Pos;
    }
    if (!Failed && Pos != Src.size())
      fail("unexpected character");
    if (!Failed && expandedSize(*Ast) > MaxExpandedSize)
      fail("pattern expands to more than " + std::to_string(MaxExpandedSize) +
           " symbols once counted repetitions are unrolled");
    if (Failed) {
      Result.Error = ErrorMsg;
      Result.ErrorPos = ErrorPos;
      return Result;
    }
    Result.Ast = std::move(Ast);
    return Result;
  }

private:
  int peek() const { return Pos < Src.size() ? (unsigned char)Src[Pos] : -1; }

  void fail(const std::string &Msg) {
    if (Failed)
      return;
    Failed = true;
    ErrorMsg = Msg;
    ErrorPos = Pos;
  }

  RegexPtr parseAlternation() {
    std::vector<RegexPtr> Branches;
    Branches.push_back(parseIntersection());
    while (!Failed && peek() == '|') {
      ++Pos;
      Branches.push_back(parseIntersection());
    }
    if (Failed)
      return nullptr;
    return RegexNode::alternate(std::move(Branches));
  }

  RegexPtr parseIntersection() {
    RegexPtr First = parseConcat();
    if (!Extended || Failed || peek() != '&')
      return First;
    std::vector<RegexPtr> Parts;
    Parts.push_back(std::move(First));
    while (!Failed && peek() == '&') {
      ++Pos;
      Parts.push_back(parseConcat());
    }
    if (Failed)
      return nullptr;
    return RegexNode::intersect(std::move(Parts));
  }

  RegexPtr parseConcat() {
    std::vector<RegexPtr> Parts;
    while (!Failed) {
      int C = peek();
      if (C < 0 || C == '|' || C == ')')
        break;
      if (Extended && C == '&')
        break;
      if (C == '$' && Pos + 1 == Src.size())
        break; // Trailing anchor; handled by run().
      if (Extended && C == '~') {
        unsigned Tildes = 0;
        while (peek() == '~') {
          ++Pos;
          ++Tildes;
        }
        RegexPtr Unit = parseRepeat();
        for (; Tildes != 0; --Tildes)
          Unit = RegexNode::complement(std::move(Unit));
        Parts.push_back(std::move(Unit));
        continue;
      }
      Parts.push_back(parseRepeat());
    }
    if (Failed)
      return nullptr;
    return RegexNode::concat(std::move(Parts));
  }

  RegexPtr parseRepeat() {
    RegexPtr Atom = parseAtom();
    while (!Failed) {
      int C = peek();
      if (C == '*') {
        ++Pos;
        Atom = RegexNode::repeat(std::move(Atom), 0, RepeatUnbounded);
      } else if (C == '+') {
        ++Pos;
        Atom = RegexNode::repeat(std::move(Atom), 1, RepeatUnbounded);
      } else if (C == '?') {
        ++Pos;
        Atom = RegexNode::repeat(std::move(Atom), 0, 1);
      } else if (C == '{') {
        size_t Save = Pos;
        ++Pos;
        size_t CountPos = Pos;
        long Min = parseDecimal(Src, Pos);
        if (Min < 0) {
          // Not a quantifier after all; treat '{' as a literal.
          Pos = Save;
          break;
        }
        if (!checkCount(Min, CountPos))
          return nullptr;
        long Max = Min;
        if (peek() == ',') {
          ++Pos;
          CountPos = Pos;
          Max = parseDecimal(Src, Pos);
          if (Max < 0)
            Max = RepeatUnbounded;
          else if (!checkCount(Max, CountPos))
            return nullptr;
        }
        if (peek() != '}') {
          fail("expected '}' in repetition");
          return nullptr;
        }
        ++Pos;
        if (Max != RepeatUnbounded && Max < Min) {
          fail("repetition maximum below minimum");
          return nullptr;
        }
        Atom = RegexNode::repeat(std::move(Atom), static_cast<int>(Min),
                                 static_cast<int>(Max));
      } else {
        break;
      }
    }
    return Atom;
  }

  /// Fails unless \p Count is within MaxRepeatCount; \p CountPos is where
  /// its digits start.
  bool checkCount(long Count, size_t CountPos) {
    if (Count <= MaxRepeatCount)
      return true;
    Pos = CountPos;
    fail("repetition count exceeds the cap of " +
         std::to_string(MaxRepeatCount));
    return false;
  }

  RegexPtr parseAtom() {
    int C = peek();
    switch (C) {
    case -1:
      fail("expected an atom");
      return nullptr;
    case '(': {
      ++Pos;
      if (peek() == ')') {
        ++Pos;
        return RegexNode::epsilon();
      }
      RegexPtr Inner = parseAlternation();
      if (Failed)
        return nullptr;
      if (peek() != ')') {
        fail("expected ')'");
        return nullptr;
      }
      ++Pos;
      return Inner;
    }
    case '[':
      return parseClass();
    case '.':
      ++Pos;
      return RegexNode::charClass(CharSet::all());
    case '\\': {
      CharSet Set;
      int Literal = parseEscape(Set);
      if (Failed)
        return nullptr;
      if (Literal >= 0)
        return RegexNode::literal(
            std::string(1, static_cast<char>(Literal)));
      return RegexNode::charClass(Set);
    }
    case '*':
    case '+':
    case '?':
      fail("quantifier with nothing to repeat");
      return nullptr;
    case ')':
    case '|':
      fail("expected an atom");
      return nullptr;
    case '^':
    case '$':
      fail("anchors are only supported at the pattern boundaries");
      return nullptr;
    default:
      ++Pos;
      return RegexNode::literal(std::string(1, static_cast<char>(C)));
    }
  }

  /// Parses an escape sequence after the backslash. Returns the literal
  /// byte value, or -1 and fills \p Set for class escapes (\d, \w, ...).
  int parseEscape(CharSet &Set) {
    assert(peek() == '\\');
    ++Pos;
    int C = peek();
    if (C < 0) {
      fail("dangling backslash");
      return -1;
    }
    ++Pos;
    switch (C) {
    case 'd':
      Set = digitSet();
      return -1;
    case 'D':
      Set = ~digitSet();
      return -1;
    case 'w':
      Set = wordSet();
      return -1;
    case 'W':
      Set = ~wordSet();
      return -1;
    case 's':
      Set = spaceSet();
      return -1;
    case 'S':
      Set = ~spaceSet();
      return -1;
    case 'n':
      return '\n';
    case 'r':
      return '\r';
    case 't':
      return '\t';
    case 'f':
      return '\f';
    case 'v':
      return '\v';
    case '0':
      return '\0';
    case 'x': {
      unsigned Value = 0;
      for (unsigned I = 0; I != 2; ++I) {
        int Digit = peek();
        if (Digit < 0 || !std::isxdigit(Digit)) {
          fail("expected two hex digits after \\x");
          return -1;
        }
        Value = Value * 16 + (std::isdigit(Digit)
                                  ? Digit - '0'
                                  : std::tolower(Digit) - 'a' + 10);
        ++Pos;
      }
      return static_cast<int>(Value);
    }
    default:
      if (std::isalnum(C)) {
        fail("unknown escape sequence");
        return -1;
      }
      return C; // Escaped punctuation stands for itself.
    }
  }

  RegexPtr parseClass() {
    assert(peek() == '[');
    ++Pos;
    bool Negate = false;
    if (peek() == '^') {
      Negate = true;
      ++Pos;
    }
    CharSet Set;
    while (true) {
      int C = peek();
      if (C < 0) {
        fail("unterminated character class");
        return nullptr;
      }
      if (C == ']') {
        // Note: unlike POSIX, ']' does not stand for itself in first
        // position; '[]' is the empty class in this dialect.
        ++Pos;
        break;
      }
      int Lo = classItem(Set);
      if (Failed)
        return nullptr;
      if (Lo < 0)
        continue; // Class escape; cannot start a range.
      if (peek() == '-' && Pos + 1 < Src.size() && Src[Pos + 1] != ']') {
        ++Pos;
        CharSet Dummy;
        int Hi = classItem(Dummy);
        if (Failed)
          return nullptr;
        if (Hi < 0) {
          fail("invalid range endpoint");
          return nullptr;
        }
        if (Hi < Lo) {
          fail("range endpoints out of order");
          return nullptr;
        }
        Set.insertRange(static_cast<unsigned char>(Lo),
                        static_cast<unsigned char>(Hi));
      } else {
        Set.insert(static_cast<unsigned char>(Lo));
      }
    }
    if (Negate)
      Set = ~Set;
    return RegexNode::charClass(Set);
  }

  /// Parses one class member. Returns its byte value, or -1 after merging a
  /// class escape (e.g. \d) into \p Set.
  int classItem(CharSet &Set) {
    int C = peek();
    if (C == '\\') {
      CharSet Esc;
      int Literal = parseEscape(Esc);
      if (Failed)
        return -1;
      if (Literal >= 0)
        return Literal;
      Set |= Esc;
      return -1;
    }
    ++Pos;
    return C;
  }

  const std::string &Src;
  bool Extended = false;
  size_t Pos = 0;
  bool Failed = false;
  std::string ErrorMsg;
  size_t ErrorPos = 0;
};

} // namespace

RegexParseResult dprle::parseRegex(const std::string &Pattern) {
  return Parser(Pattern, /*Extended=*/false).run();
}

RegexParseResult dprle::parseRegexExtended(const std::string &Pattern) {
  return Parser(Pattern, /*Extended=*/true).run();
}

RegexPtr dprle::parseRegexOrDie(const std::string &Pattern) {
  RegexParseResult Result = parseRegex(Pattern);
  if (!Result.ok()) {
    std::fprintf(stderr, "regex parse error in \"%s\" at %zu: %s\n",
                 Pattern.c_str(), Result.ErrorPos, Result.Error.c_str());
    std::abort();
  }
  return std::move(Result.Ast);
}
