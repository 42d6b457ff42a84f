//===- ConstraintParser.cpp - Textual constraint front end ---------------------//

#include "solver/ConstraintParser.h"
#include "regex/RegexCompiler.h"
#include "regex/RegexParser.h"

#include <cctype>
#include <map>

using namespace dprle;

namespace {

enum class TokKind {
  End,
  Ident,
  KwVar,
  KwLet,
  KwSearch,
  Regex,  // /.../ (text without delimiters)
  String, // "..." (decoded)
  Assign, // :=
  Subset, // <=
  Dot,
  Comma,
  Semi,
  LParen,
  RParen,
  Error
};

struct Token {
  TokKind Kind = TokKind::End;
  std::string Text;
  size_t Line = 1;
};

class Lexer {
public:
  explicit Lexer(const std::string &Src) : Src(Src) {}

  Token next() {
    skipTrivia();
    Token T;
    T.Line = Line;
    if (Pos >= Src.size()) {
      T.Kind = TokKind::End;
      return T;
    }
    char C = Src[Pos];
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_' || C == '$') {
      size_t Begin = Pos;
      while (Pos < Src.size() &&
             (std::isalnum(static_cast<unsigned char>(Src[Pos])) ||
              Src[Pos] == '_' || Src[Pos] == '$'))
        ++Pos;
      T.Text = Src.substr(Begin, Pos - Begin);
      if (T.Text == "var")
        T.Kind = TokKind::KwVar;
      else if (T.Text == "let")
        T.Kind = TokKind::KwLet;
      else if (T.Text == "search")
        T.Kind = TokKind::KwSearch;
      else
        T.Kind = TokKind::Ident;
      return T;
    }
    switch (C) {
    case '/': {
      ++Pos;
      std::string Body;
      while (Pos < Src.size() && Src[Pos] != '/') {
        if (Src[Pos] == '\\' && Pos + 1 < Src.size() &&
            Src[Pos + 1] == '/') {
          Body += '/';
          Pos += 2;
          continue;
        }
        if (Src[Pos] == '\n')
          ++Line;
        Body += Src[Pos++];
      }
      if (Pos >= Src.size()) {
        T.Kind = TokKind::Error;
        T.Text = "unterminated regex literal";
        return T;
      }
      ++Pos; // closing '/'
      T.Kind = TokKind::Regex;
      T.Text = std::move(Body);
      return T;
    }
    case '"': {
      ++Pos;
      std::string Body;
      while (Pos < Src.size() && Src[Pos] != '"') {
        char D = Src[Pos++];
        if (D == '\\' && Pos < Src.size()) {
          char E = Src[Pos++];
          switch (E) {
          case 'n':
            Body += '\n';
            break;
          case 't':
            Body += '\t';
            break;
          default:
            Body += E;
          }
          continue;
        }
        if (D == '\n')
          ++Line;
        Body += D;
      }
      if (Pos >= Src.size()) {
        T.Kind = TokKind::Error;
        T.Text = "unterminated string literal";
        return T;
      }
      ++Pos;
      T.Kind = TokKind::String;
      T.Text = std::move(Body);
      return T;
    }
    case ':':
      if (Pos + 1 < Src.size() && Src[Pos + 1] == '=') {
        Pos += 2;
        T.Kind = TokKind::Assign;
        return T;
      }
      break;
    case '<':
      if (Pos + 1 < Src.size() && Src[Pos + 1] == '=') {
        Pos += 2;
        T.Kind = TokKind::Subset;
        return T;
      }
      break;
    case '.':
      ++Pos;
      T.Kind = TokKind::Dot;
      return T;
    case ',':
      ++Pos;
      T.Kind = TokKind::Comma;
      return T;
    case ';':
      ++Pos;
      T.Kind = TokKind::Semi;
      return T;
    case '(':
      ++Pos;
      T.Kind = TokKind::LParen;
      return T;
    case ')':
      ++Pos;
      T.Kind = TokKind::RParen;
      return T;
    default:
      break;
    }
    T.Kind = TokKind::Error;
    T.Text = std::string("unexpected character '") + C + "'";
    ++Pos;
    return T;
  }

private:
  void skipTrivia() {
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (C == '\n') {
        ++Line;
        ++Pos;
      } else if (std::isspace(static_cast<unsigned char>(C))) {
        ++Pos;
      } else if (C == '#') {
        while (Pos < Src.size() && Src[Pos] != '\n')
          ++Pos;
      } else if (C == '/' && Pos + 1 < Src.size() && Src[Pos + 1] == '/') {
        while (Pos < Src.size() && Src[Pos] != '\n')
          ++Pos;
      } else {
        break;
      }
    }
  }

  const std::string &Src;
  size_t Pos = 0;
  size_t Line = 1;
};

class ConstraintFileParser {
public:
  /// Parsing appends to \p Instance's variables and constraints and to
  /// the caller's let-bindings (both empty for a standalone file).
  ConstraintFileParser(const std::string &Src, Problem &Instance,
                       std::map<std::string, Nfa> &Lets)
      : Lex(Src), P(Instance), Constants(Lets) {
    advance();
  }

  ConstraintDeltaResult run() {
    while (!Failed && Cur.Kind != TokKind::End)
      parseStatement();
    Result.Ok = !Failed;
    if (Failed) {
      Result.Error = ErrorMsg;
      Result.ErrorLine = ErrorLine;
    }
    return std::move(Result);
  }

private:
  void advance() {
    Cur = Lex.next();
    if (Cur.Kind == TokKind::Error)
      fail(Cur.Text);
  }

  void fail(const std::string &Msg) {
    if (Failed)
      return;
    Failed = true;
    ErrorMsg = Msg;
    ErrorLine = Cur.Line;
  }

  bool expect(TokKind Kind, const char *What) {
    if (Cur.Kind != Kind) {
      fail(std::string("expected ") + What);
      return false;
    }
    advance();
    return true;
  }

  void parseStatement() {
    switch (Cur.Kind) {
    case TokKind::KwVar:
      parseVarDecl();
      return;
    case TokKind::KwLet:
      parseLetDecl();
      return;
    default:
      parseConstraint();
      return;
    }
  }

  void parseVarDecl() {
    advance(); // 'var'
    while (!Failed) {
      if (Cur.Kind != TokKind::Ident) {
        fail("expected variable name");
        return;
      }
      if (Instance().variableByName(Cur.Text) || Constants.count(Cur.Text)) {
        fail("redefinition of '" + Cur.Text + "'");
        return;
      }
      Instance().addVariable(Cur.Text);
      advance();
      if (Cur.Kind == TokKind::Comma) {
        advance();
        continue;
      }
      break;
    }
    expect(TokKind::Semi, "';'");
  }

  void parseLetDecl() {
    advance(); // 'let'
    if (Cur.Kind != TokKind::Ident) {
      fail("expected constant name after 'let'");
      return;
    }
    std::string Name = Cur.Text;
    if (Instance().variableByName(Name) || Constants.count(Name)) {
      fail("redefinition of '" + Name + "'");
      return;
    }
    advance();
    if (!expect(TokKind::Assign, "':='"))
      return;
    Nfa Language;
    if (!parseConstantLanguage(Language))
      return;
    Result.DeclaredLets.push_back(Name);
    Constants.emplace(std::move(Name), std::move(Language));
    expect(TokKind::Semi, "';'");
  }

  /// Parses a constant language: /re/, "literal", search(/re/), or a
  /// let-bound name.
  bool parseConstantLanguage(Nfa &Out) {
    switch (Cur.Kind) {
    case TokKind::Regex:
    case TokKind::KwSearch: {
      bool Search = Cur.Kind == TokKind::KwSearch;
      if (Search) {
        advance();
        if (!expect(TokKind::LParen, "'('"))
          return false;
        if (Cur.Kind != TokKind::Regex) {
          fail("expected regex literal inside search()");
          return false;
        }
      }
      // Constraint files use the extended dialect (& intersection,
      // ~ complement); see RegexParser.h.
      RegexParseResult R = parseRegexExtended(Cur.Text);
      if (!R.ok()) {
        fail("regex error: " + R.Error);
        return false;
      }
      Out = Search ? searchLanguage(R) : compileRegex(*R.Ast);
      advance();
      return !Search || expect(TokKind::RParen, "')'");
    }
    case TokKind::String:
      Out = Nfa::literal(Cur.Text);
      advance();
      return true;
    case TokKind::Ident: {
      auto It = Constants.find(Cur.Text);
      if (It == Constants.end()) {
        fail("unknown constant '" + Cur.Text + "'");
        return false;
      }
      Out = It->second;
      advance();
      return true;
    }
    default:
      fail("expected a constant language");
      return false;
    }
  }

  void parseConstraint() {
    std::vector<Term> Lhs;
    while (!Failed) {
      if (Cur.Kind == TokKind::Ident &&
          Instance().variableByName(Cur.Text)) {
        Lhs.push_back(Instance().var(*Instance().variableByName(Cur.Text)));
        advance();
      } else {
        Nfa Language;
        std::string Name;
        if (Cur.Kind == TokKind::Ident)
          Name = Cur.Text;
        if (!parseConstantLanguage(Language))
          return;
        Lhs.push_back(Instance().constant(std::move(Language), Name));
      }
      if (Cur.Kind == TokKind::Dot) {
        advance();
        continue;
      }
      break;
    }
    if (Failed)
      return;
    if (!expect(TokKind::Subset, "'<='"))
      return;
    Nfa Rhs;
    std::string RhsName;
    if (Cur.Kind == TokKind::Ident)
      RhsName = Cur.Text;
    if (!parseConstantLanguage(Rhs))
      return;
    if (!expect(TokKind::Semi, "';'"))
      return;
    Instance().addConstraint(std::move(Lhs), std::move(Rhs),
                             std::move(RhsName));
  }

  Problem &Instance() { return P; }

  Lexer Lex;
  Token Cur;
  Problem &P;
  std::map<std::string, Nfa> &Constants;
  ConstraintDeltaResult Result;
  bool Failed = false;
  std::string ErrorMsg;
  size_t ErrorLine = 0;
};

} // namespace

ConstraintParseResult dprle::parseConstraintText(const std::string &Text) {
  ConstraintParseResult Result;
  std::map<std::string, Nfa> Lets;
  ConstraintDeltaResult Parsed =
      parseConstraintDelta(Text, Result.Instance, Lets);
  Result.Ok = Parsed.Ok;
  Result.Error = std::move(Parsed.Error);
  Result.ErrorLine = Parsed.ErrorLine;
  return Result;
}

ConstraintDeltaResult
dprle::parseConstraintDelta(const std::string &Text, Problem &Instance,
                            std::map<std::string, Nfa> &Lets) {
  return ConstraintFileParser(Text, Instance, Lets).run();
}
