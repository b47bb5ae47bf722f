#include "pql/parser.h"

#include <algorithm>
#include <cctype>

#include "pql/lexer.h"

namespace ariadne {

namespace {

/// Case-insensitive aggregate keyword lookup.
bool LookupAggregate(const std::string& name, AggregateFn* out) {
  std::string upper = name;
  std::transform(upper.begin(), upper.end(), upper.begin(), [](char c) {
    return static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  });
  if (upper == "COUNT") {
    *out = AggregateFn::kCount;
  } else if (upper == "SUM") {
    *out = AggregateFn::kSum;
  } else if (upper == "MIN") {
    *out = AggregateFn::kMin;
  } else if (upper == "MAX") {
    *out = AggregateFn::kMax;
  } else if (upper == "AVG") {
    *out = AggregateFn::kAvg;
  } else {
    return false;
  }
  return true;
}

/// Recursive-descent parser with rule-granularity error recovery: a syntax
/// error inside a rule is reported to the sink, the parser skips to the
/// next '.' and resumes with the following rule, so one pass reports every
/// malformed rule instead of bailing at the first.
class Parser {
 public:
  Parser(std::vector<Token> tokens, DiagnosticSink& sink)
      : tokens_(std::move(tokens)), sink_(sink) {}

  Program ParseProgramRecovering() {
    Program program;
    while (Peek().kind != TokenKind::kEof) {
      const size_t before = pos_;
      auto rule = ParseRule();
      if (rule.ok()) {
        program.rules.push_back(std::move(*rule));
      } else {
        Synchronize(before);
      }
    }
    if (program.rules.empty() && !sink_.has_errors()) {
      sink_.Error("PQL1005", Span{}, "empty PQL program");
    }
    return program;
  }

  Result<Rule> ParseRule() {
    Rule rule;
    ARIADNE_ASSIGN_OR_RETURN(Token name, Expect(TokenKind::kIdent, "rule head"));
    rule.head_predicate = name.text;
    rule.name_span = TokenSpan(name);
    ARIADNE_RETURN_NOT_OK(ExpectOnly(TokenKind::kLParen, "'(' after head"));
    for (;;) {
      ARIADNE_ASSIGN_OR_RETURN(HeadTerm term, ParseHeadTerm());
      rule.head.push_back(std::move(term));
      if (Peek().kind == TokenKind::kComma) {
        Advance();
        continue;
      }
      break;
    }
    ARIADNE_RETURN_NOT_OK(ExpectOnly(TokenKind::kRParen, "')' after head terms"));
    ARIADNE_RETURN_NOT_OK(ExpectOnly(TokenKind::kArrow, "'<-' after rule head"));
    for (;;) {
      ARIADNE_ASSIGN_OR_RETURN(BodyLiteral lit, ParseLiteral());
      rule.body.push_back(std::move(lit));
      if (Peek().kind == TokenKind::kComma) {
        Advance();
        continue;
      }
      break;
    }
    ARIADNE_RETURN_NOT_OK(ExpectOnly(TokenKind::kDot, "'.' at end of rule"));
    rule.span = JoinSpans(rule.name_span, TokenSpan(Prev()));
    return rule;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& Prev() const {
    return tokens_[pos_ > 0 ? pos_ - 1 : 0];
  }
  Token Advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }

  /// Skips past the next '.' (or to EOF) after a failed rule; guarantees
  /// forward progress even when the error consumed nothing.
  void Synchronize(size_t before) {
    if (pos_ == before && Peek().kind != TokenKind::kEof) Advance();
    while (Peek().kind != TokenKind::kEof) {
      if (Advance().kind == TokenKind::kDot) return;
    }
  }

  Status Error(const std::string& message) {
    const Token& t = Peek();
    sink_.Error("PQL1004", TokenSpan(t), message);
    return Status::ParseError("line " + std::to_string(t.line) + ":" +
                              std::to_string(t.column) + ": " + message);
  }

  Result<Token> Expect(TokenKind kind, const std::string& what) {
    if (Peek().kind != kind) return Error("expected " + what);
    return Advance();
  }
  Status ExpectOnly(TokenKind kind, const std::string& what) {
    if (Peek().kind != kind) return Error("expected " + what);
    Advance();
    return Status::OK();
  }

  Result<HeadTerm> ParseHeadTerm() {
    HeadTerm head;
    AggregateFn fn;
    if (Peek().kind == TokenKind::kIdent &&
        Peek(1).kind == TokenKind::kLParen &&
        LookupAggregate(Peek().text, &fn)) {
      const Span start = TokenSpan(Peek());
      Advance();  // AGGR
      Advance();  // (
      ARIADNE_ASSIGN_OR_RETURN(Token var, Expect(TokenKind::kIdent,
                                                 "variable under aggregate"));
      ARIADNE_RETURN_NOT_OK(ExpectOnly(TokenKind::kRParen,
                                       "')' after aggregate"));
      head.is_aggregate = true;
      head.aggregate = fn;
      head.aggregate_arg = Term::Var(var.text);
      head.aggregate_arg.span = TokenSpan(var);
      head.span = JoinSpans(start, TokenSpan(Prev()));
      return head;
    }
    ARIADNE_ASSIGN_OR_RETURN(head.term, ParseTerm());
    head.span = head.term.span;
    return head;
  }

  Result<BodyLiteral> ParseLiteral() {
    if (Peek().kind == TokenKind::kBang) {
      const Span start = TokenSpan(Advance());
      ARIADNE_ASSIGN_OR_RETURN(AtomLiteral atom, ParseAtom());
      atom.negated = true;
      atom.span = JoinSpans(start, atom.span);
      return BodyLiteral::MakeAtom(std::move(atom));
    }
    // Atom iff ident followed by '(' and not a comparison/arith context:
    // `f(x) < 3` would need function terms, which PQL does not have in
    // comparison position — function calls are body literals (UDFs).
    if (Peek().kind == TokenKind::kIdent &&
        Peek(1).kind == TokenKind::kLParen) {
      ARIADNE_ASSIGN_OR_RETURN(AtomLiteral atom, ParseAtom());
      return BodyLiteral::MakeAtom(std::move(atom));
    }
    ComparisonLiteral cmp;
    ARIADNE_ASSIGN_OR_RETURN(cmp.lhs, ParseTerm());
    switch (Peek().kind) {
      case TokenKind::kEq:
        cmp.op = ComparisonOp::kEq;
        break;
      case TokenKind::kNe:
        cmp.op = ComparisonOp::kNe;
        break;
      case TokenKind::kLt:
        cmp.op = ComparisonOp::kLt;
        break;
      case TokenKind::kLe:
        cmp.op = ComparisonOp::kLe;
        break;
      case TokenKind::kGt:
        cmp.op = ComparisonOp::kGt;
        break;
      case TokenKind::kGe:
        cmp.op = ComparisonOp::kGe;
        break;
      default:
        return Error("expected comparison operator");
    }
    Advance();
    ARIADNE_ASSIGN_OR_RETURN(cmp.rhs, ParseTerm());
    cmp.span = JoinSpans(cmp.lhs.span, cmp.rhs.span);
    return BodyLiteral::MakeComparison(std::move(cmp));
  }

  Result<AtomLiteral> ParseAtom() {
    AtomLiteral atom;
    ARIADNE_ASSIGN_OR_RETURN(Token name,
                             Expect(TokenKind::kIdent, "predicate name"));
    atom.predicate = name.text;
    atom.name_span = TokenSpan(name);
    ARIADNE_RETURN_NOT_OK(ExpectOnly(TokenKind::kLParen,
                                     "'(' after predicate name"));
    for (;;) {
      ARIADNE_ASSIGN_OR_RETURN(Term term, ParseTerm());
      atom.args.push_back(std::move(term));
      if (Peek().kind == TokenKind::kComma) {
        Advance();
        continue;
      }
      break;
    }
    ARIADNE_RETURN_NOT_OK(ExpectOnly(TokenKind::kRParen,
                                     "')' after atom arguments"));
    atom.span = JoinSpans(atom.name_span, TokenSpan(Prev()));
    return atom;
  }

  // term := factor (('+'|'-') factor)*
  Result<Term> ParseTerm() {
    ARIADNE_ASSIGN_OR_RETURN(Term lhs, ParseFactor());
    while (Peek().kind == TokenKind::kPlus ||
           Peek().kind == TokenKind::kMinus) {
      const char op = Advance().kind == TokenKind::kPlus ? '+' : '-';
      ARIADNE_ASSIGN_OR_RETURN(Term rhs, ParseFactor());
      const Span span = JoinSpans(lhs.span, rhs.span);
      lhs = Term::Arith(op, std::move(lhs), std::move(rhs));
      lhs.span = span;
    }
    return lhs;
  }

  // factor := primary (('*'|'/') primary)*
  Result<Term> ParseFactor() {
    ARIADNE_ASSIGN_OR_RETURN(Term lhs, ParsePrimary());
    while (Peek().kind == TokenKind::kStar ||
           Peek().kind == TokenKind::kSlash) {
      const char op = Advance().kind == TokenKind::kStar ? '*' : '/';
      ARIADNE_ASSIGN_OR_RETURN(Term rhs, ParsePrimary());
      const Span span = JoinSpans(lhs.span, rhs.span);
      lhs = Term::Arith(op, std::move(lhs), std::move(rhs));
      lhs.span = span;
    }
    return lhs;
  }

  Result<Term> ParsePrimary() {
    switch (Peek().kind) {
      case TokenKind::kIdent: {
        const Token t = Advance();
        Term term = Term::Var(t.text);
        term.span = TokenSpan(t);
        return term;
      }
      case TokenKind::kParam: {
        const Token t = Advance();
        Term term = Term::Param(t.text);
        term.span = TokenSpan(t);
        return term;
      }
      case TokenKind::kInt:
      case TokenKind::kDouble:
      case TokenKind::kString: {
        const Token t = Advance();
        Term term = Term::Const(t.literal);
        term.span = TokenSpan(t);
        return term;
      }
      case TokenKind::kMinus: {
        // Unary minus on a numeric literal.
        const Span start = TokenSpan(Peek());
        Advance();
        if (Peek().kind == TokenKind::kInt) {
          const Token t = Advance();
          Term term = Term::Const(Value(-t.literal.AsInt()));
          term.span = JoinSpans(start, TokenSpan(t));
          return term;
        }
        if (Peek().kind == TokenKind::kDouble) {
          const Token t = Advance();
          Term term = Term::Const(Value(-t.literal.AsDouble()));
          term.span = JoinSpans(start, TokenSpan(t));
          return term;
        }
        ARIADNE_ASSIGN_OR_RETURN(Term inner, ParsePrimary());
        const Span span = JoinSpans(start, inner.span);
        Term term = Term::Arith('-', Term::Const(Value(int64_t{0})),
                                std::move(inner));
        term.span = span;
        return term;
      }
      case TokenKind::kLParen: {
        const Span start = TokenSpan(Peek());
        Advance();
        ARIADNE_ASSIGN_OR_RETURN(Term inner, ParseTerm());
        ARIADNE_RETURN_NOT_OK(ExpectOnly(TokenKind::kRParen,
                                         "')' closing parenthesized term"));
        inner.span = JoinSpans(start, TokenSpan(Prev()));
        return inner;
      }
      default:
        return Error("expected term");
    }
  }

  std::vector<Token> tokens_;
  DiagnosticSink& sink_;
  size_t pos_ = 0;
};

}  // namespace

Program ParseProgram(const std::string& text, DiagnosticSink& sink) {
  std::vector<Token> tokens = Tokenize(text, sink);
  return Parser(std::move(tokens), sink).ParseProgramRecovering();
}

Result<Program> ParseProgram(const std::string& text) {
  DiagnosticSink sink;
  Program program = ParseProgram(text, sink);
  if (sink.has_errors()) return sink.FirstErrorStatus();
  return program;
}

Result<Rule> ParseRule(const std::string& text) {
  DiagnosticSink sink;
  ARIADNE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  return Parser(std::move(tokens), sink).ParseRule();
}

Value ParseParamValue(const std::string& text) {
  try {
    size_t pos = 0;
    const int64_t i = std::stoll(text, &pos);
    if (pos == text.size()) return Value(i);
  } catch (...) {
  }
  try {
    size_t pos = 0;
    const double d = std::stod(text, &pos);
    if (pos == text.size()) return Value(d);
  } catch (...) {
  }
  return Value(text);
}

}  // namespace ariadne
