#include <gtest/gtest.h>

#include "pql/lexer.h"
#include "pql/parser.h"
#include "pql/queries.h"

namespace ariadne {
namespace {

TEST(LexerTest, HyphenatedIdentifiersVsSubtraction) {
  auto tokens = Tokenize("receive-message(x), j = i - 1");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdent);
  EXPECT_EQ((*tokens)[0].text, "receive-message");
  // ... ( x ) , j = i - 1 EOF
  bool saw_minus = false;
  for (const auto& t : *tokens) {
    if (t.kind == TokenKind::kMinus) saw_minus = true;
  }
  EXPECT_TRUE(saw_minus);
}

TEST(LexerTest, OperatorsAndLiterals) {
  auto tokens = Tokenize("<- :- != <> <= >= == = ! not 3 4.5 1e3 \"s\" $eps");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const auto& t : *tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds[0], TokenKind::kArrow);
  EXPECT_EQ(kinds[1], TokenKind::kArrow);
  EXPECT_EQ(kinds[2], TokenKind::kNe);
  EXPECT_EQ(kinds[3], TokenKind::kNe);
  EXPECT_EQ(kinds[4], TokenKind::kLe);
  EXPECT_EQ(kinds[5], TokenKind::kGe);
  EXPECT_EQ(kinds[6], TokenKind::kEq);
  EXPECT_EQ(kinds[7], TokenKind::kEq);
  EXPECT_EQ(kinds[8], TokenKind::kBang);
  EXPECT_EQ(kinds[9], TokenKind::kBang);
  EXPECT_EQ(kinds[10], TokenKind::kInt);
  EXPECT_EQ(kinds[11], TokenKind::kDouble);
  EXPECT_EQ(kinds[12], TokenKind::kDouble);
  EXPECT_EQ(kinds[13], TokenKind::kString);
  EXPECT_EQ(kinds[14], TokenKind::kParam);
  EXPECT_EQ((*tokens)[14].text, "eps");
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = Tokenize("a % comment\n// another\nb");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);  // a b EOF
  EXPECT_EQ((*tokens)[0].text, "a");
  EXPECT_EQ((*tokens)[1].text, "b");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
  EXPECT_FALSE(Tokenize("@").ok());
  EXPECT_FALSE(Tokenize(": x").ok());
  EXPECT_FALSE(Tokenize("$1").ok());
}

TEST(ParserTest, SimpleRule) {
  auto rule = ParseRule("change(x, i) <- value(x, d1, i), udf-diff(d1, d2, $eps).");
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->head_predicate, "change");
  ASSERT_EQ(rule->head.size(), 2u);
  EXPECT_EQ(rule->head[0].term.name, "x");
  ASSERT_EQ(rule->body.size(), 2u);
  EXPECT_EQ(rule->body[0].atom.predicate, "value");
  EXPECT_EQ(rule->body[1].atom.predicate, "udf-diff");
  EXPECT_EQ(rule->body[1].atom.args[2].kind, Term::Kind::kParameter);
}

TEST(ParserTest, NegationBothSyntaxes) {
  auto r1 = ParseRule("a(x) <- b(x), !c(x).");
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->body[1].atom.negated);
  auto r2 = ParseRule("a(x) <- b(x), not c(x).");
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->body[1].atom.negated);
}

TEST(ParserTest, ComparisonsAndArithmetic) {
  auto rule = ParseRule("a(x, j) <- b(x, i), j = i - 1, i >= 2 * (x + 1).");
  ASSERT_TRUE(rule.ok());
  ASSERT_EQ(rule->body.size(), 3u);
  EXPECT_EQ(rule->body[1].kind, BodyLiteral::Kind::kComparison);
  EXPECT_EQ(rule->body[1].comparison.op, ComparisonOp::kEq);
  EXPECT_EQ(rule->body[1].comparison.rhs.kind, Term::Kind::kArith);
  EXPECT_EQ(rule->body[2].comparison.op, ComparisonOp::kGe);
}

TEST(ParserTest, Aggregates) {
  auto rule = ParseRule("deg(x, COUNT(y)) <- edge(x, y).");
  ASSERT_TRUE(rule.ok());
  EXPECT_FALSE(rule->head[0].is_aggregate);
  ASSERT_TRUE(rule->head[1].is_aggregate);
  EXPECT_EQ(rule->head[1].aggregate, AggregateFn::kCount);
  EXPECT_EQ(rule->head[1].aggregate_arg.name, "y");

  auto sum = ParseRule("s(x, sum(e)) <- t(x, e).");  // case-insensitive
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->head[1].aggregate, AggregateFn::kSum);
}

TEST(ParserTest, ArithmeticHeadTerm) {
  auto rule = ParseRule("avg(x, s / d) <- s1(x, s), d1(x, d).");
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->head[1].term.kind, Term::Kind::kArith);
  EXPECT_EQ(rule->head[1].term.op, '/');
}

TEST(ParserTest, UnaryMinusConstant) {
  auto rule = ParseRule("a(x) <- b(x, w), w > -1.5.");
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->body[1].comparison.rhs.constant, Value(-1.5));
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseProgram("").ok());
  EXPECT_FALSE(ParseRule("a(x) <- b(x)").ok());   // missing dot
  EXPECT_FALSE(ParseRule("a(x) b(x).").ok());     // missing arrow
  EXPECT_FALSE(ParseRule("a() <- b(x).").ok());   // empty head args
  EXPECT_FALSE(ParseRule("a(x) <- .").ok());      // empty body
  EXPECT_FALSE(ParseRule("a(x) <- b(x,).").ok()); // trailing comma
}

TEST(ParserTest, ProgramRoundTripThroughToString) {
  for (const std::string& text :
       {queries::Apt(), queries::CaptureFull(),
        queries::CaptureForwardLineage(), queries::PageRankInDegreeCheck(),
        queries::MonotoneUpdateCheck(), queries::NoMessageNoChangeCheck(),
        queries::AlsRangeAudit(), queries::AlsErrorIncrease(),
        queries::BackwardLineageFull(), queries::CaptureCustomBackward(),
        queries::BackwardLineageCustom()}) {
    auto program = ParseProgram(text);
    ASSERT_TRUE(program.ok()) << text << "\n" << program.status().ToString();
    auto reparsed = ParseProgram(program->ToString());
    ASSERT_TRUE(reparsed.ok()) << program->ToString();
    EXPECT_EQ(program->ToString(), reparsed->ToString());
  }
}

TEST(ParserTest, BindParameters) {
  auto program = ParseProgram(queries::BackwardLineageFull());
  ASSERT_TRUE(program.ok());
  auto unbound = program->UnboundParameters();
  EXPECT_EQ(unbound, (std::set<std::string>{"alpha", "sigma"}));
  // Missing parameter is an error.
  EXPECT_FALSE(program->BindParameters({{"alpha", Value(int64_t{3})}}).ok());
  auto fresh = ParseProgram(queries::BackwardLineageFull());
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fresh
                  ->BindParameters({{"alpha", Value(int64_t{3})},
                                    {"sigma", Value(int64_t{5})}})
                  .ok());
  EXPECT_TRUE(fresh->UnboundParameters().empty());
  EXPECT_NE(fresh->ToString().find("3"), std::string::npos);

  // Command-line parameter values (--param name=value in every tool):
  // int64 if the whole text is one, else double, else string.
  const Value i = ParseParamValue("42");
  ASSERT_TRUE(i.is_int());
  EXPECT_EQ(i.AsInt(), 42);
  const Value neg = ParseParamValue("-7");
  ASSERT_TRUE(neg.is_int());
  EXPECT_EQ(neg.AsInt(), -7);
  const Value d = ParseParamValue("0.25");
  ASSERT_TRUE(d.is_double());
  EXPECT_EQ(d.AsDouble(), 0.25);
  const Value e = ParseParamValue("1e3");
  ASSERT_TRUE(e.is_double());
  EXPECT_EQ(e.AsDouble(), 1000.0);
  const Value str = ParseParamValue("pagerank");
  ASSERT_TRUE(str.is_string());
  EXPECT_EQ(str.AsString(), "pagerank");
  // One past INT64_MAX is the double it denotes, never a clamped int.
  const Value big = ParseParamValue("9223372036854775808");
  ASSERT_TRUE(big.is_double());
  EXPECT_EQ(big.AsDouble(), 9223372036854775808.0);
}

}  // namespace
}  // namespace ariadne
