#include <gtest/gtest.h>

#include "graph/generators.h"
#include "pql/analysis.h"
#include "pql/evaluator.h"
#include "pql/parser.h"

namespace ariadne {
namespace {

/// Holders of a database that keeps one vertex's state.
constexpr Holder kOneHolder[] = {0};

Tuple T(std::initializer_list<Value> vals) { return Tuple(vals); }
Value I(int64_t v) { return Value(v); }
Value D(double v) { return Value(v); }

AnalyzedQuery MustAnalyze(
    const std::string& text,
    const std::vector<std::pair<std::string, Value>>& params = {},
    const StoreSchema* store = nullptr) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!params.empty()) {
    EXPECT_TRUE(program->BindParameters(params).ok());
  }
  auto q = Analyze(*program, Catalog::Default(), UdfRegistry::Default(), store);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

TEST(EvaluatorTest, SimpleJoinAndComparison) {
  AnalyzedQuery q = MustAnalyze(R"(
    hot(x, d) <- value(x, d, i), superstep(x, i), d > 2.5.
  )");
  Database db(&q);
  const int value_pred = q.PredId("value");
  const int step_pred = q.PredId("superstep");
  db.Rel(value_pred).Insert(T({I(1), D(3.0), I(0)}));
  db.Rel(value_pred).Insert(T({I(2), D(1.0), I(0)}));
  db.Rel(value_pred).Insert(T({I(3), D(9.0), I(1)}));
  db.Rel(step_pred).Insert(T({I(1), I(0)}));
  db.Rel(step_pred).Insert(T({I(2), I(0)}));
  // Vertex 3's superstep fact missing: its value must not qualify.
  EvalContext ctx;
  ctx.db = &db;
  RuleEvaluator eval(&q);
  auto changed = eval.Evaluate(ctx);
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_TRUE(*changed);
  const Relation* hot = db.RelIfExists(q.PredId("hot"));
  ASSERT_NE(hot, nullptr);
  EXPECT_EQ(hot->ToSortedStrings(), (std::vector<std::string>{"(1, 3)"}));
}

TEST(EvaluatorTest, IncrementalSkipsUnchangedRules) {
  AnalyzedQuery q = MustAnalyze("p(x, i) <- superstep(x, i).");
  Database db(&q);
  EvalContext ctx;
  ctx.db = &db;
  RuleEvaluator eval(&q);
  db.Rel(q.PredId("superstep")).Insert(T({I(1), I(0)}));
  ASSERT_TRUE(*eval.Evaluate(ctx));
  // Nothing changed: second call derives nothing.
  EXPECT_FALSE(*eval.Evaluate(ctx));
  // New EDB fact triggers re-evaluation.
  db.Rel(q.PredId("superstep")).Insert(T({I(2), I(0)}));
  EXPECT_TRUE(*eval.Evaluate(ctx));
  EXPECT_EQ(db.RelIfExists(q.PredId("p"))->size(), 2u);
}

TEST(EvaluatorTest, RecursionToFixpoint) {
  // Transitive closure over stored link facts.
  StoreSchema schema;
  schema.relations = {{"link", 2}};
  AnalyzedQuery q = MustAnalyze(R"(
    reach(x, y) <- link(x, y).
    reach(x, z) <- reach(x, y), link(y, z).
  )",
                                {}, &schema);
  Database db(&q);
  const int link = q.PredId("link");
  db.Rel(link).Insert(T({I(0), I(1)}));
  db.Rel(link).Insert(T({I(1), I(2)}));
  db.Rel(link).Insert(T({I(2), I(3)}));
  EvalContext ctx;
  ctx.db = &db;
  RuleEvaluator eval(&q);
  ASSERT_TRUE(eval.Evaluate(ctx).ok());
  const Relation* reach = db.RelIfExists(q.PredId("reach"));
  ASSERT_NE(reach, nullptr);
  EXPECT_EQ(reach->size(), 6u);  // all ordered pairs i < j
  EXPECT_TRUE(reach->Contains(T({I(0), I(3)})));
}

TEST(EvaluatorTest, StratifiedNegation) {
  AnalyzedQuery q = MustAnalyze(R"(
    received(x, i) <- receive-message(x, y, m, i).
    quiet(x, i) <- superstep(x, i), !received(x, i).
  )");
  Database db(&q);
  db.Rel(q.PredId("superstep")).Insert(T({I(1), I(0)}));
  db.Rel(q.PredId("superstep")).Insert(T({I(2), I(0)}));
  db.Rel(q.PredId("receive-message")).Insert(T({I(1), I(2), D(0.5), I(0)}));
  EvalContext ctx;
  ctx.db = &db;
  RuleEvaluator eval(&q);
  ASSERT_TRUE(eval.Evaluate(ctx).ok());
  EXPECT_EQ(db.RelIfExists(q.PredId("quiet"))->ToSortedStrings(),
            (std::vector<std::string>{"(2, 0)"}));
}

TEST(EvaluatorTest, BindingEqualityAndArithmetic) {
  AnalyzedQuery q = MustAnalyze(R"(
    prev(x, j) <- superstep(x, i), j = i - 1, j >= 0.
  )");
  Database db(&q);
  db.Rel(q.PredId("superstep")).Insert(T({I(5), I(0)}));
  db.Rel(q.PredId("superstep")).Insert(T({I(5), I(3)}));
  EvalContext ctx;
  ctx.db = &db;
  RuleEvaluator eval(&q);
  ASSERT_TRUE(eval.Evaluate(ctx).ok());
  EXPECT_EQ(db.RelIfExists(q.PredId("prev"))->ToSortedStrings(),
            (std::vector<std::string>{"(5, 2)"}));
}

TEST(EvaluatorTest, PredicateAndFunctionUdfs) {
  AnalyzedQuery q = MustAnalyze(R"(
    small(x, i) <- value(x, d1, i), value(x, d2, j), evolution(x, j, i),
                   udf-diff(d1, d2, 0.1).
    mag(x, a) <- value(x, d, i), abs(d, a).
  )");
  Database db(&q);
  const int value = q.PredId("value");
  db.Rel(value).Insert(T({I(1), D(-2.0), I(1)}));
  db.Rel(value).Insert(T({I(1), D(-2.05), I(2)}));
  db.Rel(q.PredId("evolution")).Insert(T({I(1), I(1), I(2)}));
  EvalContext ctx;
  ctx.db = &db;
  RuleEvaluator eval(&q);
  ASSERT_TRUE(eval.Evaluate(ctx).ok());
  EXPECT_EQ(db.RelIfExists(q.PredId("small"))->ToSortedStrings(),
            (std::vector<std::string>{"(1, 2)"}));
  EXPECT_EQ(db.RelIfExists(q.PredId("mag"))->ToSortedStrings(),
            (std::vector<std::string>{"(1, 2)", "(1, 2.05)"}));
}

TEST(EvaluatorTest, CountAggregateOverStaticEdges) {
  AnalyzedQuery q = MustAnalyze("in-degree(x, COUNT(y)) <- edge(y, x).");
  auto g = GenerateChain(3);  // 0 -> 1 -> 2
  ASSERT_TRUE(g.ok());
  // Per-vertex mode: each vertex aggregates its own in-edges; vertex 0 has
  // none and must still get in-degree 0.
  RuleEvaluator eval(&q);
  std::vector<int64_t> expected = {0, 1, 1};
  for (VertexId v = 0; v < 3; ++v) {
    Database db(&q);
    EvalContext ctx;
    ctx.db = &db;
    ctx.graph = &*g;
    ctx.holder_base = v;
    ctx.holders = kOneHolder;
    ASSERT_TRUE(eval.Evaluate(ctx).ok());
    const Relation* deg = db.RelIfExists(q.PredId("in-degree"));
    ASSERT_NE(deg, nullptr);
    ASSERT_EQ(deg->size(), 1u);
    EXPECT_TRUE(deg->Contains(T({I(v), I(expected[static_cast<size_t>(v)])})))
        << "vertex " << v;
  }
}

TEST(EvaluatorTest, SumAndAvgAggregates) {
  AnalyzedQuery q = MustAnalyze(R"(
    sum-error(x, i, SUM(e)) <- err(x, y, e, i).
    cnt(x, i, COUNT(y)) <- err(x, y, e, i).
  )",
                                {}, [] {
                                  static StoreSchema schema{
                                      {{"err", 4}}};
                                  return &schema;
                                }());
  Database db(&q);
  const int err = q.PredId("err");
  db.Rel(err).Insert(T({I(1), I(10), D(0.5), I(0)}));
  db.Rel(err).Insert(T({I(1), I(11), D(0.5), I(0)}));  // same e, distinct y
  db.Rel(err).Insert(T({I(1), I(12), D(1.0), I(1)}));
  EvalContext ctx;
  ctx.db = &db;
  RuleEvaluator eval(&q);
  ASSERT_TRUE(eval.Evaluate(ctx).ok());
  // SUM over distinct valuations: both 0.5 contributions count.
  EXPECT_TRUE(db.RelIfExists(q.PredId("sum-error"))
                  ->Contains(T({I(1), I(0), D(1.0)})));
  EXPECT_TRUE(db.RelIfExists(q.PredId("sum-error"))
                  ->Contains(T({I(1), I(1), D(1.0)})));
  EXPECT_TRUE(db.RelIfExists(q.PredId("cnt"))->Contains(T({I(1), I(0), I(2)})));
}

TEST(EvaluatorTest, AggregateFeedsLaterStratum) {
  AnalyzedQuery q = MustAnalyze(R"(
    in-degree(x, COUNT(y)) <- edge(y, x).
    orphan-mail(x, y, i) <- in-degree(x, d), receive-message(x, y, m, i),
                            d = 0.
  )");
  auto g = GenerateChain(3);
  ASSERT_TRUE(g.ok());
  RuleEvaluator eval(&q);
  // Vertex 0 (no in-edges) received mail: flagged.
  Database db0(&q);
  db0.Rel(q.PredId("receive-message")).Insert(T({I(0), I(9), D(1.0), I(4)}));
  EvalContext ctx0;
  ctx0.db = &db0;
  ctx0.graph = &*g;
  ctx0.holder_base = VertexId{0};
  ctx0.holders = kOneHolder;
  ASSERT_TRUE(eval.Evaluate(ctx0).ok());
  EXPECT_EQ(db0.RelIfExists(q.PredId("orphan-mail"))->size(), 1u);
  // Vertex 1 (has an in-edge) received mail: fine.
  Database db1(&q);
  db1.Rel(q.PredId("receive-message")).Insert(T({I(1), I(0), D(1.0), I(4)}));
  EvalContext ctx1;
  ctx1.db = &db1;
  ctx1.graph = &*g;
  ctx1.holder_base = VertexId{1};
  ctx1.holders = kOneHolder;
  ASSERT_TRUE(eval.Evaluate(ctx1).ok());
  const Relation* flagged = db1.RelIfExists(q.PredId("orphan-mail"));
  EXPECT_TRUE(flagged == nullptr || flagged->empty());
}

TEST(EvaluatorTest, StaticEdgeEnumerationModes) {
  auto g = GenerateChain(4);
  ASSERT_TRUE(g.ok());
  // Global mode: full scan.
  AnalyzedQuery q = MustAnalyze("pair(x, y) <- edge(x, y).");
  Database db(&q);
  EvalContext ctx;
  ctx.db = &db;
  ctx.graph = &*g;
  RuleEvaluator eval(&q);
  ASSERT_TRUE(eval.Evaluate(ctx).ok());
  EXPECT_EQ(db.RelIfExists(q.PredId("pair"))->size(), 3u);
  // Local mode: only incident edges, location pre-bound.
  Database db1(&q);
  EvalContext local;
  local.db = &db1;
  local.graph = &*g;
  local.holder_base = VertexId{1};
  local.holders = kOneHolder;
  ASSERT_TRUE(eval.Evaluate(local).ok());
  // Out-edge (1,2) only: the head location is bound to 1 and pair(x,y)
  // requires x == 1.
  EXPECT_EQ(db1.RelIfExists(q.PredId("pair"))->ToSortedStrings(),
            (std::vector<std::string>{"(1, 2)"}));
}

TEST(EvaluatorTest, EdgeValuePassesWeightThrough) {
  auto g = Graph::FromEdges(2, {{0, 1, 0.75}});
  ASSERT_TRUE(g.ok());
  AnalyzedQuery q = MustAnalyze(R"(
    w(x, y, v) <- edge-value(x, y, v, i), superstep(x, i).
  )");
  Database db(&q);
  db.Rel(q.PredId("superstep")).Insert(T({I(0), I(2)}));
  EvalContext ctx;
  ctx.db = &db;
  ctx.graph = &*g;
  ctx.holder_base = VertexId{0};
  ctx.holders = kOneHolder;
  RuleEvaluator eval(&q);
  ASSERT_TRUE(eval.Evaluate(ctx).ok());
  EXPECT_EQ(db.RelIfExists(q.PredId("w"))->ToSortedStrings(),
            (std::vector<std::string>{"(0, 1, 0.75)"}));
}

TEST(EvaluatorTest, NegatedStaticEdge) {
  auto g = GenerateChain(3);
  ASSERT_TRUE(g.ok());
  StoreSchema schema{{{"cand", 2}}};
  AnalyzedQuery q = MustAnalyze(
      "missing(x, y) <- cand(x, y), !edge(x, y).", {}, &schema);
  Database db(&q);
  db.Rel(q.PredId("cand")).Insert(T({I(0), I(1)}));  // edge exists
  db.Rel(q.PredId("cand")).Insert(T({I(0), I(2)}));  // no such edge
  EvalContext ctx;
  ctx.db = &db;
  ctx.graph = &*g;
  RuleEvaluator eval(&q);
  ASSERT_TRUE(eval.Evaluate(ctx).ok());
  EXPECT_EQ(db.RelIfExists(q.PredId("missing"))->ToSortedStrings(),
            (std::vector<std::string>{"(0, 2)"}));
}

TEST(EvaluatorTest, DivisionByZeroSkipsValuation) {
  StoreSchema schema{{{"nums", 3}}};
  AnalyzedQuery q =
      MustAnalyze("ratio(x, a / b) <- nums(x, a, b).", {}, &schema);
  Database db(&q);
  db.Rel(q.PredId("nums")).Insert(T({I(1), D(4.0), D(2.0)}));
  db.Rel(q.PredId("nums")).Insert(T({I(2), D(4.0), D(0.0)}));
  EvalContext ctx;
  ctx.db = &db;
  RuleEvaluator eval(&q);
  ASSERT_TRUE(eval.Evaluate(ctx).ok());
  EXPECT_EQ(db.RelIfExists(q.PredId("ratio"))->ToSortedStrings(),
            (std::vector<std::string>{"(1, 2)"}));
}

TEST(EvaluatorTest, QueryResultMergesAcrossDatabases) {
  AnalyzedQuery q = MustAnalyze("p(x, i) <- superstep(x, i).");
  RuleEvaluator eval(&q);
  QueryResult result;
  for (int64_t v = 0; v < 3; ++v) {
    Database db(&q);
    db.Rel(q.PredId("superstep")).Insert(T({I(v), I(0)}));
    EvalContext ctx;
    ctx.db = &db;
    ctx.holder_base = VertexId{v};
    ctx.holders = kOneHolder;
    ASSERT_TRUE(eval.Evaluate(ctx).ok());
    result.Merge(q, db);
  }
  ASSERT_NE(result.Table("p"), nullptr);
  EXPECT_EQ(result.Table("p")->size(), 3u);
  EXPECT_EQ(result.TupleCount("p"), 3u);
  EXPECT_EQ(result.TupleCount("absent"), 0u);
  EXPECT_EQ(result.TableNames(), (std::vector<std::string>{"p"}));
  EXPECT_GT(result.TotalBytes(), 0u);
}

}  // namespace
}  // namespace ariadne
