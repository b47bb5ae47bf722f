#include <gtest/gtest.h>

#include "pql/analysis.h"
#include "pql/parser.h"
#include "pql/queries.h"

namespace ariadne {
namespace {

Result<AnalyzedQuery> AnalyzeText(
    const std::string& text,
    const std::vector<std::pair<std::string, Value>>& params = {},
    const StoreSchema* store = nullptr, bool allow_transient = true) {
  auto program = ParseProgram(text);
  if (!program.ok()) return program.status();
  if (!params.empty()) {
    ARIADNE_RETURN_NOT_OK(program->BindParameters(params));
  }
  AnalyzeOptions options;
  options.allow_transient = allow_transient;
  return Analyze(*program, Catalog::Default(), UdfRegistry::Default(), store,
                 options);
}

TEST(AnalysisTest, AptQueryIsForwardAndStratified) {
  auto q = AnalyzeText(queries::Apt(), {{"eps", Value(0.01)}});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->direction(), Direction::kForward);
  EXPECT_TRUE(q->vc_compatible());
  EXPECT_GE(q->num_strata(), 3);
  // change is shipped to neighbors along messages.
  ASSERT_EQ(q->shipped_preds().size(), 1u);
  const auto& shipped = q->pred(q->shipped_preds()[0]);
  EXPECT_EQ(shipped.name, "change");
  EXPECT_EQ(shipped.routing, ShipRouting::kAlongMessages);
  // Outputs include the verdict tables.
  EXPECT_GE(q->PredId("safe"), 0);
  EXPECT_GE(q->PredId("unsafe"), 0);
  EXPECT_GE(q->PredId("no-execute"), 0);
}

TEST(AnalysisTest, CaptureFullIsLocalWithFastPlan) {
  auto q = AnalyzeText(queries::CaptureFull());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->direction(), Direction::kLocal);
  ASSERT_TRUE(q->fast_capture().has_value());
  EXPECT_EQ(q->fast_capture()->projections.size(), 3u);
  EXPECT_EQ(q->fast_capture()->projections[0].source,
            EdbKind::kVertexValueNow);
  // value(x, v, i): x <- col 0, v <- col 1, i <- current step (-1).
  EXPECT_EQ(q->fast_capture()->projections[0].columns,
            (std::vector<int>{0, 1, -1}));
}

TEST(AnalysisTest, CaptureCustomBackwardFastPlan) {
  auto q = AnalyzeText(queries::CaptureCustomBackward());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(q->fast_capture().has_value());
  ASSERT_EQ(q->fast_capture()->projections.size(), 3u);
  // prov-value(x, i, d) <- value(x, d, i): cols {0, 2, 1}.
  EXPECT_EQ(q->fast_capture()->projections[0].source, EdbKind::kValue);
  EXPECT_EQ(q->fast_capture()->projections[0].columns,
            (std::vector<int>{0, 2, 1}));
  // prov-send(x, i) <- send-message(x, y, m, i): cols {0, 3}.
  EXPECT_EQ(q->fast_capture()->projections[1].source, EdbKind::kSendMessage);
  EXPECT_EQ(q->fast_capture()->projections[1].columns,
            (std::vector<int>{0, 3}));
  // prov-edges(x, y) <- edges(x, y): static projection.
  EXPECT_EQ(q->fast_capture()->projections[2].source, EdbKind::kEdge);
}

TEST(AnalysisTest, ForwardLineageIsForwardRecursiveNoFastPlan) {
  auto q = AnalyzeText(queries::CaptureForwardLineage(),
                       {{"alpha", Value(int64_t{0})}});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->direction(), Direction::kForward);
  EXPECT_FALSE(q->fast_capture().has_value());
  ASSERT_EQ(q->shipped_preds().size(), 1u);
  EXPECT_EQ(q->pred(q->shipped_preds()[0]).name, "fwd-lineage");
}

TEST(AnalysisTest, MonitoringQueriesAreLocal) {
  for (const std::string& text :
       {queries::PageRankInDegreeCheck(), queries::MonotoneUpdateCheck(),
        queries::NoMessageNoChangeCheck(), queries::AlsRangeAudit()}) {
    auto q = AnalyzeText(text);
    ASSERT_TRUE(q.ok()) << text << "\n" << q.status().ToString();
    EXPECT_EQ(q->direction(), Direction::kLocal) << text;
    EXPECT_TRUE(q->vc_compatible());
    EXPECT_TRUE(q->shipped_preds().empty());
  }
}

TEST(AnalysisTest, AlsErrorIncreaseAggregatesStratified) {
  auto q = AnalyzeText(queries::AlsErrorIncrease(), {{"eps", Value(0.5)}});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->direction(), Direction::kLocal);
  // degree and sum-error are aggregate heads; avg-error must live in a
  // strictly higher stratum than both.
  const auto& preds = q->preds();
  int degree_stratum = -1, avg_stratum = -1, sum_stratum = -1;
  for (const auto& p : preds) {
    if (p.name == "degree") degree_stratum = p.stratum;
    if (p.name == "avg-error") avg_stratum = p.stratum;
    if (p.name == "sum-error") sum_stratum = p.stratum;
  }
  EXPECT_GT(avg_stratum, degree_stratum);
  EXPECT_GT(avg_stratum, sum_stratum);
}

TEST(AnalysisTest, BackwardLineageFullIsBackward) {
  auto q = AnalyzeText(queries::BackwardLineageFull(),
                       {{"alpha", Value(int64_t{7})},
                        {"sigma", Value(int64_t{4})}});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->direction(), Direction::kBackward);
  EXPECT_TRUE(q->vc_compatible());
  ASSERT_EQ(q->shipped_preds().size(), 1u);
  EXPECT_EQ(q->pred(q->shipped_preds()[0]).name, "back-trace");
  EXPECT_EQ(q->pred(q->shipped_preds()[0]).routing,
            ShipRouting::kAlongReverseMessages);
}

TEST(AnalysisTest, BackwardLineageCustomUsesStoreSchemaAndInEdges) {
  StoreSchema schema;
  schema.relations = {{"prov-value", 3}, {"prov-send", 2}, {"prov-edges", 2}};
  auto q = AnalyzeText(queries::BackwardLineageCustom(),
                       {{"alpha", Value(int64_t{7})},
                        {"sigma", Value(int64_t{4})}},
                       &schema, /*allow_transient=*/false);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->direction(), Direction::kBackward);
  ASSERT_EQ(q->shipped_preds().size(), 1u);
  EXPECT_EQ(q->pred(q->shipped_preds()[0]).routing,
            ShipRouting::kAlongInEdges);
  // Without the store schema the stored relations are unknown.
  auto missing = AnalyzeText(queries::BackwardLineageCustom(),
                             {{"alpha", Value(int64_t{7})},
                              {"sigma", Value(int64_t{4})}},
                             nullptr, /*allow_transient=*/false);
  EXPECT_FALSE(missing.ok());
}

TEST(AnalysisTest, MixedDirectionRuleIsUndirected) {
  // The paper's R1 counter-example (§5.1): both send and receive guards.
  auto q = AnalyzeText(R"(
    t(y, i) <- superstep(y, i).
    s(z, i) <- superstep(z, i).
    r1(x, i) <- t(y, j), receive-message(x, y, m, i),
                s(z, w), send-message(x, z, m, i).
  )");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->direction(), Direction::kUndirected);
}

TEST(AnalysisTest, UnguardedRemoteIsNotVcCompatible) {
  auto q = AnalyzeText(R"(
    t(y, i) <- superstep(y, i).
    r(x, i) <- superstep(x, i), t(y, i).
  )");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_FALSE(q->vc_compatible());
  EXPECT_EQ(q->direction(), Direction::kUndirected);
}

TEST(AnalysisTest, UnstratifiedNegationRejected) {
  auto q = AnalyzeText(R"(
    p(x) <- superstep(x, i), !q(x).
    q(x) <- superstep(x, i), !p(x).
  )");
  ASSERT_FALSE(q.ok());
  EXPECT_TRUE(q.status().IsAnalysisError());
}

TEST(AnalysisTest, UnsafeRulesRejected) {
  // Head variable not bound by body.
  auto q1 = AnalyzeText("p(x, z) <- superstep(x, i).");
  EXPECT_FALSE(q1.ok());
  // Negated variable never bound.
  auto q2 = AnalyzeText("p(x) <- superstep(x, i), !value(x, d, j).");
  EXPECT_FALSE(q2.ok());
}

TEST(AnalysisTest, UnknownPredicateRejected) {
  auto q = AnalyzeText("p(x) <- no-such-relation(x, y).");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("no-such-relation"), std::string::npos);
}

TEST(AnalysisTest, ArityMismatchRejected) {
  EXPECT_FALSE(AnalyzeText("p(x) <- value(x, d).").ok());
  EXPECT_FALSE(AnalyzeText("p(x) <- udf-diff(x).").ok());
  EXPECT_FALSE(AnalyzeText("p(x) <- q(x, x).\nq(x) <- superstep(x, i).").ok());
}

TEST(AnalysisTest, TransientPredicatesRejectedOffline) {
  auto q = AnalyzeText("p(x, v) <- vertex-value(x, v).", {}, nullptr,
                       /*allow_transient=*/false);
  EXPECT_FALSE(q.ok());
}

TEST(AnalysisTest, UnboundParameterRejected) {
  auto q = AnalyzeText(queries::Apt());  // $eps unbound
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("eps"), std::string::npos);
}

TEST(AnalysisTest, AggregateWithMultipleRulesRejected) {
  auto q = AnalyzeText(R"(
    d(x, COUNT(y)) <- edge(x, y).
    d(x, i) <- superstep(x, i).
  )");
  EXPECT_FALSE(q.ok());
  EXPECT_TRUE(q.status().IsUnsupported());
}

TEST(AnalysisTest, AliasesResolveToCanonicalPredicates) {
  auto q = AnalyzeText(R"(
    p(x, i) <- receive-msg(x, y, m, i).
    r(x, i) <- receive-message(x, y, m, i).
  )");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // Both aliases map to one predicate id.
  int count = 0;
  for (const auto& pred : q->preds()) {
    if (pred.edb == EdbKind::kReceiveMessage) ++count;
  }
  EXPECT_EQ(count, 1);
}

// ---------------------------------------------------------- ship keys

/// The ship key of predicate `name` in `q`.
ColumnSet ShipKey(const AnalyzedQuery& q, const std::string& name) {
  const int id = q.PredId(name);
  return id < 0 ? 0 : q.pred(id).ship_key;
}

TEST(ShipKeyTest, ForwardLineageKeysOnTheLocation) {
  // fwd-lineage(y, w, j): only y occurs elsewhere in the rule.
  auto q = AnalyzeText(queries::CaptureForwardLineage(),
                       {{"alpha", Value(int64_t{0})}});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(ShipKey(*q, "fwd-lineage"), ColumnSetOf(0));
  EXPECT_TRUE(q->pred(q->PredId("fwd-lineage")).ship_keyed());
  EXPECT_NE(q->DebugString().find("ship: fwd-lineage key (0)"),
            std::string::npos);
}

TEST(ShipKeyTest, BackTraceAndNegatedChangeKeyEveryColumn) {
  // back-trace(y, j): j is pinned by j = i + 1.
  auto back = AnalyzeText(queries::BackwardLineageFull(),
                          {{"alpha", Value(int64_t{7})},
                           {"sigma", Value(int64_t{4})}});
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(ShipKey(*back, "back-trace"), AllColumns(2));
  EXPECT_FALSE(back->pred(back->PredId("back-trace")).ship_keyed());
  // apt reads its shipped change only under negation.
  auto apt = AnalyzeText(queries::Apt(), {{"eps", Value(0.01)}});
  ASSERT_TRUE(apt.ok()) << apt.status().ToString();
  EXPECT_EQ(ShipKey(*apt, "change"), AllColumns(2));
  EXPECT_FALSE(apt->pred(apt->PredId("change")).ship_keyed());
}

TEST(ShipKeyTest, ColumnsUsedAnywhereInTheRuleJoinTheKey) {
  constexpr char kT[] = "t(x, a, b, c) <- value(x, a, b), superstep(x, c).\n";
  struct Case {
    std::string reader;
    ColumnSet key;
  };
  const Case cases[] = {
      // A variable twice in the atom.
      {"r(x, i) <- receive-message(x, y, _m, i), t(y, a, a, _c).",
       ColumnSetOf(0) | ColumnSetOf(1) | ColumnSetOf(2)},
      // A constant.
      {"r(x, i) <- receive-message(x, y, _m, i), t(y, 3, _b, _c).",
       ColumnSetOf(0) | ColumnSetOf(1)},
      // A head variable.
      {"r(x, c) <- receive-message(x, y, _m, _i), t(y, _a, _b, c).",
       ColumnSetOf(0) | ColumnSetOf(3)},
      // A variable another literal reads.
      {"r(x, i) <- receive-message(x, y, _m, i), t(y, _a, b, _c), b > 0.",
       ColumnSetOf(0) | ColumnSetOf(2)},
      // Two readers dropping different columns: the key is the union.
      {"r(x, i) <- receive-message(x, y, _m, i), t(y, a, _b, _c), a > 0.\n"
       "s(x, i) <- receive-message(x, y, _m, i), t(y, _a, _b, c), c > 0.",
       ColumnSetOf(0) | ColumnSetOf(1) | ColumnSetOf(3)},
      // An aggregate rule counts every valuation: every column.
      {"n(x, COUNT(y)) <- receive-message(x, y, _m, _i), t(y, _a, _b, _c).",
       AllColumns(4)},
  };
  for (const Case& c : cases) {
    auto q = AnalyzeText(kT + c.reader);
    ASSERT_TRUE(q.ok()) << c.reader << "\n" << q.status().ToString();
    EXPECT_EQ(ShipKey(*q, "t"), c.key) << c.reader;
  }
}

TEST(ShipKeyTest, OnlyIdbsWithoutAggregateRulesGetNarrowKeys) {
  // value is an EDB: receivers may lose its rows to retention.
  auto q = AnalyzeText(
      "r(x, i) <- receive-message(x, y, _m, i), value(y, _d, _j).");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const PredicateInfo& value = q->pred(q->PredId("value"));
  ASSERT_TRUE(value.shipped);
  EXPECT_EQ(value.ship_key, AllColumns(value.arity));
  EXPECT_FALSE(value.ship_keyed());
}

TEST(AnalysisTest, DebugStringMentionsDirection) {
  auto q = AnalyzeText(queries::MonotoneUpdateCheck());
  ASSERT_TRUE(q.ok());
  EXPECT_NE(q->DebugString().find("local"), std::string::npos);
}

}  // namespace
}  // namespace ariadne
