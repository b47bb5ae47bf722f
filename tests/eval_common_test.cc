#include <gtest/gtest.h>

#include "eval/common.h"
#include "graph/generators.h"
#include "pql/parser.h"
#include "pql/queries.h"

namespace ariadne {
namespace {

Result<AnalyzedQuery> AnalyzeText(const std::string& text) {
  auto program = ParseProgram(text);
  if (!program.ok()) return program.status();
  return Analyze(*program, Catalog::Default(), UdfRegistry::Default());
}

TEST(ValidateModeTest, ForwardLocalBackwardMatrix) {
  auto forward = AnalyzeText(
      "p(x, i) <- receive-message(x, y, m, i), q(y, j), j = i - 1.\n"
      "q(x, i) <- superstep(x, i).");
  ASSERT_TRUE(forward.ok());
  ASSERT_EQ(forward->direction(), Direction::kForward);
  EXPECT_TRUE(ValidateMode(*forward, EvalMode::kOnline).ok());
  EXPECT_TRUE(ValidateMode(*forward, EvalMode::kLayered).ok());
  EXPECT_TRUE(ValidateMode(*forward, EvalMode::kNaive).ok());

  auto backward = AnalyzeText(
      "p(x, i) <- send-message(x, y, m, i), q(y, j), j = i + 1.\n"
      "q(x, i) <- superstep(x, i).");
  ASSERT_TRUE(backward.ok());
  ASSERT_EQ(backward->direction(), Direction::kBackward);
  EXPECT_FALSE(ValidateMode(*backward, EvalMode::kOnline).ok());
  EXPECT_TRUE(ValidateMode(*backward, EvalMode::kLayered).ok());
  EXPECT_TRUE(ValidateMode(*backward, EvalMode::kNaive).ok());

  auto undirected = AnalyzeText(
      "t(y, i) <- superstep(y, i).\n"
      "r(x, i) <- superstep(x, i), t(y, i).");
  ASSERT_TRUE(undirected.ok());
  ASSERT_EQ(undirected->direction(), Direction::kUndirected);
  EXPECT_FALSE(ValidateMode(*undirected, EvalMode::kOnline).ok());
  EXPECT_FALSE(ValidateMode(*undirected, EvalMode::kLayered).ok());
  EXPECT_TRUE(ValidateMode(*undirected, EvalMode::kNaive).ok());
}

TEST(EvalModeTest, Names) {
  EXPECT_STREQ(EvalModeToString(EvalMode::kOnline), "online");
  EXPECT_STREQ(EvalModeToString(EvalMode::kLayered), "layered");
  EXPECT_STREQ(EvalModeToString(EvalMode::kNaive), "naive");
}

TEST(ShipDeltaTest, OnlySelfLocatedTuplesShip) {
  auto query = AnalyzeText(
      "p(x, i) <- receive-message(x, y, m, i), q(y, j), j = i - 1.\n"
      "q(x, i) <- superstep(x, i).");
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->shipped_preds().size(), 1u);
  const int q_pred = query->shipped_preds()[0];

  auto graph = GenerateChain(10);
  ASSERT_TRUE(graph.ok());
  NodeDatabases nodes(&*query, &*graph);
  Database& db = nodes.Db(5);
  // Local tuple (located at vertex 5) and a foreign one that arrived via
  // an earlier ship (located at vertex 9).
  db.Rel(q_pred).Insert({Value(int64_t{5}), Value(int64_t{0})});
  db.Rel(q_pred).Insert({Value(int64_t{9}), Value(int64_t{0})});

  ShipBundlePtr bundle = nodes.CollectShips(/*v=*/5);
  ASSERT_NE(bundle, nullptr);
  ASSERT_EQ(bundle->size(), 1u);
  ASSERT_EQ((*bundle)[0].second.size(), 1u);
  EXPECT_EQ((*bundle)[0].second[0][0], Value(int64_t{5}));

  // Watermark advanced: nothing new to ship.
  EXPECT_EQ(nodes.CollectShips(5), nullptr);
  // New local tuple ships; the foreign one stays filtered forever.
  db.Rel(q_pred).Insert({Value(int64_t{5}), Value(int64_t{1})});
  bundle = nodes.CollectShips(5);
  ASSERT_NE(bundle, nullptr);
  EXPECT_EQ((*bundle)[0].second.size(), 1u);
}

TEST(ShipDeltaTest, RoutingFilterSelectsPredicates) {
  auto query = AnalyzeText(
      "p(x, i) <- receive-message(x, y, m, i), q(y, j), j = i - 1.\n"
      "q(x, i) <- superstep(x, i).");
  ASSERT_TRUE(query.ok());
  const int q_pred = query->shipped_preds()[0];
  ASSERT_EQ(query->pred(q_pred).routing, ShipRouting::kAlongMessages);

  auto graph = GenerateChain(10);
  ASSERT_TRUE(graph.ok());
  NodeDatabases nodes(&*query, &*graph);
  nodes.Db(1).Rel(q_pred).Insert({Value(int64_t{1}), Value(int64_t{0})});
  // Wrong routing class: nothing collected, watermark untouched.
  EXPECT_EQ(nodes.CollectShips(1, ShipRouting::kAlongInEdges), nullptr);
  EXPECT_NE(nodes.CollectShips(1, ShipRouting::kAlongMessages), nullptr);
}

TEST(RetentionTest, DropsOnlySteppedEdbHistory) {
  auto program = ParseProgram(queries::Apt());
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(program->BindParameters({{"eps", Value(0.01)}}).ok());
  auto query =
      Analyze(*program, Catalog::Default(), UdfRegistry::Default());
  ASSERT_TRUE(query.ok());

  Database db(&*query);
  const int value = query->PredId("value");
  const int no_execute = query->PredId("no-execute");
  for (int64_t step = 0; step < 10; ++step) {
    db.Rel(value).Insert({Value(int64_t{1}), Value(0.5), Value(step)});
    db.Rel(no_execute).Insert({Value(int64_t{1}), Value(step)});
  }
  ApplyRetention(*query, db, /*current=*/9, /*window=*/2);
  // EDB history trimmed to steps >= 7...
  EXPECT_EQ(db.RelIfExists(value)->size(), 3u);
  // ...but IDB results (the query's output) are never dropped.
  EXPECT_EQ(db.RelIfExists(no_execute)->size(), 10u);

  // Window 0 disables retention entirely.
  ApplyRetention(*query, db, 9, 0);
  EXPECT_EQ(db.RelIfExists(value)->size(), 3u);
}

}  // namespace
}  // namespace ariadne
