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
  // Local tuple (located at vertex 5) and a foreign one that arrived via
  // an earlier ship (located at vertex 9).
  nodes.Insert(5, q_pred, {Value(int64_t{5}), Value(int64_t{0})});
  nodes.Insert(5, q_pred, {Value(int64_t{9}), Value(int64_t{0})});

  ShipBatch batch;
  const ShipRouting routing = query->pred(q_pred).routing;
  ShipRange range = nodes.CollectShips(/*v=*/5, routing, &batch);
  ASSERT_EQ(range.end - range.begin, 1u);
  EXPECT_EQ(batch.rows[range.begin].pred, q_pred);
  EXPECT_EQ(batch.values[batch.rows[range.begin].begin], Value(int64_t{5}));

  // Watermark advanced: nothing new to ship.
  EXPECT_TRUE(nodes.CollectShips(5, routing, &batch).empty());
  // New local tuple ships; the foreign one stays filtered forever.
  nodes.Insert(5, q_pred, {Value(int64_t{5}), Value(int64_t{1})});
  range = nodes.CollectShips(5, routing, &batch);
  EXPECT_EQ(range.end - range.begin, 1u);
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
  nodes.Insert(1, q_pred, {Value(int64_t{1}), Value(int64_t{0})});
  // Wrong routing class: nothing collected, watermark untouched.
  ShipBatch batch;
  EXPECT_TRUE(
      nodes.CollectShips(1, ShipRouting::kAlongInEdges, &batch).empty());
  EXPECT_FALSE(
      nodes.CollectShips(1, ShipRouting::kAlongMessages, &batch).empty());
}

/// `rows` (each of the relation's arity) of `pred` as one sender's batch.
ShipRange AppendShips(int pred, const std::vector<Tuple>& rows,
                      ShipBatch* batch) {
  ShipRange range{static_cast<uint32_t>(batch->rows.size()), 0};
  for (const Tuple& row : rows) {
    batch->rows.push_back(
        ShipBatch::Row{pred, static_cast<uint32_t>(batch->values.size())});
    batch->values.insert(batch->values.end(), row.begin(), row.end());
  }
  range.end = static_cast<uint32_t>(batch->rows.size());
  return range;
}

TEST(ShipKeyTest, InsertShipsKeepsOneRowPerHolderAndKey) {
  // t's key is (location, a); u's is every column.
  auto query = AnalyzeText(
      "t(x, a, b) <- value(x, a, b).\n"
      "r(x, a) <- receive-message(x, y, _m, _i), t(y, a, _b).\n"
      "u(x, a, b) <- value(x, a, b).\n"
      "s(x, a, b) <- receive-message(x, y, _m, _i), u(y, a, b).");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const int t = query->PredId("t");
  const int u = query->PredId("u");
  ASSERT_EQ(query->pred(t).ship_key, ColumnSetOf(0) | ColumnSetOf(1));
  ASSERT_FALSE(query->pred(u).ship_keyed());

  auto graph = GenerateChain(10);
  ASSERT_TRUE(graph.ok());
  auto v = [](int64_t i) { return Value(i); };
  for (const int pred : {t, u}) {
    NodeDatabases nodes(&*query, &*graph);
    ShipBatch batch;
    // Vertex 5 gets two rows of key (9, 1), one of (9, 2) and one of
    // (8, 1); vertex 6, in the same partition, a third row of (9, 1).
    const ShipRange to5 = AppendShips(
        pred, {{v(9), v(1), v(0)}, {v(9), v(1), v(1)}, {v(9), v(2), v(0)},
               {v(8), v(1), v(0)}},
        &batch);
    const ShipRange to6 = AppendShips(pred, {{v(9), v(1), v(2)}}, &batch);
    nodes.InsertShips(5, batch, to5);
    nodes.InsertShips(6, batch, to6);
    // Delivered again: nothing new either way.
    nodes.InsertShips(5, batch, to5);

    const MergedNodes merged = nodes.Merge();
    const Relation* rel = merged.result.Table(query->pred(pred).name);
    ASSERT_NE(rel, nullptr);
    if (pred == t) {
      // The first row of each key, per holder.
      EXPECT_EQ(rel->ToSortedStrings(),
                (std::vector<std::string>{"(8, 1, 0)", "(9, 1, 0)",
                                          "(9, 1, 2)", "(9, 2, 0)"}));
    } else {
      EXPECT_EQ(rel->size(), 5u);
    }
  }
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
  for (Holder h : {Holder{0}, Holder{1}}) {
    const Value v(int64_t{h});
    for (int64_t step = 0; step < 10; ++step) {
      db.Rel(value).Insert(h, Tuple{v, Value(0.5), Value(step)});
      db.Rel(no_execute).Insert(h, Tuple{v, Value(step)});
    }
  }
  DropHistory(*query, db, /*cutoff=*/7, /*holder=*/0);
  // Holder 0's EDB history trimmed to steps >= 7...
  EXPECT_EQ(db.RelIfExists(value)->holder_size(0), 3u);
  // ...but IDB results (the query's output) are never dropped...
  EXPECT_EQ(db.RelIfExists(no_execute)->holder_size(0), 10u);
  // ...and the other holder keeps its history.
  EXPECT_EQ(db.RelIfExists(value)->holder_size(1), 10u);
}

TEST(RetentionTest, WindowDecidesWhenHistoryIsDropped) {
  auto program = ParseProgram(queries::Apt());
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(program->BindParameters({{"eps", Value(0.01)}}).ok());
  auto query =
      Analyze(*program, Catalog::Default(), UdfRegistry::Default());
  ASSERT_TRUE(query.ok());
  auto graph = GenerateChain(4);
  ASSERT_TRUE(graph.ok());
  NodeDatabases nodes(&*query, &*graph);
  const int value = query->PredId("value");
  for (int64_t step = 0; step < 10; ++step) {
    nodes.Insert(1, value, {Value(int64_t{1}), Value(0.5), Value(step)});
  }
  const size_t full = nodes.Merge().state_bytes;

  // Window 0 disables retention entirely.
  nodes.Retain(1, /*step=*/9, /*window=*/0);
  nodes.ApplyPendingRetention();
  EXPECT_EQ(nodes.Merge().state_bytes, full);

  // Window 2 at step 9 drops the steps before 7 (3 of 10 rows survive).
  nodes.Retain(1, 9, 2);
  nodes.ApplyPendingRetention();
  EXPECT_EQ(nodes.Merge().state_bytes, full * 3 / 10);
}

}  // namespace
}  // namespace ariadne
