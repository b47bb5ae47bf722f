// Offline facts enter a query straight from a layer's cells (FactLoader,
// eval/layered_step.h). These tests pin the distinct-row rule over a
// hand-built store whose layers break each of its conditions, the set
// slices the store keeps of an appended batch or a loaded image that
// repeats a row, and the phase split of OfflineEvalStats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "core/ariadne.h"
#include "serve/server.h"
#include "storage/page.h"

namespace ariadne {
namespace {

std::vector<std::string> TableStrings(const QueryResult& result,
                                      const std::string& name) {
  const Relation* rel = result.Table(name);
  if (rel == nullptr) return {};
  return rel->ToSortedStrings();
}

Value I(int64_t v) { return Value(v); }
Value D(double v) { return Value(v); }

/// Every SUM counts a row as often as the query's state holds it, so a
/// fact row stored twice shows up in a sum.
constexpr char kQuery[] = R"(
r(x, d) <- value(y, d, i), receive-message(x, y, _m, i).
sv(x, SUM(d)) <- value(x, d, _i).
sr(x, SUM(m)) <- receive-message(x, _y, m, _i).
ss(x, SUM(i)) <- superstep(x, i).
st(x, SUM(w)) <- tag(x, w).
)";

/// Three layers over vertices 0..3, each breaking one condition of the
/// distinct-row rule once:
///  - tag(1, 0.25), a relation without a step column, is in layers 0
///    and 1 (condition 1);
///  - receive-message(2, 1, 4.0, 1) is in layer 0, whose step it does not
///    hold, and again in layer 1 (condition 2);
///  - layer 1 holds two slices of (3, superstep), both with (3, 1)
///    (condition 3), and layer 2's slice of (3, value) repeats
///    (3, 2.0, 2) (the slice holds a set);
///  - vertex 0 messages itself in layer 0, so its value rows ship back to
///    it and arrive as rows it already holds.
void BuildStore(ProvenanceStore& store) {
  const int value = store.AddRelation("value", 3);
  const int send = store.AddRelation("send-message", 4);
  const int receive = store.AddRelation("receive-message", 4);
  const int superstep = store.AddRelation("superstep", 2);
  const int tag = store.AddRelation("tag", 2);

  Layer l0;
  l0.step = 0;
  l0.Add(value, 0, {{I(0), D(0.5), I(0)}});
  l0.Add(value, 1, {{I(1), D(1.0), I(0)}});
  l0.Add(send, 0, {{I(0), I(0), D(5.0), I(0)}});
  l0.Add(receive, 2, {{I(2), I(1), D(4.0), I(1)}});
  l0.Add(superstep, 0, {{I(0), I(0)}});
  l0.Add(superstep, 1, {{I(1), I(0)}});
  l0.Add(tag, 1, {{I(1), D(0.25)}});
  ASSERT_TRUE(store.AppendLayer(std::move(l0)).ok());

  Layer l1;
  l1.step = 1;
  l1.Add(value, 0, {{I(0), D(0.75), I(1)}});
  l1.Add(receive, 0, {{I(0), I(0), D(5.0), I(1)}});
  l1.Add(receive, 2,
         {{I(2), I(1), D(4.0), I(1)}, {I(2), I(1), D(8.0), I(1)}});
  l1.Add(superstep, 3, {{I(3), I(1)}});
  l1.Add(superstep, 3, {{I(3), I(1)}});
  l1.Add(tag, 1, {{I(1), D(0.25)}});
  ASSERT_TRUE(store.AppendLayer(std::move(l1)).ok());

  Layer l2;
  l2.step = 2;
  l2.Add(superstep, 0, {{I(0), I(2)}});
  l2.Add(value, 3, {{I(3), D(2.0), I(2)}, {I(3), D(2.0), I(2)}});
  ASSERT_TRUE(store.AppendLayer(std::move(l2)).ok());
}

/// The answer, by hand. Vertex 0 holds value rows (0, 0.5, 0) and
/// (0, 0.75, 1), plus the shipped copy of the first; only the second
/// joins a receive-message row of its step. Each SUM has a group at every
/// vertex, 0 where the vertex has no rows.
const std::map<std::string, std::vector<std::string>>& Expected() {
  static const auto* tables =
      new std::map<std::string, std::vector<std::string>>{
          {"r", {"(0, 0.75)"}},
          {"sv", {"(0, 1.25)", "(1, 1)", "(2, 0)", "(3, 2)"}},
          {"sr", {"(0, 5)", "(1, 0)", "(2, 12)", "(3, 0)"}},
          {"ss", {"(0, 2)", "(1, 0)", "(2, 0)", "(3, 1)"}},
          {"st", {"(0, 0)", "(1, 0.25)", "(2, 0)", "(3, 0)"}},
      };
  return *tables;
}

/// Per rule: r derives its one row; aggregate heads replace their groups
/// and count no derivations.
const std::vector<uint64_t> kDerived = {1, 0, 0, 0, 0};

void ExpectAnswer(const QueryResult& result, const OfflineEvalStats& stats,
                  const std::string& mode) {
  for (const auto& [table, rows] : Expected()) {
    EXPECT_EQ(TableStrings(result, table), rows) << mode << " " << table;
  }
  ASSERT_EQ(stats.eval.rules.size(), kDerived.size()) << mode;
  for (size_t i = 0; i < kDerived.size(); ++i) {
    EXPECT_EQ(stats.eval.rules[i].derived, kDerived[i])
        << mode << " rule " << i;
  }
}

Graph PathGraph() {
  auto graph =
      Graph::FromEdges(4, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}});
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

TEST(HandBuiltStoreTest, LayeredNaiveAndServedMatchHandComputedTables) {
  const Graph graph = PathGraph();
  ProvenanceStore store;
  BuildStore(store);
  Session session(&graph);
  auto query = session.PrepareOffline(kQuery, store);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  for (EvalMode mode : {EvalMode::kLayered, EvalMode::kNaive}) {
    auto run = session.RunOffline(&store, *query, mode);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectAnswer(run->result, run->stats, EvalModeToString(mode));
  }

  auto state = serve::ServiceState::Create(&graph, &store);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  serve::QueryServer server(state->get(), serve::ServerOptions{});
  serve::ServeRequest request;
  request.name = "hand-built";
  request.text = kQuery;
  serve::ServeResponse response = server.Submit(std::move(request)).get();
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  ExpectAnswer(response.result, response.stats, "served");
}

TEST(HandBuiltStoreTest, SpilledStoreGivesTheSameAnswer) {
  const Graph graph = PathGraph();
  ProvenanceStore store;
  BuildStore(store);
  ASSERT_TRUE(
      store.EnableSpill(testing::TempDir() + "/eval_facts_spill", 0).ok());
  ASSERT_EQ(store.SpilledLayerCount(), store.num_layers());
  Session session(&graph);
  auto query = session.PrepareOffline(kQuery, store);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  for (EvalMode mode : {EvalMode::kLayered, EvalMode::kNaive}) {
    auto run = session.RunOffline(&store, *query, mode);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectAnswer(run->result, run->stats, EvalModeToString(mode));
  }
}

/// Layer 0 of relation `value` (id 0) at vertex 0: (0, 0.5, 0) twice in
/// one slice, written as kAny, then (0, 0.25, 0).
storage::CaptureBatch RepeatingBatch() {
  storage::CaptureBatch batch;
  batch.step = 0;
  batch.BeginSlice(0, 0);
  for (double d : {0.5, 0.5, 0.25}) {
    batch.AddInt(0);
    batch.AddDouble(d);
    batch.AddInt(0);
    batch.EndRow();
  }
  batch.EndSlice();
  EXPECT_EQ(batch.num_tuples(), 3);
  EXPECT_FALSE(batch.sets());
  return batch;
}

/// Evaluates `sv` over `store` in layered and naive mode: the set answer
/// is (0, 0.75); a repeated fact row would make it (0, 1.25).
void ExpectSetSum(const ProvenanceStore& store, const std::string& where) {
  const Graph graph = PathGraph();
  Session session(&graph);
  auto query =
      session.PrepareOffline("sv(x, SUM(d)) <- value(x, d, _i).", store);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  for (EvalMode mode : {EvalMode::kLayered, EvalMode::kNaive}) {
    auto run = session.RunOffline(&store, *query, mode);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(TableStrings(run->result, "sv"),
              (std::vector<std::string>{"(0, 0.75)", "(1, 0)", "(2, 0)",
                                        "(3, 0)"}))
        << where << " " << EvalModeToString(mode);
  }
}

TEST(StoreSetsTest, AppendedBatchThatRepeatsARowIsStoredAsASet) {
  // The slice is the only one of its (vertex, relation) and every row
  // holds the layer's step, so its rows take the fast append: only the
  // store's set guarantee keeps the repeat out of the sum.
  for (bool spill : {false, true}) {
    ProvenanceStore store;
    ASSERT_EQ(store.AddRelation("value", 3), 0);
    ASSERT_TRUE(store.AppendBatch(RepeatingBatch()).ok());
    if (spill) {
      ASSERT_TRUE(
          store.EnableSpill(testing::TempDir() + "/eval_facts_sets", 0).ok());
    }
    ASSERT_EQ(store.SpilledLayerCount(), spill ? 1 : 0);
    auto layer = store.GetLayerBatch(0, {});
    ASSERT_TRUE(layer.ok()) << layer.status().ToString();
    EXPECT_EQ((*layer)->num_tuples(), 2);
    EXPECT_EQ(store.TotalTuples(), 2);
    ExpectSetSum(store, spill ? "spilled" : "in memory");
  }
}

TEST(StoreImageTest, SliceThatRepeatsARowLoadsDeduplicated) {
  // The store never holds a repeated row, so the image is put together
  // here: one relation, an empty static segment, and layer 0 encoded
  // straight from the repeating batch.
  BinaryWriter body;
  body.WriteU64(1);
  body.WriteString("value");
  body.WriteU32(3);
  SerializeLayer(Layer{}, body);
  body.WriteU64(1);
  std::string blob;
  for (const storage::Page& page :
       storage::EncodeBatch(RepeatingBatch(), storage::kDefaultPageSize)) {
    storage::SerializePage(page, &blob);
  }
  body.WriteI64(0);
  body.WriteU64(1);
  body.WriteString(blob);
  BinaryWriter image;
  image.WriteU32(0x41505632);  // "APV2"
  image.WriteU32(0);
  image.WriteU64(storage::Fnv1a(body.data()));

  auto loaded = ProvenanceStore::LoadFromBytes(image.MoveData() + body.data(),
                                               "repeat.apv");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto layer = loaded->GetLayerBatch(0, {});
  ASSERT_TRUE(layer.ok()) << layer.status().ToString();
  EXPECT_EQ((*layer)->num_tuples(), 2);
  EXPECT_EQ(loaded->TotalTuples(), 2);
  ExpectSetSum(*loaded, "loaded");
}

TEST(StoreImageTest, CapturedImageReloadsByteIdentical) {
  // Load decodes every layer into a batch, which the store deduplicates
  // (decoded slices are not known to be sets); a captured store's slices
  // are sets already, so saving the loaded store writes the image it
  // came from.
  auto graph = GenerateRmat({.scale = 7, .avg_degree = 6, .seed = 5});
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  Session session(&*graph);
  for (const std::string& text :
       {queries::CaptureFull(), queries::CaptureCustomBackward()}) {
    auto capture = session.PrepareOnline(text);
    ASSERT_TRUE(capture.ok()) << capture.status().ToString();
    ProvenanceStore store;
    PageRankProgram pagerank({.iterations = 6});
    ASSERT_TRUE(session.Capture(pagerank, *capture, &store).ok());
    auto image = store.SerializeToString();
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    auto loaded = ProvenanceStore::LoadFromBytes(*image, "captured.apv");
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->TotalTuples(), store.TotalTuples());
    auto again = loaded->SerializeToString();
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_TRUE(*again == *image);
  }
}

TEST(EvalPhasesTest, PhasesCoverSecondsOnPageRankQuery10) {
  auto graph = GenerateRmat({.scale = 10, .avg_degree = 8, .seed = 7});
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  Session session(&*graph);
  auto capture = session.PrepareOnline(queries::CaptureFull());
  ASSERT_TRUE(capture.ok()) << capture.status().ToString();
  ProvenanceStore store;
  PageRankProgram pagerank({.iterations = 10});
  ASSERT_TRUE(session.Capture(pagerank, *capture, &store).ok());
  const int sigma = store.num_layers() - 1;
  auto query = session.PrepareOffline(
      queries::BackwardLineageFull(), store,
      {{"alpha", Value(int64_t{1})}, {"sigma", Value(int64_t{sigma})}});
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  // The best of three runs: a descheduled thread between two timers
  // would otherwise count against the cover.
  double best_gap = 1.0;
  for (int rep = 0; rep < 3; ++rep) {
    auto run = session.RunOffline(&store, *query, EvalMode::kLayered);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const EvalPhases& p = run->stats.phases;
    for (double phase : {p.read, p.view, p.facts, p.ships, p.rules,
                         p.round_end}) {
      EXPECT_GT(phase, 0.0);
    }
    ASSERT_GT(run->stats.seconds, 0.0);
    best_gap = std::min(best_gap, std::abs(p.Total() - run->stats.seconds) /
                                      run->stats.seconds);
  }
  EXPECT_LT(best_gap, 0.05);
}

}  // namespace
}  // namespace ariadne
