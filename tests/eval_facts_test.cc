// Offline facts enter a query straight from a layer's cells (FactLoader,
// eval/layered_step.h): step-pure relations are read in place (FactView),
// every other one is inserted into Relations. These tests pin hand-built
// stores whose layers break each step-purity condition, hand-built stores
// read in place (hub slices, probes with the step column free, negation,
// remote atoms, aggregates), a static-segment relation, the holder skip of
// Query 10's delta walks, the set slices the store keeps of an appended
// batch or a loaded image that repeats a row, and the phase split of
// OfflineEvalStats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <sstream>
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

/// Three layers over vertices 0..3, each breaking one condition of step
/// purity (ProvenanceStore::step_pure) once:
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
  // value and send-message keep step purity; the others break it.
  for (const char* rel : {"value", "send-message"}) {
    EXPECT_TRUE(store.step_pure(store.RelId(rel))) << rel;
  }
  for (const char* rel : {"receive-message", "superstep", "tag"}) {
    EXPECT_FALSE(store.step_pure(store.RelId(rel))) << rel;
  }
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

// ---- Facts read in place ----

using Tables = std::map<std::string, std::vector<std::string>>;
/// Per head predicate: the head rows its rules derived.
using DerivedCounts = std::map<std::string, uint64_t>;

DerivedCounts DerivedByHead(const AnalyzedQuery& query,
                            const OfflineEvalStats& stats) {
  DerivedCounts derived;
  for (size_t i = 0; i < query.rules().size(); ++i) {
    derived[query.pred(query.rules()[i].head_pred).name] +=
        i < stats.eval.rules.size() ? stats.eval.rules[i].derived : 0;
  }
  return derived;
}

/// Evaluates `text` over `store` layered, naive and served, in memory and
/// then spilled (every layer to `spill_dir`), and compares every table
/// and per-head `derived` count with the hand-computed ones. `check`
/// inspects each run's statistics as well.
void ExpectEveryMode(
    const Graph& graph, ProvenanceStore& store, const std::string& text,
    const QueryParams& params, const Tables& tables,
    const DerivedCounts& derived, const std::string& spill_dir,
    const std::function<void(const AnalyzedQuery&, const OfflineEvalStats&,
                             const std::string&)>& check = {}) {
  for (bool spill : {false, true}) {
    if (spill) {
      ASSERT_TRUE(
          store.EnableSpill(testing::TempDir() + "/" + spill_dir, 0).ok());
      ASSERT_EQ(store.SpilledLayerCount(), store.num_layers());
    }
    Session session(&graph);
    auto query = session.PrepareOffline(text, store, params);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    auto expect = [&](const QueryResult& result, const OfflineEvalStats& stats,
                      const std::string& mode) {
      const std::string where = mode + (spill ? " spilled" : " in memory");
      for (const auto& [table, rows] : tables) {
        EXPECT_EQ(TableStrings(result, table), rows) << where << " " << table;
      }
      EXPECT_EQ(DerivedByHead(*query, stats), derived) << where;
      if (check) check(*query, stats, where);
    };
    for (EvalMode mode : {EvalMode::kLayered, EvalMode::kNaive}) {
      auto run = session.RunOffline(&store, *query, mode);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      expect(run->result, run->stats, EvalModeToString(mode));
    }
    // Three copies, told apart by a comment so none coalesces, step each
    // shared layer view on their own threads.
    auto state = serve::ServiceState::Create(&graph, &store);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    serve::ServerOptions options;
    options.step_threads = 3;
    serve::QueryServer server(state->get(), options);
    std::vector<std::future<serve::ServeResponse>> responses;
    for (int copy = 0; copy < 3; ++copy) {
      serve::ServeRequest request;
      request.name = "in place";
      request.text = text + "\n% copy " + std::to_string(copy) + "\n";
      request.params = params;
      responses.push_back(server.Submit(std::move(request)));
    }
    for (auto& pending : responses) {
      serve::ServeResponse response = pending.get();
      ASSERT_TRUE(response.ok()) << response.status.ToString();
      expect(response.result, response.stats, "served");
    }
  }
}

/// The index builds of the rules deriving `head`.
uint64_t IndexBuilds(const AnalyzedQuery& query, const OfflineEvalStats& stats,
                     const std::string& head) {
  uint64_t builds = 0;
  for (size_t i = 0; i < query.rules().size(); ++i) {
    if (query.pred(query.rules()[i].head_pred).name == head) {
      builds += stats.eval.rules[i].index_builds;
    }
  }
  return builds;
}

/// One rule per way of reading a step-pure relation in place:
///  - hit: value drives a probe keyed on send-message's step column, into
///    vertex 1's hub slice of layer 1 (longer than FactView::kScanRows,
///    so it goes through the lazy index);
///  - fan: an incremental aggregate over send-message's rows;
///  - back: receive-message drives a probe of send-message with the step
///    column free, across layers (vertex 1's 71 rows: the index again);
///  - lonely: a negated send-message, looked up in the hub slice;
///  - prev: a remote value atom, so shipped value rows (a Relation) sit
///    next to receive-message read in place;
///  - tot: a walked aggregate over value and superstep.
constexpr char kInPlaceQuery[] = R"(
hit(x, y, i) <- value(x, d, i), send-message(x, y, m, i), m = d.
fan(x, COUNT(y)) <- send-message(x, y, _m, _i).
back(x, i) <- receive-message(x, y, m, i), send-message(x, y, m, _j).
lonely(x, y, i) <- receive-message(x, y, m, i), !send-message(x, y, m, i).
prev(x, d) <- receive-message(x, y, _m, i), value(y, d, j), j = i - 1.
tot(x, SUM(d)) <- value(x, d, i), superstep(x, i).
)";

/// Three supersteps of vertices 0 and 1 (vertex 2 idles): 0 sends 2.0 to
/// 1 at superstep 0; at 1, vertex 1 sends 2.0 back to 0 and y to each
/// y = 2..71 (targets outside the graph but 2), and 0 sends 4.0 to 1.
/// Every slice holds its layer's step and is the only one of its (vertex,
/// relation), so all four relations are step-pure.
void BuildInPlaceStore(ProvenanceStore& store) {
  const int value = store.AddRelation("value", 3);
  const int send = store.AddRelation("send-message", 4);
  const int receive = store.AddRelation("receive-message", 4);
  const int superstep = store.AddRelation("superstep", 2);
  const double values[3][2] = {{0.5, 1.0}, {0.75, 2.0}, {1.25, 3.0}};
  for (int64_t step = 0; step < 3; ++step) {
    Layer layer;
    layer.step = step;
    for (int64_t v = 0; v < 2; ++v) {
      layer.Add(superstep, v, {{I(v), I(step)}});
      layer.Add(value, v, {{I(v), D(values[step][v]), I(step)}});
    }
    if (step == 0) layer.Add(send, 0, {{I(0), I(1), D(2.0), I(0)}});
    if (step == 1) {
      std::vector<Tuple> hub = {{I(1), I(0), D(2.0), I(1)}};
      for (int64_t y = 2; y <= 71; ++y) {
        hub.push_back({I(1), I(y), D(static_cast<double>(y)), I(1)});
      }
      layer.Add(send, 1, std::move(hub));
      layer.Add(send, 0, {{I(0), I(1), D(4.0), I(1)}});
      layer.Add(receive, 1, {{I(1), I(0), D(2.0), I(1)}});
    }
    if (step == 2) {
      layer.Add(receive, 0, {{I(0), I(1), D(2.0), I(2)}});
      layer.Add(receive, 1, {{I(1), I(0), D(4.0), I(2)}});
    }
    ASSERT_TRUE(store.AppendLayer(std::move(layer)).ok());
  }
}

TEST(FactViewTest, HandBuiltStoreReadInPlaceMatchesHandComputedTables) {
  auto graph = Graph::FromEdges(3, {{0, 1, 1.0}, {1, 0, 1.0}, {1, 2, 1.0}});
  ASSERT_TRUE(graph.ok());
  ProvenanceStore store;
  BuildInPlaceStore(store);
  for (const auto& rel : store.schema()) {
    EXPECT_TRUE(store.step_pure(store.RelId(rel.name))) << rel.name;
  }
  // hit: 2.0 is both vertex 1's value and the message it sent to 0 and to
  // 2 at superstep 1. back: 1 received 2.0 from 0 at 1 and sent it back;
  // 0 received 2.0 from 1 at 2, as it sent to 1 at 0. lonely: the other
  // receipts. prev: each receipt at i paired with the sender's value at
  // i - 1.
  const Tables tables = {
      {"hit", {"(1, 0, 1)", "(1, 2, 1)"}},
      {"fan", {"(0, 1)", "(1, 71)", "(2, 0)"}},
      {"back", {"(0, 2)", "(1, 1)"}},
      {"lonely", {"(0, 1, 2)", "(1, 0, 2)"}},
      {"prev", {"(0, 2)", "(1, 0.5)", "(1, 0.75)"}},
      {"tot", {"(0, 2.5)", "(1, 6)", "(2, 0)"}},
  };
  const DerivedCounts derived = {{"hit", 2},    {"fan", 0},  {"back", 2},
                                 {"lonely", 2}, {"prev", 3}, {"tot", 0}};
  ExpectEveryMode(*graph, store, kInPlaceQuery, {}, tables, derived,
                  "in_place_spill",
                  [](const AnalyzedQuery& query, const OfflineEvalStats& stats,
                     const std::string& where) {
                    // The hub is read through the lazy per-holder index.
                    EXPECT_GT(IndexBuilds(query, stats, "hit"), 0u) << where;
                    EXPECT_GT(IndexBuilds(query, stats, "back"), 0u) << where;
                  });
}

/// Paper Query 3 from vertex 0 along 0 -> 1 -> 2, where vertex 2 also
/// hears from 70 senders outside the graph at each of supersteps 1..3:
/// the fwd-lineage(y, _w, _j) join probes its receive-message rows by
/// sender with the step column free, across layers.
void BuildLineageStore(ProvenanceStore& store) {
  const int value = store.AddRelation("value", 3);
  const int send = store.AddRelation("send-message", 4);
  const int receive = store.AddRelation("receive-message", 4);
  const int superstep = store.AddRelation("superstep", 2);
  for (int64_t step = 0; step < 4; ++step) {
    Layer layer;
    layer.step = step;
    const int64_t v = std::min<int64_t>(step, 2);
    layer.Add(superstep, v, {{I(v), I(step)}});
    layer.Add(value, v, {{I(v), D(static_cast<double>(step + 1)), I(step)}});
    if (step < 2) layer.Add(send, v, {{I(v), I(v + 1), D(0.5), I(step)}});
    std::vector<Tuple> heard;
    if (step >= 1 && step <= 2) {
      heard.push_back({I(step), I(step - 1), D(0.5), I(step)});
    }
    if (step >= 1) {
      for (int64_t s = 100; s < 170; ++s) {
        heard.push_back({I(2), I(s), D(1.0), I(step)});
      }
    }
    // Vertex 1's receipt at superstep 1 is its own slice; vertex 2's
    // receipts share one.
    if (step == 1) {
      layer.Add(receive, 1, {heard.front()});
      heard.erase(heard.begin());
    }
    if (!heard.empty()) layer.Add(receive, 2, std::move(heard));
    ASSERT_TRUE(store.AppendLayer(std::move(layer)).ok());
  }
}

TEST(FactViewTest, StepColumnFreeProbeAcrossLayers) {
  auto graph = Graph::FromEdges(3, {{0, 1, 1.0}, {1, 2, 1.0}});
  ASSERT_TRUE(graph.ok());
  ProvenanceStore store;
  BuildLineageStore(store);
  for (const auto& rel : store.schema()) {
    EXPECT_TRUE(store.step_pure(store.RelId(rel.name))) << rel.name;
  }
  auto text = ReadFile(std::string(ARIADNE_SOURCE_DIR) +
                       "/examples/pql/forward_lineage.pql");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  ExpectEveryMode(*graph, store, *text, {{"alpha", I(0)}},
                  {{"fwd-lineage", {"(0, 1, 0)", "(1, 2, 1)", "(2, 3, 2)"}}},
                  {{"fwd-lineage", 3}}, "lineage_spill",
                  [](const AnalyzedQuery& query, const OfflineEvalStats& stats,
                     const std::string& where) {
                    // Vertex 2's 70 receipts of a layer are more than a
                    // scan takes.
                    EXPECT_GT(IndexBuilds(query, stats, "fwd-lineage"), 0u)
                        << where;
                  });
}

/// The golden dump of a query: total `derived`, then each table sorted
/// (tests/data/golden, written by eval_golden_test).
std::string Golden(const std::string& name) {
  std::ifstream in(std::string(ARIADNE_SOURCE_DIR) + "/tests/data/golden/" +
                       name + ".txt",
                   std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string GoldenDump(const QueryResult& result, const EvalStats& eval) {
  std::string out = "derived " + std::to_string(eval.Total().derived) + "\n";
  for (const std::string& name : result.TableNames()) {
    const Relation* rel = result.Table(name);
    out += "table " + name + " " + std::to_string(rel->size()) + "\n";
    for (const std::string& row : rel->ToSortedStrings()) out += row + "\n";
  }
  return out;
}

/// The golden setting of Queries 10 and 12: R-MAT scale 7, PageRank.
Result<Graph> GoldenRmat() {
  return GenerateRmat({.scale = 7, .avg_degree = 4, .seed = 3});
}

const QueryParams kTraceParams = {{"alpha", Value(int64_t{5})},
                                  {"sigma", Value(int64_t{6})}};

TEST(FactViewTest, Query12ReadsTheStaticSegmentOfAQuery11Capture) {
  auto graph = GoldenRmat();
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  Session session(&*graph);
  auto capture = session.PrepareOnline(queries::CaptureCustomBackward());
  ASSERT_TRUE(capture.ok()) << capture.status().ToString();
  ProvenanceStore store;
  PageRankProgram pagerank({.iterations = 6});
  ASSERT_TRUE(session.Capture(pagerank, *capture, &store).ok());
  // prov-edges sits in the static segment; the capture's skeleton is
  // step-pure, its custom relations are not built-in EDBs.
  EXPECT_FALSE(store.static_data().slices.empty());
  EXPECT_TRUE(store.step_pure(store.RelId("superstep")));
  EXPECT_FALSE(store.step_pure(store.RelId("prov-value")));
  const std::string golden = Golden("q12_pagerank_layered");
  ASSERT_FALSE(golden.empty());
  for (bool spill : {false, true}) {
    if (spill) {
      ASSERT_TRUE(
          store.EnableSpill(testing::TempDir() + "/q12_spill", 0).ok());
    }
    auto q12 = session.PrepareOffline(queries::BackwardLineageCustom(), store,
                                      kTraceParams);
    ASSERT_TRUE(q12.ok()) << q12.status().ToString();
    for (EvalMode mode : {EvalMode::kLayered, EvalMode::kNaive}) {
      auto run = session.RunOffline(&store, *q12, mode);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(GoldenDump(run->result, run->stats.eval), golden)
          << EvalModeToString(mode) << (spill ? " spilled" : "");
    }
    auto state = serve::ServiceState::Create(&*graph, &store);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    serve::QueryServer server(state->get(), serve::ServerOptions{});
    serve::ServeRequest request;
    request.name = "q12";
    request.text = queries::BackwardLineageCustom();
    request.params = kTraceParams;
    serve::ServeResponse response = server.Submit(std::move(request)).get();
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    EXPECT_EQ(GoldenDump(response.result, response.stats.eval), golden)
        << "served" << (spill ? " spilled" : "");
  }
}

TEST(FactViewTest, Query10AtHalfDepthWalksNoSendMessageRowAboveSigma) {
  auto graph = GoldenRmat();
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  Session session(&*graph);
  auto capture = session.PrepareOnline(queries::CaptureFull());
  ASSERT_TRUE(capture.ok()) << capture.status().ToString();
  // Twice the golden run's supersteps: sigma = 6 sits at half depth.
  ProvenanceStore full;
  PageRankProgram pagerank({.iterations = 12});
  ASSERT_TRUE(session.Capture(pagerank, *capture, &full).ok());
  ASSERT_GE(full.num_layers(), 12);
  // The same store cut at sigma.
  ProvenanceStore cut;
  for (const auto& rel : full.schema()) cut.AddRelation(rel.name, rel.arity);
  for (int step = 0; step <= 6; ++step) {
    auto batch = full.GetLayerBatch(step, {});
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_TRUE(cut.AppendBatch(**batch).ok());
  }
  auto on_full = session.PrepareOffline(queries::BackwardLineageFull(), full,
                                        kTraceParams);
  auto on_cut = session.PrepareOffline(queries::BackwardLineageFull(), cut,
                                       kTraceParams);
  ASSERT_TRUE(on_full.ok() && on_cut.ok());
  auto above = session.RunOffline(&full, *on_full, EvalMode::kLayered);
  auto below = session.RunOffline(&cut, *on_cut, EvalMode::kLayered);
  ASSERT_TRUE(above.ok()) << above.status().ToString();
  ASSERT_TRUE(below.ok()) << below.status().ToString();
  EXPECT_EQ(GoldenDump(above->result, above->stats.eval),
            Golden("q10_pagerank_layered"));
  // Rule 1 joins send-message with back-trace: the layers above sigma
  // hold no back-trace row, so the delta walks skip their holders and the
  // rule walks and probes exactly what it does over the cut store.
  const size_t rule = 1;
  ASSERT_NE(on_full->rules()[rule].source_text.find("send-message"),
            std::string::npos);
  const RuleEvalStats& a = above->stats.eval.rules[rule];
  const RuleEvalStats& b = below->stats.eval.rules[rule];
  EXPECT_GT(b.rows_scanned, 0u);
  EXPECT_EQ(a.rows_scanned, b.rows_scanned);
  EXPECT_EQ(a.index_probes, b.index_probes);
  EXPECT_EQ(a.derived, b.derived);
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
