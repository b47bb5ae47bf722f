#include <gtest/gtest.h>

#include <set>

#include "core/ariadne.h"

namespace ariadne {
namespace {

std::vector<std::string> TableStrings(const QueryResult& result,
                                      const std::string& name) {
  const Relation* rel = result.Table(name);
  if (rel == nullptr) return {};
  return rel->ToSortedStrings();
}

/// Chain 0 -> 1 -> ... -> 5 with unit weights; SSSP from 0 takes 6
/// supersteps and activates exactly vertex v at superstep v (plus the
/// all-active superstep 0), giving exact expectations below.
class ChainSsspFixture : public testing::Test {
 protected:
  void SetUp() override {
    auto g = GenerateChain(6);
    ASSERT_TRUE(g.ok());
    graph_ = std::move(g).value();
  }

  Graph graph_;
};

TEST_F(ChainSsspFixture, FullCaptureContents) {
  Session session(&graph_);
  auto capture = session.PrepareOnline(queries::CaptureFull());
  ASSERT_TRUE(capture.ok()) << capture.status().ToString();
  ASSERT_TRUE(capture->fast_capture().has_value());

  ProvenanceStore store;
  SsspProgram sssp(0);
  auto stats = session.Capture(sssp, *capture, &store);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->supersteps, 6);
  EXPECT_EQ(store.num_layers(), 6);

  // Count tuples per stored relation.
  auto count = [&](const std::string& name) {
    const int rel = store.RelId(name);
    int64_t n = 0;
    for (int s = 0; s < store.num_layers(); ++s) {
      const auto layer = *store.GetLayerRelations(s, {});
      for (const auto& slice : layer->slices) {
        if (slice.rel == rel) n += static_cast<int64_t>(slice.tuples.size());
      }
    }
    return n;
  };
  EXPECT_EQ(count("value"), 11);            // 6 at step 0 + 1 per step 1..5
  EXPECT_EQ(count("send-message"), 5);      // vertices 0..4, one send each
  EXPECT_EQ(count("receive-message"), 5);   // vertices 1..5, one receive
  EXPECT_EQ(count("superstep"), 11);        // skeleton: active vertex-steps
  EXPECT_EQ(count("evolution"), 5);         // (v, 0, v) for v = 1..5
}

TEST_F(ChainSsspFixture, BackwardLineageFullVsCustom) {
  Session session(&graph_);

  // Full capture + Query 10.
  ProvenanceStore full;
  {
    auto capture = session.PrepareOnline(queries::CaptureFull());
    ASSERT_TRUE(capture.ok());
    SsspProgram sssp(0);
    ASSERT_TRUE(session.Capture(sssp, *capture, &full).ok());
  }
  QueryParams params{{"alpha", Value(int64_t{5})}, {"sigma", Value(int64_t{5})}};
  auto q10 = session.PrepareOffline(queries::BackwardLineageFull(), full,
                                    params);
  ASSERT_TRUE(q10.ok()) << q10.status().ToString();
  EXPECT_EQ(q10->direction(), Direction::kBackward);
  auto full_layered = session.RunOffline(&full, *q10, EvalMode::kLayered);
  ASSERT_TRUE(full_layered.ok()) << full_layered.status().ToString();

  // Lemma 5.3: at most n supersteps.
  EXPECT_LE(full_layered->stats.supersteps, full.num_layers());

  // The trace walks the chain back to the source.
  EXPECT_EQ(TableStrings(full_layered->result, "back-trace"),
            (std::vector<std::string>{"(0, 0)", "(1, 1)", "(2, 2)", "(3, 3)",
                                      "(4, 4)", "(5, 5)"}));
  EXPECT_EQ(TableStrings(full_layered->result, "back-lineage"),
            (std::vector<std::string>{"(0, 0)"}));

  // Naive agrees with layered.
  auto full_naive = session.RunOffline(&full, *q10, EvalMode::kNaive);
  ASSERT_TRUE(full_naive.ok());
  for (const char* table : {"back-trace", "back-lineage"}) {
    EXPECT_EQ(TableStrings(full_layered->result, table),
              TableStrings(full_naive->result, table));
  }

  // Custom capture (Query 11) + Query 12: identical lineage, smaller store.
  ProvenanceStore custom;
  {
    auto capture = session.PrepareOnline(queries::CaptureCustomBackward());
    ASSERT_TRUE(capture.ok()) << capture.status().ToString();
    SsspProgram sssp(0);
    ASSERT_TRUE(session.Capture(sssp, *capture, &custom).ok());
  }
  EXPECT_LT(custom.TotalBytes(), full.TotalBytes());
  auto q12 = session.PrepareOffline(queries::BackwardLineageCustom(), custom,
                                    params);
  ASSERT_TRUE(q12.ok()) << q12.status().ToString();
  auto custom_layered = session.RunOffline(&custom, *q12, EvalMode::kLayered);
  ASSERT_TRUE(custom_layered.ok()) << custom_layered.status().ToString();
  EXPECT_EQ(TableStrings(custom_layered->result, "back-trace"),
            TableStrings(full_layered->result, "back-trace"));
  EXPECT_EQ(TableStrings(custom_layered->result, "back-lineage"),
            TableStrings(full_layered->result, "back-lineage"));
}

TEST_F(ChainSsspFixture, AptOnlineMatchesOfflineModes) {
  Session session(&graph_);
  QueryParams eps{{"eps", Value(0.1)}};

  // Online.
  auto apt_online = session.PrepareOnline(queries::Apt(), eps);
  ASSERT_TRUE(apt_online.ok()) << apt_online.status().ToString();
  SsspProgram sssp1(0);
  auto online = session.RunOnline(sssp1, *apt_online);
  ASSERT_TRUE(online.ok()) << online.status().ToString();

  // Expectations: every vertex idles safely-unknown at superstep 0 (no
  // neighbor sent a large update *to* it), but none of them is safe (all
  // are unsafe at step 0 because change(x, 0) cannot hold).
  EXPECT_EQ(online->query_result.TupleCount("no-execute"), 6u);
  EXPECT_EQ(online->query_result.TupleCount("unsafe"), 6u);
  EXPECT_EQ(online->query_result.TupleCount("safe"), 0u);

  // Capture + offline layered + naive: identical tables (Theorem 5.4).
  ProvenanceStore store;
  auto capture = session.PrepareOnline(queries::CaptureFull());
  ASSERT_TRUE(capture.ok());
  SsspProgram sssp2(0);
  ASSERT_TRUE(session.Capture(sssp2, *capture, &store).ok());
  auto apt_offline = session.PrepareOffline(queries::Apt(), store, eps);
  ASSERT_TRUE(apt_offline.ok()) << apt_offline.status().ToString();
  auto layered = session.RunOffline(&store, *apt_offline, EvalMode::kLayered);
  ASSERT_TRUE(layered.ok()) << layered.status().ToString();
  auto naive = session.RunOffline(&store, *apt_offline, EvalMode::kNaive);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  for (const char* table :
       {"change", "neighbor-change", "no-execute", "safe", "unsafe"}) {
    EXPECT_EQ(TableStrings(online->query_result, table),
              TableStrings(layered->result, table))
        << table;
    EXPECT_EQ(TableStrings(layered->result, table),
              TableStrings(naive->result, table))
        << table;
  }
}

TEST_F(ChainSsspFixture, RetentionWindowPreservesResults) {
  Session session(&graph_);
  QueryParams eps{{"eps", Value(0.1)}};
  auto apt = session.PrepareOnline(queries::Apt(), eps);
  ASSERT_TRUE(apt.ok());
  SsspProgram sssp1(0);
  auto unlimited = session.RunOnline(sssp1, *apt);
  ASSERT_TRUE(unlimited.ok());
  SsspProgram sssp2(0);
  auto windowed = session.RunOnline(sssp2, *apt, /*retention_window=*/2);
  ASSERT_TRUE(windowed.ok());
  for (const char* table : {"no-execute", "safe", "unsafe"}) {
    EXPECT_EQ(TableStrings(unlimited->query_result, table),
              TableStrings(windowed->query_result, table))
        << table;
  }
  EXPECT_LE(windowed->transient_bytes, unlimited->transient_bytes);
}

TEST_F(ChainSsspFixture, GenericCaptureMatchesFastPath) {
  Session session(&graph_);
  // Defeating the projection recognizer with a no-op comparison forces
  // the generic Datalog path; stored contents must be identical.
  const std::string generic_text = R"(
    value(x, v, i) <- vertex-value(x, v), superstep(x, i), i >= 0.
    send-message(x, y, m, i) <- send(x, y, m), superstep(x, i), i >= 0.
    receive-message(x, y, m, i) <- receive(x, y, m), superstep(x, i), i >= 0.
  )";
  auto fast = session.PrepareOnline(queries::CaptureFull());
  auto generic = session.PrepareOnline(generic_text);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(generic.ok()) << generic.status().ToString();
  ASSERT_TRUE(fast->fast_capture().has_value());
  ASSERT_FALSE(generic->fast_capture().has_value());

  ProvenanceStore fast_store, generic_store;
  SsspProgram sssp1(0), sssp2(0);
  ASSERT_TRUE(session.Capture(sssp1, *fast, &fast_store).ok());
  auto generic_stats = session.Capture(sssp2, *generic, &generic_store);
  ASSERT_TRUE(generic_stats.ok()) << generic_stats.status().ToString();

  ASSERT_EQ(fast_store.num_layers(), generic_store.num_layers());
  auto dump = [](ProvenanceStore& store) {
    std::vector<std::string> out;
    for (int s = 0; s < store.num_layers(); ++s) {
      const auto layer = *store.GetLayerRelations(s, {});
      for (const auto& slice : layer->slices) {
        for (const Tuple& t : slice.tuples) {
          out.push_back(store.schema()[static_cast<size_t>(slice.rel)].name +
                        TupleToString(t));
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(dump(fast_store), dump(generic_store));
}

TEST(IntegrationCapture, AggregateOutputPersistsEachChangedSet) {
  // 0 -> 1 -> 3 and 0 -> 2 -> 4 -> 3: SSSP from 0 reaches vertex 3 from
  // vertex 1 at superstep 2 and again from vertex 4 at superstep 3.
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 3);
  builder.AddEdge(2, 4);
  builder.AddEdge(4, 3);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  Session session(&*graph);
  auto query = session.PrepareOnline(
      "heard(x, COUNT(y)) <- receive-message(x, y, m, i).");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ProvenanceStore store;
  SsspProgram sssp(0);
  ASSERT_TRUE(session
                  .Capture(sssp, *query, &store, /*retention_window=*/0,
                           /*final_values=*/nullptr,
                           /*use_fast_capture=*/false)
                  .ok());
  // Each layer holds the aggregate rows of the vertices whose set changed
  // in that superstep: the whole new set, also when the group count stays
  // the same (vertex 3's count moving from 1 to 2).
  const int heard = store.RelId("heard");
  ASSERT_GE(heard, 0);
  std::vector<std::string> layers;
  for (int s = 0; s < store.num_layers(); ++s) {
    const auto layer = *store.GetLayerRelations(s, {});
    std::vector<std::string> rows;
    for (const LayerSlice& slice : layer->slices) {
      if (slice.rel != heard) continue;
      for (const Tuple& t : slice.tuples) rows.push_back(TupleToString(t));
    }
    std::sort(rows.begin(), rows.end());
    std::string line;
    for (const std::string& row : rows) line += row;
    layers.push_back(line);
  }
  EXPECT_EQ(layers, (std::vector<std::string>{
                        "(0, 0)(1, 0)(2, 0)(3, 0)(4, 0)",
                        "(1, 1)(2, 1)",
                        "(3, 1)(4, 1)",
                        "(3, 2)",
                    }));
}

TEST_F(ChainSsspFixture, SpilledStoreStillAnswersQueries) {
  Session session(&graph_);
  ProvenanceStore store;
  ASSERT_TRUE(store.EnableSpill(testing::TempDir(), 64).ok());
  auto capture = session.PrepareOnline(queries::CaptureFull());
  ASSERT_TRUE(capture.ok());
  SsspProgram sssp(0);
  ASSERT_TRUE(session.Capture(sssp, *capture, &store).ok());
  EXPECT_GT(store.SpilledLayerCount(), 0);

  QueryParams params{{"alpha", Value(int64_t{5})}, {"sigma", Value(int64_t{5})}};
  auto q10 = session.PrepareOffline(queries::BackwardLineageFull(), store,
                                    params);
  ASSERT_TRUE(q10.ok());
  auto run = session.RunOffline(&store, *q10, EvalMode::kLayered);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(TableStrings(run->result, "back-lineage"),
            (std::vector<std::string>{"(0, 0)"}));
}

// A remote atom over a transient view: vertex v ships its receive rows
// of superstep v to v + 1, whose own activation at v + 1 clears its
// receive view before those rows arrive, so they survive to the join.
TEST_F(ChainSsspFixture, ShippedTransientRowsSurviveReceiverActivation) {
  Session session(&graph_);
  auto query = session.PrepareOnline(
      "r(x, y, z) <- receive-message(x, y, _m, _i), receive(y, z, _p).");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  SsspProgram sssp(0);
  auto run = session.RunOnline(sssp, *query);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(TableStrings(run->query_result, "r"),
            (std::vector<std::string>{"(2, 1, 0)", "(3, 2, 1)", "(4, 3, 2)",
                                      "(5, 4, 3)"}));
}

// ------------------------------------------------------------ online ships

/// Vertex 0 messages -1, 2, 1000 and 3 at superstep 0; the engine counts
/// and drops the two ids outside the graph. Everyone else stays quiet.
class WildSenderProgram final : public VertexProgram<int64_t, int64_t> {
 public:
  int64_t InitialValue(VertexId, const Graph&) const override { return 0; }
  void Compute(VertexContext<int64_t, int64_t>& ctx,
               std::span<const int64_t> messages) override {
    if (ctx.superstep() == 0 && ctx.id() == 0) {
      for (VertexId t : {-1, 2, 1000, 3}) ctx.SendMessage(t, 7);
    }
    for (int64_t m : messages) ctx.SetValue(ctx.value() + m);
    ctx.VoteToHalt();
  }
};

TEST(IntegrationOnlineShips, TargetsOutsideTheGraphGetNoShips) {
  auto g = GenerateChain(4);
  ASSERT_TRUE(g.ok());
  Session session(&*g);
  auto query = session.PrepareOnline(queries::CaptureForwardLineage(),
                                     {{"alpha", Value(int64_t{0})}});
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  WildSenderProgram program;
  auto run = session.RunOnline(program, *query);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->engine_stats.dropped_messages, 2);
  const Relation* lineage = run->query_result.Table("fwd-lineage");
  ASSERT_NE(lineage, nullptr);
  std::set<int64_t> vertices;
  for (size_t i = 0; i < lineage->end_row(); ++i) {
    if (lineage->alive(i)) vertices.insert(lineage->row_view(i).AsInt(0));
  }
  EXPECT_EQ(vertices, (std::set<int64_t>{0, 2, 3}));
}

// ---------------------------------------------------------------- PageRank

TEST(IntegrationPageRank, OnlineDoesNotPerturbAnalytic) {
  auto g = GenerateRmat({.scale = 7, .avg_degree = 6, .seed = 11});
  ASSERT_TRUE(g.ok());
  Session session(&*g);
  PageRankOptions pr_options{.iterations = 8};

  PageRankProgram baseline(pr_options);
  std::vector<double> baseline_values;
  auto baseline_stats = session.RunBaseline(baseline, &baseline_values);
  ASSERT_TRUE(baseline_stats.ok());

  auto apt = session.PrepareOnline(queries::Apt(), {{"eps", Value(0.01)}});
  ASSERT_TRUE(apt.ok());
  PageRankProgram wrapped(pr_options);
  std::vector<double> online_values;
  auto online = session.RunOnline(wrapped, *apt, /*retention_window=*/2,
                                  &online_values);
  ASSERT_TRUE(online.ok()) << online.status().ToString();

  // Theorem 5.4 part (i): A(G) == pi_A(Online_{A,Q}(G)), bit-for-bit.
  ASSERT_EQ(baseline_values.size(), online_values.size());
  for (size_t i = 0; i < baseline_values.size(); ++i) {
    EXPECT_EQ(baseline_values[i], online_values[i]) << "vertex " << i;
  }
  // Same number of supersteps and messages.
  EXPECT_EQ(baseline_stats->supersteps, online->engine_stats.supersteps);
  EXPECT_EQ(baseline_stats->total_messages,
            online->engine_stats.total_messages);
}

TEST(IntegrationPageRank, PhaseTimersCoverRunAndBarrierEvaluation) {
  auto g = GenerateRmat({.scale = 7, .avg_degree = 6, .seed = 11});
  ASSERT_TRUE(g.ok());
  Session session(&*g);  // one engine thread
  auto apt = session.PrepareOnline(queries::Apt(), {{"eps", Value(0.01)}});
  ASSERT_TRUE(apt.ok());
  PageRankProgram pagerank({.iterations = 8});
  auto run = session.RunOnline(pagerank, *apt, /*retention_window=*/2);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const RunStats& s = run->engine_stats;
  ASSERT_FALSE(s.steps.empty());
  for (const SuperstepStats& step : s.steps) {
    EXPECT_LE(step.rebuild_seconds + step.compute_seconds +
                  step.merge_seconds + step.master_seconds,
              step.seconds)
        << "superstep " << step.step;
  }
  EXPECT_LE(s.rebuild_seconds + s.compute_seconds + s.merge_seconds +
                s.master_seconds,
            s.seconds);
  // The query's rules run at the superstep barrier, inside MasterCompute.
  const double rule_seconds = run->eval_stats.Total().seconds;
  EXPECT_GT(rule_seconds, 0.0);
  EXPECT_GE(s.master_seconds, rule_seconds);
}

TEST(IntegrationPageRank, AptOnlineEqualsOfflineOnRandomGraph) {
  auto g = GenerateRmat({.scale = 6, .avg_degree = 5, .seed = 23});
  ASSERT_TRUE(g.ok());
  Session session(&*g);
  PageRankOptions pr_options{.iterations = 6};
  QueryParams eps{{"eps", Value(0.01)}};

  auto apt_online = session.PrepareOnline(queries::Apt(), eps);
  ASSERT_TRUE(apt_online.ok());
  PageRankProgram pr1(pr_options);
  auto online = session.RunOnline(pr1, *apt_online);
  ASSERT_TRUE(online.ok()) << online.status().ToString();

  ProvenanceStore store;
  auto capture = session.PrepareOnline(queries::CaptureFull());
  ASSERT_TRUE(capture.ok());
  PageRankProgram pr2(pr_options);
  ASSERT_TRUE(session.Capture(pr2, *capture, &store).ok());

  auto apt_offline = session.PrepareOffline(queries::Apt(), store, eps);
  ASSERT_TRUE(apt_offline.ok());
  auto layered = session.RunOffline(&store, *apt_offline, EvalMode::kLayered);
  ASSERT_TRUE(layered.ok()) << layered.status().ToString();
  auto naive = session.RunOffline(&store, *apt_offline, EvalMode::kNaive);
  ASSERT_TRUE(naive.ok());

  for (const char* table :
       {"change", "neighbor-change", "no-execute", "safe", "unsafe"}) {
    EXPECT_EQ(TableStrings(online->query_result, table),
              TableStrings(layered->result, table))
        << table;
    EXPECT_EQ(TableStrings(layered->result, table),
              TableStrings(naive->result, table))
        << table;
  }
}

/// Sends a rogue message to vertex 0 (which has no in-edges on a chain):
/// the Giraph loophole paper Query 4 audits.
class SpoofProgram final : public VertexProgram<double, double> {
 public:
  double InitialValue(VertexId, const Graph&) const override { return 0; }
  void Compute(VertexContext<double, double>& ctx,
               std::span<const double> messages) override {
    if (ctx.superstep() == 0) ctx.SendMessage(0, 1.0);
    for (double m : messages) ctx.SetValue(ctx.value() + m);
    ctx.VoteToHalt();
  }
};

TEST(IntegrationMonitoring, InDegreeCheckFlagsSpoofedMessages) {
  auto g = GenerateChain(6);
  ASSERT_TRUE(g.ok());
  Session session(&*g);
  auto query = session.PrepareOnline(queries::PageRankInDegreeCheck());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  SpoofProgram spoof;
  auto run = session.RunOnline(spoof, *query);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // Vertex 0 has in-degree 0 and received 6 spoofed messages at step 1.
  EXPECT_EQ(run->query_result.TupleCount("check-failed"), 6u);
  for (const std::string& row :
       TableStrings(run->query_result, "check-failed")) {
    EXPECT_EQ(row.substr(0, 3), "(0,");
  }
}

TEST(IntegrationMonitoring, CleanSsspPassesChecks) {
  auto g = GenerateRmat({.scale = 6, .avg_degree = 6, .seed = 3});
  ASSERT_TRUE(g.ok());
  Session session(&*g);
  for (const std::string& text :
       {queries::MonotoneUpdateCheck(), queries::NoMessageNoChangeCheck()}) {
    auto query = session.PrepareOnline(text);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    SsspProgram sssp(0);
    auto run = session.RunOnline(sssp, *query, /*retention_window=*/2);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->query_result.TupleCount("check-failed"), 0u);
    EXPECT_EQ(run->query_result.TupleCount("problem"), 0u);
  }
}

/// A corrupted min-propagation: receiving a message *increases* the value,
/// which MonotoneUpdateCheck must flag.
class BuggyIncreaseProgram final : public VertexProgram<double, double> {
 public:
  double InitialValue(VertexId, const Graph&) const override { return 0.0; }
  void Compute(VertexContext<double, double>& ctx,
               std::span<const double> messages) override {
    if (ctx.superstep() == 0) {
      ctx.SendToAllOutNeighbors(1.0);
    } else if (!messages.empty()) {
      ctx.SetValue(ctx.value() + 1.0);  // bug: value grows on receive
    }
    ctx.VoteToHalt();
  }
};

TEST(IntegrationMonitoring, MonotoneCheckCatchesBuggyAnalytic) {
  auto g = GenerateChain(5);
  ASSERT_TRUE(g.ok());
  Session session(&*g);
  auto query = session.PrepareOnline(queries::MonotoneUpdateCheck());
  ASSERT_TRUE(query.ok());
  BuggyIncreaseProgram buggy;
  auto run = session.RunOnline(buggy, *query);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // Vertices 1..4 received a message at step 1 and increased their value.
  EXPECT_EQ(run->query_result.TupleCount("check-failed"), 4u);
}

// -------------------------------------------------------------------- ALS

TEST(IntegrationAls, RangeAuditFlagsCorruptRating) {
  // Tiny bipartite graph with one out-of-range rating (7.0).
  GraphBuilder builder;
  const VertexId num_users = 3;
  auto add_rating = [&](VertexId user, VertexId item, double rating) {
    builder.AddEdge(user, num_users + item, rating);
    builder.AddEdge(num_users + item, user, rating);
  };
  add_rating(0, 0, 4.0);
  add_rating(0, 1, 3.0);
  add_rating(1, 0, 2.0);
  add_rating(1, 1, 7.0);  // corrupt: outside [0, 5]
  add_rating(2, 0, 5.0);
  add_rating(2, 1, 1.0);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());

  Session session(&*g);
  auto audit = session.PrepareOnline(queries::AlsRangeAudit());
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  AlsOptions als_options;
  als_options.num_features = 2;
  als_options.max_iterations = 3;
  als_options.tolerance = 0;
  AlsProgram als(als_options, num_users);
  auto run = session.RunOnline(als, *audit);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // The corrupt edge produces input-failed facts at user 1 / item vertex 4.
  EXPECT_GT(run->query_result.TupleCount("input-failed"), 0u);
  for (const std::string& row :
       TableStrings(run->query_result, "input-failed")) {
    EXPECT_TRUE(row.substr(0, 3) == "(1," || row.substr(0, 3) == "(4,")
        << row;
  }
  EXPECT_GT(run->query_result.TupleCount("prov-error"), 0u);
}

TEST(IntegrationAls, ErrorIncreaseQueryRuns) {
  auto ratings = GenerateBipartiteRatings(
      {.num_users = 40, .num_items = 15, .ratings_per_user = 6});
  ASSERT_TRUE(ratings.ok());
  Session session(&ratings->graph);
  auto query = session.PrepareOnline(queries::AlsErrorIncrease(),
                                     {{"eps", Value(0.0)}});
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  AlsOptions als_options;
  als_options.max_iterations = 3;
  als_options.tolerance = 0;
  AlsProgram als(als_options, ratings->num_users);
  auto run = session.RunOnline(als, *query);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // avg-error exists for every solving vertex-superstep.
  EXPECT_GT(run->query_result.TupleCount("avg-error"), 0u);
}

// ------------------------------------------------------------- mode rules

TEST(IntegrationModes, BackwardQueryRejectedOnline) {
  auto g = GenerateChain(4);
  ASSERT_TRUE(g.ok());
  Session session(&*g);
  ProvenanceStore store;
  auto capture = session.PrepareOnline(queries::CaptureFull());
  ASSERT_TRUE(capture.ok());
  SsspProgram sssp(0);
  ASSERT_TRUE(session.Capture(sssp, *capture, &store).ok());

  auto q10 = session.PrepareOffline(
      queries::BackwardLineageFull(), store,
      {{"alpha", Value(int64_t{3})}, {"sigma", Value(int64_t{3})}});
  ASSERT_TRUE(q10.ok());
  SsspProgram sssp2(0);
  auto run = session.RunOnline(sssp2, *q10);
  EXPECT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsInvalidArgument());
}

/// Full capture of a 2-iteration PageRank (3 layers) over `graph`.
Status CaptureTwoIterations(Session& session, ProvenanceStore* store) {
  auto capture = session.PrepareOnline(queries::CaptureFull());
  if (!capture.ok()) return capture.status();
  PageRankProgram pagerank({.iterations = 2});
  return session.Capture(pagerank, *capture, store).status();
}

TEST(IntegrationNaive, ReachabilityRunsPastOneRoundPerLayer) {
  // Reachability along message edges needs one round per chain vertex,
  // far more rounds than the store has layers; naive must run the stratum
  // to its fixpoint instead of stopping at a layer-derived cap.
  auto g = GenerateChain(100);
  ASSERT_TRUE(g.ok());
  Session session(&*g);
  ProvenanceStore store;
  ASSERT_TRUE(CaptureTwoIterations(session, &store).ok());
  ASSERT_EQ(store.num_layers(), 3);
  auto query = session.PrepareOffline(
      "reach(x) <- superstep(x, i), x = 0, i = 0.\n"
      "reach(x) <- receive-message(x, y, _m, _i), reach(y).",
      store);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto naive = session.RunOffline(&store, *query, EvalMode::kNaive);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(naive->result.TupleCount("reach"), 100u);
  EXPECT_GT(naive->stats.supersteps, 100);
}

TEST(IntegrationNaive, NonConvergentQueryIsAnErrorNotATruncatedAnswer) {
  // Counting hops around a cycle derives a new tuple every round forever.
  auto g = GenerateCycle(8);
  ASSERT_TRUE(g.ok());
  Session session(&*g);
  ProvenanceStore store;
  ASSERT_TRUE(CaptureTwoIterations(session, &store).ok());
  auto query = session.PrepareOffline(
      "c(x, n) <- superstep(x, i), x = 0, i = 0, n = 0.\n"
      "c(x, n) <- receive-message(x, y, _m, _i), c(y, k), n = k + 1.",
      store);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto naive = session.RunOffline(&store, *query, EvalMode::kNaive);
  ASSERT_FALSE(naive.ok()) << naive->result.TupleCount("c") << " tuples";
  EXPECT_TRUE(naive.status().IsUnsupported()) << naive.status().ToString();
  EXPECT_NE(naive.status().message().find("stratum 0"), std::string::npos)
      << naive.status().ToString();
  // Guard: 8 vertices + 2 * 3 layers + 4.
  EXPECT_NE(naive.status().message().find("after 18 rounds"),
            std::string::npos)
      << naive.status().ToString();
}

TEST(IntegrationModes, ForwardQueryAllowedEverywhereBackwardOnlyLayered) {
  auto forward = ParseProgram("p(x, i) <- receive-message(x, y, m, i).");
  ASSERT_TRUE(forward.ok());
  auto fq = Analyze(*forward, Catalog::Default(), UdfRegistry::Default());
  ASSERT_TRUE(fq.ok());
  EXPECT_TRUE(ValidateMode(*fq, EvalMode::kOnline).ok());
  EXPECT_TRUE(ValidateMode(*fq, EvalMode::kLayered).ok());
  EXPECT_TRUE(ValidateMode(*fq, EvalMode::kNaive).ok());
}

}  // namespace
}  // namespace ariadne
