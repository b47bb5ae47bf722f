// Property-based (parameterized) tests of the system-level invariants
// listed in DESIGN.md §6, swept across analytics, graph families, seeds
// and queries.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <type_traits>

#include "common/random.h"
#include "core/ariadne.h"

namespace ariadne {
namespace {

// --------------------------------------------------------------- helpers

enum class GraphKind { kRmat, kErdos, kGrid, kStar, kChain, kCycle };

const char* GraphKindName(GraphKind kind) {
  switch (kind) {
    case GraphKind::kRmat:
      return "rmat";
    case GraphKind::kErdos:
      return "erdos";
    case GraphKind::kGrid:
      return "grid";
    case GraphKind::kStar:
      return "star";
    case GraphKind::kChain:
      return "chain";
    case GraphKind::kCycle:
      return "cycle";
  }
  return "?";
}

Result<Graph> MakeGraph(GraphKind kind, uint64_t seed) {
  switch (kind) {
    case GraphKind::kRmat:
      return GenerateRmat({.scale = 7, .avg_degree = 5, .seed = seed});
    case GraphKind::kErdos:
      return GenerateErdosRenyi(120, 500, seed);
    case GraphKind::kGrid:
      return GenerateGrid(8, 12);
    case GraphKind::kStar:
      return GenerateStar(64);
    case GraphKind::kChain:
      return GenerateChain(48);
    case GraphKind::kCycle:
      return GenerateCycle(48);
  }
  return Status::Internal("unknown graph kind");
}

enum class Analytic { kPageRank, kSssp, kWcc };

const char* AnalyticName(Analytic a) {
  switch (a) {
    case Analytic::kPageRank:
      return "pagerank";
    case Analytic::kSssp:
      return "sssp";
    case Analytic::kWcc:
      return "wcc";
  }
  return "?";
}

/// Runs `fn(program)` with the analytic for `a` (fresh program instance).
template <typename Fn>
Status WithAnalytic(Analytic a, Fn&& fn) {
  switch (a) {
    case Analytic::kPageRank: {
      PageRankProgram program({.iterations = 6});
      return fn(program);
    }
    case Analytic::kSssp: {
      SsspProgram program(/*source=*/0);
      return fn(program);
    }
    case Analytic::kWcc: {
      WccProgram program;
      return fn(program);
    }
  }
  return Status::Internal("unknown analytic");
}

std::vector<std::string> TableStrings(const QueryResult& result,
                                      const std::string& name) {
  const Relation* rel = result.Table(name);
  return rel == nullptr ? std::vector<std::string>{} : rel->ToSortedStrings();
}

double AptEps(Analytic a) {
  switch (a) {
    case Analytic::kPageRank:
      return 0.01;
    case Analytic::kSssp:
      return 0.1;
    case Analytic::kWcc:
      return 1.0;
  }
  return 0;
}

// ------------------------- Theorem 5.4 / mode equivalence, swept broadly

using EquivalenceParam = std::tuple<Analytic, GraphKind, uint64_t>;

class ModeEquivalenceTest : public testing::TestWithParam<EquivalenceParam> {};

TEST_P(ModeEquivalenceTest, AptAgreesAcrossOnlineLayeredNaive) {
  const auto [analytic, graph_kind, seed] = GetParam();
  auto graph = MakeGraph(graph_kind, seed);
  ASSERT_TRUE(graph.ok());
  Session session(&*graph);
  const QueryParams eps{{"eps", Value(AptEps(analytic))}};

  auto apt_online = session.PrepareOnline(queries::Apt(), eps);
  ASSERT_TRUE(apt_online.ok()) << apt_online.status().ToString();
  QueryResult online;
  ASSERT_TRUE(WithAnalytic(analytic, [&](auto& program) -> Status {
                auto run = session.RunOnline(program, *apt_online);
                if (!run.ok()) return run.status();
                online = std::move(run->query_result);
                return Status::OK();
              }).ok());

  ProvenanceStore store;
  auto capture = session.PrepareOnline(queries::CaptureFull());
  ASSERT_TRUE(capture.ok());
  ASSERT_TRUE(WithAnalytic(analytic, [&](auto& program) -> Status {
                return session.Capture(program, *capture, &store).status();
              }).ok());

  auto apt_offline = session.PrepareOffline(queries::Apt(), store, eps);
  ASSERT_TRUE(apt_offline.ok()) << apt_offline.status().ToString();
  auto layered = session.RunOffline(&store, *apt_offline, EvalMode::kLayered);
  ASSERT_TRUE(layered.ok()) << layered.status().ToString();
  auto naive = session.RunOffline(&store, *apt_offline, EvalMode::kNaive);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();

  for (const char* table :
       {"change", "neighbor-change", "no-execute", "safe", "unsafe"}) {
    EXPECT_EQ(TableStrings(online, table),
              TableStrings(layered->result, table))
        << table << " online vs layered";
    EXPECT_EQ(TableStrings(layered->result, table),
              TableStrings(naive->result, table))
        << table << " layered vs naive";
  }
  // Lemma 5.3 for the layered run.
  EXPECT_LE(layered->stats.supersteps, store.num_layers());
}

// Query 3 from vertex 1, which is not SSSP's source: it stays idle at
// superstep 0, so its lineage rows wait until it first sends, online and
// layered alike. (Naive may differ: it also accepts a sender's lineage
// acquired at a later superstep.)
TEST_P(ModeEquivalenceTest, ForwardLineageAgreesOnlineAndLayered) {
  const auto [analytic, graph_kind, seed] = GetParam();
  auto graph = MakeGraph(graph_kind, seed);
  ASSERT_TRUE(graph.ok());
  Session session(&*graph);
  const QueryParams alpha{{"alpha", Value(int64_t{1})}};

  auto fwd_online = session.PrepareOnline(queries::CaptureForwardLineage(),
                                          alpha);
  ASSERT_TRUE(fwd_online.ok()) << fwd_online.status().ToString();
  QueryResult online;
  ASSERT_TRUE(WithAnalytic(analytic, [&](auto& program) -> Status {
                auto run = session.RunOnline(program, *fwd_online);
                if (!run.ok()) return run.status();
                online = std::move(run->query_result);
                return Status::OK();
              }).ok());

  ProvenanceStore store;
  auto capture = session.PrepareOnline(queries::CaptureFull());
  ASSERT_TRUE(capture.ok());
  ASSERT_TRUE(WithAnalytic(analytic, [&](auto& program) -> Status {
                return session.Capture(program, *capture, &store).status();
              }).ok());
  auto fwd_offline = session.PrepareOffline(queries::CaptureForwardLineage(),
                                            store, alpha);
  ASSERT_TRUE(fwd_offline.ok()) << fwd_offline.status().ToString();
  auto layered = session.RunOffline(&store, *fwd_offline, EvalMode::kLayered);
  ASSERT_TRUE(layered.ok()) << layered.status().ToString();

  const std::vector<std::string> rows = TableStrings(online, "fwd-lineage");
  EXPECT_FALSE(rows.empty());
  EXPECT_EQ(rows, TableStrings(layered->result, "fwd-lineage"));
}

// A forward query whose remote atom reads an EDB: the sender ships its
// own value rows, which the receiver holds next to its own value facts.
TEST_P(ModeEquivalenceTest, RemoteEdbAtomAgreesOnlineAndLayered) {
  const auto [analytic, graph_kind, seed] = GetParam();
  auto graph = MakeGraph(graph_kind, seed);
  ASSERT_TRUE(graph.ok());
  Session session(&*graph);
  const std::string text =
      "r(x, d, i) <- receive-message(x, y, _m, i), value(y, d, j), "
      "j = i - 1.";

  auto r_online = session.PrepareOnline(text);
  ASSERT_TRUE(r_online.ok()) << r_online.status().ToString();
  QueryResult online;
  ASSERT_TRUE(WithAnalytic(analytic, [&](auto& program) -> Status {
                auto run = session.RunOnline(program, *r_online);
                if (!run.ok()) return run.status();
                online = std::move(run->query_result);
                return Status::OK();
              }).ok());

  ProvenanceStore store;
  auto capture = session.PrepareOnline(queries::CaptureFull());
  ASSERT_TRUE(capture.ok());
  ASSERT_TRUE(WithAnalytic(analytic, [&](auto& program) -> Status {
                return session.Capture(program, *capture, &store).status();
              }).ok());
  auto r_offline = session.PrepareOffline(text, store);
  ASSERT_TRUE(r_offline.ok()) << r_offline.status().ToString();
  auto layered = session.RunOffline(&store, *r_offline, EvalMode::kLayered);
  ASSERT_TRUE(layered.ok()) << layered.status().ToString();

  const std::vector<std::string> rows = TableStrings(online, "r");
  EXPECT_FALSE(rows.empty());
  EXPECT_EQ(rows, TableStrings(layered->result, "r"));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModeEquivalenceTest,
    testing::Combine(testing::Values(Analytic::kPageRank, Analytic::kSssp,
                                     Analytic::kWcc),
                     testing::Values(GraphKind::kRmat, GraphKind::kErdos,
                                     GraphKind::kGrid, GraphKind::kStar,
                                     GraphKind::kChain),
                     testing::Values(uint64_t{1}, uint64_t{7})),
    [](const testing::TestParamInfo<EquivalenceParam>& info) {
      return std::string(AnalyticName(std::get<0>(info.param))) + "_" +
             GraphKindName(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

// --------------------------------- analytic non-interference (Thm 5.4 i)

using InterferenceParam = std::tuple<Analytic, uint64_t>;

class NonInterferenceTest : public testing::TestWithParam<InterferenceParam> {
};

TEST_P(NonInterferenceTest, OnlineRunLeavesAnalyticBitIdentical) {
  const auto [analytic, seed] = GetParam();
  auto graph = MakeGraph(GraphKind::kRmat, seed);
  ASSERT_TRUE(graph.ok());
  Session session(&*graph);
  auto query = session.PrepareOnline(queries::NoMessageNoChangeCheck());
  ASSERT_TRUE(query.ok());

  auto check = [&](auto& baseline_program, auto& wrapped_program) {
    using V =
        typename std::remove_reference_t<decltype(baseline_program)>::ValueType;
    std::vector<V> baseline_values, online_values;
    auto baseline_stats =
        session.RunBaseline(baseline_program, &baseline_values);
    ASSERT_TRUE(baseline_stats.ok());
    auto online = session.RunOnline(wrapped_program, *query,
                                    /*retention_window=*/2, &online_values);
    ASSERT_TRUE(online.ok()) << online.status().ToString();
    EXPECT_EQ(baseline_values, online_values);
    EXPECT_EQ(baseline_stats->supersteps, online->engine_stats.supersteps);
    EXPECT_EQ(baseline_stats->total_messages,
              online->engine_stats.total_messages);
    EXPECT_EQ(baseline_stats->total_active,
              online->engine_stats.total_active);
  };
  switch (analytic) {
    case Analytic::kPageRank: {
      PageRankProgram a({.iterations = 6}), b({.iterations = 6});
      check(a, b);
      break;
    }
    case Analytic::kSssp: {
      SsspProgram a(0), b(0);
      check(a, b);
      break;
    }
    case Analytic::kWcc: {
      WccProgram a, b;
      check(a, b);
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NonInterferenceTest,
    testing::Combine(testing::Values(Analytic::kPageRank, Analytic::kSssp,
                                     Analytic::kWcc),
                     testing::Values(uint64_t{3}, uint64_t{11}, uint64_t{29})),
    [](const testing::TestParamInfo<InterferenceParam>& info) {
      return std::string(AnalyticName(std::get<0>(info.param))) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------- capture completeness sweep

using CaptureParam = std::tuple<Analytic, GraphKind>;

class CaptureCompletenessTest : public testing::TestWithParam<CaptureParam> {};

TEST_P(CaptureCompletenessTest, StoreAccountsForEveryEventTheEngineSaw) {
  const auto [analytic, graph_kind] = GetParam();
  auto graph = MakeGraph(graph_kind, 5);
  ASSERT_TRUE(graph.ok());
  Session session(&*graph);
  auto capture = session.PrepareOnline(queries::CaptureFull());
  ASSERT_TRUE(capture.ok());

  ProvenanceStore store;
  RunStats stats;
  ASSERT_TRUE(WithAnalytic(analytic, [&](auto& program) -> Status {
                auto run = session.Capture(program, *capture, &store);
                if (!run.ok()) return run.status();
                stats = *run;
                return Status::OK();
              }).ok());

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

  // One value / superstep fact per (vertex, active superstep).
  EXPECT_EQ(count("value"), stats.total_active);
  EXPECT_EQ(count("superstep"), stats.total_active);
  // Every send is recorded; every delivered message is received (all of
  // these analytics only message real vertices). Provenance relations are
  // sets, so WCC's duplicate identical sends (same label via both
  // adjacency directions of a reciprocal edge) collapse to one fact.
  const auto [analytic_kind, graph_kind_unused] = GetParam();
  (void)graph_kind_unused;
  if (analytic_kind == Analytic::kWcc) {
    EXPECT_LE(count("send-message"), stats.total_messages);
    EXPECT_GE(count("send-message"), stats.total_messages / 2);
    EXPECT_EQ(count("receive-message"), count("send-message"));
  } else {
    EXPECT_EQ(count("send-message"), stats.total_messages);
    EXPECT_EQ(count("receive-message"), stats.total_messages);
  }
  // Evolution edges: one per re-activation.
  std::set<VertexId> active_vertices;
  const int superstep_rel = store.RelId("superstep");
  for (int s = 0; s < store.num_layers(); ++s) {
    const auto layer = *store.GetLayerRelations(s, {});
    for (const auto& slice : layer->slices) {
      if (slice.rel == superstep_rel) active_vertices.insert(slice.vertex);
    }
  }
  EXPECT_EQ(count("evolution"),
            stats.total_active -
                static_cast<int64_t>(active_vertices.size()));
  EXPECT_EQ(store.num_layers(), stats.supersteps);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CaptureCompletenessTest,
    testing::Combine(testing::Values(Analytic::kPageRank, Analytic::kSssp,
                                     Analytic::kWcc),
                     testing::Values(GraphKind::kRmat, GraphKind::kGrid,
                                     GraphKind::kCycle)),
    [](const testing::TestParamInfo<CaptureParam>& info) {
      return std::string(AnalyticName(std::get<0>(info.param))) + "_" +
             GraphKindName(std::get<1>(info.param));
    });

// ----------------------------------- retention windows preserve results

class RetentionTest : public testing::TestWithParam<int> {};

TEST_P(RetentionTest, WindowedAptMatchesUnlimited) {
  const int window = GetParam();
  auto graph = MakeGraph(GraphKind::kRmat, 13);
  ASSERT_TRUE(graph.ok());
  Session session(&*graph);
  auto apt = session.PrepareOnline(queries::Apt(), {{"eps", Value(0.01)}});
  ASSERT_TRUE(apt.ok());

  PageRankProgram unlimited_program({.iterations = 6});
  auto unlimited = session.RunOnline(unlimited_program, *apt, 0);
  ASSERT_TRUE(unlimited.ok());
  PageRankProgram windowed_program({.iterations = 6});
  auto windowed = session.RunOnline(windowed_program, *apt, window);
  ASSERT_TRUE(windowed.ok());
  for (const char* table : {"no-execute", "safe", "unsafe"}) {
    EXPECT_EQ(TableStrings(unlimited->query_result, table),
              TableStrings(windowed->query_result, table))
        << table << " window=" << window;
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, RetentionTest, testing::Values(2, 3, 5));

// ----------------------------------------- store round-trips, randomized

class StoreRoundTripTest : public testing::TestWithParam<uint64_t> {};

TEST_P(StoreRoundTripTest, SaveLoadAndSpillPreserveRandomContents) {
  Rng rng(GetParam());
  ProvenanceStore store;
  const int rel_a = store.AddRelation("a", 3);
  const int rel_b = store.AddRelation("b", 2);
  auto random_value = [&]() -> Value {
    switch (rng.NextUInt(4)) {
      case 0:
        return Value(static_cast<int64_t>(rng.NextUInt(1000)));
      case 1:
        return Value(rng.NextDouble());
      case 2:
        return Value("s" + std::to_string(rng.NextUInt(50)));
      default: {
        std::vector<double> v(rng.NextUInt(4) + 1);
        for (auto& x : v) x = rng.NextDouble();
        return Value(std::move(v));
      }
    }
  };
  const int n_layers = 3 + static_cast<int>(rng.NextUInt(4));
  for (Superstep s = 0; s < n_layers; ++s) {
    Layer layer;
    layer.step = s;
    const int n_slices = 1 + static_cast<int>(rng.NextUInt(5));
    for (int i = 0; i < n_slices; ++i) {
      const int rel = rng.NextBool(0.5) ? rel_a : rel_b;
      const int arity = rel == rel_a ? 3 : 2;
      std::vector<Tuple> tuples;
      const int n_tuples = 1 + static_cast<int>(rng.NextUInt(6));
      for (int t = 0; t < n_tuples; ++t) {
        Tuple tuple;
        for (int c = 0; c < arity; ++c) tuple.push_back(random_value());
        tuples.push_back(std::move(tuple));
      }
      layer.Add(rel, static_cast<VertexId>(rng.NextUInt(64)),
                std::move(tuples));
    }
    ASSERT_TRUE(store.AppendLayer(std::move(layer)).ok());
  }

  auto dump = [](ProvenanceStore& s) {
    std::vector<std::string> out;
    for (int i = 0; i < s.num_layers(); ++i) {
      const auto layer = *s.GetLayerRelations(i, {});
      for (const auto& slice : layer->slices) {
        for (const Tuple& t : slice.tuples) {
          out.push_back(std::to_string(slice.rel) + "@" +
                        std::to_string(slice.vertex) + TupleToString(t));
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto original = dump(store);
  const size_t original_bytes = store.TotalBytes();

  // File round trip.
  const std::string path = testing::TempDir() + "/prop_store_" +
                           std::to_string(GetParam()) + ".bin";
  ASSERT_TRUE(store.SaveToFile(path).ok());
  auto loaded = ProvenanceStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(dump(*loaded), original);
  EXPECT_EQ(loaded->TotalBytes(), original_bytes);

  // Spill round trip.
  ASSERT_TRUE(store.EnableSpill(testing::TempDir(), 1).ok());
  EXPECT_GT(store.SpilledLayerCount(), 0);
  EXPECT_EQ(dump(store), original);
  EXPECT_EQ(store.TotalBytes(), original_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreRoundTripTest,
                         testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3}, uint64_t{4}));

// ----------------------------------------------- parser robustness sweep

class ParserRobustnessTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ParserRobustnessTest, RandomTokenSoupNeverCrashes) {
  Rng rng(GetParam());
  static const char* kPieces[] = {"a",  "foo-bar", "(",  ")", ",", ".",
                                  "<-", "!",       "=",  "<", ">", "$p",
                                  "1",  "2.5",     "\"s\"", "+", "-", "COUNT"};
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    const int n = 1 + static_cast<int>(rng.NextUInt(24));
    for (int i = 0; i < n; ++i) {
      text += kPieces[rng.NextUInt(std::size(kPieces))];
      text += " ";
    }
    auto program = ParseProgram(text);  // must not crash; errors are fine
    if (program.ok()) {
      // Whatever parsed must print and re-parse consistently.
      auto reparsed = ParseProgram(program->ToString());
      ASSERT_TRUE(reparsed.ok()) << program->ToString();
      EXPECT_EQ(program->ToString(), reparsed->ToString());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustnessTest,
                         testing::Values(uint64_t{10}, uint64_t{20},
                                         uint64_t{30}));

// ------------------------------------ backward trace = reverse reachability

class BackwardTraceTest : public testing::TestWithParam<uint64_t> {};

TEST_P(BackwardTraceTest, TraceEqualsReverseReachabilityOverSends) {
  auto graph = MakeGraph(GraphKind::kRmat, GetParam());
  ASSERT_TRUE(graph.ok());
  Session session(&*graph);
  ProvenanceStore store;
  auto capture = session.PrepareOnline(queries::CaptureFull());
  ASSERT_TRUE(capture.ok());
  SsspProgram sssp(0);
  ASSERT_TRUE(session.Capture(sssp, *capture, &store).ok());

  // Seed: any vertex active in the last layer.
  const int superstep_rel = store.RelId("superstep");
  VertexId alpha = -1;
  Superstep sigma = store.num_layers() - 1;
  {
    const auto last = *store.GetLayerRelations(sigma, {});
    for (const auto& slice : last->slices) {
      if (slice.rel == superstep_rel) {
        alpha = slice.vertex;
        break;
      }
    }
  }
  ASSERT_GE(alpha, 0);

  auto q10 = session.PrepareOffline(
      queries::BackwardLineageFull(), store,
      {{"alpha", Value(static_cast<int64_t>(alpha))},
       {"sigma", Value(static_cast<int64_t>(sigma))}});
  ASSERT_TRUE(q10.ok());
  auto run = session.RunOffline(&store, *q10, EvalMode::kLayered);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // Reference: reverse BFS over the recorded send-message records.
  // reached[(x, i)] iff x sent a message at superstep i that leads to the
  // seed, or (x, i) is the seed.
  std::set<std::pair<VertexId, Superstep>> reference;
  reference.insert({alpha, sigma});
  const int send_rel = store.RelId("send-message");
  // send records grouped per receive step: sent at i, received at i+1.
  std::map<Superstep, std::vector<std::pair<VertexId, VertexId>>> sends;
  for (int s = 0; s < store.num_layers(); ++s) {
    const auto layer = *store.GetLayerRelations(s, {});
    for (const auto& slice : layer->slices) {
      if (slice.rel != send_rel) continue;
      for (const Tuple& t : slice.tuples) {
        sends[layer->step].emplace_back(t[0].AsInt(), t[1].AsInt());
      }
    }
  }
  for (Superstep i = sigma - 1; i >= 0; --i) {
    for (const auto& [src, dst] : sends[i]) {
      if (reference.count({dst, i + 1}) > 0) reference.insert({src, i});
    }
  }

  const Relation* trace = run->result.Table("back-trace");
  ASSERT_NE(trace, nullptr);
  std::set<std::pair<VertexId, Superstep>> traced;
  for (size_t i = 0; i < trace->size(); ++i) {
    const Relation::RowView t = trace->row_view(i);
    traced.insert({t.AsInt(0), static_cast<Superstep>(t.AsInt(1))});
  }
  EXPECT_EQ(traced, reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackwardTraceTest,
                         testing::Values(uint64_t{2}, uint64_t{9},
                                         uint64_t{17}));

}  // namespace
}  // namespace ariadne
