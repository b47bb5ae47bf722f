// Join-planning determinism (DESIGN.md §2.3): cost-ordered literal plans
// and probe keys on every bound column (offset keys included) are pure
// performance devices — for every query and every evaluation mode the
// derived tables must be byte-identical with planning on and off. Also
// regression-covers recursive rules whose head relation grows (and
// rehashes its indexes) while a probe over that same relation is being
// walked.

#include <gtest/gtest.h>

#include <map>

#include "core/ariadne.h"

namespace ariadne {
namespace {

Value I(int64_t v) { return Value(v); }

AnalyzedQuery MustAnalyze(const std::string& text, const StoreSchema* store,
                          bool plan_joins) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  AnalyzeOptions options;
  options.plan_joins = plan_joins;
  auto q = Analyze(*program, Catalog::Default(), UdfRegistry::Default(),
                   store, options);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

/// Every table of `result`, dumped as sorted "name(row)" strings.
std::vector<std::string> DumpResult(const QueryResult& result) {
  std::vector<std::string> out;
  for (const std::string& name : result.TableNames()) {
    const Relation* rel = result.Table(name);
    if (rel == nullptr) continue;
    for (const std::string& row : rel->ToSortedStrings()) {
      out.push_back(name + row);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> DumpDatabase(const AnalyzedQuery& q, Database& db) {
  QueryResult result;
  result.Merge(q, db);
  return DumpResult(result);
}

// ------------------------------------------------------- direct evaluator

/// A 200-link chain closed in ONE Evaluate call: the recursive rule's
/// probe walks a bucket of the head relation while Derive() keeps growing
/// (and re-indexing) that same relation. The candidate list must be
/// snapshotted per plan position, or iteration invalidates mid-walk.
TEST(PlanningRegression, RecursiveHeadGrowsDuringProbe) {
  for (bool plan : {true, false}) {
    StoreSchema schema{{{"link", 2}}};
    AnalyzedQuery q = MustAnalyze(R"(
      reach(x, y) <- link(x, y).
      reach(x, z) <- reach(x, y), link(y, z).
    )",
                                  &schema, plan);
    Database db(&q);
    EvalContext ctx;
    ctx.db = &db;
    RuleEvaluator eval(&q);
    const int64_t n = 200;
    for (int64_t i = 0; i < n; ++i) {
      db.Rel(q.PredId("link")).Insert({I(i), I(i + 1)});
    }
    ASSERT_TRUE(eval.Evaluate(ctx).ok());
    // Closure of a chain of n+1 nodes: (n+1 choose 2) pairs.
    EXPECT_EQ(db.RelIfExists(q.PredId("reach"))->size(),
              static_cast<size_t>((n + 1) * n / 2))
        << "plan=" << plan;
    EXPECT_TRUE(db.RelIfExists(q.PredId("reach"))->Contains({I(0), I(n)}));
  }
}

/// Non-linear recursion: BOTH body literals probe the head relation, so
/// two plan positions iterate buckets of the relation being inserted
/// into. Guards against any shared/member snapshot buffer being clobbered
/// by the inner position while the outer one is mid-iteration.
TEST(PlanningRegression, NonLinearRecursionBothLiteralsProbeHead) {
  for (bool plan : {true, false}) {
    StoreSchema schema{{{"link", 2}}};
    AnalyzedQuery q = MustAnalyze(R"(
      path(x, y) <- link(x, y).
      path(x, z) <- path(x, y), path(y, z).
    )",
                                  &schema, plan);
    Database db(&q);
    EvalContext ctx;
    ctx.db = &db;
    RuleEvaluator eval(&q);
    const int64_t n = 60;
    for (int64_t i = 0; i < n; ++i) {
      db.Rel(q.PredId("link")).Insert({I(i), I(i + 1)});
    }
    ASSERT_TRUE(eval.Evaluate(ctx).ok());
    EXPECT_EQ(db.RelIfExists(q.PredId("path"))->size(),
              static_cast<size_t>((n + 1) * n / 2))
        << "plan=" << plan;
  }
}

/// Multi-literal joins over skewed relations: the planned probe keys hop
/// on both of its bound columns, the legacy one on the first evaluable
/// column alone, and the fixpoints must still agree byte for byte.
TEST(PlanningDeterminism, SkewedJoinPlannedMatchesUnplanned) {
  const std::string text = R"(
    reach(s, x) <- src(s, x).
    reach(s, y) <- reach(s, x), label(x, c), hop(c, x, y).
  )";
  StoreSchema schema{{{"src", 2}, {"label", 2}, {"hop", 3}}};
  std::vector<std::string> dumps[2];
  int di = 0;
  for (bool plan : {true, false}) {
    AnalyzedQuery q = MustAnalyze(text, &schema, plan);
    Database db(&q);
    EvalContext ctx;
    ctx.db = &db;
    RuleEvaluator eval(&q);
    // 40 vertices, 2 labels, fan-out 6: the hop bucket keyed on the label
    // column is ~20x the bucket keyed on the source vertex.
    const int64_t n = 40, labels = 2, fanout = 6;
    db.Rel(q.PredId("src")).Insert({I(0), I(0)});
    for (int64_t x = 0; x < n; ++x) {
      db.Rel(q.PredId("label")).Insert({I(x), I(x % labels)});
      for (int64_t k = 1; k <= fanout; ++k) {
        db.Rel(q.PredId("hop")).Insert({I(x % labels), I(x),
                                        I((x + k) % n)});
      }
    }
    ASSERT_TRUE(eval.Evaluate(ctx).ok());
    dumps[di++] = DumpDatabase(q, db);
  }
  ASSERT_FALSE(dumps[0].empty());
  EXPECT_EQ(dumps[0], dumps[1]);
}

/// An offset key stands for a numeric equality, which compares through
/// doubles: from 2^53 on, distinct ints compare equal (2^53 + 1 rounds to
/// 2^53), so there the planned probe must not key on one exact int.
TEST(PlanningDeterminism, OffsetKeysKeepNumericEquality) {
  const std::string text = R"(
    out(x, i) <- cur(y, j), link(x, i), j = i + 1.
  )";
  StoreSchema schema{{{"cur", 2}, {"link", 2}}};
  const int64_t big = int64_t{1} << 53;
  std::vector<std::string> dumps[2];
  int di = 0;
  for (bool plan : {true, false}) {
    AnalyzedQuery q = MustAnalyze(text, &schema, plan);
    Database db(&q);
    EvalContext ctx;
    ctx.db = &db;
    RuleEvaluator eval(&q);
    db.Rel(q.PredId("cur")).Insert({I(0), I(big)});
    db.Rel(q.PredId("cur")).Insert({I(0), I(7)});
    for (int64_t i : {big, big - 1, int64_t{6}, int64_t{5}}) {
      db.Rel(q.PredId("link")).Insert({I(i % 4), I(i)});
    }
    ASSERT_TRUE(eval.Evaluate(ctx).ok());
    dumps[di++] = DumpDatabase(q, db);
  }
  // 2^53 - 1 and 2^53 both match 2^53; 6 matches 7.
  EXPECT_EQ(dumps[0].size(), 3u);
  EXPECT_EQ(dumps[0], dumps[1]);
}

// --------------------------------------------------------- session modes

class PlanningModesFixture : public testing::Test {
 protected:
  void SetUp() override {
    auto g = GenerateChain(6);
    ASSERT_TRUE(g.ok());
    graph_ = std::move(g).value();
  }

  Session MakeSession(bool plan) {
    SessionOptions options;
    options.plan_joins = plan;
    return Session(&graph_, options);
  }

  Graph graph_;
};

/// Every paper query runnable online: plan on/off byte-identical tables.
TEST_F(PlanningModesFixture, OnlinePlanOnOffByteIdentical) {
  struct Case {
    const char* name;
    std::string text;
    QueryParams params;
  };
  const std::vector<Case> cases = {
      {"apt", queries::Apt(), {{"eps", Value(0.1)}}},
      {"q4", queries::PageRankInDegreeCheck(), {}},
      {"q5", queries::MonotoneUpdateCheck(), {}},
      {"q6", queries::NoMessageNoChangeCheck(), {}},
  };
  for (const Case& c : cases) {
    std::vector<std::string> dumps[2];
    int di = 0;
    for (bool plan : {true, false}) {
      Session session = MakeSession(plan);
      auto query = session.PrepareOnline(c.text, c.params);
      ASSERT_TRUE(query.ok()) << c.name << ": " << query.status().ToString();
      SsspProgram sssp(0);
      auto run = session.RunOnline(sssp, *query, /*retention_window=*/2);
      ASSERT_TRUE(run.ok()) << c.name << ": " << run.status().ToString();
      dumps[di++] = DumpResult(run->query_result);
    }
    EXPECT_EQ(dumps[0], dumps[1]) << c.name;
  }
}

/// Offline layered and naive: plan on/off byte-identical tables, for a
/// forward query (apt), a backward one (query 10), query 12 over its
/// custom capture (offset keys on two stored relations), and query 12
/// over a capture whose offset column mixes ints and doubles.
TEST_F(PlanningModesFixture, OfflinePlanOnOffByteIdentical) {
  // Capture once per program (the fast-capture path does not involve the
  // planner).
  auto capture = [&](const std::string& text, ProvenanceStore* store) {
    Session session = MakeSession(true);
    auto program = session.PrepareOnline(text);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    SsspProgram sssp(0);
    ASSERT_TRUE(session.Capture(sssp, *program, store).ok());
  };
  ProvenanceStore full, custom, mixed;
  capture(queries::CaptureFull(), &full);
  capture(queries::CaptureCustomBackward(), &custom);
  // prov-send's superstep column also holds each vertex's distance, a
  // double: 2.0 next to the superstep 2. `j = i + 1` accepts both, so the
  // planned probe cannot key on the int i = j - 1 there.
  capture(queries::CaptureCustomBackward() +
              "prov-send(x, d) <- value(x, d, i), superstep(x, i).\n",
          &mixed);
  struct Case {
    const char* name;
    const ProvenanceStore* store;
    std::string text;
    QueryParams params;
  };
  const QueryParams trace_params = {{"alpha", Value(int64_t{5})},
                                    {"sigma", Value(int64_t{5})}};
  const std::vector<Case> cases = {
      {"apt", &full, queries::Apt(), {{"eps", Value(0.1)}}},
      {"q10", &full, queries::BackwardLineageFull(), trace_params},
      {"q12", &custom, queries::BackwardLineageCustom(), trace_params},
      {"q12-mixed", &mixed, queries::BackwardLineageCustom(), trace_params},
  };
  std::map<std::string, size_t> rows;
  for (const Case& c : cases) {
    for (EvalMode mode : {EvalMode::kLayered, EvalMode::kNaive}) {
      std::vector<std::string> dumps[2];
      int di = 0;
      for (bool plan : {true, false}) {
        Session session = MakeSession(plan);
        auto query = session.PrepareOffline(c.text, *c.store, c.params);
        ASSERT_TRUE(query.ok()) << c.name << ": "
                                << query.status().ToString();
        auto run = session.RunOffline(c.store, *query, mode);
        ASSERT_TRUE(run.ok()) << c.name << ": " << run.status().ToString();
        dumps[di++] = DumpResult(run->result);
      }
      ASSERT_FALSE(dumps[0].empty()) << c.name;
      EXPECT_EQ(dumps[0], dumps[1])
          << c.name << " mode=" << EvalModeToString(mode);
      rows[c.name] = dumps[0].size();
    }
  }
  // The doubles derive traces of their own (back-trace(x, 2.0) next to
  // back-trace(x, 2)), so the mixed case really walks the fallback.
  EXPECT_GT(rows["q12-mixed"], rows["q12"]);
}

/// The per-rule profile is populated and consistent: recursive closure
/// must report evaluations, probes, derivations and a readable summary.
TEST_F(PlanningModesFixture, EvalStatsReportRuleActivity) {
  Session session = MakeSession(true);
  auto query = session.PrepareOnline(queries::Apt(), {{"eps", Value(0.1)}});
  ASSERT_TRUE(query.ok());
  SsspProgram sssp(0);
  auto run = session.RunOnline(sssp, *query, /*retention_window=*/2);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const RuleEvalStats total = run->eval_stats.Total();
  EXPECT_GT(total.evaluations, 0u);
  EXPECT_GT(total.derived, 0u);
  EXPECT_EQ(run->eval_stats.rules.size(), query->rules().size());
  const std::string summary = run->eval_stats.Summary(*query);
  EXPECT_FALSE(summary.empty());
  EXPECT_NE(summary.find("derived="), std::string::npos);

  // Offline runs carry the same counters.
  ProvenanceStore store;
  auto capture = session.PrepareOnline(queries::CaptureFull());
  ASSERT_TRUE(capture.ok());
  SsspProgram sssp2(0);
  ASSERT_TRUE(session.Capture(sssp2, *capture, &store).ok());
  auto offline = session.PrepareOffline(queries::Apt(), store,
                                        {{"eps", Value(0.1)}});
  ASSERT_TRUE(offline.ok());
  auto layered = session.RunOffline(&store, *offline, EvalMode::kLayered);
  ASSERT_TRUE(layered.ok());
  EXPECT_GT(layered->stats.eval.Total().evaluations, 0u);
  auto naive = session.RunOffline(&store, *offline, EvalMode::kNaive);
  ASSERT_TRUE(naive.ok());
  EXPECT_GT(naive->stats.eval.Total().evaluations, 0u);
}

}  // namespace
}  // namespace ariadne
