// Golden answers of the evaluation core: sorted table dumps and the total
// `derived` counter of the paper's queries in every mode ValidateMode
// admits, plus digests of interpreted and compiled capture images. The files under
// tests/data/golden/ were recorded once and are compared byte for byte;
// every case runs at 1 and at 4 engine threads against the same file.
//
// Regenerate (only when an answer is meant to change) with
//   ARIADNE_UPDATE_GOLDEN=1 ./eval_golden_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/ariadne.h"

namespace ariadne {
namespace {

constexpr size_t kThreadCounts[] = {1, 4};

std::string GoldenPath(const std::string& name) {
  return std::string(ARIADNE_SOURCE_DIR) + "/tests/data/golden/" + name +
         ".txt";
}

bool Updating() {
  const char* env = std::getenv("ARIADNE_UPDATE_GOLDEN");
  return env != nullptr && std::string(env) == "1";
}

/// Compares `actual` with the golden file `name` line by line (or writes
/// it when regenerating), reporting the first differing line.
void CheckGolden(const std::string& name, const std::string& actual,
                 size_t threads) {
  const std::string path = GoldenPath(name);
  if (Updating() && threads == kThreadCounts[0]) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream expected;
  expected << in.rdbuf();
  if (expected.str() == actual) return;
  std::istringstream want(expected.str()), got(actual);
  std::string want_line, got_line;
  for (size_t line = 1;; ++line) {
    const bool has_want = static_cast<bool>(std::getline(want, want_line));
    const bool has_got = static_cast<bool>(std::getline(got, got_line));
    if (!has_want && !has_got) break;
    if (!has_want || !has_got || want_line != got_line) {
      ADD_FAILURE() << path << " differs at line " << line << " ("
                    << threads << " threads): expected '"
                    << (has_want ? want_line : "<eof>") << "', got '"
                    << (has_got ? got_line : "<eof>") << "'";
      return;
    }
  }
}

std::string Dump(const QueryResult& result, uint64_t derived) {
  std::string out = "derived " + std::to_string(derived) + "\n";
  for (const std::string& name : result.TableNames()) {
    const Relation* rel = result.Table(name);
    out += "table " + name + " " + std::to_string(rel->size()) + "\n";
    for (const std::string& row : rel->ToSortedStrings()) out += row + "\n";
  }
  return out;
}

SessionOptions WithThreads(size_t threads) {
  SessionOptions options;
  options.engine.num_threads = threads;
  return options;
}

// ------------------------------------------------------------ inputs

/// R-MAT scale 7: 128 vertices, several evaluation partitions.
Result<Graph> Rmat() {
  return GenerateRmat({.scale = 7, .avg_degree = 4, .seed = 3});
}

/// A star whose center messages ten leaves, plus three orphan vertices
/// nobody links to (Query 4's zero in-degree groups).
Result<Graph> StarWithOrphans() {
  GraphBuilder builder;
  for (VertexId leaf = 1; leaf <= 10; ++leaf) builder.AddEdge(0, leaf);
  builder.AddEdge(3, 4);
  builder.EnsureVertices(14);
  return builder.Build();
}

/// A symmetric grid: static out-neighbors are also in-neighbors, so
/// out-edge shipping reaches every vertex that reads the ships.
Result<Graph> Grid() { return GenerateGrid(10, 12); }

Result<BipartiteRatings> Ratings() {
  return GenerateBipartiteRatings(
      {.num_users = 24, .num_items = 10, .ratings_per_user = 4, .seed = 5});
}

AlsOptions SmallAls() {
  AlsOptions options;
  options.num_features = 2;
  options.max_iterations = 3;
  options.tolerance = 0;
  return options;
}

enum class Analytic { kPageRank, kApproxPageRank, kSssp, kAls, kWcc };

const char* AnalyticName(Analytic a) {
  switch (a) {
    case Analytic::kPageRank:
      return "pagerank";
    case Analytic::kApproxPageRank:
      return "approx_pagerank";
    case Analytic::kSssp:
      return "sssp";
    case Analytic::kAls:
      return "als";
    case Analytic::kWcc:
      return "wcc";
  }
  return "?";
}

/// Runs `fn(program)` on a fresh instance of analytic `a`.
template <typename Fn>
Status WithAnalytic(Analytic a, VertexId num_users, Fn&& fn) {
  switch (a) {
    case Analytic::kPageRank: {
      PageRankProgram program({.iterations = 6});
      return fn(program);
    }
    case Analytic::kApproxPageRank: {
      ApproxPageRankProgram program({.iterations = 8}, 0.002);
      return fn(program);
    }
    case Analytic::kSssp: {
      SsspProgram program(/*source=*/0);
      return fn(program);
    }
    case Analytic::kAls: {
      AlsProgram program(SmallAls(), num_users);
      return fn(program);
    }
    case Analytic::kWcc: {
      WccProgram program;
      return fn(program);
    }
  }
  return Status::Internal("unknown analytic");
}

/// Ships `big` along static out-edges: the edge guard `edge(x, y)` with
/// the remote atom one superstep earlier makes the route kAlongOutEdges
/// (the paper's queries cover the other three routing classes).
std::string OutEdgeProgram() {
  return R"pql(
    big(x, i) <- value(x, d, i), d > 1.0.
    warm(x, i) <- edge(x, y), big(y, j), value(x, d, i), j = i - 1.
    cold(x, i) <- value(x, d, i), !big(x, i).
  )pql";
}

// ------------------------------------------------------------ harness

/// One query evaluated online and, over a full capture of the same run,
/// in every offline mode ValidateMode admits.
struct QueryCase {
  std::string name;
  std::string text;
  QueryParams params;
  Analytic analytic;
  std::string graph;  ///< rmat | star | grid | als
  std::vector<int> retention;  ///< online retention windows to run
};

Result<Graph> MakeGraph(const std::string& kind, VertexId* num_users) {
  *num_users = 0;
  if (kind == "rmat") return Rmat();
  if (kind == "star") return StarWithOrphans();
  if (kind == "grid") return Grid();
  ARIADNE_ASSIGN_OR_RETURN(BipartiteRatings ratings, Ratings());
  *num_users = ratings.num_users;
  return std::move(ratings.graph);
}

void RunQueryCase(const QueryCase& c) {
  VertexId num_users = 0;
  auto graph = MakeGraph(c.graph, &num_users);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  for (size_t threads : kThreadCounts) {
    SCOPED_TRACE(c.name + " at " + std::to_string(threads) + " threads");
    Session session(&*graph, WithThreads(threads));
    auto online = session.PrepareOnline(c.text, c.params);
    ASSERT_TRUE(online.ok()) << online.status().ToString();
    if (ValidateMode(*online, EvalMode::kOnline).ok()) {
      for (int window : c.retention) {
        QueryResult result;
        uint64_t derived = 0;
        ASSERT_TRUE(WithAnalytic(c.analytic, num_users,
                                 [&](auto& program) -> Status {
                                   ARIADNE_ASSIGN_OR_RETURN(
                                       OnlineRunResult run,
                                       session.RunOnline(program, *online,
                                                         window));
                                   result = std::move(run.query_result);
                                   derived = run.eval_stats.Total().derived;
                                   return Status::OK();
                                 })
                        .ok());
        CheckGolden(c.name + "_online_r" + std::to_string(window),
                    Dump(result, derived), threads);
      }
    }

    ProvenanceStore store;
    auto capture = session.PrepareOnline(queries::CaptureFull());
    ASSERT_TRUE(capture.ok());
    ASSERT_TRUE(WithAnalytic(c.analytic, num_users,
                             [&](auto& program) -> Status {
                               return session.Capture(program, *capture,
                                                      &store)
                                   .status();
                             })
                    .ok());
    auto offline = session.PrepareOffline(c.text, store, c.params);
    ASSERT_TRUE(offline.ok()) << offline.status().ToString();
    for (EvalMode mode : {EvalMode::kLayered, EvalMode::kNaive}) {
      if (!ValidateMode(*offline, mode).ok()) continue;
      auto run = session.RunOffline(&store, *offline, mode);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      CheckGolden(c.name + "_" + EvalModeToString(mode),
                  Dump(run->result, run->stats.eval.Total().derived), threads);
    }
  }
}

const QueryParams kPageRankEps{{"eps", Value(0.01)}};

TEST(EvalGoldenTest, AptSparseAndDenseActivation) {
  for (Analytic a :
       {Analytic::kPageRank, Analytic::kApproxPageRank, Analytic::kSssp}) {
    const double eps = a == Analytic::kSssp ? 0.1 : 0.01;
    RunQueryCase({.name = std::string("apt_") + AnalyticName(a),
                  .text = queries::Apt(),
                  .params = {{"eps", Value(eps)}},
                  .analytic = a,
                  .graph = "rmat",
                  .retention = {0, 2, 3}});
  }
}

TEST(EvalGoldenTest, Query3ForwardLineage) {
  RunQueryCase({.name = "q3_pagerank",
                .text = queries::CaptureForwardLineage(),
                .params = {{"alpha", Value(int64_t{1})}},
                .analytic = Analytic::kPageRank,
                .graph = "rmat",
                .retention = {0}});
}

TEST(EvalGoldenTest, Query4ZeroInDegreeGroups) {
  RunQueryCase({.name = "q4_star",
                .text = queries::PageRankInDegreeCheck(),
                .params = {},
                .analytic = Analytic::kPageRank,
                .graph = "star",
                .retention = {0}});
  RunQueryCase({.name = "q4_rmat",
                .text = queries::PageRankInDegreeCheck(),
                .params = {},
                .analytic = Analytic::kPageRank,
                .graph = "rmat",
                .retention = {0}});
}

TEST(EvalGoldenTest, Queries5And6Monitoring) {
  for (Analytic a : {Analytic::kSssp, Analytic::kApproxPageRank}) {
    RunQueryCase({.name = std::string("q5_") + AnalyticName(a),
                  .text = queries::MonotoneUpdateCheck(),
                .params = {},
                  .analytic = a,
                  .graph = "rmat",
                  .retention = {0, 2}});
    RunQueryCase({.name = std::string("q6_") + AnalyticName(a),
                  .text = queries::NoMessageNoChangeCheck(),
                .params = {},
                  .analytic = a,
                  .graph = "rmat",
                  .retention = {0, 3}});
  }
}

TEST(EvalGoldenTest, Queries7And8Als) {
  RunQueryCase({.name = "q7_als",
                .text = queries::AlsRangeAudit(),
                .params = {},
                .analytic = Analytic::kAls,
                .graph = "als",
                .retention = {0}});
  RunQueryCase({.name = "q8_als",
                .text = queries::AlsErrorIncrease(),
                .params = {{"eps", Value(0.0)}},
                .analytic = Analytic::kAls,
                .graph = "als",
                .retention = {0, 2}});
}

TEST(EvalGoldenTest, Query10BackwardLineage) {
  RunQueryCase({.name = "q10_pagerank",
                .text = queries::BackwardLineageFull(),
                .params = {{"alpha", Value(int64_t{5})},
                           {"sigma", Value(int64_t{6})}},
                .analytic = Analytic::kPageRank,
                .graph = "rmat",
                .retention = {}});
}

TEST(EvalGoldenTest, OutEdgeShipping) {
  RunQueryCase({.name = "outedge_pagerank",
                .text = OutEdgeProgram(),
                .params = {},
                .analytic = Analytic::kPageRank,
                .graph = "grid",
                .retention = {0, 2}});
}

TEST(EvalGoldenTest, Query12OverCustomCapture) {
  auto graph = Rmat();
  ASSERT_TRUE(graph.ok());
  for (size_t threads : kThreadCounts) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    Session session(&*graph, WithThreads(threads));
    ProvenanceStore store;
    auto capture = session.PrepareOnline(queries::CaptureCustomBackward());
    ASSERT_TRUE(capture.ok());
    PageRankProgram pagerank({.iterations = 6});
    ASSERT_TRUE(session.Capture(pagerank, *capture, &store).ok());
    auto q12 = session.PrepareOffline(
        queries::BackwardLineageCustom(), store,
        {{"alpha", Value(int64_t{5})}, {"sigma", Value(int64_t{6})}});
    ASSERT_TRUE(q12.ok()) << q12.status().ToString();
    for (EvalMode mode : {EvalMode::kLayered, EvalMode::kNaive}) {
      auto run = session.RunOffline(&store, *q12, mode);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      CheckGolden(std::string("q12_pagerank_") + EvalModeToString(mode),
                  Dump(run->result, run->stats.eval.Total().derived),
                  threads);
    }
  }
}

/// FNV-1a 64 of `bytes`, hex.
std::string Digest(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(h));
  return out;
}

TEST(EvalGoldenTest, InterpretedCaptureImages) {
  auto graph = Rmat();
  ASSERT_TRUE(graph.ok());
  struct Capture {
    std::string name;
    std::string text;
    QueryParams params;
  };
  const Capture captures[] = {
      {"q2", queries::CaptureFull(), {}},
      {"q3", queries::CaptureForwardLineage(), {{"alpha", Value(int64_t{1})}}},
      {"q11", queries::CaptureCustomBackward(), {}},
  };
  for (size_t threads : kThreadCounts) {
    std::string digests;
    for (const Capture& c : captures) {
      SCOPED_TRACE(c.name + " at " + std::to_string(threads) + " threads");
      Session session(&*graph, WithThreads(threads));
      auto query = session.PrepareOnline(c.text, c.params);
      ASSERT_TRUE(query.ok()) << query.status().ToString();
      for (Analytic a : {Analytic::kPageRank, Analytic::kSssp}) {
        ProvenanceStore store;
        ASSERT_TRUE(WithAnalytic(a, 0,
                                 [&](auto& program) -> Status {
                                   return session
                                       .Capture(program, *query, &store,
                                                /*retention_window=*/0,
                                                /*final_values=*/nullptr,
                                                /*use_fast_capture=*/false)
                                       .status();
                                 })
                        .ok());
        auto image = store.SerializeToString();
        ASSERT_TRUE(image.ok()) << image.status().ToString();
        digests += c.name + " " + AnalyticName(a) + " " +
                   std::to_string(image->size()) + " " + Digest(*image) + "\n";
      }
    }
    CheckGolden("capture_images", digests, threads);
  }
}

/// The line of golden file `name` that starts with `prefix`, or "".
std::string GoldenLine(const std::string& name, const std::string& prefix) {
  std::ifstream in(GoldenPath(name), std::ios::binary);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

TEST(EvalGoldenTest, CompiledCaptureImages) {
  // The default capture path: projection-only queries compile to
  // FastCapturePlan. ALS payloads are double vectors (mixed encoding);
  // WCC on the symmetric grid sends duplicate identical messages along
  // reciprocal edges, which must collapse.
  struct Capture {
    std::string name;
    std::string text;
  };
  const Capture captures[] = {
      {"q2", queries::CaptureFull()},
      {"q11", queries::CaptureCustomBackward()},
  };
  struct Input {
    Analytic analytic;
    std::string graph;
  };
  const Input inputs[] = {{Analytic::kPageRank, "rmat"},
                          {Analytic::kSssp, "rmat"},
                          {Analytic::kAls, "als"},
                          {Analytic::kWcc, "grid"}};
  for (size_t threads : kThreadCounts) {
    std::string digests;
    for (const Input& in : inputs) {
      VertexId num_users = 0;
      auto graph = MakeGraph(in.graph, &num_users);
      ASSERT_TRUE(graph.ok()) << graph.status().ToString();
      Session session(&*graph, WithThreads(threads));
      for (const Capture& c : captures) {
        SCOPED_TRACE(c.name + " " + AnalyticName(in.analytic) + " at " +
                     std::to_string(threads) + " threads");
        auto query = session.PrepareOnline(c.text);
        ASSERT_TRUE(query.ok()) << query.status().ToString();
        ASSERT_TRUE(query->fast_capture().has_value());
        ProvenanceStore store;
        ASSERT_TRUE(WithAnalytic(in.analytic, num_users,
                                 [&](auto& program) -> Status {
                                   return session
                                       .Capture(program, *query, &store)
                                       .status();
                                 })
                        .ok());
        auto image = store.SerializeToString();
        ASSERT_TRUE(image.ok()) << image.status().ToString();
        const std::string line = c.name + " " + AnalyticName(in.analytic) +
                                 " " + std::to_string(image->size()) + " " +
                                 Digest(*image);
        digests += line + "\n";
        if (c.name == "q2" && in.graph == "rmat") {
          // Compiled and interpreted capture store the same bytes.
          EXPECT_EQ(line, GoldenLine("capture_images",
                                     c.name + " " + AnalyticName(in.analytic) +
                                         " "));
        }
      }
    }
    CheckGolden("compiled_capture_images", digests, threads);
  }
}

}  // namespace
}  // namespace ariadne
