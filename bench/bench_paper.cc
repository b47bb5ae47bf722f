// Reproduces the paper's evaluation (§6): Tables 2-6, Figures 7-12 and
// three implementation ablations.
//
//   bench_paper [--only <experiment>,...] [--json <path>]
//
// Per (dataset, engine thread count) a Fixture generates the graph and,
// on first use, times each analytic's baseline and captures and spills
// each store, once. Every experiment is a function over the fixture that
// emits Rows; the paper tables and the `--json` ledger (BENCH_paper.json)
// both render from those rows. Timed experiments run at 1 and 4 engine
// threads, size and graph experiments at 1. A failed cross-check (see
// CrossCheck) makes the run exit non-zero.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "analytics/linalg.h"
#include "bench_common.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace ariadne::bench {
namespace {

/// Engine thread counts of the timed experiments; the others run at the
/// first only.
constexpr int kThreadCounts[] = {1, 4};

/// A failed run, query or read ends the benchmark.
void Must(const Status& status, const std::string& what) {
  if (status.ok()) return;
  std::fprintf(stderr, "%s: %s\n", what.c_str(), status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  Must(result.status(), what);
  return std::move(result).value();
}

enum class Family { kWeb, kRatings, kChain };

/// Laptop-scale stand-ins for the paper's datasets (Table 2). The web
/// graphs grow in the same order as IN-04 < UK-02 < AR-05 < UK-05; the
/// experiments report ratios, which depend on the degree distribution
/// and superstep counts rather than absolute scale (see DESIGN.md §2).
/// ML-SYN stands in for MovieLens-20M; CHAIN-16K only serves Figure 10.
struct Dataset {
  const char* name;
  Family family;
  RmatOptions rmat{};
  bool naive_feasible = false;  ///< paper: Naive scaled to the two smallest
};

const std::vector<Dataset>& Datasets() {
  // Edge weights span [0, 2.5) instead of the paper's [0, 1): our
  // R-MAT stand-ins have ~5x smaller diameters than the web crawls,
  // so this keeps typical SSSP distances (median ~5) — and therefore
  // the meaning of the apt epsilon = 0.1 — comparable to the paper.
  static const auto* kDatasets = new std::vector<Dataset>{
      {"WEB-XS", Family::kWeb,
       {.scale = 10, .avg_degree = 16, .seed = 101, .max_weight = 2.5}, true},
      {"WEB-S", Family::kWeb,
       {.scale = 11, .avg_degree = 16, .seed = 102, .max_weight = 2.5}, true},
      {"WEB-M", Family::kWeb,
       {.scale = 12, .avg_degree = 20, .seed = 103, .max_weight = 2.5}},
      {"WEB-L", Family::kWeb,
       {.scale = 13, .avg_degree = 24, .seed = 104, .max_weight = 2.5}},
      {"ML-SYN", Family::kRatings},
      {"CHAIN-16K", Family::kChain},
  };
  return *kDatasets;
}

enum Analytic { kPageRank, kSssp, kWcc };
constexpr Analytic kWebAnalytics[] = {kPageRank, kSssp, kWcc};
constexpr const char* kNames[] = {"PageRank", "SSSP", "WCC"};
constexpr const char* kKeys[] = {"pagerank", "sssp", "wcc"};
/// apt query epsilon per analytic (paper §6.2.2).
constexpr double kAptEpsilon[] = {0.01, 0.1, 1.0};

/// Paper §6.1: the SSSP source and the capture source are the
/// highest-degree vertex, an upper bound on influenced-set size.
VertexId CaptureSource(const Graph& graph) {
  return HighestDegreeVertex(graph);
}

/// Calls `fn` with the statically typed program of `analytic`.
template <typename Fn>
auto WithProgram(Analytic analytic, const Graph& graph, Fn&& fn) {
  if (analytic == kSssp) {
    SsspProgram program(CaptureSource(graph));
    return fn(program);
  }
  if (analytic == kWcc) {
    WccProgram program;
    return fn(program);
  }
  PageRankProgram program(BenchPageRankOptions());
  return fn(program);
}

void RunCapture(const Session& session, Analytic analytic,
                const AnalyzedQuery& query, ProvenanceStore* store,
                bool use_fast_capture = true) {
  Must(WithProgram(analytic, session.graph(), [&](auto& program) {
         return session.Capture(program, query, store, /*retention_window=*/2,
                                nullptr, use_fast_capture);
       }), "capture");
}

OnlineRunResult RunOnlineQuery(const Session& session, Analytic analytic,
                               const AnalyzedQuery& query,
                               int retention_window = 2) {
  return Must(WithProgram(analytic, session.graph(), [&](auto& program) {
                return session.RunOnline(program, query, retention_window);
              }), "online run");
}

/// The capture queries whose stores are kept: Query 2 (full), Query 3
/// (forward lineage of the capture source) and Query 11 (Figure 12's
/// custom backward capture).
enum CaptureQuery { kFullCapture, kForwardLineage, kCustomBackward };

struct Capture {
  std::unique_ptr<ProvenanceStore> store;
  double seconds = 0.0;
};

/// WCC messages along BOTH edge directions; the paper's Query 11/12
/// custom-capture scheme presumes messages follow out-edges ("for
/// analytics where vertices send messages to all their outgoing
/// neighbors"), so Figure 12's WCC runs on a symmetrized copy, matching
/// Giraph's practice of symmetrizing input for connected components.
Graph Symmetrize(const Graph& graph) {
  GraphBuilder builder;
  builder.EnsureVertices(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    auto nbrs = graph.OutNeighbors(v);
    auto weights = graph.OutWeights(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      builder.AddEdge(v, nbrs[i], weights[i]);
      builder.AddEdge(nbrs[i], v, weights[i]);
    }
  }
  builder.Dedup();
  return Must(builder.Build(), "symmetrize");
}

/// One dataset's graph bound to a Session at one engine thread count.
/// Baselines are timed, and stores captured, on first use only.
class Fixture {
 public:
  Fixture(const Dataset& dataset, int threads, Graph graph,
          VertexId num_users = 0)
      : dataset_(dataset),
        threads_(threads),
        graph_(std::move(graph)),
        num_users_(num_users) {
    SessionOptions options;
    options.engine.num_threads = static_cast<size_t>(threads);
    session_ = std::make_unique<Session>(&graph_, options);
  }
  Fixture(const Fixture&) = delete;  // session_ points into graph_

  static std::unique_ptr<Fixture> Generate(const Dataset& dataset,
                                           int threads) {
    if (dataset.family != Family::kRatings) {
      return std::make_unique<Fixture>(
          dataset, threads,
          Must(dataset.family == Family::kWeb ? GenerateRmat(dataset.rmat)
                                              : GenerateChain(1 << 14),
               dataset.name));
    }
    BipartiteRatings ratings = Must(
        GenerateBipartiteRatings({.num_users = 1500,
                                  .num_items = 400,
                                  .ratings_per_user = 40,
                                  .seed = 7}),
        dataset.name);
    return std::make_unique<Fixture>(dataset, threads,
                                     std::move(ratings.graph),
                                     ratings.num_users);
  }

  const Dataset& dataset() const { return dataset_; }
  Family family() const { return dataset_.family; }
  std::string name() const { return dataset_.name; }
  std::string threads() const { return std::to_string(threads_); }
  const Graph& graph() const { return graph_; }
  const Session& session() const { return *session_; }

  /// This graph with every edge also reversed, at the same thread count.
  Fixture& Symmetrized() {
    if (sym_ == nullptr) {
      sym_ = std::make_unique<Fixture>(dataset_, threads_, Symmetrize(graph_));
    }
    return *sym_;
  }

  /// TimedSeconds(fn), measured once per `key`.
  double Timed(const std::string& key, const std::function<void()>& fn) {
    auto it = timed_.find(key);
    if (it == timed_.end()) it = timed_.emplace(key, TimedSeconds(fn)).first;
    return it->second;
  }

  /// Seconds of the bare analytic (the paper's "Giraph" baseline).
  double BaseSeconds(Analytic analytic) {
    return Timed(kNames[analytic], [&] {
      Must(WithProgram(analytic, graph_, [&](auto& program) {
             return session_->RunBaseline(program);
           }), "baseline");
    });
  }

  /// ML-SYN only: ALS as the experiments run it (4 rounds, no early
  /// stop), bare and under an online `query` (whose tables land in
  /// `result`).
  AlsProgram Als(int features) const {
    return AlsProgram(
        {.num_features = features, .max_iterations = 4, .tolerance = 0},
        num_users_);
  }
  double AlsBaseSeconds(int features) {
    return Timed("ALS^" + std::to_string(features), [&] {
      AlsProgram als = Als(features);
      Must(session_->RunBaseline(als), "ALS baseline");
    });
  }
  double TimeAlsOnline(int features, const AnalyzedQuery& query,
                       QueryResult* result) {
    return TimedSeconds([&] {
      AlsProgram als = Als(features);
      *result = Must(session_->RunOnline(als, query, /*retention_window=*/4),
                     "ALS online run")
                    .query_result;
    });
  }

  /// The store `query` captures over `analytic`, timed, then spilled to
  /// disk: the paper's provenance graph lives in HDFS, so offline modes
  /// pay storage reads that online evaluation never incurs.
  const Capture& Captured(Analytic analytic, CaptureQuery query) {
    Capture& c = captures_[{analytic, query}];
    if (c.store != nullptr) return c;
    const std::string texts[] = {queries::CaptureFull(),
                                 queries::CaptureForwardLineage(),
                                 queries::CaptureCustomBackward()};
    QueryParams params;
    if (query == kForwardLineage) {
      params = {{"alpha", Value(static_cast<int64_t>(CaptureSource(graph_)))}};
    }
    const AnalyzedQuery prepared =
        Must(session_->PrepareOnline(texts[query], params), "capture query");
    c.seconds = TimedSeconds([&] {
      c.store = std::make_unique<ProvenanceStore>();
      RunCapture(*session_, analytic, prepared, c.store.get());
    });
    Must(SpillToDisk(c.store.get()), "spill");
    return c;
  }
  ProvenanceStore& Store(Analytic analytic, CaptureQuery query) {
    return *Captured(analytic, query).store;
  }

 private:
  const Dataset& dataset_;
  const int threads_;
  Graph graph_;
  VertexId num_users_;
  std::unique_ptr<Session> session_;
  std::unique_ptr<Fixture> sym_;
  std::map<std::string, double> timed_;
  std::map<std::pair<Analytic, CaptureQuery>, Capture> captures_;
};

using Scalar = std::variant<int64_t, double, std::string>;

Scalar Count(size_t n) { return static_cast<int64_t>(n); }

/// One paper-table row of one experiment at one engine thread count.
struct Row {
  std::string figure{};    ///< experiment name; set by Run
  std::string dataset{};   ///< the fixture's dataset unless set
  std::string analytic{};  ///< empty when the row spans analytics
  std::vector<std::pair<std::string, std::string>> labels{};  ///< identity
  int threads = 1;         ///< set by Run
  /// Timed rows: each mode's seconds and the base they are ratios over.
  double base_s = 0.0;
  std::vector<std::pair<std::string, double>> modes{};
  /// Deterministic outputs: equal at every engine thread count.
  std::vector<std::pair<std::string, Scalar>> outputs{};
  std::vector<std::string> cells{};  ///< the paper table's columns

  /// Appends an output, and its table cell unless `cell` is empty.
  Row& Out(std::string key, Scalar value, std::string cell = "") {
    outputs.emplace_back(std::move(key), std::move(value));
    if (!cell.empty()) cells.push_back(std::move(cell));
    return *this;
  }
};
using Rows = std::vector<Row>;

std::string Sec(double seconds) { return FormatDouble(seconds, 3); }
std::string Pct(double percent) { return FormatDouble(percent, 1) + "%"; }
std::string Ratio(double value, double baseline) {
  return FormatDouble(value / baseline, 2) + "x";
}

/// Appends the sizes of the apt verdict tables, with a cell each when
/// `cells`; returns them as "safe/unsafe/no-execute".
std::string AddVerdicts(const QueryResult& result, bool cells, Row* row) {
  std::string joined;
  for (const char* table : {"safe", "unsafe", "no-execute"}) {
    const size_t n = result.TupleCount(table);
    row->Out(table == std::string("no-execute") ? "no_execute" : table,
             Count(n), cells ? std::to_string(n) : "");
    joined += (joined.empty() ? "" : "/") + std::to_string(n);
  }
  return joined;
}

/// Times `text` online and then layered and naive over the full store
/// (naive only where the paper's Naive scaled): a row of Figure 8 or 11
/// up to its Naive cell. `result` receives the online run's tables.
Row ModeRow(Fixture& f, Analytic a, const std::string& text,
            const QueryParams& params, std::string query_cell,
            QueryResult* result) {
  const Session& session = f.session();
  const double base = f.BaseSeconds(a);
  const AnalyzedQuery online_query =
      Must(session.PrepareOnline(text, params), "online query");
  const double online = TimedSeconds([&] {
    *result = RunOnlineQuery(session, a, online_query).query_result;
  });
  const ProvenanceStore& store = f.Store(a, kFullCapture);
  const AnalyzedQuery offline_query =
      Must(session.PrepareOffline(text, store, params), "offline query");
  Row row{.analytic = kNames[a],
          .base_s = base,
          .modes = {{"online", online}},
          .cells = {f.name(), std::move(query_cell), f.threads(), Sec(base),
                    Ratio(online, base)}};
  for (EvalMode mode : {EvalMode::kLayered, EvalMode::kNaive}) {
    if (mode == EvalMode::kNaive && !f.dataset().naive_feasible) {
      row.cells.push_back("(skipped)");
      continue;
    }
    const double seconds = TimedSeconds([&] {
      Must(session.RunOffline(&store, offline_query, mode), "offline run");
    });
    row.modes.emplace_back(EvalModeToString(mode), seconds);
    row.cells.push_back(Ratio(seconds, base));
  }
  return row;
}

void Table2(Fixture& f, Rows& rows) {
  if (f.family() == Family::kChain) return;
  const GraphStats s = ComputeGraphStats(
      f.graph(), /*diameter_samples=*/f.family() == Family::kWeb ? 8 : 4);
  Row& row = rows.emplace_back(Row{.cells = {f.name()}});
  row.Out("vertices", int64_t{s.num_vertices}, std::to_string(s.num_vertices))
      .Out("edges", s.num_edges, std::to_string(s.num_edges))
      .Out("avg_degree", s.avg_degree, FormatDouble(s.avg_degree, 2))
      .Out("avg_diameter", s.avg_diameter, FormatDouble(s.avg_diameter, 2))
      .Out("input_bytes", Count(s.input_bytes), HumanBytes(s.input_bytes));
}

void Table3(Fixture& f, Rows& rows) {
  if (f.family() != Family::kWeb) return;
  const size_t input = f.graph().InputByteSize();
  Row& row = rows.emplace_back(Row{.cells = {f.name()}});
  row.Out("input_bytes", Count(input), HumanBytes(input));
  for (Analytic a : kWebAnalytics) {
    const size_t bytes = f.Store(a, kFullCapture).TotalBytes();
    const double ratio =
        static_cast<double>(bytes) / static_cast<double>(input);
    row.Out(std::string(kKeys[a]) + "_bytes", Count(bytes), HumanBytes(bytes))
        .Out(std::string(kKeys[a]) + "_ratio", ratio,
             FormatDouble(ratio, 2) + "x");
  }
}

void Table4(Fixture& f, Rows& rows) {
  if (f.family() != Family::kWeb) return;
  const size_t input = f.graph().InputByteSize();
  for (Analytic a : kWebAnalytics) {
    ProvenanceStore& store = f.Store(a, kForwardLineage);
    // Distinct vertices with at least one captured tuple.
    std::set<VertexId> covered;
    for (int s = 0; s < store.num_layers(); ++s) {
      const auto layer = Must(store.GetLayerRelations(s, {}), "read layer");
      for (const auto& slice : layer->slices) covered.insert(slice.vertex);
    }
    const size_t bytes = store.TotalBytes();
    const double custom_pct =
        100.0 * static_cast<double>(bytes) / static_cast<double>(input);
    const double covered_pct = 100.0 * static_cast<double>(covered.size()) /
                               static_cast<double>(f.graph().num_vertices());
    Row& row = rows.emplace_back(
        Row{.analytic = kNames[a], .cells = {f.name(), kNames[a]}});
    row.Out("input_bytes", Count(input), HumanBytes(input))
        .Out("custom_bytes", Count(bytes), HumanBytes(bytes))
        .Out("custom_pct_of_input", custom_pct, Pct(custom_pct))
        .Out("covered_pct", covered_pct, Pct(covered_pct))
        .Out("covered_vertices", Count(covered.size()));
  }
}

void Fig7(Fixture& f, Rows& rows) {
  if (f.family() != Family::kWeb) return;
  for (Analytic a : kWebAnalytics) {
    const double base = f.BaseSeconds(a);
    const Capture& full = f.Captured(a, kFullCapture);
    const Capture& custom = f.Captured(a, kForwardLineage);
    Row& row = rows.emplace_back(Row{
        .analytic = kNames[a],
        .base_s = base,
        .modes = {{"full", full.seconds}, {"custom", custom.seconds}},
        .cells = {f.name(), kNames[a], f.threads(), Sec(base),
                  Sec(full.seconds), Ratio(full.seconds, base),
                  Sec(custom.seconds), Ratio(custom.seconds, base)}});
    row.Out("full_bytes", Count(full.store->TotalBytes()))
        .Out("custom_bytes", Count(custom.store->TotalBytes()));
  }
}

void Fig8(Fixture& f, Rows& rows) {
  if (f.family() != Family::kWeb) return;
  const struct {
    const char* label;
    Analytic analytic;
    std::string text;
  } cases[] = {
      {"Q4", kPageRank, queries::PageRankInDegreeCheck()},
      {"Q5", kSssp, queries::MonotoneUpdateCheck()},
      {"Q5", kWcc, queries::MonotoneUpdateCheck()},
      {"Q6", kSssp, queries::NoMessageNoChangeCheck()},
      {"Q6", kWcc, queries::NoMessageNoChangeCheck()},
  };
  for (const auto& c : cases) {
    QueryResult result;
    Row& row = rows.emplace_back(
        ModeRow(f, c.analytic, c.text, {},
                std::string(c.label) + "/" + kNames[c.analytic], &result));
    row.labels = {{"query", c.label}};
    const size_t violations =
        result.TupleCount("check-failed") + result.TupleCount("problem");
    row.Out("violations", Count(violations), std::to_string(violations));
  }
}

void Fig9(Fixture& f, Rows& rows) {
  if (f.family() != Family::kRatings) return;
  const struct {
    const char* label;
    std::string text;
    QueryParams params;
    const char* flag_table;
  } cases[] = {
      {"Q7 range audit", queries::AlsRangeAudit(), {}, "algo-failed"},
      // The paper uses a 0.5 threshold on MovieLens-20M, where ALS fits
      // far worse than on our low-noise synthetic ratings; 0.02 flags a
      // comparable share of vertices here.
      {"Q8 error increase", queries::AlsErrorIncrease(),
       {{"eps", Value(0.02)}}, "problem"},
  };
  for (int features : {5, 10, 15}) {
    const double base = f.AlsBaseSeconds(features);
    for (const auto& c : cases) {
      const AnalyzedQuery query =
          Must(f.session().PrepareOnline(c.text, c.params), c.label);
      QueryResult result;
      const double online = f.TimeAlsOnline(features, query, &result);
      // Distinct flagged vertices (column 0 of the flag table).
      const Relation* rel = result.Table(c.flag_table);
      std::set<Value> vertices;
      for (size_t i = 0; rel != nullptr && i < rel->size(); ++i) {
        vertices.insert(rel->row_view(i).value(0));
      }
      const size_t flagged = vertices.size();
      const double pct = 100.0 * static_cast<double>(flagged) /
                         static_cast<double>(f.graph().num_vertices());
      Row& row = rows.emplace_back(Row{
          .analytic = "ALS",
          .labels = {{"features", std::to_string(features)},
                     {"query", c.label}},
          .base_s = base,
          .modes = {{"online", online}},
          .cells = {f.name() + "^" + std::to_string(features), c.label,
                    f.threads(), Sec(base), Sec(online), Ratio(online, base)}});
      row.Out("flagged_pct", pct, Pct(pct))
          .Out("flagged_vertices", Count(flagged));
    }
  }
}

double AsDouble(double value) { return value; }
double AsDouble(int64_t label) { return static_cast<double>(label); }
double AsDouble(const ApproxPageRankState& state) { return state.rank; }

/// Seconds of the program `make()` builds; its message count and final
/// values land in `messages` and `values`.
template <typename Make>
double TimeValues(const Session& session, Make make, int64_t* messages,
                  std::vector<double>* values) {
  return TimedSeconds([&] {
    auto program = make();
    std::vector<typename decltype(program)::ValueType> out;
    *messages = Must(session.RunBaseline(program, &out), "run").total_messages;
    values->clear();
    for (const auto& v : out) values->push_back(AsDouble(v));
  });
}

/// An original analytic (the base) against its apt-optimized variant.
template <typename MakeExact, typename MakeApprox>
void AddOptimizedRow(const Fixture& f, const char* analytic, const char* eps,
                     int error_norm, MakeExact make_exact,
                     MakeApprox make_approx, Rows& rows) {
  std::vector<double> exact_all, approx_all;
  int64_t exact_messages = 0, approx_messages = 0;
  const double exact_s =
      TimeValues(f.session(), make_exact, &exact_messages, &exact_all);
  const double approx_s =
      TimeValues(f.session(), make_approx, &approx_messages, &approx_all);
  // The error covers reached vertices only: unreached SSSP vertices stay
  // at +inf (all PageRank and WCC values are finite).
  std::vector<double> exact, approx;
  for (size_t i = 0; i < exact_all.size(); ++i) {
    if (exact_all[i] == kInfiniteDistance) continue;
    exact.push_back(exact_all[i]);
    approx.push_back(approx_all[i] == kInfiniteDistance ? exact_all[i] + 1.0
                                                        : approx_all[i]);
  }
  const int digits = analytic == std::string("WCC") ? 1 : 3;  // int labels
  const double error = RelativeError(exact, approx, error_norm);
  char error_cell[32];
  std::snprintf(error_cell, sizeof(error_cell), "%.1e", error);
  Row& row = rows.emplace_back(
      Row{.analytic = analytic,
          .labels = {{"eps", eps}},
          .base_s = exact_s,
          .modes = {{"optimized", approx_s}},
          .cells = {f.name(), analytic, f.threads(), eps,
                    Ratio(exact_s, approx_s)}});
  row.Out("error", error, error_cell)
      .Out("median_orig", Median(exact), FormatDouble(Median(exact), digits))
      .Out("median_opt", Median(approx), FormatDouble(Median(approx), digits));
  if (f.family() == Family::kWeb) {
    const double saved =
        100.0 * (1.0 - static_cast<double>(approx_messages) /
                           static_cast<double>(exact_messages));
    row.Out("msgs_saved_pct", saved, Pct(saved));
  } else {
    row.cells.push_back("-");
  }
}

void Fig10(Fixture& f, Rows& rows) {
  if (f.family() == Family::kWeb) {
    // PageRank (Table 5: L2 error, medians), run closer to convergence so
    // the error isolates the approximation (threshold) effect rather
    // than the two formulations' different truncation behaviour.
    PageRankOptions options = BenchPageRankOptions();
    options.iterations = 40;
    AddOptimizedRow(
        f, "PageRank", "0.01", 2, [&] { return PageRankProgram(options); },
        [&] { return ApproxPageRankProgram(options, kAptEpsilon[kPageRank]); },
        rows);
    // SSSP (Table 6: L1 error, medians).
    const VertexId source = CaptureSource(f.graph());
    AddOptimizedRow(
        f, "SSSP", "0.1", 1, [&] { return SsspProgram(source); },
        [&] { return ApproxSsspProgram(source, kAptEpsilon[kSssp]); }, rows);
  } else if (f.family() != Family::kChain) {
    return;
  }
  // WCC, the negative result. It depends on label improvements of
  // exactly 1, which need consecutive-id structure: R-MAT's random
  // wiring collapses labels in large jumps, so there the threshold is
  // merely useless, while the chain exhibits the paper's catastrophic
  // error (the apt query's "all no-execute vertices are unsafe" verdict
  // predicts exactly this).
  AddOptimizedRow(
      f, "WCC", "1", 2, [] { return WccProgram(); },
      [] { return ApproxWccProgram(/*epsilon=*/1); }, rows);
}

void Fig11(Fixture& f, Rows& rows) {
  const Session& session = f.session();
  if (f.family() == Family::kRatings) {
    // ALS: online only, matching the paper's "lower than 10%" framing.
    const AnalyzedQuery apt = Must(
        session.PrepareOnline(queries::Apt(), {{"eps", Value(0.05)}}), "apt");
    const double base = f.AlsBaseSeconds(5);
    QueryResult result;
    const double online = f.TimeAlsOnline(5, apt, &result);
    Row& row = rows.emplace_back(
        Row{.analytic = "ALS",
            .base_s = base,
            .modes = {{"online", online}},
            .cells = {f.name(), "ALS", f.threads(), Sec(base),
                      Ratio(online, base), "-", "-"}});
    AddVerdicts(result, /*cells=*/true, &row);
    return;
  }
  if (f.family() != Family::kWeb) return;
  for (Analytic a : kWebAnalytics) {
    QueryResult result;
    Row& row = rows.emplace_back(ModeRow(
        f, a, queries::Apt(), {{"eps", Value(kAptEpsilon[a])}}, kNames[a],
        &result));
    AddVerdicts(result, /*cells=*/true, &row);
  }
}

/// A vertex active in the last layer plus that superstep (the paper
/// starts the trace from a vertex that computed in the last superstep).
QueryParams TraceSeed(ProvenanceStore& store) {
  const int superstep_rel = store.RelId("superstep");
  for (int step = store.num_layers() - 1; step >= 0; --step) {
    const auto layer = Must(store.GetLayerRelations(step, {}), "read layer");
    for (const auto& slice : layer->slices) {
      if (slice.rel == superstep_rel && !slice.tuples.empty()) {
        return {{"alpha", Value(static_cast<int64_t>(slice.vertex))},
                {"sigma", Value(static_cast<int64_t>(layer->step))}};
      }
    }
  }
  Must(Status::NotFound("no active vertex in any layer"), "trace seed");
  return {};
}

void Fig12(Fixture& f, Rows& rows) {
  if (f.family() != Family::kWeb) return;
  for (Analytic a : kWebAnalytics) {
    Fixture& subject = a == kWcc ? f.Symmetrized() : f;
    const Session& session = subject.session();
    ProvenanceStore& full = subject.Store(a, kFullCapture);
    const QueryParams params = TraceSeed(full);
    // Times a layered trace and keeps its sorted back-lineage rows.
    auto trace = [&](const ProvenanceStore& store, const std::string& text,
                     std::vector<std::string>* lineage) {
      const AnalyzedQuery query =
          Must(session.PrepareOffline(text, store, params), "trace query");
      return TimedSeconds([&] {
        OfflineRun run = Must(
            session.RunOffline(&store, query, EvalMode::kLayered), "trace");
        const Relation* rel = run.result.Table("back-lineage");
        *lineage = rel == nullptr ? std::vector<std::string>{}
                                  : rel->ToSortedStrings();
      });
    };
    std::vector<std::string> full_rows, custom_rows;
    const double base = subject.BaseSeconds(a);
    const double full_s =
        trace(full, queries::BackwardLineageFull(), &full_rows);
    const double custom_s =
        trace(subject.Store(a, kCustomBackward),
              queries::BackwardLineageCustom(), &custom_rows);
    Row& row = rows.emplace_back(
        Row{.analytic = kNames[a],
            .base_s = base,
            .modes = {{"full", full_s}, {"custom", custom_s}},
            .cells = {f.name(), kNames[a], f.threads(), Sec(base),
                      Sec(full_s), Ratio(full_s, base), Sec(custom_s),
                      Ratio(custom_s, base)}});
    row.Out("lineage", Count(full_rows.size()),
            std::to_string(full_rows.size()))
        .Out("match", full_rows == custom_rows ? "yes" : "NO",
             full_rows == custom_rows ? "yes" : "NO");
  }
}

/// Cost model for the unfolded provenance graph, per paper §3: a node
/// object per (vertex, superstep) with its value, plus an edge object per
/// send/receive message edge (with payload) and per evolution edge.
/// Object sizes mirror our engine's in-memory costs: 48B per vertex
/// object (id, value slot, adjacency header), 24B per edge object.
size_t UnfoldedBytes(ProvenanceStore& store) {
  constexpr size_t kNodeBytes = 48, kEdgeBytes = 24;
  const int superstep_rel = store.RelId("superstep");
  const int evolution_rel = store.RelId("evolution");
  const int send_rel = store.RelId("send-message");
  const int receive_rel = store.RelId("receive-message");
  size_t nodes = 0, edges = 0, payload = 0;
  for (int s = 0; s < store.num_layers(); ++s) {
    const auto layer = Must(store.GetLayerRelations(s, {}), "read layer");
    for (const auto& slice : layer->slices) {
      if (slice.rel == superstep_rel) {
        nodes += slice.tuples.size();
      } else if (slice.rel == evolution_rel) {
        edges += slice.tuples.size();
      } else if (slice.rel == send_rel || slice.rel == receive_rel) {
        edges += slice.tuples.size();
        for (const Tuple& t : slice.tuples) payload += t[2].ByteSize();
      }
    }
  }
  return nodes * kNodeBytes + edges * kEdgeBytes + payload;
}

void AblationCompact(Fixture& f, Rows& rows) {
  if (f.family() != Family::kWeb) return;
  for (Analytic a : {kPageRank, kWcc}) {
    ProvenanceStore& store = f.Store(a, kFullCapture);
    const size_t compact = store.TotalBytes();
    const size_t unfolded = UnfoldedBytes(store);
    const double ratio =
        static_cast<double>(unfolded) / static_cast<double>(compact);
    Row& row = rows.emplace_back(
        Row{.analytic = kNames[a], .cells = {f.name(), kNames[a]}});
    row.Out("compact_bytes", Count(compact), HumanBytes(compact))
        .Out("unfolded_bytes", Count(unfolded), HumanBytes(unfolded))
        .Out("unfolded_ratio", ratio, FormatDouble(ratio, 2) + "x");
  }
}

void AblationFastCapture(Fixture& f, Rows& rows) {
  // Interpreted runs are slow: the two smallest datasets only.
  if (f.family() != Family::kWeb || !f.dataset().naive_feasible) return;
  const AnalyzedQuery capture =
      Must(f.session().PrepareOnline(queries::CaptureFull()), "Query 2");
  for (Analytic a : {kPageRank, kWcc}) {
    const Capture& compiled = f.Captured(a, kFullCapture);
    std::string image;
    const double interpreted = TimedSeconds([&] {
      ProvenanceStore store;
      RunCapture(f.session(), a, capture, &store, /*use_fast_capture=*/false);
      image = Must(store.SerializeToString(), "store image");
    });
    const bool same =
        Must(compiled.store->SerializeToString(), "store image") == image;
    Row& row = rows.emplace_back(
        Row{.analytic = kNames[a],
            .base_s = f.BaseSeconds(a),
            .modes = {{"compiled", compiled.seconds},
                      {"interpreted", interpreted}},
            .cells = {f.name(), kNames[a], f.threads(), Sec(compiled.seconds),
                      Sec(interpreted), Ratio(interpreted, compiled.seconds)}});
    row.Out("same_bytes", same ? "yes" : "NO", same ? "yes" : "NO")
        .Out("image_bytes", Count(image.size()));
  }
}

void AblationRetention(Fixture& f, Rows& rows) {
  // Keep the unlimited runs small: the two smallest datasets only.
  if (f.family() != Family::kWeb || !f.dataset().naive_feasible) return;
  const AnalyzedQuery apt = Must(
      f.session().PrepareOnline(queries::Apt(),
                                {{"eps", Value(kAptEpsilon[kPageRank])}}),
      "apt");
  for (int window : {0, 2}) {
    const std::string label = window == 0 ? "unlimited" : "2";
    OnlineRunResult run;
    const double seconds = TimedSeconds(
        [&] { run = RunOnlineQuery(f.session(), kPageRank, apt, window); });
    Row& row = rows.emplace_back(
        Row{.analytic = "PageRank",
            .labels = {{"window", label}},
            .base_s = f.BaseSeconds(kPageRank),
            .modes = {{"online", seconds}},
            .cells = {f.name(), label, f.threads(), Sec(seconds)}});
    row.Out("transient_bytes", Count(run.transient_bytes),
            HumanBytes(run.transient_bytes));
    row.cells.push_back(AddVerdicts(run.query_result, /*cells=*/false, &row));
  }
}

struct Experiment {
  const char* name;  ///< `--only` key and the rows' `figure`
  const char* title;
  const char* paper_says;
  bool timed;  ///< runs at every kThreadCounts entry, else at the first
  void (*run)(Fixture&, Rows&);
  std::vector<std::string> header;
};

const std::vector<Experiment>& Experiments() {
  static const auto* kExperiments = new std::vector<Experiment>{
      {"table2", "Table 2: dataset characteristics",
       "IN-04 7.4M/194M deg 26.2 diam 28.1; UK-02 18.5M/298M deg 16.0 "
       "diam 21.6; AR-05 22.7M/640M deg 28.1 diam 22.4; UK-05 "
       "39.5M/936M deg 23.7 diam 23.2; ML-20 16.5K/20M deg 121",
       false, Table2, {"Dataset", "|V|", "|E|", "Avg Degree", "Avg Diameter",
                       "Input bytes"}},
      {"table3", "Table 3: input vs full provenance graph size",
       "PageRank/SSSP provenance ~10x input, WCC ~5x (IN-04: 4.1GB "
       "input -> 45.1/42.7/22.6GB)",
       false, Table3, {"Dataset", "Input", "PageRank", "(ratio)", "SSSP",
                       "(ratio)", "WCC", "(ratio)"}},
      {"table4", "Table 4: input vs custom (fwd-lineage) provenance size",
       "custom provenance < 40% of the input graph and covers > 80% "
       "of the input vertices (IN-04: 4.1GB -> 2.6/2.1/1.8GB)",
       false, Table4, {"Dataset", "Analytic", "Input", "Custom", "(ratio)",
                       "Vertices covered"}},
      {"fig7", "Figure 7: capture runtime (Full = Query 2, Custom = Query 3)",
       "Full capture 2.7-5.6x the analytic's runtime; custom capture < 2x",
       true, Fig7, {"Dataset", "Analytic", "Threads", "Baseline(s)", "Full(s)",
                    "Full/Base", "Custom(s)", "Custom/Base"}},
      {"fig8", "Figure 8: execution-monitoring queries (4, 5, 6)",
       "Online 1.1-1.3x baseline; Layered 3-3.7x; Naive 4-4.7x and "
       "does not scale past the two smallest datasets",
       true, Fig8, {"Dataset", "Query", "Threads", "Base(s)", "Online",
                    "Layered", "Naive", "Violations"}},
      {"fig9", "Figure 9: ALS queries 7 and 8 (online)",
       "Query 7 adds ~5% overhead; Query 8 takes ~1.2x ALS; for a "
       "0.5 threshold ~30% of the vertices report error increases",
       true, Fig9, {"Dataset", "Query", "Threads", "Base(s)", "Online", "Ratio",
                    "Flagged vertices"}},
      {"fig10", "Figure 10 + Tables 5/6: original vs apt-optimized analytics",
       "PageRank speedup 1.4x with L2 error 1e-3..1e-5; SSSP speedup 1.8x "
       "with L1 error ~1e-2; WCC 'optimization' yields error ~0.9",
       true, Fig10, {"Dataset", "Analytic", "Threads", "eps", "Speedup",
                     "Error", "Median orig", "Median opt", "Msgs saved"}},
      {"fig11", "Figure 11: apt query (Query 1) across analytics and modes",
       "Online 1.3-1.6x baseline; Layered 3.2-3.7x; Naive 3.8-5x; PageRank: "
       "60% of vertices skip safely, none unsafe; WCC: safe empty, all "
       "no-execute unsafe; ALS: few vertices in either table",
       true, Fig11, {"Dataset", "Analytic", "Threads", "Base(s)", "Online",
                     "Layered", "Naive", "safe", "unsafe", "no-execute"}},
      {"fig12",
       "Figure 12: backward lineage, full (Q10) vs custom (Q11+Q12) capture",
       "layered backward tracing takes 2.6-3.4x the analytic on the full "
       "provenance graph but only ~0.5x on the custom graph; identical "
       "lineage either way",
       true, Fig12, {"Dataset", "Analytic", "Threads", "Base(s)", "Full(s)",
                     "Full/Base", "Custom(s)", "Custom/Base", "Lineage",
                     "Match"}},
      {"ablation_compact",
       "Ablation: compact vs unfolded provenance representation",
       "the paper's compact format replaces n provenance nodes per "
       "vertex by one node with n-tuple annotations (\"much cheaper "
       "to represent n data items than vertex objects\")",
       false, AblationCompact,
       {"Dataset", "Analytic", "Compact", "Unfolded", "Unfolded/Compact"}},
      {"ablation_fastcapture",
       "Ablation: compiled vs interpreted capture (Query 2)",
       "(implementation ablation; the paper's capture overhead of "
       "2.7-5.6x presumes specialized capture code)",
       true, AblationFastCapture,
       {"Dataset", "Analytic", "Threads", "Compiled(s)", "Interpreted(s)",
        "Speedup", "Same bytes"}},
      {"ablation_retention", "Ablation: online EDB history retention window",
       "(no direct paper counterpart; supports the §5.2 claim that "
       "online evaluation avoids materializing the provenance graph)",
       true, AblationRetention,
       {"Dataset", "Window", "Threads", "Time(s)", "Transient bytes",
        "safe/unsafe/no-execute"}},
  };
  return *kExperiments;
}

/// Fixed-width paper-style table.
void PrintTable(const Experiment& e, const Rows& rows) {
  std::printf("\n=== %s ===\nPaper reports: %s\n", e.title, e.paper_says);
  std::printf("(reps per timing: %d; set ARIADNE_BENCH_REPS for more)\n\n",
              BenchReps());
  std::vector<const std::vector<std::string>*> lines = {&e.header};
  for (const Row& row : rows) {
    if (row.figure == e.name) lines.push_back(&row.cells);
  }
  std::vector<size_t> widths(e.header.size(), 0);
  for (const auto* line : lines) {
    for (size_t c = 0; c < line->size(); ++c) {
      widths[c] = std::max(widths[c], (*line)[c].size());
    }
  }
  for (size_t r = 0; r < lines.size(); ++r) {
    std::string text = "  ", rule = "  ";
    for (size_t c = 0; c < lines[r]->size(); ++c) {
      text += (*lines[r])[c];
      text.append(widths[c] - (*lines[r])[c].size() + 2, ' ');
      rule.append(widths[c], '-').append(2, ' ');
    }
    std::printf("%s\n", text.c_str());
    if (r == 0) std::printf("%s\n", rule.c_str());
  }
}

/// Reports every failed cross-check on stderr: a "NO" output, or outputs
/// that differ from the same row's at the first thread count.
bool CrossCheck(const Rows& rows) {
  std::vector<std::string> failures;
  std::map<std::string, const Row*> first_pass;
  for (const Row& row : rows) {
    std::string id = row.figure + " " + row.dataset + " " + row.analytic;
    for (const auto& [key, value] : row.labels) id += " " + key + "=" + value;
    const std::string at = id + " at " + std::to_string(row.threads) + "t";
    for (const auto& [key, value] : row.outputs) {
      if (value == Scalar("NO")) failures.push_back(at + ": " + key + " NO");
    }
    if (row.threads == kThreadCounts[0]) {
      first_pass[id] = &row;
    } else if (!first_pass.count(id) ||
               first_pass[id]->outputs != row.outputs) {
      failures.push_back(at + ": outputs differ from the first pass");
    }
  }
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "cross-check failed: %s\n", failure.c_str());
  }
  return failures.empty();
}

/// Appends one JSON object per timed mode of `row`, or one for an untimed
/// row.
void AppendJson(const Row& row, int host_threads,
                std::vector<std::string>* out) {
  JsonObject identity;
  identity.Set("figure", row.figure).Set("dataset", row.dataset);
  if (!row.analytic.empty()) identity.Set("analytic", row.analytic);
  for (const auto& [key, value] : row.labels) identity.Set(key, value);
  auto dump = [&](JsonObject object) {
    object.Set("host_hardware_threads", host_threads);
    for (const auto& [key, value] : row.outputs) {
      std::visit([&](const auto& v) { object.Set(key, v); }, value);
    }
    out->push_back(object.Dump());
  };
  if (row.modes.empty()) dump(JsonObject(identity).Set("threads", row.threads));
  for (const auto& [mode, seconds] : row.modes) {
    dump(JsonObject(identity)
             .Set("mode", mode)
             .Set("threads", row.threads)
             .Set("base_s", row.base_s)
             .Set("seconds", seconds)
             .Set("ratio", seconds / row.base_s));
  }
}

/// The experiments `--only a,b` names, every one without the flag;
/// empty on a bad argument.
std::vector<const Experiment*> Select(int argc, char** argv) {
  std::vector<std::string> names;
  for (const Experiment& e : Experiments()) names.push_back(e.name);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg != "--only" || i + 1 == argc) return {};
    names = Split(argv[++i], ',');
  }
  std::vector<const Experiment*> selected;
  for (const std::string& name : names) {
    const auto it =
        std::find_if(Experiments().begin(), Experiments().end(),
                     [&](const Experiment& e) { return name == e.name; });
    if (it == Experiments().end()) return {};
    selected.push_back(&*it);
  }
  return selected;
}

int Run(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  const std::string json_path = ConsumeJsonFlag(&argc, argv);
  const std::vector<const Experiment*> selected = Select(argc, argv);
  if (selected.empty()) {
    std::string names;
    for (const Experiment& e : Experiments()) {
      names += std::string(" ") + e.name;
    }
    std::fprintf(stderr, "usage: bench_paper [--only <experiment>,...] "
                 "[--json <path>]\nexperiments:%s\n", names.c_str());
    return 2;
  }

  const int host_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  Rows rows;
  JsonObject pass_seconds;
  for (int threads : kThreadCounts) {
    std::vector<const Experiment*> pass;
    for (const Experiment* e : selected) {
      if (e->timed || threads == kThreadCounts[0]) pass.push_back(e);
    }
    if (pass.empty()) continue;
    WallTimer pass_timer;
    for (const Dataset& dataset : Datasets()) {
      const auto fixture = Fixture::Generate(dataset, threads);
      for (const Experiment* e : pass) {
        const size_t first = rows.size();
        e->run(*fixture, rows);
        for (size_t i = first; i < rows.size(); ++i) {
          rows[i].figure = e->name;
          rows[i].threads = threads;
          if (rows[i].dataset.empty()) rows[i].dataset = dataset.name;
        }
      }
    }
    pass_seconds.Set(std::to_string(threads), pass_timer.ElapsedSeconds());
  }

  for (const Experiment* e : selected) PrintTable(*e, rows);
  std::printf("\nwall seconds per engine-thread pass: %s (%d hardware "
              "threads)\n",
              pass_seconds.Dump().c_str(), host_threads);
  if (!json_path.empty()) {
    std::vector<std::string> json_rows;
    for (const Row& row : rows) AppendJson(row, host_threads, &json_rows);
    JsonObject top;
    top.Set("bench", "paper")
        .Set("reps", BenchReps())
        .Set("host_hardware_threads", host_threads)
        .SetRaw("pass_seconds", pass_seconds.Dump())
        .SetRaw("results", JsonArray(json_rows, 4));
    if (!WriteJson(json_path, top)) return 1;
  }
  return CrossCheck(rows) ? 0 : 1;
}

}  // namespace
}  // namespace ariadne::bench

int main(int argc, char** argv) { return ariadne::bench::Run(argc, argv); }
