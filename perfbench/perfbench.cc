// End-to-end benchmark of the Ariadne library, driven through its public
// API from outside: Session (online, capture, offline), ProvenanceStore,
// LayeredQueryRun/BuildLayerView and serve::QueryServer.
//
//   perfbench --workload online_apt|capture|trace|serve_mix --seed N
//             --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
//
// Every timed repetition is bracketed by the frozen calibration kernel
// (calibration.h) and reported as wall / kernel * K, so a metric reads in
// seconds at the kernel's nominal speed whatever the shared host's speed
// is at that moment. --trace 0 prints the end-to-end metrics; --trace 1
// alternates traced and untraced repetitions, records spans around every
// call into the library, writes them as Chrome trace-event JSON and prints
// the per-layer metrics. The last stdout line is the JSON result; the exit
// code is 1 when any correctness gate failed. See README.md.

#include <malloc.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "calibration.h"
#include "common/mem.h"
#include "common/serialize.h"
#include "core/ariadne.h"
#include "eval/layered_step.h"
#include "serve/server.h"
#include "spans.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ariadne::AnalyzedQuery;
using ariadne::EvalMode;
using ariadne::EvalStats;
using ariadne::Graph;
using ariadne::OfflineRun;
using ariadne::ProvenanceStore;
using ariadne::QueryParams;
using ariadne::QueryResult;
using ariadne::Result;
using ariadne::RunStats;
using ariadne::Session;
using ariadne::Status;
using ariadne::Value;
using ariadne::VertexId;
namespace queries = ariadne::queries;
namespace serve = ariadne::serve;
namespace storage = ariadne::storage;

constexpr double kMiB = 1024.0 * 1024.0;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 9;
/// Measured repetitions per run even when --seconds has elapsed.
constexpr size_t kMinReps = 3;
/// Retention window of online runs and captures (safe for the paper's
/// queries; the paper benches use it too).
constexpr int kRetention = 2;

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// ------------------------------------------------------------ statistics

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least 10 samples beyond it; the largest
/// sample when there are 10 or fewer.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t beyond = 0;
};

Tail HighTail(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n <= 10) return {v.back(), 100.0, 0};
  const size_t idx = n - 11;
  return {v[idx], 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n),
          10};
}

// --------------------------------------------------------------- metrics

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics (--trace 0). Every workload reports each one;
// "an operation" is the workload's unit of work (see Workload::unit()).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        // median set-up, normalized
    {"p50_ms", "ms"},        // median operation latency, normalized
    {"tail_ms", "ms"},       // highest percentile with >= 10 samples beyond
    {"ops_per_s", "1/s"},    // operations / summed normalized time
    {"peak_rss_mb", "MB"},   // smallest per-repetition VmHWM
};

// The per-layer metrics (--trace 1), 0 where a layer does no work in a
// workload. Times are medians over traced repetitions, normalized like
// the end-to-end metrics; counts are per operation.
constexpr MetricSpec kPerLayer[] = {
    {"graph.generate_s", "s"},
    {"graph.edges", "count"},
    {"engine.analytic_s", "s"},
    {"engine.compute_s", "s"},
    {"engine.merge_s", "s"},
    {"engine.barrier_s", "s"},
    {"engine.messages", "count"},
    {"engine.supersteps", "count"},
    {"pql.prepare_ms", "ms"},
    {"pql.rule_s", "s"},
    {"pql.rule_evals", "count"},
    {"pql.rows_scanned", "count"},
    {"pql.index_probes", "count"},
    {"pql.probe_rows", "count"},
    {"pql.index_builds", "count"},
    {"pql.delta_rescans", "count"},
    {"pql.derived", "count"},
    {"online.overhead_x", "x"},
    {"online.wrapper_s", "s"},
    {"online.transient_mb", "MB"},
    {"capture.overhead_x", "x"},
    {"storage.flush_busy_s", "s"},
    {"storage.pages_written", "count"},
    {"storage.compression_ratio", "ratio"},
    {"store.compressed_mb", "MB"},
    {"store.logical_mb", "MB"},
    {"store.tuples", "count"},
    {"store.input_ratio", "x"},
    {"storage.read_s", "s"},
    {"storage.pages_read", "count"},
    {"storage.cache_hit_rate", "ratio"},
    {"layered.view_s", "s"},
    {"layered.step_s", "s"},
    {"layered.steps", "count"},
    {"layered.result_tuples", "count"},
    {"layered.peak_layer_mb", "MB"},
    {"serve.queue_ms", "ms"},
    {"serve.exec_ms", "ms"},
    {"serve.group_steps", "count"},
    {"serve.mean_group_size", "count"},
    {"serve.scan_hit_rate", "ratio"},
    {"serve.scans", "count"},
    {"serve.coalesced", "count"},
    {"serve.shed", "count"},
    {"bench.cal_ms", "ms"},
    {"raw.setup_s", "s"},
    {"raw.p50_ms", "ms"},
    {"raw.tail_ms", "ms"},
    {"raw.ops_per_s", "1/s"},
    {"trace.overhead_pct", "%"},
};

/// Per-layer spans whose summed self time is a per-layer metric.
const std::map<std::string, std::string>& SpanMetrics() {
  static const auto* m = new std::map<std::string, std::string>{
      {"ProvenanceStore::GetLayerRelations", "storage.read_s"},
      {"BuildLayerView", "layered.view_s"},
      {"LayeredQueryRun::Step", "layered.step_s"},
  };
  return *m;
}

/// Observations of one set-up or operation. `seconds` are wall times,
/// normalized by that repetition's kernel before they are reported (a
/// name ending in _ms is then scaled to ms); `values` are taken as is.
struct Fields {
  std::map<std::string, double> seconds;
  std::map<std::string, double> values;
};

void AddRunStats(Fields& f, const RunStats& s) {
  f.seconds["engine.compute_s"] += s.compute_seconds;
  f.seconds["engine.merge_s"] += s.merge_seconds;
  f.seconds["engine.barrier_s"] += s.seconds - s.rebuild_seconds -
                                   s.compute_seconds - s.merge_seconds;
  f.values["engine.messages"] += static_cast<double>(s.total_messages);
  f.values["engine.supersteps"] += static_cast<double>(s.supersteps);
}

void AddEvalStats(Fields& f, const EvalStats& e, double share = 1.0) {
  const ariadne::RuleEvalStats t = e.Total();
  f.seconds["pql.rule_s"] += share * t.seconds;
  f.values["pql.rule_evals"] += share * static_cast<double>(t.evaluations);
  f.values["pql.rows_scanned"] += share * static_cast<double>(t.rows_scanned);
  f.values["pql.index_probes"] += share * static_cast<double>(t.index_probes);
  f.values["pql.probe_rows"] += share * static_cast<double>(t.probe_rows);
  f.values["pql.index_builds"] += share * static_cast<double>(t.index_builds);
  f.values["pql.delta_rescans"] +=
      share * static_cast<double>(t.delta_rescans);
  f.values["pql.derived"] += share * static_cast<double>(t.derived);
}

/// Write-side storage observations of one capture into `store`.
void AddCaptureStorage(Fields& f, const ProvenanceStore& store,
                       const storage::StorageStats& s, const Graph& graph) {
  f.seconds["storage.flush_busy_s"] += s.flush_seconds;
  f.values["storage.pages_written"] = static_cast<double>(s.pages_written);
  f.values["storage.compression_ratio"] = s.CompressionRatio();
  f.values["store.compressed_mb"] =
      static_cast<double>(s.compressed_bytes) / kMiB;
  f.values["store.logical_mb"] =
      static_cast<double>(store.TotalBytes()) / kMiB;
  f.values["store.tuples"] = static_cast<double>(store.TotalTuples());
  f.values["store.input_ratio"] =
      static_cast<double>(store.TotalBytes()) /
      static_cast<double>(graph.InputByteSize());
}

void AddReadStorage(Fields& f, const storage::StorageStats& d,
                    double share = 1.0) {
  f.values["storage.pages_read"] += share * static_cast<double>(d.pages_read);
  const uint64_t lookups = d.cache_hits + d.cache_misses;
  f.values["storage.cache_hit_rate"] =
      lookups == 0 ? 0.0
                   : static_cast<double>(d.cache_hits) /
                         static_cast<double>(lookups);
}

void SpanRunStats(ScopedSpan& span, const RunStats& s) {
  span.Arg("run.seconds", s.seconds);
  span.Arg("run.compute_seconds", s.compute_seconds);
  span.Arg("run.merge_seconds", s.merge_seconds);
  span.Arg("run.rebuild_seconds", s.rebuild_seconds);
  span.Arg("run.messages", static_cast<double>(s.total_messages));
  span.Arg("run.supersteps", static_cast<double>(s.supersteps));
}

void SpanEvalStats(ScopedSpan& span, const EvalStats& e) {
  const ariadne::RuleEvalStats t = e.Total();
  span.Arg("eval.seconds", t.seconds);
  span.Arg("eval.evaluations", static_cast<double>(t.evaluations));
  span.Arg("eval.index_probes", static_cast<double>(t.index_probes));
  span.Arg("eval.derived", static_cast<double>(t.derived));
}

void SpanStorageStats(ScopedSpan& span, const storage::StorageStats& d) {
  span.Arg("storage.pages_read", static_cast<double>(d.pages_read));
  span.Arg("storage.pages_written", static_cast<double>(d.pages_written));
  span.Arg("storage.cache_hits", static_cast<double>(d.cache_hits));
  span.Arg("storage.cache_misses", static_cast<double>(d.cache_misses));
  span.Arg("storage.flush_seconds", d.flush_seconds);
}

/// Sorted dump of every result table: the byte-identity fingerprint.
std::string DumpTables(const QueryResult& result) {
  std::string dump;
  for (const std::string& name : result.TableNames()) {
    dump += "== " + name + "\n";
    for (const std::string& row : result.Table(name)->ToSortedStrings()) {
      dump += row;
      dump += '\n';
    }
  }
  return dump;
}

// -------------------------------------------------------------- workloads

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".bench_build/work";
};

/// Result of one operation.
struct Outcome {
  double wall = 0.0;           ///< timed seconds (preparation/cleanup excluded)
  std::vector<double> latencies;  ///< per-request seconds; empty = {wall}
  std::string error;           ///< first failed correctness gate, if any
  Fields fields;
};

ariadne::PageRankOptions PageRank20() {
  ariadne::PageRankOptions o;
  o.iterations = 20;  // the paper's web-graph runs use 20 supersteps
  return o;
}

class Workload {
 public:
  explicit Workload(const Config& config, std::string spill_root)
      : config_(config), spill_root_(std::move(spill_root)) {}
  virtual ~Workload() = default;

  /// What one operation is, for the report.
  virtual const char* unit() const = 0;
  /// Builds all state from scratch and runs the warm-up; returns the first
  /// error, empty on success. An earlier set-up has been torn down.
  virtual std::string Setup(Tracer& tracer, Fields& fields) = 0;
  /// Releases everything Setup built (a no-op before the first set-up), so
  /// the next set-up starts from the same state as the first.
  virtual void Teardown() {
    store_.reset();  // joins its flusher
    if (!store_dir_.empty()) fs::remove_all(store_dir_);
    store_dir_.clear();
    session_.reset();
    graph_.reset();
    baseline_.clear();
  }
  /// Computes the reference answers the gates compare against; runs once,
  /// untimed, after the last set-up.
  virtual std::string Reference(Tracer& /*tracer*/) { return ""; }
  /// One measured operation; it times itself so preparation and cleanup
  /// stay out of the measurement.
  virtual Outcome Run(Tracer& tracer) = 0;
  /// Human-readable description of the generated inputs.
  std::string inputs() const { return inputs_; }

 protected:
  ariadne::RmatOptions Rmat(int scale, double avg_degree) const {
    ariadne::RmatOptions o;
    o.scale = scale;
    o.avg_degree = avg_degree;
    o.seed = Mix64(config_.seed);
    return o;
  }

  /// Generates the R-MAT graph (span + graph.generate_s).
  std::string Generate(Tracer& tracer, Fields& fields, int scale,
                       double avg_degree) {
    const auto start = std::chrono::steady_clock::now();
    ScopedSpan span(tracer, "GenerateRmat");
    Result<Graph> g = ariadne::GenerateRmat(Rmat(scale, avg_degree));
    fields.seconds["graph.generate_s"] += Seconds(start);
    if (!g.ok()) return "GenerateRmat: " + g.status().ToString();
    graph_ = std::make_unique<Graph>(g.MoveValue());
    fields.values["graph.edges"] = static_cast<double>(graph_->num_edges());
    session_ = std::make_unique<Session>(graph_.get());
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "R-MAT scale %d (avg degree %.0f, generator seed %llu): "
                  "%lld vertices, %lld edges",
                  scale, avg_degree,
                  static_cast<unsigned long long>(Mix64(config_.seed)),
                  static_cast<long long>(graph_->num_vertices()),
                  static_cast<long long>(graph_->num_edges()));
    inputs_ = buf;
    return "";
  }

  Result<AnalyzedQuery> PrepareOnline(Tracer& tracer, Fields& fields,
                                      const std::string& text,
                                      const QueryParams& params = {}) {
    const auto start = std::chrono::steady_clock::now();
    ScopedSpan span(tracer, "Session::PrepareOnline");
    auto q = session_->PrepareOnline(text, params);
    fields.seconds["pql.prepare_ms"] += Seconds(start);
    return q;
  }

  /// A fresh spill directory under the run's spill root.
  std::string NewSpillDir() {
    const std::string dir =
        spill_root_ + "/" + std::to_string(spill_counter_++);
    fs::create_directories(dir);
    return dir;
  }

  /// Captures the full provenance (paper Query 2) of `analytic` into a
  /// new store that spills every layer (zero memory budget).
  template <typename P>
  std::string CaptureStore(Tracer& tracer, Fields& fields, P& analytic) {
    auto capture = PrepareOnline(tracer, fields, queries::CaptureFull());
    if (!capture.ok()) return "prepare capture: " + capture.status().ToString();
    store_dir_ = NewSpillDir();
    store_ = std::make_unique<ProvenanceStore>();
    Status st = store_->EnableSpill(store_dir_, 0);
    if (!st.ok()) return "EnableSpill: " + st.ToString();
    ScopedSpan span(tracer, "Session::Capture");
    auto stats = session_->Capture(analytic, *capture, store_.get(), kRetention);
    if (!stats.ok()) return "Capture: " + stats.status().ToString();
    SpanRunStats(span, *stats);
    SpanStorageStats(span, store_->storage_stats());
    AddCaptureStorage(fields, *store_, store_->storage_stats(), *graph_);
    return "";
  }

  /// Vertices with a recorded value at superstep `step` of the store.
  std::vector<VertexId> RecordedAt(int step) const {
    std::vector<VertexId> out;
    const int value_rel = store_->RelId("value");
    auto layer = store_->GetLayerRelations(step, {value_rel});
    if (!layer.ok()) return out;
    for (const ariadne::LayerSlice& slice : (*layer)->slices) {
      if (slice.rel == value_rel) out.push_back(slice.vertex);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// Roots whose Query-10 trace reaches superstep 0: vertices recorded at
  /// `sigma` at the end of a chain of recorded messages, one per
  /// superstep, starting at a vertex recorded at superstep 0. (A vertex
  /// nobody messaged has an empty backward lineage.)
  std::vector<VertexId> TraceableAt(int sigma) const {
    std::vector<VertexId> reach = RecordedAt(0);
    const int send_rel = store_->RelId("send-message");
    for (int step = 0; step < sigma && !reach.empty(); ++step) {
      auto layer = store_->GetLayerRelations(step, {send_rel});
      if (!layer.ok()) return {};
      std::vector<VertexId> next;
      for (const ariadne::LayerSlice& slice : (*layer)->slices) {
        if (slice.rel != send_rel ||
            !std::binary_search(reach.begin(), reach.end(), slice.vertex)) {
          continue;
        }
        for (const ariadne::Tuple& t : slice.tuples) {
          next.push_back(static_cast<VertexId>(t[1].AsInt()));
        }
      }
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      reach = std::move(next);
    }
    const std::vector<VertexId> recorded = RecordedAt(sigma);
    std::vector<VertexId> out;
    std::set_intersection(reach.begin(), reach.end(), recorded.begin(),
                          recorded.end(), std::back_inserter(out));
    return out;
  }

  /// Runs bare PageRank (engine.analytic_s) into `baseline_`, the values
  /// the non-interference gates compare against.
  std::string Baseline(Tracer& tracer, Fields& fields) {
    ariadne::PageRankProgram pagerank(PageRank20());
    const auto start = std::chrono::steady_clock::now();
    ScopedSpan span(tracer, "Session::RunBaseline");
    auto stats = session_->RunBaseline(pagerank, &baseline_);
    fields.seconds["engine.analytic_s"] += Seconds(start);
    if (!stats.ok()) return "RunBaseline: " + stats.status().ToString();
    SpanRunStats(span, *stats);
    return "";
  }

  const Config& config_;
  std::string spill_root_;
  int spill_counter_ = 0;
  std::string inputs_;
  std::unique_ptr<Graph> graph_;
  std::unique_ptr<Session> session_;
  std::unique_ptr<ProvenanceStore> store_;
  std::string store_dir_;
  std::vector<double> baseline_;
  Tracer off_{false};
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// PageRank (20 supersteps) with paper Query 1 (apt, $eps = 0.01)
/// evaluated online, retention 2. Operation: one Session::RunOnline.
class OnlineApt final : public Workload {
 public:
  using Workload::Workload;
  const char* unit() const override { return "online PageRank+apt run"; }

  std::string Setup(Tracer& tracer, Fields& fields) override {
    std::string err = Generate(tracer, fields, config_.smoke ? 6 : 8, 8);
    if (!err.empty()) return err;
    auto q = PrepareOnline(tracer, fields, queries::Apt(),
                           {{"eps", Value(0.01)}});
    if (!q.ok()) return "prepare apt: " + q.status().ToString();
    query_ = std::make_unique<AnalyzedQuery>(q.MoveValue());
    err = Baseline(tracer, fields);
    if (!err.empty()) return err;
    Outcome warm = Run(off_);
    return warm.error.empty() ? "" : "warm-up: " + warm.error;
  }

  Outcome Run(Tracer& tracer) override {
    Outcome out;
    ariadne::PageRankProgram pagerank(PageRank20());
    std::vector<double> values;
    Result<ariadne::OnlineRunResult> run = Status::Internal("not run");
    {
      const auto start = std::chrono::steady_clock::now();
      ScopedSpan span(tracer, "Session::RunOnline");
      run = session_->RunOnline(pagerank, *query_, kRetention, &values);
      out.wall = Seconds(start);
      if (run.ok()) {
        SpanRunStats(span, run->engine_stats);
        SpanEvalStats(span, run->eval_stats);
      }
    }
    if (!run.ok()) {
      out.error = "RunOnline: " + run.status().ToString();
      return out;
    }
    // Paper Theorem 5.4 (non-interference): the analytic's output is
    // bit-identical with and without the online query.
    if (!SameBits(values, baseline_)) {
      out.error = "online PageRank values differ from the bare analytic";
    }
    std::vector<size_t> sizes;
    for (const std::string& name : run->query_result.TableNames()) {
      sizes.push_back(run->query_result.TupleCount(name));
    }
    if (run->query_result.TotalTuples() == 0) out.error = "apt derived nothing";
    if (table_sizes_.empty()) table_sizes_ = sizes;
    if (sizes != table_sizes_) out.error = "apt table sizes changed";
    AddRunStats(out.fields, run->engine_stats);
    AddEvalStats(out.fields, run->eval_stats);
    out.fields.seconds["online.wrapper_s"] =
        run->engine_stats.compute_seconds - run->eval_stats.Total().seconds;
    out.fields.values["online.transient_mb"] =
        static_cast<double>(run->transient_bytes) / kMiB;
    return out;
  }

  void Teardown() override {
    query_.reset();
    table_sizes_.clear();
    Workload::Teardown();
  }

 private:
  std::unique_ptr<AnalyzedQuery> query_;
  std::vector<size_t> table_sizes_;
};

/// PageRank full capture (paper Query 2) into a store that spills every
/// layer. Operation: one Session::Capture, which returns with the store
/// flushed.
class CaptureWorkload final : public Workload {
 public:
  using Workload::Workload;
  const char* unit() const override { return "PageRank full capture"; }

  std::string Setup(Tracer& tracer, Fields& fields) override {
    std::string err = Generate(tracer, fields, config_.smoke ? 6 : 10, 8);
    if (!err.empty()) return err;
    auto q = PrepareOnline(tracer, fields, queries::CaptureFull());
    if (!q.ok()) return "prepare capture: " + q.status().ToString();
    query_ = std::make_unique<AnalyzedQuery>(q.MoveValue());
    err = Baseline(tracer, fields);
    if (!err.empty()) return err;
    Outcome warm = Run(off_);
    return warm.error.empty() ? "" : "warm-up: " + warm.error;
  }

  Outcome Run(Tracer& tracer) override {
    Outcome out;
    const std::string dir = NewSpillDir();
    auto store = std::make_unique<ProvenanceStore>();
    Status st = store->EnableSpill(dir, 0);
    if (!st.ok()) {
      out.error = "EnableSpill: " + st.ToString();
      return out;
    }
    ariadne::PageRankProgram pagerank(PageRank20());
    std::vector<double> values;
    Result<RunStats> run = Status::Internal("not run");
    {
      const auto start = std::chrono::steady_clock::now();
      ScopedSpan span(tracer, "Session::Capture");
      run = session_->Capture(pagerank, *query_, store.get(), kRetention,
                              &values);
      out.wall = Seconds(start);
      if (run.ok()) {
        SpanRunStats(span, *run);
        SpanStorageStats(span, store->storage_stats());
      }
    }
    if (!run.ok()) {
      out.error = "Capture: " + run.status().ToString();
    } else {
      const storage::StorageStats s = store->storage_stats();
      if (!SameBits(values, baseline_)) {
        out.error = "captured PageRank values differ from the bare analytic";
      }
      if (store->num_layers() != run->supersteps ||
          s.layers_flushed != static_cast<uint64_t>(run->supersteps)) {
        out.error = "capture did not spill one layer per superstep";
      }
      if (compressed_bytes_ == 0) compressed_bytes_ = s.compressed_bytes;
      if (s.compressed_bytes != compressed_bytes_ || s.compressed_bytes == 0) {
        out.error = "compressed store size changed between repetitions";
      }
      AddRunStats(out.fields, *run);
      AddCaptureStorage(out.fields, *store, s, *graph_);
    }
    store.reset();  // joins the flusher
    fs::remove_all(dir);
    return out;
  }

  void Teardown() override {
    query_.reset();
    compressed_bytes_ = 0;
    Workload::Teardown();
  }

 private:
  std::unique_ptr<AnalyzedQuery> query_;
  uint64_t compressed_bytes_ = 0;
};

/// One root of a query: the PQL program and its parameters.
struct QuerySpec {
  std::string label;
  std::string text;
  QueryParams params;
  std::string result_table;  ///< must be non-empty in every answer
};

QuerySpec BackwardTrace(VertexId alpha, int sigma) {
  return {"q10(alpha=" + std::to_string(alpha) +
              ",sigma=" + std::to_string(sigma) + ")",
          queries::BackwardLineageFull(),
          {{"alpha", Value(static_cast<int64_t>(alpha))},
           {"sigma", Value(static_cast<int64_t>(sigma))}},
          "back-lineage"};
}

/// Query-10 backward traces over a spilled PageRank full capture built
/// during set-up. Operation: one round of traces through
/// Session::RunOffline(kLayered), one per root, with roots at half and at
/// all of the captured supersteps. A round, not a single trace, is the
/// unit so every operation does the same mix of trace depths.
class TraceWorkload final : public Workload {
 public:
  using Workload::Workload;
  const char* unit() const override {
    return "round of 2 Query-10 layered traces";
  }

  std::string Setup(Tracer& tracer, Fields& fields) override {
    std::string err = Generate(tracer, fields, config_.smoke ? 5 : 8, 8);
    if (!err.empty()) return err;
    ariadne::PageRankProgram pagerank(PageRank20());
    err = CaptureStore(tracer, fields, pagerank);
    if (!err.empty()) return err;
    std::mt19937_64 rng(Mix64(config_.seed ^ 0x7472616365ULL));
    const int last = store_->num_layers() - 1;
    for (int r = 1; r <= 2; ++r) {
      const int sigma = std::max(1, last * r / 2);
      const std::vector<VertexId> roots = TraceableAt(sigma);
      if (roots.empty()) return "no traceable root at superstep " +
                                std::to_string(sigma);
      specs_.push_back(BackwardTrace(roots[rng() % roots.size()], sigma));
    }
    for (const QuerySpec& spec : specs_) {
      const auto start = std::chrono::steady_clock::now();
      ScopedSpan span(tracer, "Session::PrepareOffline");
      auto q = session_->PrepareOffline(spec.text, *store_, spec.params);
      fields.seconds["pql.prepare_ms"] += Seconds(start);
      if (!q.ok()) return "prepare " + spec.label + ": " + q.status().ToString();
      queries_.push_back(std::make_unique<AnalyzedQuery>(q.MoveValue()));
    }
    Outcome warm = Run(off_);
    return warm.error.empty() ? "" : "warm-up: " + warm.error;
  }

  Outcome Run(Tracer& tracer) override {
    Outcome out;
    const storage::StorageStats before = store_->storage_stats();
    const auto start = std::chrono::steady_clock::now();
    std::vector<Result<OfflineRun>> runs;
    for (size_t r = 0; r < queries_.size(); ++r) {
      if (tracer.enabled()) {
        runs.push_back(TracedTrace(tracer, *queries_[r], r + 1));
      } else {
        runs.push_back(
            session_->RunOffline(store_.get(), *queries_[r], EvalMode::kLayered));
      }
    }
    out.wall = Seconds(start);
    for (size_t r = 0; r < runs.size(); ++r) {
      if (!runs[r].ok()) {
        out.error = specs_[r].label + ": " + runs[r].status().ToString();
        continue;
      }
      const OfflineRun& run = *runs[r];
      const std::string dump = DumpTables(run.result);
      if (reference_.size() <= r) reference_.push_back(dump);
      if (dump != reference_[r]) {
        out.error = specs_[r].label + ": result differs from the first run";
      }
      if (run.result.TupleCount(specs_[r].result_table) == 0) {
        out.error = specs_[r].label + ": empty " + specs_[r].result_table;
      }
      out.fields.values["layered.steps"] += run.stats.supersteps;
      out.fields.values["layered.result_tuples"] +=
          static_cast<double>(run.stats.result_tuples);
      out.fields.values["layered.peak_layer_mb"] = std::max(
          out.fields.values["layered.peak_layer_mb"],
          static_cast<double>(run.stats.peak_layer_bytes) / kMiB);
      AddEvalStats(out.fields, run.stats.eval);
    }
    AddReadStorage(out.fields, store_->storage_stats().Delta(before));
    return out;
  }

  void Teardown() override {
    queries_.clear();
    specs_.clear();
    reference_.clear();
    Workload::Teardown();
  }

 private:
  /// The loop of LayeredEvaluator::Run (src/eval/layered.cc), re-driven
  /// through the public API with a span around every call.
  Result<OfflineRun> TracedTrace(Tracer& tracer, const AnalyzedQuery& query,
                                 uint64_t request) {
    ScopedSpan trace(tracer, "trace", request);
    const auto start = std::chrono::steady_clock::now();
    ariadne::LayeredQueryRun run(graph_.get(), store_.get(), &query);
    {
      ScopedSpan span(tracer, "LayeredQueryRun::Init", request);
      ARIADNE_RETURN_NOT_OK(run.Init());
    }
    const int send_rel = store_->RelId("send-message");
    const int receive_rel = store_->RelId("receive-message");
    while (!run.done()) {
      const int step = run.NextLayerStep();
      std::shared_ptr<const ariadne::Layer> layer;
      {
        ScopedSpan span(tracer, "ProvenanceStore::GetLayerRelations", request);
        const storage::StorageStats before = store_->storage_stats();
        ARIADNE_ASSIGN_OR_RETURN(
            layer, store_->GetLayerRelations(step, run.needed_rels()));
        span.Arg("layer", step);
        SpanStorageStats(span, store_->storage_stats().Delta(before));
      }
      const int after = run.LayerStepAfterNext();
      if (after >= 0) {
        ScopedSpan span(tracer, "ProvenanceStore::PrefetchLayer", request);
        store_->PrefetchLayer(after, run.needed_rels());
      }
      std::shared_ptr<const ariadne::LayerView> view;
      {
        ScopedSpan span(tracer, "BuildLayerView", request);
        view = ariadne::BuildLayerView(std::move(layer), step, send_rel,
                                       receive_rel, run.needed_rels());
      }
      ScopedSpan span(tracer, "LayeredQueryRun::Step", request);
      ARIADNE_RETURN_NOT_OK(run.Step(*view));
    }
    ScopedSpan span(tracer, "LayeredQueryRun::Finish", request);
    auto result = run.Finish(Seconds(start));
    if (result.ok()) {
      SpanEvalStats(span, result->stats.eval);
      span.Arg("result_tuples", static_cast<double>(result->stats.result_tuples));
    }
    return result;
  }

  std::vector<QuerySpec> specs_;
  std::vector<std::unique_ptr<AnalyzedQuery>> queries_;
  std::vector<std::string> reference_;
};

/// A PageRank full capture served by serve::QueryServer (step_threads 2,
/// max_inflight 4) to a closed loop of 4 clients driven from one thread:
/// each wave submits 4 distinct queries together and waits for all of
/// them. Every wave holds two Query-10 traces (at a half and three
/// quarters of the supersteps), one forward lineage and one offline apt.
/// Operation: one served query. PageRank, not SSSP: its capture always has
/// 21 layers, where SSSP's superstep count follows the seeded graph's
/// diameter and moves the work of a wave by a fifth from seed to seed.
class ServeMix final : public Workload {
 public:
  using Workload::Workload;
  ~ServeMix() override { Teardown(); }
  const char* unit() const override { return "served query (4 per wave)"; }

  std::string Setup(Tracer& tracer, Fields& fields) override {
    std::string err = Generate(tracer, fields, config_.smoke ? 5 : 8, 8);
    if (!err.empty()) return err;
    ariadne::PageRankProgram pagerank(PageRank20());
    err = CaptureStore(tracer, fields, pagerank);
    if (!err.empty()) return err;
    {
      ScopedSpan span(tracer, "serve::ServiceState::Create");
      auto state = serve::ServiceState::Create(graph_.get(), store_.get());
      if (!state.ok()) return "ServiceState::Create: " + state.status().ToString();
      state_ = state.MoveValue();
    }
    auto forward = ariadne::ReadFile(std::string(PERFBENCH_SOURCE_DIR) +
                                     "/examples/pql/forward_lineage.pql");
    if (!forward.ok()) return forward.status().ToString();
    const int last = store_->num_layers() - 1;
    const std::vector<VertexId> at_half = TraceableAt(std::max(1, last / 2));
    const std::vector<VertexId> at_late = TraceableAt(std::max(1, last * 3 / 4));
    const std::vector<VertexId> at_zero = RecordedAt(0);
    if (at_half.empty() || at_late.empty() || at_zero.empty()) {
      return "no recorded vertices to root traces at";
    }
    std::mt19937_64 rng(Mix64(config_.seed ^ 0x7365727665ULL));
    const double eps[] = {0.05, 0.1, 0.2, 0.4};
    const int num_waves = config_.smoke ? 2 : 8;
    for (int w = 0; w < num_waves; ++w) {
      std::vector<QuerySpec> wave;
      wave.push_back(
          BackwardTrace(at_half[rng() % at_half.size()], std::max(1, last / 2)));
      wave.push_back(BackwardTrace(at_late[rng() % at_late.size()],
                                   std::max(1, last * 3 / 4)));
      const VertexId alpha = at_zero[rng() % at_zero.size()];
      wave.push_back({"forward(alpha=" + std::to_string(alpha) + ")", *forward,
                      {{"alpha", Value(static_cast<int64_t>(alpha))}},
                      "fwd-lineage"});
      wave.push_back({"apt(eps=" + std::to_string(eps[w % 4]) + ")",
                      queries::Apt(), {{"eps", Value(eps[w % 4])}}, ""});
      waves_.push_back(std::move(wave));
    }
    for (const auto& wave : waves_) {
      for (const QuerySpec& spec : wave) {
        const auto start = std::chrono::steady_clock::now();
        ScopedSpan span(tracer, "serve::ServiceState::Prepare");
        auto q = state_->Prepare(spec.text, spec.params);
        fields.seconds["pql.prepare_ms"] += Seconds(start);
        if (!q.ok()) return "prepare " + spec.label + ": " + q.status().ToString();
      }
    }
    serve::ServerOptions options;
    options.max_inflight = 4;
    options.step_threads = 2;
    server_ = std::make_unique<serve::QueryServer>(state_.get(), options);
    Outcome warm = Run(off_);
    return warm.error.empty() ? "" : "warm-up: " + warm.error;
  }

  /// One-shot Session::RunOffline answers: every served answer must match
  /// these bytes.
  std::string Reference(Tracer& tracer) override {
    for (const auto& wave : waves_) {
      std::vector<std::string> dumps;
      for (const QuerySpec& spec : wave) {
        ScopedSpan span(tracer, "Session::RunOffline");
        auto q = session_->PrepareOffline(spec.text, *store_, spec.params);
        if (!q.ok()) return "prepare " + spec.label + ": " + q.status().ToString();
        auto run = session_->RunOffline(store_.get(), *q, EvalMode::kLayered);
        if (!run.ok()) return spec.label + ": " + run.status().ToString();
        if (!spec.result_table.empty() &&
            run->result.TupleCount(spec.result_table) == 0) {
          return spec.label + ": empty " + spec.result_table;
        }
        if (run->result.TotalTuples() == 0) return spec.label + ": empty result";
        dumps.push_back(DumpTables(run->result));
      }
      reference_.push_back(std::move(dumps));
    }
    return "";
  }

  Outcome Run(Tracer& tracer) override {
    Outcome out;
    const size_t w = next_wave_++ % waves_.size();
    const std::vector<QuerySpec>& wave = waves_[w];
    const serve::ServerStats before = server_->stats();
    const storage::StorageStats storage_before = store_->storage_stats();
    ScopedSpan wave_span(tracer, "wave", 0);
    std::vector<std::future<serve::ServeResponse>> futures;
    std::vector<double> submitted;
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < wave.size(); ++i) {
      serve::ServeRequest request;
      request.name = wave[i].label;
      request.text = wave[i].text;
      request.params = wave[i].params;
      submitted.push_back(tracer.enabled() ? tracer.Now() : 0.0);
      futures.push_back(server_->Submit(std::move(request)));
    }
    std::vector<serve::ServeResponse> responses;
    for (auto& f : futures) responses.push_back(f.get());
    out.wall = Seconds(start);
    const serve::ServerStats after = server_->stats();
    const double share = 1.0 / static_cast<double>(wave.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      const serve::ServeResponse& r = responses[i];
      if (!r.ok()) {
        out.error = wave[i].label + ": " + r.status.ToString();
        continue;
      }
      // The set-up warm-up runs before the references exist.
      if (!reference_.empty() && DumpTables(r.result) != reference_[w][i]) {
        out.error = wave[i].label + ": served result differs from one-shot";
      }
      out.latencies.push_back(r.queue_seconds + r.exec_seconds);
      out.fields.seconds["serve.queue_ms"] += share * r.queue_seconds;
      out.fields.seconds["serve.exec_ms"] += share * r.exec_seconds;
      out.fields.values["layered.steps"] += share * r.stats.supersteps;
      out.fields.values["layered.result_tuples"] +=
          share * static_cast<double>(r.stats.result_tuples);
      out.fields.values["layered.peak_layer_mb"] = std::max(
          out.fields.values["layered.peak_layer_mb"],
          static_cast<double>(r.stats.peak_layer_bytes) / kMiB);
      AddEvalStats(out.fields, r.stats.eval, share);
      if (tracer.enabled()) {
        const uint64_t id = static_cast<uint64_t>(w * 16 + i + 1);
        const int lane = 10 + static_cast<int>(i);
        const double t0 = submitted[i];
        const double t1 = t0 + r.queue_seconds;
        const double t2 = t1 + r.exec_seconds;
        const int req = tracer.Add("serve::QueryServer::Submit", t0, t2,
                                   wave_span.id(), id, lane);
        tracer.Add("queue", t0, t1, req, id, lane);
        const int exec = tracer.Add("exec", t1, t2, req, id, lane);
        tracer.Arg(exec, "result_tuples",
                   static_cast<double>(r.stats.result_tuples));
        tracer.Arg(exec, "cache_misses", static_cast<double>(r.cache.misses));
      }
    }
    const uint64_t groups = after.group_steps - before.group_steps;
    const uint64_t subscribers = after.scan.subscribers - before.scan.subscribers;
    out.fields.values["serve.group_steps"] = static_cast<double>(groups);
    out.fields.values["serve.mean_group_size"] =
        groups == 0 ? 0.0
                    : static_cast<double>(after.query_steps - before.query_steps) /
                          static_cast<double>(groups);
    out.fields.values["serve.scan_hit_rate"] =
        subscribers == 0
            ? 0.0
            : static_cast<double>(after.scan.shared_hits -
                                  before.scan.shared_hits) /
                  static_cast<double>(subscribers);
    out.fields.values["serve.scans"] =
        static_cast<double>(after.scan.scans - before.scan.scans);
    out.fields.values["serve.coalesced"] =
        static_cast<double>(after.coalesced - before.coalesced);
    out.fields.values["serve.shed"] =
        static_cast<double>(after.shed - before.shed);
    AddReadStorage(out.fields, store_->storage_stats().Delta(storage_before),
                   share);
    wave_span.Arg("server.group_steps", static_cast<double>(groups));
    wave_span.Arg("server.query_steps",
                  static_cast<double>(after.query_steps - before.query_steps));
    wave_span.Arg("server.scans",
                  static_cast<double>(after.scan.scans - before.scan.scans));
    wave_span.Arg("server.completed",
                  static_cast<double>(after.completed - before.completed));
    return out;
  }

  void Teardown() override {
    server_.reset();  // drains and joins the scheduler and step threads
    state_.reset();
    waves_.clear();
    reference_.clear();
    next_wave_ = 0;
    Workload::Teardown();
  }

 private:
  std::vector<std::vector<QuerySpec>> waves_;
  std::vector<std::vector<std::string>> reference_;
  size_t next_wave_ = 0;
  std::unique_ptr<serve::ServiceState> state_;
  std::unique_ptr<serve::QueryServer> server_;
};

// ------------------------------------------------------------ the runner

/// A measured repetition: its wall time and the host's kernel time around
/// it (mean of the kernels run just before and just after).
struct Rep {
  double wall = 0.0;
  double kernel = 0.0;
  double Norm(double seconds) const {
    return seconds / kernel * kKernelNominalSeconds;
  }
};

/// Resets this process's peak RSS to its current RSS (Linux >= 4.0).
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

std::string FsType(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

/// Median over repetitions of each field, normalized by the repetition's
/// kernel for time fields.
std::map<std::string, double> FieldMedians(const std::vector<Fields>& fields,
                                           const std::vector<Rep>& reps) {
  std::map<std::string, std::vector<double>> samples;
  for (size_t i = 0; i < fields.size(); ++i) {
    for (const auto& [name, s] : fields[i].seconds) {
      const double scale = name.size() > 3 && name.substr(name.size() - 3) == "_ms"
                               ? 1e3
                               : 1.0;
      samples[name].push_back(reps[i].Norm(s) * scale);
    }
    for (const auto& [name, v] : fields[i].values) samples[name].push_back(v);
  }
  std::map<std::string, double> out;
  for (auto& [name, v] : samples) out[name] = Median(std::move(v));
  return out;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "online_apt|capture|trace|serve_mix --seed N --seconds S "
               "--trace 0|1 [--smoke] [--work-dir DIR]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  Config config;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (v == nullptr) return Usage(("missing value for " + flag).c_str());
    ++i;
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = v;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(v, &end, 10);
      have_seed = *v != '\0' && *end == '\0';
      if (!have_seed) return Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(config.seconds > 0) || config.seconds > 600) {
        return Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      config.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--work-dir") {
      config.work_dir = v;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) return Usage("--seed is required");

  std::error_code ec;
  const std::string spill_root = config.work_dir + "/spill-" +
                                 config.workload + "-" +
                                 std::to_string(::getpid());
  fs::create_directories(spill_root, ec);
  if (ec) return Usage(("cannot create " + spill_root).c_str());
  std::unique_ptr<Workload> workload;
  if (config.workload == "online_apt") {
    workload = std::make_unique<OnlineApt>(config, spill_root);
  } else if (config.workload == "capture") {
    workload = std::make_unique<CaptureWorkload>(config, spill_root);
  } else if (config.workload == "trace") {
    workload = std::make_unique<TraceWorkload>(config, spill_root);
  } else if (config.workload == "serve_mix") {
    workload = std::make_unique<ServeMix>(config, spill_root);
  } else {
    fs::remove_all(spill_root, ec);
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }

  Tracer tracer(config.trace);
  Tracer untraced(false);
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  auto gate = [&](const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (errors.size() < 5) errors.push_back(error);
  };
  std::vector<double> kernels;
  auto kernel = [&] {
    // Every kernel, and so every set-up and repetition after it, starts
    // from a heap with its free pages returned, as in a fresh process:
    // the peak RSS of a repetition is then live memory plus the
    // operation's own, not whatever earlier work left cached.
    malloc_trim(0);
    kernels.push_back(TimeKernel());
    return kernels.back();
  };

  // Set-up, kSetupReps times from scratch, each between two kernels. The
  // previous set-up is torn down first, before the kernel and outside the
  // timed window, so every set-up starts from the state the first one did.
  std::vector<Rep> setup_reps;
  std::vector<Fields> setup_fields;
  for (int i = 0; i < kSetupReps && failed == 0; ++i) {
    workload->Teardown();
    const double before = kernel();
    Fields fields;
    const auto start = std::chrono::steady_clock::now();
    const std::string error = workload->Setup(tracer, fields);
    const double wall = Seconds(start);
    setup_reps.push_back({wall, 0.5 * (before + kernel())});
    setup_fields.push_back(std::move(fields));
    gate(error.empty() ? "" : "set-up: " + error);
  }

  double k_prev = 0.0;
  if (failed == 0) {
    const std::string error = workload->Reference(tracer);
    if (!error.empty()) gate("reference: " + error);
    k_prev = kernel();
  }

  // Measured repetitions; with --trace 1 every other one is traced.
  std::vector<Rep> reps, traced_reps;
  // Per-request latencies (the tail), each repetition's mean request
  // latency (the median) and the peak RSS during each repetition (the
  // smallest is reported: on capture the peak swings by 2x from one
  // repetition to the next with the depth of the write-behind queue, while
  // the floor, live memory plus what the operation itself needs, repeats).
  std::vector<double> latencies, raw_latencies, typical, raw_typical, rss;
  std::vector<Fields> traced_fields;
  size_t ops_per_rep = 1;
  bool per_rep_rss = true;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(config.seconds);
  for (size_t n = 0;
       failed == 0 &&
       (n < (config.trace ? 2 * kMinReps : kMinReps) ||
        std::chrono::steady_clock::now() < deadline);
       ++n) {
    const bool traced = config.trace && n % 2 == 1;
    const size_t mark = tracer.size();
    if (!traced) per_rep_rss = per_rep_rss && ResetPeakRss();
    Outcome outcome = workload->Run(traced ? tracer : untraced);
    if (!traced) rss.push_back(static_cast<double>(ariadne::PeakRssBytes()));
    const double k = kernel();
    const Rep rep{outcome.wall, 0.5 * (k_prev + k)};
    k_prev = k;
    gate(outcome.error);
    if (traced) {
      for (const auto& [name, self] : tracer.SelfSeconds(mark)) {
        auto it = SpanMetrics().find(name);
        if (it != SpanMetrics().end()) outcome.fields.seconds[it->second] += self;
      }
      traced_reps.push_back(rep);
      traced_fields.push_back(std::move(outcome.fields));
      continue;
    }
    reps.push_back(rep);
    if (outcome.latencies.empty()) outcome.latencies.push_back(outcome.wall);
    ops_per_rep = outcome.latencies.size();
    double sum = 0.0;
    for (double l : outcome.latencies) {
      latencies.push_back(rep.Norm(l));
      raw_latencies.push_back(l);
      sum += l;
    }
    typical.push_back(rep.Norm(sum / static_cast<double>(ops_per_rep)));
    raw_typical.push_back(sum / static_cast<double>(ops_per_rep));
  }
  if (!per_rep_rss) {
    rss.assign(1, static_cast<double>(ariadne::PeakRssBytes()));
  }

  // End-to-end metrics (untraced repetitions only). Throughput is every
  // completed operation over the summed time of the repetitions, so unlike
  // the median latency it also counts the slow ones.
  std::vector<double> setup_norm, setup_raw, rep_norm;
  for (const Rep& r : setup_reps) {
    setup_norm.push_back(r.Norm(r.wall));
    setup_raw.push_back(r.wall);
  }
  double norm_sum = 0.0, raw_sum = 0.0;
  for (const Rep& r : reps) {
    rep_norm.push_back(r.Norm(r.wall));
    norm_sum += rep_norm.back();
    raw_sum += r.wall;
  }
  const Tail tail = HighTail(latencies);
  const Tail raw_tail = HighTail(raw_latencies);
  const double ops = static_cast<double>(latencies.size());
  std::map<std::string, double> e2e = {
      {"setup_s", Median(setup_norm)},
      {"p50_ms", 1e3 * Median(typical)},
      {"tail_ms", 1e3 * tail.value},
      {"ops_per_s", norm_sum > 0 ? ops / norm_sum : 0.0},
      {"peak_rss_mb",
       rss.empty() ? 0.0 : *std::min_element(rss.begin(), rss.end()) / kMiB},
  };
  std::map<std::string, double> layer = FieldMedians(setup_fields, setup_reps);
  for (const auto& [name, v] :
       FieldMedians(traced_fields, traced_reps)) {
    layer[name] = v;
  }
  const double analytic = layer["engine.analytic_s"];
  const double op_s = e2e["p50_ms"] / 1e3;
  if (analytic > 0 && config.workload == "online_apt") {
    layer["online.overhead_x"] = op_s / analytic;
  }
  if (analytic > 0 && config.workload == "capture") {
    layer["capture.overhead_x"] = op_s / analytic;
  }
  layer["bench.cal_ms"] = 1e3 * Median(kernels);
  layer["raw.setup_s"] = Median(setup_raw);
  layer["raw.p50_ms"] = 1e3 * Median(raw_typical);
  layer["raw.tail_ms"] = 1e3 * raw_tail.value;
  layer["raw.ops_per_s"] = raw_sum > 0 ? ops / raw_sum : 0.0;
  if (!traced_reps.empty() && !rep_norm.empty()) {
    std::vector<double> traced_norm;
    for (const Rep& r : traced_reps) traced_norm.push_back(r.Norm(r.wall));
    layer["trace.overhead_pct"] =
        100.0 * (Median(traced_norm) / Median(rep_norm) - 1.0);
  }

  // Human-readable report.
  std::printf("perfbench %s, seed %llu (confirm a claim on a second seed, "
              "e.g. --seed %llu)\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              static_cast<unsigned long long>(config.seed + 1000));
  std::printf("inputs: %s\n", workload->inputs().c_str());
  std::printf("host: nproc %u, K %.1f ms (kernel nominal), bench.cal_ms "
              "%.2f (median of %zu kernel runs, min %.2f, max %.2f)\n",
              std::thread::hardware_concurrency(),
              1e3 * kKernelNominalSeconds, 1e3 * Median(kernels),
              kernels.size(),
              1e3 * *std::min_element(kernels.begin(), kernels.end()),
              1e3 * *std::max_element(kernels.begin(), kernels.end()));
  std::printf("spill dir: %s (%s)\n", spill_root.c_str(),
              FsType(spill_root).c_str());
  std::printf("operation: %s; %zu untraced repetitions, %zu traced, %zu "
              "set-ups\n",
              workload->unit(), reps.size(), traced_reps.size(),
              setup_reps.size());
  std::printf("  %-12s %14.6g s   raw %.6g s (median of %zu set-ups)\n",
              "setup_s", e2e["setup_s"], layer["raw.setup_s"],
              setup_reps.size());
  std::printf("  %-12s %14.6g ms  raw %.6g ms (median of %zu repetitions' "
              "mean over %zu request(s))\n",
              "p50_ms", e2e["p50_ms"], layer["raw.p50_ms"], typical.size(),
              ops_per_rep);
  std::printf("  %-12s %14.6g ms  raw %.6g ms (p%.1f, %zu of %zu samples "
              "beyond)\n",
              "tail_ms", e2e["tail_ms"], layer["raw.tail_ms"], tail.percentile,
              tail.beyond, latencies.size());
  std::printf("  %-12s %14.6g 1/s raw %.6g 1/s (%zu operations over the "
              "summed repetition time)\n",
              "ops_per_s", e2e["ops_per_s"], layer["raw.ops_per_s"],
              latencies.size());
  std::printf("  %-12s %14.6g MB  (%s; median %.6g MB, max %.6g MB)\n",
              "peak_rss_mb", e2e["peak_rss_mb"],
              per_rep_rss ? "smallest per-repetition peak"
                          : "whole-run peak: clear_refs unavailable",
              Median(rss) / kMiB,
              rss.empty() ? 0.0
                          : *std::max_element(rss.begin(), rss.end()) / kMiB);
  std::printf("gates: %llu operations attempted, %llu failed\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const std::string& e : errors) {
    std::printf("  FAILED: %s\n", e.c_str());
  }
  if (config.trace) {
    std::printf("per-layer metrics (median over %zu traced repetitions):\n",
                traced_reps.size());
    for (const MetricSpec& m : kPerLayer) {
      std::printf("  %-26s %14.6g %s\n", m.name, layer[m.name], m.unit);
    }
    std::map<std::string, std::pair<double, double>> spans;  // self, total
    for (const auto& [name, self] : tracer.SelfSeconds(0)) {
      spans[name].first = self;
    }
    for (const Span& s : tracer.spans()) {
      spans[s.name].second += s.end - s.start;
    }
    std::printf("span self/total seconds (raw, whole run):\n");
    for (const auto& [name, st] : spans) {
      std::printf("  %-36s self %10.4f  total %10.4f\n", name.c_str(),
                  st.first, st.second);
    }
    const std::string path = config.work_dir + "/trace-" + config.workload +
                             "-" + std::to_string(config.seed) + ".json";
    if (tracer.WriteChromeJson(path)) {
      std::printf("chrome trace: %s (%zu spans)\n", path.c_str(),
                  tracer.size());
    } else {
      gate("cannot write " + path);
    }
  }

  // The result line.
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricSpec& m, double value) {
    char buf[256];
    if (!std::isfinite(value)) value = 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, value, m.unit);
    json += buf;
    first = false;
  };
  if (config.trace) {
    for (const MetricSpec& m : kPerLayer) emit(m, layer[m.name]);
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m, e2e[m.name]);
  }
  json += "}}";
  workload.reset();  // stops server threads and flushers
  fs::remove_all(spill_root, ec);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
