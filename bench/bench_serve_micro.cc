// Micro-benchmark of the multi-tenant query server (DESIGN.md §2.6):
// Quegel-style superstep-sharing vs sequential one-shot evaluation.
//
// Running with `--json out.json` skips google-benchmark and runs the
// concurrency sweep behind the checked-in BENCH_serve.json: a mixed
// backward/forward/apt workload (examples/pql + builtins) over one
// spilled SSSP capture, at 1..256 concurrent queries, with 1 and with 4
// step threads. Each level runs ARIADNE_BENCH_REPS times (default 1) and
// reports the run of median serve time, with the median sequential time.
// Per level it reports aggregate QPS, p50/p95/p99 latency, the shared-scan hit rate,
// the in-flight coalescing count, and the speedup over evaluating the
// same query list sequentially with one-shot Session::RunOffline — and
// aborts if any served result differs from its one-shot reference
// (results must be byte-identical). Levels at or below the distinct
// query count isolate superstep-sharing; levels above it additionally
// exercise coalescing, which is where a repeating tenant mix wins big.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/serialize.h"
#include "common/timer.h"
#include "core/ariadne.h"
#include "serve/server.h"

namespace ariadne {
namespace {

struct QuerySpec {
  std::string label;
  std::string text;
  QueryParams params;
};

/// The mixed tenant workload: selective backward traces from several
/// roots, approximate-provenance-tracking probes, forward lineage.
std::vector<QuerySpec> DistinctWorkload() {
  auto forward = ReadFile(std::string(ARIADNE_SOURCE_DIR) +
                          "/examples/pql/forward_lineage.pql");
  ARIADNE_CHECK(forward.ok());
  std::vector<QuerySpec> specs;
  for (int64_t alpha : {3, 57, 211, 400}) {
    specs.push_back({"backward/a" + std::to_string(alpha),
                     queries::BackwardLineageFull(),
                     {{"alpha", Value(alpha)}, {"sigma", Value(int64_t{4})}}});
  }
  specs.push_back({"apt/eps0.1", queries::Apt(), {{"eps", Value(0.1)}}});
  specs.push_back({"apt/eps0.4", queries::Apt(), {{"eps", Value(0.4)}}});
  specs.push_back(
      {"forward/a0", *forward, {{"alpha", Value(int64_t{0})}}});
  specs.push_back(
      {"forward/a57", *forward, {{"alpha", Value(int64_t{57})}}});
  return specs;
}

/// One spilled SSSP capture shared by the whole sweep. Scale-10 R-MAT
/// keeps a single one-shot query in the tens of milliseconds while the
/// spill budget forces every layer scan through read + decompress.
struct ServeFixture {
  Graph graph;
  ProvenanceStore store;
  std::vector<QuerySpec> specs;
  /// Per-spec one-shot sorted table dump, the byte-identity reference.
  std::vector<std::vector<std::string>> reference;

  static ServeFixture Build() {
    ServeFixture f;
    auto g = GenerateRmat({.scale = 10, .avg_degree = 8, .seed = 42});
    ARIADNE_CHECK(g.ok());
    f.graph = std::move(*g);
    Session session(&f.graph);
    auto capture = session.PrepareOnline(queries::CaptureFull());
    ARIADNE_CHECK(capture.ok());
    SsspProgram sssp(0);
    auto stats = session.Capture(sssp, *capture, &f.store);
    ARIADNE_CHECK(stats.ok());
    ARIADNE_CHECK(bench::SpillToDisk(&f.store).ok());
    f.specs = DistinctWorkload();
    for (const QuerySpec& spec : f.specs) {
      f.reference.push_back(f.OneShotTables(session, spec));
    }
    return f;
  }

  std::vector<std::string> OneShotTables(Session& session,
                                         const QuerySpec& spec) const {
    auto q = session.PrepareOffline(spec.text, store, spec.params);
    ARIADNE_CHECK(q.ok());
    auto run = session.RunOffline(&store, *q, EvalMode::kLayered);
    ARIADNE_CHECK(run.ok());
    return DumpTables(run->result);
  }

  static std::vector<std::string> DumpTables(const QueryResult& result) {
    std::vector<std::string> dump;
    for (const std::string& name : result.TableNames()) {
      dump.push_back("== " + name);
      const auto rows = result.Table(name)->ToSortedStrings();
      dump.insert(dump.end(), rows.begin(), rows.end());
    }
    return dump;
  }
};

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct LevelResult {
  size_t concurrency = 0;
  size_t step_threads = 0;
  double serve_seconds = 0;
  double sequential_seconds = 0;
  double p50 = 0, p95 = 0, p99 = 0;
  serve::ServerStats stats;

  double ServeQps() const {
    return static_cast<double>(concurrency) / serve_seconds;
  }
  double SequentialQps() const {
    return static_cast<double>(concurrency) / sequential_seconds;
  }
  double Speedup() const { return sequential_seconds / serve_seconds; }
};

/// Runs one sweep level: `concurrency` queries (the distinct workload,
/// round-robin) through a fresh server with `step_threads` step threads,
/// then the same list sequentially one-shot. Verifies every served result
/// against the reference dump.
LevelResult RunLevel(const ServeFixture& fixture, size_t concurrency,
                     size_t step_threads) {
  LevelResult out;
  out.concurrency = concurrency;
  out.step_threads = step_threads;

  auto state = serve::ServiceState::Create(&fixture.graph, &fixture.store);
  ARIADNE_CHECK(state.ok());
  std::unique_ptr<serve::ServiceState> service = state.MoveValue();
  serve::ServerOptions options;
  options.max_inflight = concurrency;
  options.queue_capacity = concurrency;
  options.step_threads = step_threads;
  serve::QueryServer server(service.get(), options);

  std::vector<std::future<serve::ServeResponse>> futures;
  futures.reserve(concurrency);
  WallTimer serve_timer;
  for (size_t i = 0; i < concurrency; ++i) {
    const QuerySpec& spec = fixture.specs[i % fixture.specs.size()];
    serve::ServeRequest request;
    request.name = spec.label + "#" + std::to_string(i);
    request.text = spec.text;
    request.params = spec.params;
    futures.push_back(server.Submit(std::move(request)));
  }
  std::vector<double> latencies;
  for (size_t i = 0; i < concurrency; ++i) {
    serve::ServeResponse response = futures[i].get();
    ARIADNE_CHECK(response.ok());
    latencies.push_back(response.queue_seconds + response.exec_seconds);
    const auto dump = ServeFixture::DumpTables(response.result);
    ARIADNE_CHECK(dump == fixture.reference[i % fixture.specs.size()]);
  }
  out.serve_seconds = serve_timer.ElapsedSeconds();
  out.stats = server.stats();

  std::sort(latencies.begin(), latencies.end());
  out.p50 = Percentile(latencies, 0.50);
  out.p95 = Percentile(latencies, 0.95);
  out.p99 = Percentile(latencies, 0.99);

  // The sequential baseline: the same query list, one-shot, one at a
  // time (what N independent ariadne_run invocations would do, minus
  // process startup and store load).
  Session session(&fixture.graph);
  WallTimer seq_timer;
  for (size_t i = 0; i < concurrency; ++i) {
    const QuerySpec& spec = fixture.specs[i % fixture.specs.size()];
    auto q = session.PrepareOffline(spec.text, fixture.store, spec.params);
    ARIADNE_CHECK(q.ok());
    auto run = session.RunOffline(&fixture.store, *q, EvalMode::kLayered);
    ARIADNE_CHECK(run.ok());
  }
  out.sequential_seconds = seq_timer.ElapsedSeconds();
  return out;
}

/// A level run bench::BenchReps() times: the run of median serve time
/// (its latencies and server counters with it), with the median
/// sequential time.
LevelResult MedianLevel(const ServeFixture& fixture, size_t concurrency,
                        size_t step_threads) {
  std::vector<LevelResult> runs;
  std::vector<double> sequential;
  for (int rep = 0; rep < bench::BenchReps(); ++rep) {
    runs.push_back(RunLevel(fixture, concurrency, step_threads));
    sequential.push_back(runs.back().sequential_seconds);
  }
  std::sort(runs.begin(), runs.end(),
            [](const LevelResult& a, const LevelResult& b) {
              return a.serve_seconds < b.serve_seconds;
            });
  std::sort(sequential.begin(), sequential.end());
  LevelResult out = runs[runs.size() / 2];
  out.sequential_seconds = sequential[sequential.size() / 2];
  return out;
}

/// Prints level `r` and returns its JSON row.
std::string LevelRow(const LevelResult& r) {
  std::fprintf(stderr,
               "  %zu step threads, %3zu concurrent: %7.1f qps (seq %6.1f, "
               "%4.2fx)  p50 %.1fms p95 %.1fms p99 %.1fms  "
               "scan hit %.0f%% mean group %.1f coalesced %llu\n",
               r.step_threads, r.concurrency, r.ServeQps(), r.SequentialQps(),
               r.Speedup(), r.p50 * 1e3, r.p95 * 1e3, r.p99 * 1e3,
               100.0 * r.stats.scan.HitRate(), r.stats.MeanGroupSize(),
               static_cast<unsigned long long>(r.stats.coalesced));
  bench::JsonObject scan;
  scan.Set("scans", static_cast<int64_t>(r.stats.scan.scans))
      .Set("subscribers", static_cast<int64_t>(r.stats.scan.subscribers))
      .Set("shared_hits", static_cast<int64_t>(r.stats.scan.shared_hits))
      .Set("hit_rate", r.stats.scan.HitRate());
  bench::JsonObject row;
  row.Set("step_threads", static_cast<int64_t>(r.step_threads))
      .Set("concurrency", static_cast<int64_t>(r.concurrency))
      .Set("serve_seconds", r.serve_seconds)
      .Set("aggregate_qps", r.ServeQps())
      .Set("sequential_seconds", r.sequential_seconds)
      .Set("sequential_qps", r.SequentialQps())
      .Set("speedup_vs_sequential", r.Speedup())
      .Set("latency_p50_ms", r.p50 * 1e3)
      .Set("latency_p95_ms", r.p95 * 1e3)
      .Set("latency_p99_ms", r.p99 * 1e3)
      .Set("coalesced", static_cast<int64_t>(r.stats.coalesced))
      .Set("group_steps", static_cast<int64_t>(r.stats.group_steps))
      .Set("query_steps", static_cast<int64_t>(r.stats.query_steps))
      .Set("mean_group_size", r.stats.MeanGroupSize())
      .SetRaw("shared_scan", scan.Dump());
  return row.Dump();
}

int RunServeSweep(const std::string& json_path) {
  ServeFixture fixture = ServeFixture::Build();
  std::fprintf(stderr,
               "serve sweep: %lld vertices, %d layers, %lld tuples, "
               "%zu spilled layers, %zu distinct queries\n",
               static_cast<long long>(fixture.graph.num_vertices()),
               fixture.store.num_layers(),
               static_cast<long long>(fixture.store.TotalTuples()),
               static_cast<size_t>(fixture.store.SpilledLayerCount()),
               fixture.specs.size());

  std::vector<std::string> rows;
  for (size_t step_threads : {1, 4}) {
    for (size_t concurrency : {1, 4, 16, 64, 256}) {
      rows.push_back(LevelRow(MedianLevel(fixture, concurrency, step_threads)));
    }
  }

  bench::JsonObject workload;
  workload.Set("graph", "rmat scale 10, avg degree 8, seed 42")
      .Set("analytic", "sssp")
      .Set("layers", fixture.store.num_layers())
      .Set("store_tuples", static_cast<int64_t>(fixture.store.TotalTuples()))
      .Set("distinct_queries", static_cast<int64_t>(fixture.specs.size()))
      .Set("mix", "4x backward-lineage, 2x apt, 2x forward-lineage");
  bench::JsonObject top;
  top.Set("bench", "serve_superstep_sharing")
      .SetRaw("workload", workload.Dump())
      .Set("results_verified_identical_to_one_shot", true)
      .Set("reps", static_cast<int64_t>(bench::BenchReps()))
      .Set("host_hardware_threads",
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .SetRaw("results", bench::JsonArray(rows, 4));
  return bench::WriteJson(json_path, top) ? 0 : 1;
}

// ------------------------------------------------------------- gbench

void BM_ServeSingleQuery(benchmark::State& state) {
  static ServeFixture* fixture = new ServeFixture(ServeFixture::Build());
  auto service =
      serve::ServiceState::Create(&fixture->graph, &fixture->store)
          .MoveValue();
  serve::QueryServer server(service.get());
  for (auto _ : state) {
    serve::ServeRequest request;
    request.name = "bench";
    request.text = queries::BackwardLineageFull();
    request.params = {{"alpha", Value(int64_t{3})},
                      {"sigma", Value(int64_t{4})}};
    serve::ServeResponse response = server.SubmitAndWait(std::move(request));
    ARIADNE_CHECK(response.ok());
    benchmark::DoNotOptimize(response.stats.result_tuples);
  }
}
BENCHMARK(BM_ServeSingleQuery);

void BM_ServeBatch16(benchmark::State& state) {
  static ServeFixture* fixture = new ServeFixture(ServeFixture::Build());
  auto service =
      serve::ServiceState::Create(&fixture->graph, &fixture->store)
          .MoveValue();
  serve::ServerOptions options;
  options.max_inflight = 16;
  serve::QueryServer server(service.get(), options);
  for (auto _ : state) {
    std::vector<std::future<serve::ServeResponse>> futures;
    for (int i = 0; i < 16; ++i) {
      const QuerySpec& spec = fixture->specs[i % fixture->specs.size()];
      serve::ServeRequest request;
      request.name = spec.label;
      request.text = spec.text;
      request.params = spec.params;
      futures.push_back(server.Submit(std::move(request)));
    }
    for (auto& f : futures) ARIADNE_CHECK(f.get().ok());
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ServeBatch16);

}  // namespace
}  // namespace ariadne

int main(int argc, char** argv) {
  const std::string json_path = ariadne::bench::ConsumeJsonFlag(&argc, argv);
  if (!json_path.empty()) return ariadne::RunServeSweep(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
