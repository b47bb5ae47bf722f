// Chaos micro-benchmark (DESIGN.md §2.8): what does resilience cost?
//
// Running with `--json out.json` skips google-benchmark and serves the
// same backward-lineage workload over one spilled SSSP capture three
// times: fault-free, under seeded 1% transient faults, and under 5%
// faults (serve-scan + spill page-read injection). Per level it reports
// aggregate QPS, the retry counters that healed the faults, and the
// throughput ratio against the fault-free pass — asserting that every
// served result stays byte-identical to the fault-free reference and
// that 1% transient faults cost less than 10% throughput (the
// checked-in BENCH_chaos.json bar, enforced by the chaos-soak CI job).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "core/ariadne.h"
#include "recovery/fault_injector.h"
#include "serve/server.h"

namespace ariadne {
namespace {

constexpr uint64_t kChaosSeed = 0xC0FFEE;
constexpr size_t kQueries = 96;
constexpr size_t kConcurrency = 32;
constexpr int kReps = 3;  // best-of, to keep the 10% bar noise-proof

/// One spilled SSSP capture shared by all passes: every cold layer scan
/// goes through spill page reads, i.e. through the retry ladder.
struct ChaosFixture {
  Graph graph;
  ProvenanceStore store;

  static ChaosFixture Build() {
    ChaosFixture f;
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
    return f;
  }

  serve::ServeRequest Request(size_t i) const {
    serve::ServeRequest request;
    request.name = "q" + std::to_string(i);
    request.text = queries::BackwardLineageFull();
    request.params = {
        {"alpha", Value(static_cast<int64_t>((i * 37) %
                                             graph.num_vertices()))},
        {"sigma", Value(static_cast<int64_t>(2 + i % 4))}};
    return request;
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

struct PassResult {
  double serve_seconds = 0;
  serve::ServerStats stats;
  uint64_t store_read_retries = 0;
  std::vector<std::vector<std::string>> dumps;

  double Qps() const {
    return static_cast<double>(kQueries) / serve_seconds;
  }
};

/// One serve pass over the whole workload; `scenario` empty = fault-free.
PassResult RunPass(const ChaosFixture& fixture, const std::string& scenario) {
  auto& injector = recovery::FaultInjector::Global();
  injector.Disarm();
  if (!scenario.empty()) {
    ARIADNE_CHECK(injector.Arm(scenario, kChaosSeed).ok());
  }
  const uint64_t reads_before = fixture.store.storage_stats().read_retries;

  PassResult out;
  auto state = serve::ServiceState::Create(&fixture.graph, &fixture.store);
  ARIADNE_CHECK(state.ok());
  std::unique_ptr<serve::ServiceState> service = state.MoveValue();
  serve::ServerOptions options;
  options.max_inflight = kConcurrency;
  options.queue_capacity = kQueries;
  serve::QueryServer server(service.get(), options);

  std::vector<std::future<serve::ServeResponse>> futures;
  futures.reserve(kQueries);
  WallTimer timer;
  for (size_t i = 0; i < kQueries; ++i) {
    futures.push_back(server.Submit(fixture.Request(i)));
  }
  for (auto& future : futures) {
    serve::ServeResponse response = future.get();
    ARIADNE_CHECK(response.ok());
    out.dumps.push_back(ChaosFixture::DumpTables(response.result));
  }
  out.serve_seconds = timer.ElapsedSeconds();
  out.stats = server.stats();
  out.store_read_retries =
      fixture.store.storage_stats().read_retries - reads_before;
  injector.Disarm();
  return out;
}

int RunChaosSweep(const std::string& json_path) {
  ChaosFixture fixture = ChaosFixture::Build();
  std::fprintf(stderr,
               "chaos sweep: %lld vertices, %d layers, %zu spilled layers, "
               "%zu queries x %d reps\n",
               static_cast<long long>(fixture.graph.num_vertices()),
               fixture.store.num_layers(),
               static_cast<size_t>(fixture.store.SpilledLayerCount()),
               kQueries, kReps);

  struct Level {
    const char* label;
    double rate;
    std::string scenario;
  };
  const std::vector<Level> levels = {
      {"fault-free", 0.0, ""},
      {"1% transient", 0.01, "serve-scan@0.01,page-read@0.01"},
      {"5% transient", 0.05, "serve-scan@0.05,page-read@0.05"},
  };

  std::vector<std::string> rows;
  std::vector<std::vector<std::string>> reference;
  double faultfree_qps = 0.0;
  double loss_at_1pct = 0.0;
  for (const Level& level : levels) {
    PassResult best;
    uint64_t retries = 0, scan_failures = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      PassResult pass = RunPass(fixture, level.scenario);
      if (reference.empty()) reference = pass.dumps;
      // Healed faults must never change a result.
      ARIADNE_CHECK(pass.dumps == reference);
      retries += pass.stats.step_retries + pass.store_read_retries;
      scan_failures += pass.stats.scan_failures;
      ARIADNE_CHECK(pass.stats.breaker_trips == 0);
      if (best.serve_seconds == 0 ||
          pass.serve_seconds < best.serve_seconds) {
        best = std::move(pass);
      }
    }
    if (level.rate == 0.0) faultfree_qps = best.Qps();
    const double ratio =
        faultfree_qps > 0 ? best.Qps() / faultfree_qps : 1.0;
    if (level.rate == 0.01) loss_at_1pct = 1.0 - ratio;
    std::fprintf(stderr,
                 "  %-12s %7.1f qps (%.2fx of fault-free)  "
                 "%llu retries healed, %llu scan failures\n",
                 level.label, best.Qps(), ratio,
                 static_cast<unsigned long long>(retries),
                 static_cast<unsigned long long>(scan_failures));
    bench::JsonObject row;
    row.Set("fault_rate", level.rate)
        .Set("scenario", level.scenario.empty() ? "none" : level.scenario)
        .Set("serve_seconds", best.serve_seconds)
        .Set("aggregate_qps", best.Qps())
        .Set("throughput_vs_faultfree", ratio)
        .Set("retries_healed_total", static_cast<int64_t>(retries))
        .Set("step_retries", static_cast<int64_t>(best.stats.step_retries))
        .Set("store_read_retries",
             static_cast<int64_t>(best.store_read_retries))
        .Set("scan_failures", static_cast<int64_t>(scan_failures))
        .Set("results_identical_to_faultfree", true);
    rows.push_back(row.Dump());
  }

  const bool meets_bar = loss_at_1pct < 0.10;
  std::fprintf(stderr,
               "throughput loss at 1%% faults: %.1f%% (bar: <10%%) %s\n",
               loss_at_1pct * 100.0, meets_bar ? "OK" : "FAIL");

  bench::JsonObject workload;
  workload.Set("graph", "rmat scale 10, avg degree 8, seed 42")
      .Set("analytic", "sssp")
      .Set("layers", fixture.store.num_layers())
      .Set("queries", static_cast<int64_t>(kQueries))
      .Set("concurrency", static_cast<int64_t>(kConcurrency))
      .Set("reps", static_cast<int64_t>(kReps))
      .Set("injector_seed", static_cast<int64_t>(kChaosSeed));
  bench::JsonObject top;
  top.Set("bench", "chaos_transient_fault_overhead")
      .SetRaw("workload", workload.Dump())
      .Set("host_hardware_threads",
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Set("throughput_loss_pct_at_1pct_faults", loss_at_1pct * 100.0)
      .Set("meets_sub_10pct_loss_bar", meets_bar)
      .SetRaw("results", bench::JsonArray(rows, 4));
  if (!bench::WriteJson(json_path, top)) return 1;
  return meets_bar ? 0 : 1;
}

// ------------------------------------------------------------- gbench

void ServeBatch(const ChaosFixture& fixture, benchmark::State& state) {
  auto service =
      serve::ServiceState::Create(&fixture.graph, &fixture.store)
          .MoveValue();
  serve::ServerOptions options;
  options.max_inflight = 16;
  serve::QueryServer server(service.get(), options);
  for (auto _ : state) {
    std::vector<std::future<serve::ServeResponse>> futures;
    for (size_t i = 0; i < 16; ++i) {
      futures.push_back(server.Submit(fixture.Request(i)));
    }
    for (auto& f : futures) ARIADNE_CHECK(f.get().ok());
  }
  state.SetItemsProcessed(state.iterations() * 16);
}

void BM_ServeBatchFaultFree(benchmark::State& state) {
  static ChaosFixture* fixture = new ChaosFixture(ChaosFixture::Build());
  recovery::FaultInjector::Global().Disarm();
  ServeBatch(*fixture, state);
}
BENCHMARK(BM_ServeBatchFaultFree);

void BM_ServeBatch1PctFaults(benchmark::State& state) {
  static ChaosFixture* fixture = new ChaosFixture(ChaosFixture::Build());
  ARIADNE_CHECK(recovery::FaultInjector::Global()
                    .Arm("serve-scan@0.01,page-read@0.01", kChaosSeed)
                    .ok());
  ServeBatch(*fixture, state);
  recovery::FaultInjector::Global().Disarm();
}
BENCHMARK(BM_ServeBatch1PctFaults);

}  // namespace
}  // namespace ariadne

int main(int argc, char** argv) {
  const std::string json_path = ariadne::bench::ConsumeJsonFlag(&argc, argv);
  if (!json_path.empty()) return ariadne::RunChaosSweep(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
