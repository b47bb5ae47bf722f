// Micro-benchmarks of the out-of-core graph backend (DESIGN.md §2.7):
// paged CSR topology + paged vertex state vs the in-memory baseline.
//
// Running with `--json out.json` skips google-benchmark and instead runs
// the budget sweep — PageRank over a ~1M-edge R-MAT with the paged
// backend at 100% / 50% / 25% of the topology footprint (vertex state
// paged at the same fraction of its own footprint), 1 and 4 threads —
// writing one JSON record per configuration. Each paged run is checked
// byte-identical to the in-memory baseline before its row is emitted;
// the source of the checked-in BENCH_oocgraph.json.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/mem.h"
#include "core/ariadne.h"
#include "graph/paged_backend.h"

namespace ariadne {
namespace {

constexpr int kIterations = 8;

std::string SpillPath(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("bench_oocg_") + tag + "." +
           std::to_string(::getpid()) + ".agp"))
      .string();
}

std::vector<double> RunPr(const Graph& g, size_t threads, bool paged_vs,
                          size_t vs_budget, RunStats* stats_out = nullptr) {
  PageRankProgram program({.iterations = kIterations});
  EngineOptions options;
  options.num_threads = threads;
  if (paged_vs) {
    options.paged_vertex_state = true;
    options.vertex_state_budget_bytes = vs_budget;
    options.vertex_state_dir =
        std::filesystem::temp_directory_path().string();
  }
  Engine<double, double> engine(&g, options);
  auto stats = engine.Run(program);
  ARIADNE_CHECK(stats.ok());
  if (stats_out != nullptr) *stats_out = std::move(*stats);
  std::vector<double> values;
  ARIADNE_CHECK(engine.CopyValuesTo(&values).ok());
  return values;
}

// ---- google-benchmark mode ----

void BM_PageRankInMemory(benchmark::State& state) {
  auto graph = GenerateRmat({.scale = 12, .avg_degree = 16, .seed = 5});
  ARIADNE_CHECK(graph.ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunPr(*graph, 1, false, 0));
  }
  state.SetItemsProcessed(state.iterations() * (kIterations + 1) *
                          graph->num_vertices());
}
BENCHMARK(BM_PageRankInMemory);

void BM_PageRankPagedQuarterBudget(benchmark::State& state) {
  auto graph = GenerateRmat({.scale = 12, .avg_degree = 16, .seed = 5});
  ARIADNE_CHECK(graph.ok());
  const std::string path = SpillPath("bm");
  ARIADNE_CHECK(PagedBackend::CreateFrom(*graph, path).ok());
  auto probe = PagedBackend::Open(path);
  ARIADNE_CHECK(probe.ok());
  const uint64_t footprint = (*probe)->backend_stats().footprint_bytes;
  probe->reset();
  PagedBackendOptions options;
  options.budget_bytes = static_cast<size_t>(footprint / 4);
  auto paged = PagedBackend::Open(path, options);
  ARIADNE_CHECK(paged.ok());
  const size_t vs_budget =
      static_cast<size_t>(graph->num_vertices()) * sizeof(double) / 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunPr(**paged, 1, true, vs_budget));
  }
  state.SetItemsProcessed(state.iterations() * (kIterations + 1) *
                          graph->num_vertices());
  paged->reset();
  std::filesystem::remove(path);
}
BENCHMARK(BM_PageRankPagedQuarterBudget);

// -------------------------------------------- --json budget sweep mode

std::string SweepRow(const Graph& g, const char* backend, double fraction,
                     size_t threads, size_t vs_budget,
                     const std::vector<double>& baseline,
                     double baseline_seconds,
                     double* slowdown_out = nullptr) {
  RunStats stats;
  std::vector<double> values;
  const bool paged_vs = fraction > 0.0;
  const double seconds = bench::TimedSeconds([&] {
    values = RunPr(g, threads, paged_vs, vs_budget, &stats);
  });
  const bool identical =
      values.size() == baseline.size() &&
      std::memcmp(values.data(), baseline.data(),
                  baseline.size() * sizeof(double)) == 0;
  ARIADNE_CHECK(identical);
  std::fprintf(stderr,
               "  %-7s budget=%3.0f%% threads=%zu  %.3fs  (%.2fx baseline)"
               "  faults=%llu prefetch=%llu evict=%llu\n",
               backend, fraction > 0 ? fraction * 100 : 100.0, threads,
               seconds, baseline_seconds > 0 ? seconds / baseline_seconds : 1.0,
               static_cast<unsigned long long>(
                   stats.graph_backend.partition_faults),
               static_cast<unsigned long long>(
                   stats.graph_backend.prefetch_loads),
               static_cast<unsigned long long>(stats.graph_backend.evictions +
                                               stats.vertex_state.evictions));
  if (slowdown_out != nullptr) {
    *slowdown_out =
        baseline_seconds > 0 ? seconds / baseline_seconds : 1.0;
  }
  bench::JsonObject row;
  row.Set("backend", backend)
      .Set("budget_fraction", fraction > 0 ? fraction : 1.0)
      .Set("threads", static_cast<int64_t>(threads))
      .Set("seconds", seconds)
      .Set("slowdown_vs_inmemory",
           baseline_seconds > 0 ? seconds / baseline_seconds : 1.0)
      .Set("byte_identical", identical)
      .Set("peak_rss_bytes", stats.peak_rss_bytes)
      .Set("graph_partition_faults", stats.graph_backend.partition_faults)
      .Set("graph_cache_hits", stats.graph_backend.cache_hits)
      .Set("graph_prefetch_loads", stats.graph_backend.prefetch_loads)
      .Set("graph_evictions", stats.graph_backend.evictions)
      .Set("graph_resident_bytes", stats.graph_backend.resident_bytes)
      .Set("graph_footprint_bytes", stats.graph_backend.footprint_bytes)
      .Set("vstate_page_faults", stats.vertex_state.page_faults)
      .Set("vstate_prefetch_loads", stats.vertex_state.prefetch_loads)
      .Set("vstate_evictions", stats.vertex_state.evictions)
      .Set("vstate_writebacks", stats.vertex_state.writebacks);
  return row.Dump();
}

int RunBudgetSweep(const std::string& json_path) {
  // 2^16 vertices x avg degree 16 = ~1M edges, same scale as the engine
  // routing sweep.
  auto graph = GenerateRmat({.scale = 16, .avg_degree = 16, .seed = 5});
  ARIADNE_CHECK(graph.ok());
  const char* kGraphName = "rmat-s16-d16";
  const std::string path = SpillPath("sweep");
  ARIADNE_CHECK(PagedBackend::CreateFrom(*graph, path).ok());
  auto probe = PagedBackend::Open(path);
  ARIADNE_CHECK(probe.ok());
  const uint64_t footprint = (*probe)->backend_stats().footprint_bytes;
  const int partitions = (*probe)->num_partitions();
  probe->reset();
  const size_t vs_footprint =
      static_cast<size_t>(graph->num_vertices()) * sizeof(double);
  std::fprintf(stderr,
               "ooc graph sweep: %s (%lld vertices, %lld edges), topology "
               "footprint %llu bytes in %d partitions, pagerank x%d, "
               "reps=%d\n",
               kGraphName, static_cast<long long>(graph->num_vertices()),
               static_cast<long long>(graph->num_edges()),
               static_cast<unsigned long long>(footprint), partitions,
               kIterations, bench::BenchReps());

  const std::vector<double> baseline_values = RunPr(*graph, 1, false, 0);
  std::vector<std::string> rows;
  double baseline_seconds[2] = {0, 0};
  const size_t kThreads[2] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    RunStats stats;
    std::vector<double> values;
    baseline_seconds[t] = bench::TimedSeconds([&] {
      values = RunPr(*graph, kThreads[t], false, 0, &stats);
    });
    std::fprintf(stderr, "  memory  budget=100%% threads=%zu  %.3fs\n",
                 kThreads[t], baseline_seconds[t]);
    bench::JsonObject row;
    row.Set("backend", "memory")
        .Set("budget_fraction", 1.0)
        .Set("threads", static_cast<int64_t>(kThreads[t]))
        .Set("seconds", baseline_seconds[t])
        .Set("slowdown_vs_inmemory", 1.0)
        .Set("byte_identical", true)
        .Set("peak_rss_bytes", stats.peak_rss_bytes);
    rows.push_back(row.Dump());
  }
  double quarter_budget_slowdown = 0;
  for (double fraction : {1.0, 0.5, 0.25}) {
    PagedBackendOptions options;
    options.budget_bytes =
        static_cast<size_t>(static_cast<double>(footprint) * fraction);
    auto paged = PagedBackend::Open(path, options);
    ARIADNE_CHECK(paged.ok());
    const size_t vs_budget = static_cast<size_t>(
        static_cast<double>(vs_footprint) * fraction);
    for (int t = 0; t < 2; ++t) {
      double slowdown = 0;
      rows.push_back(SweepRow(**paged, "paged", fraction, kThreads[t],
                              vs_budget, baseline_values,
                              baseline_seconds[t], &slowdown));
      if (fraction == 0.25 && kThreads[t] == 1) {
        quarter_budget_slowdown = slowdown;
      }
    }
    paged->reset();
  }
  std::filesystem::remove(path);

  bench::JsonObject top;
  bench::JsonObject graph_info;
  graph_info.Set("name", kGraphName)
      .Set("vertices", static_cast<int64_t>(graph->num_vertices()))
      .Set("edges", static_cast<int64_t>(graph->num_edges()))
      .Set("topology_footprint_bytes", footprint)
      .Set("vertex_state_footprint_bytes",
           static_cast<uint64_t>(vs_footprint))
      .Set("partitions", static_cast<int64_t>(partitions));
  top.Set("bench", "oocgraph_budget_sweep")
      .SetRaw("graph", graph_info.Dump())
      .Set("pagerank_iterations", kIterations)
      .Set("reps", bench::BenchReps())
      .Set("host_hardware_threads",
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .SetRaw("results", bench::JsonArray(rows, 4));
  if (!bench::WriteJson(json_path, top)) return 1;
  // Acceptance bar (EXPERIMENTS.md): paging at a quarter of the topology
  // footprint must stay under 2x the in-memory wall clock.
  if (quarter_budget_slowdown >= 2.0) {
    std::fprintf(stderr,
                 "FAIL: 25%%-budget slowdown %.2fx >= 2x in-memory bar\n",
                 quarter_budget_slowdown);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ariadne

int main(int argc, char** argv) {
  const std::string json_path = ariadne::bench::ConsumeJsonFlag(&argc, argv);
  if (!json_path.empty()) return ariadne::RunBudgetSweep(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
