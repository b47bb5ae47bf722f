// Micro-benchmarks of the storage subsystem: page codec throughput plus,
// in `--json out.json` mode, an end-to-end sweep measuring append/flush
// throughput, cold-vs-warm backward layered query latency over a
// memory-budgeted store, and the compressed-vs-raw spill byte ratio — the
// source of the checked-in BENCH_store.json.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "core/ariadne.h"
#include "storage/capture_batch.h"
#include "storage/layer_store.h"
#include "storage/page.h"

namespace ariadne {
namespace {

/// A synthetic provenance-shaped layer written the way capture writes
/// one: int-heavy columns with a step constant, relation by relation in
/// vertex order.
storage::CaptureBatch SyntheticBatch(Superstep step, int n_vertices) {
  storage::CaptureBatch batch;
  batch.step = step;
  for (int v = 0; v < n_vertices; ++v) {
    batch.BeginSlice(0, v);
    batch.AddInt(v);
    batch.AddInt(step);
    batch.AddDouble(1.0 / (v + 1));
    batch.EndRow();
    batch.EndSlice();
  }
  for (int v = 0; v + 1 < n_vertices; ++v) {
    batch.BeginSlice(1, v);
    batch.AddInt(v);
    batch.AddInt(v + 1);
    batch.AddInt(step);
    batch.EndRow();
    batch.EndSlice();
  }
  return batch;
}

void BM_EncodeBatch(benchmark::State& state) {
  const storage::CaptureBatch batch = SyntheticBatch(3, 2000);
  for (auto _ : state) {
    auto pages = storage::EncodeBatch(batch, storage::kDefaultPageSize);
    benchmark::DoNotOptimize(pages.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(batch.byte_size()));
}
BENCHMARK(BM_EncodeBatch);

void BM_DecodePages(benchmark::State& state) {
  const storage::CaptureBatch batch = SyntheticBatch(3, 2000);
  const auto pages = storage::EncodeBatch(batch, storage::kDefaultPageSize);
  for (auto _ : state) {
    storage::CaptureBatch decoded;
    for (const auto& page : pages) {
      ARIADNE_CHECK(storage::DecodePage(page, &decoded).ok());
    }
    benchmark::DoNotOptimize(decoded.slices().size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(batch.byte_size()));
}
BENCHMARK(BM_DecodePages);

void BM_PageSerializeParse(benchmark::State& state) {
  const storage::CaptureBatch batch = SyntheticBatch(1, 500);
  const auto pages = storage::EncodeBatch(batch, storage::kDefaultPageSize);
  ARIADNE_CHECK(!pages.empty());
  for (auto _ : state) {
    std::string wire;
    storage::SerializePage(pages[0], &wire);
    size_t offset = 0;
    auto parsed = storage::ParsePage(wire, &offset);
    ARIADNE_CHECK(parsed.ok());
    benchmark::DoNotOptimize(parsed->payload.size());
  }
}
BENCHMARK(BM_PageSerializeParse);

// ------------------------------------------------------- --json sweep

int RunStoreSweep(const std::string& json_path) {
  const std::string dir = "/tmp/ariadne_bench_store";
  auto graph = GenerateRmat({.scale = 12, .avg_degree = 8, .seed = 3});
  ARIADNE_CHECK(graph.ok());
  Session session(&*graph);
  auto capture = session.PrepareOnline(queries::CaptureFull());
  ARIADNE_CHECK(capture.ok());
  const VertexId source = HighestDegreeVertex(*graph);

  // Reference capture, fully in memory.
  ProvenanceStore reference;
  {
    SsspProgram sssp(source);
    ARIADNE_CHECK(session.Capture(sssp, *capture, &reference).ok());
  }
  const size_t total_bytes = reference.TotalBytes();
  const int n_layers = reference.num_layers();
  std::fprintf(stderr, "captured %d layers, %zu bytes\n", n_layers,
               total_bytes);

  // Append + background-flush throughput of capture's column batches
  // into a fresh spilling store.
  std::vector<std::shared_ptr<const storage::CaptureBatch>> layers;
  for (int s = 0; s < n_layers; ++s) {
    auto layer = reference.GetLayerBatch(s, {});
    ARIADNE_CHECK(layer.ok());
    layers.push_back(*layer);
  }
  storage::StorageStats flush_stats;
  const double append_seconds = bench::TimedSeconds([&] {
    storage::LayerStore store;
    storage::LayerStoreOptions options;
    options.dir = dir + "/append";
    options.mem_budget_bytes = 0;  // everything spills
    options.flush_threads = 1;
    ARIADNE_CHECK(store.Configure(options).ok());
    for (const auto& layer : layers) {
      ARIADNE_CHECK(store.Append(layer).ok());
    }
    ARIADNE_CHECK(store.Drain().ok());
    flush_stats = store.stats();
  });
  std::fprintf(stderr,
               "append+flush: %.3fs (%.1f layers/s, %.1f MB/s logical)\n",
               append_seconds, n_layers / append_seconds,
               total_bytes / append_seconds / (1 << 20));

  // Cold vs warm backward layered query over a budgeted store (25% of
  // the provenance bytes, the acceptance-bar configuration).
  ProvenanceStore bounded;
  {
    storage::LayerStoreOptions options;
    options.dir = dir + "/bounded";
    options.mem_budget_bytes = total_bytes / 4;
    options.flush_threads = 2;
    ARIADNE_CHECK(bounded.ConfigureStorage(std::move(options)).ok());
    SsspProgram sssp(source);
    ARIADNE_CHECK(session.Capture(sssp, *capture, &bounded).ok());
  }
  QueryParams params{
      {"alpha", Value(static_cast<int64_t>(source))},
      {"sigma", Value(static_cast<int64_t>(bounded.num_layers() - 1))}};
  auto q10 = session.PrepareOffline(queries::BackwardLineageFull(), bounded,
                                    params);
  ARIADNE_CHECK(q10.ok());
  auto run_query = [&]() -> double {
    WallTimer timer;
    auto run = session.RunOffline(&bounded, *q10, EvalMode::kLayered);
    ARIADNE_CHECK(run.ok());
    benchmark::DoNotOptimize(run->result.TotalTuples());
    return timer.ElapsedSeconds();
  };
  const auto before = bounded.storage_stats();
  const double cold_seconds = run_query();
  const auto after_cold = bounded.storage_stats();
  const double warm_seconds = run_query();
  const auto after_warm = bounded.storage_stats();
  const double cold_hit_rate =
      after_cold.cache_hits + after_cold.cache_misses >
              before.cache_hits + before.cache_misses
          ? static_cast<double>(after_cold.cache_hits - before.cache_hits) /
                static_cast<double>((after_cold.cache_hits +
                                     after_cold.cache_misses) -
                                    (before.cache_hits + before.cache_misses))
          : 0.0;
  const double warm_hit_rate =
      after_warm.cache_hits + after_warm.cache_misses >
              after_cold.cache_hits + after_cold.cache_misses
          ? static_cast<double>(after_warm.cache_hits -
                                after_cold.cache_hits) /
                static_cast<double>((after_warm.cache_hits +
                                     after_warm.cache_misses) -
                                    (after_cold.cache_hits +
                                     after_cold.cache_misses))
          : 1.0;
  std::fprintf(stderr, "backward layered: cold %.3fs, warm %.3fs\n",
               cold_seconds, warm_seconds);

  const auto storage = bounded.storage_stats();
  std::fprintf(stderr,
               "compression: %llu compressed / %llu raw (ratio %.3f)\n",
               static_cast<unsigned long long>(storage.compressed_bytes),
               static_cast<unsigned long long>(storage.raw_serialized_bytes),
               storage.CompressionRatio());

  bench::JsonObject graph_info;
  graph_info.Set("name", "rmat-s12-d8")
      .Set("vertices", static_cast<int64_t>(graph->num_vertices()))
      .Set("edges", static_cast<int64_t>(graph->num_edges()));
  bench::JsonObject append;
  append.Set("seconds", append_seconds)
      .Set("layers_per_sec", n_layers / append_seconds)
      .Set("logical_mb_per_sec", total_bytes / append_seconds / (1 << 20))
      .Set("pages_written", static_cast<int64_t>(flush_stats.pages_written))
      .Set("flush_seconds", flush_stats.flush_seconds);
  bench::JsonObject query;
  query.Set("query", "backward-lineage-full (Q10), layered, budget=25%")
      .Set("cold_seconds", cold_seconds)
      .Set("warm_seconds", warm_seconds)
      .Set("cold_cache_hit_rate", cold_hit_rate)
      .Set("warm_cache_hit_rate", warm_hit_rate)
      .Set("prefetch_requests",
           static_cast<int64_t>(storage.prefetch_requests))
      .Set("prefetch_pages", static_cast<int64_t>(storage.prefetch_pages))
      .Set("pages_read", static_cast<int64_t>(storage.pages_read));
  bench::JsonObject compression;
  compression
      .Set("compressed_spill_bytes",
           static_cast<int64_t>(storage.compressed_bytes))
      .Set("raw_serialized_bytes",
           static_cast<int64_t>(storage.raw_serialized_bytes))
      .Set("compression_ratio", storage.CompressionRatio());
  bench::JsonObject top;
  top.Set("bench", "store_micro")
      .SetRaw("graph", graph_info.Dump())
      .Set("analytic", "sssp, capture-full")
      .Set("layers", n_layers)
      .Set("provenance_bytes", static_cast<int64_t>(total_bytes))
      .Set("mem_budget_bytes", static_cast<int64_t>(total_bytes / 4))
      .Set("reps", bench::BenchReps())
      .Set("host_hardware_threads",
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .SetRaw("append_flush", append.Dump())
      .SetRaw("layered_query", query.Dump())
      .SetRaw("compression", compression.Dump());
  return bench::WriteJson(json_path, top) ? 0 : 1;
}

}  // namespace
}  // namespace ariadne

int main(int argc, char** argv) {
  const std::string json_path = ariadne::bench::ConsumeJsonFlag(&argc, argv);
  if (!json_path.empty()) return ariadne::RunStoreSweep(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
