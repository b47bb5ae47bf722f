// Micro-benchmarks (google-benchmark) of the substrates: engine message
// throughput, relation insert/probe, Value operations and PQL parsing.
// These calibrate the absolute numbers behind the relative overheads in
// the paper-table benches (see EXPERIMENTS.md on why our baseline is far
// faster per message than Giraph's).

// Running with `--json out.json` skips google-benchmark and instead runs
// the sharded owner-computes routing sweep (1M-edge R-MAT, 1/2/4/8
// threads), writing one JSON record per configuration — the source of the
// checked-in BENCH_engine.json.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/ariadne.h"

namespace ariadne {
namespace {

/// Floods all out-edges every superstep for a fixed number of rounds.
class FloodProgram final : public VertexProgram<double, double> {
 public:
  explicit FloodProgram(Superstep rounds) : rounds_(rounds) {}
  double InitialValue(VertexId, const Graph&) const override { return 0; }
  void Compute(VertexContext<double, double>& ctx,
               std::span<const double> messages) override {
    double sum = 0;
    for (double m : messages) sum += m;
    ctx.SetValue(sum);
    if (ctx.superstep() < rounds_) {
      ctx.SendToAllOutNeighbors(1.0);
    } else {
      ctx.VoteToHalt();
    }
  }

 private:
  Superstep rounds_;
};

void BM_EngineMessageThroughput(benchmark::State& state) {
  auto graph = GenerateRmat({.scale = 10, .avg_degree = 16, .seed = 1});
  ARIADNE_CHECK(graph.ok());
  int64_t messages = 0;
  for (auto _ : state) {
    FloodProgram program(4);
    Engine<double, double> engine(&*graph);
    auto stats = engine.Run(program);
    ARIADNE_CHECK(stats.ok());
    messages += stats->total_messages;
  }
  state.SetItemsProcessed(messages);
}
BENCHMARK(BM_EngineMessageThroughput);

void BM_PageRankSuperstep(benchmark::State& state) {
  auto graph = GenerateRmat({.scale = 11, .avg_degree = 16, .seed = 2});
  ARIADNE_CHECK(graph.ok());
  for (auto _ : state) {
    PageRankProgram program({.iterations = 5});
    Engine<double, double> engine(&*graph);
    ARIADNE_CHECK(engine.Run(program).ok());
  }
  state.SetItemsProcessed(state.iterations() * 6 * graph->num_vertices());
}
BENCHMARK(BM_PageRankSuperstep);

void BM_RelationInsert(benchmark::State& state) {
  for (auto _ : state) {
    Relation rel(3);
    for (int64_t i = 0; i < 1000; ++i) {
      rel.Insert({Value(i % 64), Value(static_cast<double>(i)), Value(i)});
    }
    benchmark::DoNotOptimize(rel.size());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_RelationInsert);

void BM_RelationProbe(benchmark::State& state) {
  Relation rel(3);
  for (int64_t i = 0; i < 10000; ++i) {
    rel.Insert({Value(i % 256), Value(static_cast<double>(i)), Value(i)});
  }
  int64_t probes = 0;
  for (auto _ : state) {
    for (int64_t i = 0; i < 256; ++i) {
      benchmark::DoNotOptimize(rel.Probe(0, Value(i)).size());
      ++probes;
    }
  }
  state.SetItemsProcessed(probes);
}
BENCHMARK(BM_RelationProbe);

void BM_ValueHashCompare(benchmark::State& state) {
  Value a(3.25), b(int64_t{42});
  size_t acc = 0;
  for (auto _ : state) {
    acc ^= a.Hash() ^ b.Hash();
    benchmark::DoNotOptimize(a == b);
    benchmark::DoNotOptimize(a.NumericCompare(b));
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_ValueHashCompare);

void BM_ParseAptQuery(benchmark::State& state) {
  const std::string text = queries::Apt();
  for (auto _ : state) {
    auto program = ParseProgram(text);
    ARIADNE_CHECK(program.ok());
    benchmark::DoNotOptimize(program->rules.size());
  }
}
BENCHMARK(BM_ParseAptQuery);

void BM_AnalyzeAptQuery(benchmark::State& state) {
  auto program = ParseProgram(queries::Apt());
  ARIADNE_CHECK(program.ok());
  ARIADNE_CHECK(program->BindParameters({{"eps", Value(0.01)}}).ok());
  for (auto _ : state) {
    auto query =
        Analyze(*program, Catalog::Default(), UdfRegistry::Default());
    ARIADNE_CHECK(query.ok());
    benchmark::DoNotOptimize(query->direction());
  }
}
BENCHMARK(BM_AnalyzeAptQuery);

// -------------------------------------------- --json routing sweep mode

/// One timed configuration of the routing sweep. `seconds` is the
/// trimmed-mean wall time over BenchReps() runs; the message counts and
/// phase breakdown come from the last run (they are identical across
/// runs — the engine is deterministic).
std::string SweepRow(const Graph& graph, const char* graph_name,
                     size_t threads, int rounds) {
  EngineOptions options;
  options.num_threads = threads;
  RunStats stats;
  const double seconds = bench::TimedSeconds([&] {
    FloodProgram program(rounds);
    Engine<double, double> engine(&graph, options);
    auto result = engine.Run(program);
    ARIADNE_CHECK(result.ok());
    stats = std::move(*result);
  });
  std::fprintf(stderr, "  sharded threads=%zu  %.3fs  %.3g msgs/s\n",
               threads, seconds,
               static_cast<double>(stats.total_messages) / seconds);
  bench::JsonObject row;
  row.Set("graph", graph_name)
      .Set("routing", "sharded")
      .Set("threads", static_cast<int64_t>(threads))
      .Set("supersteps", static_cast<int64_t>(stats.supersteps))
      .Set("messages", stats.total_messages)
      .Set("seconds", seconds)
      .Set("msgs_per_sec", static_cast<double>(stats.total_messages) / seconds)
      .Set("rebuild_seconds", stats.rebuild_seconds)
      .Set("compute_seconds", stats.compute_seconds)
      .Set("merge_seconds", stats.merge_seconds)
      .Set("combine_hits", stats.combine_hits)
      .Set("dropped_messages", stats.dropped_messages);
  return row.Dump();
}

int RunRoutingSweep(const std::string& json_path) {
  // 2^16 vertices x avg degree 16 = ~1M edges.
  auto graph = GenerateRmat({.scale = 16, .avg_degree = 16, .seed = 1});
  ARIADNE_CHECK(graph.ok());
  const char* kGraphName = "rmat-s16-d16";
  const int kRounds = 4;
  std::fprintf(stderr,
               "engine routing sweep: %s (%lld vertices, %lld edges), "
               "%d flood rounds, reps=%d\n",
               kGraphName, static_cast<long long>(graph->num_vertices()),
               static_cast<long long>(graph->num_edges()), kRounds,
               bench::BenchReps());
  std::vector<std::string> rows;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    rows.push_back(SweepRow(*graph, kGraphName, threads, kRounds));
  }
  bench::JsonObject top;
  bench::JsonObject graph_info;
  graph_info.Set("name", kGraphName)
      .Set("vertices", static_cast<int64_t>(graph->num_vertices()))
      .Set("edges", static_cast<int64_t>(graph->num_edges()));
  top.Set("bench", "engine_routing_sweep")
      .SetRaw("graph", graph_info.Dump())
      .Set("flood_rounds", kRounds)
      .Set("reps", bench::BenchReps())
      .Set("host_hardware_threads",
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .SetRaw("results", bench::JsonArray(rows, 4));
  return bench::WriteJson(json_path, top) ? 0 : 1;
}

}  // namespace
}  // namespace ariadne

int main(int argc, char** argv) {
  const std::string json_path = ariadne::bench::ConsumeJsonFlag(&argc, argv);
  if (!json_path.empty()) return ariadne::RunRoutingSweep(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
