// Micro-benchmarks (google-benchmark) of the PQL evaluator fast paths:
// flat-arena relation inserts, RowView scans, indexed probes, and the
// cost-ordered join planner against the legacy literal order.
//
// Running with `--json out.json` skips google-benchmark and instead runs
// the planned-vs-unplanned join sweep on a skewed recursive reachability
// workload (>= 100k hop tuples), writing throughput, probe hit rates and
// allocation counts per configuration — the source of the checked-in
// BENCH_eval.json. The "no-plan" configuration is exactly the pre-planner
// evaluation order, so the speedup column measures the planner itself.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "core/ariadne.h"

// ---------------------------------------------------- allocation counters
// Interposed in this binary only: every operator-new in the process bumps
// the counters, so deltas around a timed section give the allocation cost
// of that section (single-threaded here, so deltas are exact).

namespace evalbench {
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};
}  // namespace evalbench

void* operator new(std::size_t size) {
  evalbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  evalbench::g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  evalbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  evalbench::g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// Not inlined, so the optimizer never pairs an inlined free() with an
// operator new call site (a -Wmismatched-new-delete false positive).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ariadne {
namespace {

// ------------------------------------------------------------- gbench

void BM_FlatRelationInsertInts(benchmark::State& state) {
  for (auto _ : state) {
    Relation rel(3);
    for (int64_t i = 0; i < 1000; ++i) {
      rel.Insert({Value(i % 64), Value(static_cast<double>(i)), Value(i)});
    }
    benchmark::DoNotOptimize(rel.size());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_FlatRelationInsertInts);

void BM_FlatRelationInsertInternedStrings(benchmark::State& state) {
  // 32 distinct strings cycled over 1000 inserts: after the first cycle
  // every insert hits the intern pool instead of heap-copying the string.
  std::vector<Value> labels;
  for (int i = 0; i < 32; ++i) {
    labels.push_back(Value("label-" + std::to_string(i)));
  }
  for (auto _ : state) {
    Relation rel(2);
    for (int64_t i = 0; i < 1000; ++i) {
      rel.Insert({Value(i), labels[static_cast<size_t>(i) % labels.size()]});
    }
    benchmark::DoNotOptimize(rel.size());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_FlatRelationInsertInternedStrings);

void BM_RowViewScan(benchmark::State& state) {
  Relation rel(3);
  for (int64_t i = 0; i < 10000; ++i) {
    rel.Insert({Value(i % 256), Value(static_cast<double>(i)), Value(i)});
  }
  const Value needle(int64_t{17});
  for (auto _ : state) {
    size_t hits = 0;
    for (size_t i = 0; i < rel.size(); ++i) {
      if (rel.row_view(i).Equals(0, needle)) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rel.size()));
}
BENCHMARK(BM_RowViewScan);

AnalyzedQuery ClosureQuery(bool planned) {
  StoreSchema schema{{{"src", 2}, {"label", 2}, {"hop", 3}}};
  auto program = ParseProgram(R"(
    reach(s, x) <- src(s, x).
    reach(s, y) <- reach(s, x), label(x, c), hop(c, x, y).
  )");
  ARIADNE_CHECK(program.ok());
  AnalyzeOptions options;
  options.plan_joins = planned;
  auto q = Analyze(*program, Catalog::Default(), UdfRegistry::Default(),
                   &schema, options);
  ARIADNE_CHECK(q.ok());
  return std::move(*q);
}

/// Loads the skewed reachability EDB: `n` vertices, `labels` label
/// classes, `fanout` hop edges per vertex. hop is keyed (label, from, to),
/// so probing on the label column touches n*fanout/labels rows while
/// probing on the bound `from` column touches fanout.
void LoadClosureEdb(const AnalyzedQuery& q, Database& db, int64_t n,
                    int64_t labels, int64_t fanout) {
  db.Rel(q.PredId("src")).Insert({Value(int64_t{0}), Value(int64_t{0})});
  Relation& label = db.Rel(q.PredId("label"));
  Relation& hop = db.Rel(q.PredId("hop"));
  for (int64_t x = 0; x < n; ++x) {
    label.Insert({Value(x), Value(x % labels)});
    for (int64_t k = 1; k <= fanout; ++k) {
      hop.Insert({Value(x % labels), Value(x), Value((x + k) % n)});
    }
  }
}

void RecursiveClosure(benchmark::State& state, bool planned) {
  AnalyzedQuery q = ClosureQuery(planned);
  size_t derived = 0;
  for (auto _ : state) {
    Database db(&q);
    EvalContext ctx;
    ctx.db = &db;
    RuleEvaluator eval(&q);
    LoadClosureEdb(q, db, /*n=*/120, /*labels=*/4, /*fanout=*/40);
    ARIADNE_CHECK(eval.Evaluate(ctx).ok());
    derived += db.RelIfExists(q.PredId("reach"))->size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(derived));
}

void BM_RecursiveClosurePlanned(benchmark::State& state) {
  RecursiveClosure(state, true);
}
BENCHMARK(BM_RecursiveClosurePlanned);

void BM_RecursiveClosureUnplanned(benchmark::State& state) {
  RecursiveClosure(state, false);
}
BENCHMARK(BM_RecursiveClosureUnplanned);

// ------------------------------------------------- --json planning sweep

struct SweepResult {
  double seconds = 0;
  size_t reach_tuples = 0;
  RuleEvalStats totals;
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
};

/// One configuration: builds the EDB fresh per rep and times only the
/// fixpoint evaluation (trimmed mean over BenchReps() runs, matching the
/// paper's methodology). Counters come from the last run — evaluation is
/// deterministic, so they are identical across reps.
SweepResult RunSweepConfig(bool planned, int64_t n, int64_t labels,
                           int64_t fanout) {
  AnalyzedQuery q = ClosureQuery(planned);
  SweepResult out;
  std::vector<double> times;
  const int reps = std::max(1, bench::BenchReps());
  for (int rep = 0; rep < reps; ++rep) {
    Database db(&q);
    EvalContext ctx;
    ctx.db = &db;
    RuleEvaluator eval(&q);
    LoadClosureEdb(q, db, n, labels, fanout);
    const uint64_t allocs0 = evalbench::g_allocs.load();
    const uint64_t bytes0 = evalbench::g_alloc_bytes.load();
    WallTimer timer;
    ARIADNE_CHECK(eval.Evaluate(ctx).ok());
    times.push_back(timer.ElapsedSeconds());
    out.allocs = evalbench::g_allocs.load() - allocs0;
    out.alloc_bytes = evalbench::g_alloc_bytes.load() - bytes0;
    out.totals = db.eval_stats().Total();
    out.reach_tuples = db.RelIfExists(q.PredId("reach"))->size();
  }
  std::sort(times.begin(), times.end());
  size_t lo = 0, hi = times.size();
  if (times.size() >= 3) {
    ++lo;
    --hi;
  }
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += times[i];
  out.seconds = sum / static_cast<double>(hi - lo);
  return out;
}

std::string SweepRow(const char* label, const SweepResult& r) {
  const double probe_hit_rate =
      r.totals.probe_rows == 0
          ? 0.0
          : static_cast<double>(r.totals.derived) /
                static_cast<double>(r.totals.probe_rows);
  std::fprintf(stderr,
               "  %-8s %.4fs  %zu tuples  probes=%llu probe-rows=%llu "
               "scanned=%llu allocs=%llu\n",
               label, r.seconds, r.reach_tuples,
               static_cast<unsigned long long>(r.totals.index_probes),
               static_cast<unsigned long long>(r.totals.probe_rows),
               static_cast<unsigned long long>(r.totals.rows_scanned),
               static_cast<unsigned long long>(r.allocs));
  bench::JsonObject row;
  row.Set("plan", label)
      .Set("seconds", r.seconds)
      .Set("reach_tuples", static_cast<int64_t>(r.reach_tuples))
      .Set("derived", static_cast<int64_t>(r.totals.derived))
      .Set("derived_per_sec",
           static_cast<double>(r.totals.derived) / r.seconds)
      .Set("rule_evaluations", static_cast<int64_t>(r.totals.evaluations))
      .Set("rows_scanned", static_cast<int64_t>(r.totals.rows_scanned))
      .Set("index_probes", static_cast<int64_t>(r.totals.index_probes))
      .Set("probe_rows", static_cast<int64_t>(r.totals.probe_rows))
      .Set("probe_hit_rate", probe_hit_rate)
      .Set("index_builds", static_cast<int64_t>(r.totals.index_builds))
      .Set("delta_rescans", static_cast<int64_t>(r.totals.delta_rescans))
      .Set("allocs", static_cast<int64_t>(r.allocs))
      .Set("alloc_bytes", static_cast<int64_t>(r.alloc_bytes));
  return row.Dump();
}

int RunPlanningSweep(const std::string& json_path) {
  // 500 vertices x fanout 200 = 100k hop tuples; 4 label classes make the
  // legacy probe column (the label) ~50x denser than the planned key (the
  // label and the bound source vertex together).
  const int64_t kN = 500, kLabels = 4, kFanout = 200;
  std::fprintf(stderr,
               "eval planning sweep: %lld vertices, %lld labels, fanout "
               "%lld (%lld hop tuples), reps=%d\n",
               static_cast<long long>(kN), static_cast<long long>(kLabels),
               static_cast<long long>(kFanout),
               static_cast<long long>(kN * kFanout), bench::BenchReps());
  const SweepResult planned = RunSweepConfig(true, kN, kLabels, kFanout);
  const SweepResult unplanned = RunSweepConfig(false, kN, kLabels, kFanout);
  ARIADNE_CHECK(planned.reach_tuples == unplanned.reach_tuples);

  std::vector<std::string> rows;
  rows.push_back(SweepRow("planned", planned));
  rows.push_back(SweepRow("no-plan", unplanned));
  const double speedup = unplanned.seconds / planned.seconds;
  std::fprintf(stderr, "  planned speedup: %.2fx\n", speedup);

  bench::JsonObject workload;
  workload.Set("rules",
               "reach(s,x) <- src(s,x). "
               "reach(s,y) <- reach(s,x), label(x,c), hop(c,x,y).")
      .Set("vertices", static_cast<int64_t>(kN))
      .Set("labels", static_cast<int64_t>(kLabels))
      .Set("fanout", static_cast<int64_t>(kFanout))
      .Set("hop_tuples", static_cast<int64_t>(kN * kFanout));
  bench::JsonObject top;
  top.Set("bench", "eval_join_planning")
      .SetRaw("workload", workload.Dump())
      .Set("reps", bench::BenchReps())
      .Set("speedup_planned_over_unplanned", speedup)
      .Set("host_hardware_threads",
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .SetRaw("results", bench::JsonArray(rows, 4));
  return bench::WriteJson(json_path, top) ? 0 : 1;
}

}  // namespace
}  // namespace ariadne

int main(int argc, char** argv) {
  const std::string json_path = ariadne::bench::ConsumeJsonFlag(&argc, argv);
  if (!json_path.empty()) return ariadne::RunPlanningSweep(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
