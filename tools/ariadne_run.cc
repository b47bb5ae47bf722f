// ariadne_run — run an analytic with a provenance query from the command
// line, over a generated or loaded graph.
//
// Usage:
//   ariadne_run --analytic pagerank|sssp|wcc|bfs [--graph <edge-list>]
//               [--rmat-scale N] [--avg-degree D] [--seed S]
//               [--query <file.pql>|apt|q4|q5|q6] [--param name=value ...]
//               [--mode online|capture] [--store-out <file>]
//               [--source V] [--iterations N] [--retention W] [--dump T]
//
// Examples:
//   # apt query online on PageRank over a generated web graph
//   ariadne_run --analytic pagerank --query apt --param eps=0.01
//
//   # capture full provenance of SSSP over an edge-list file
//   ariadne_run --analytic sssp --graph web.el --query capture-full
//               --mode capture --store-out web.prov

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <unistd.h>
#include <map>
#include <memory>
#include <string>

#include "analytics/bfs.h"
#include "common/json.h"
#include "common/mem.h"
#include "common/serialize.h"
#include "common/string_util.h"
#include "core/ariadne.h"
#include "graph/paged_backend.h"
#include "recovery/checkpoint.h"
#include "recovery/fault_injector.h"
#include "storage/memory_budget.h"

using namespace ariadne;

namespace {

struct Args {
  std::string analytic = "pagerank";
  std::string graph_path;
  int rmat_scale = 11;
  double avg_degree = 12;
  uint64_t seed = 42;
  std::string query = "apt";
  QueryParams params;
  std::string mode = "online";
  std::string store_out;
  VertexId source = -1;
  int iterations = 20;
  int retention = 2;
  std::string dump_table;
  std::string spill_dir;
  /// TOTAL unified memory budget across provenance page cache, paged graph
  /// topology, and paged vertex state (storage/memory_budget.h). With the
  /// in-memory graph backend the whole budget goes to provenance (legacy
  /// behavior); with --graph-backend paged it is split by
  /// --graph-budget-fraction.
  double mem_budget_mb = 0;
  int flush_threads = 1;
  int threads = 1;  ///< engine worker threads (EngineOptions::num_threads)
  std::string graph_backend = "memory";  ///< memory|paged
  double graph_budget_fraction =
      storage::kDefaultGraphBudgetFraction;  ///< graph share of total budget
  std::string graph_spill;  ///< AGP1 spill path (default under --spill-dir)
  /// Vertices per AGP1 partition frame (0 = default targeting ~4 MiB
  /// decoded fragments; small values force paging on small graphs).
  VertexId graph_partition_span = 0;
  /// Resolved split of --mem-budget-mb, computed once in main().
  storage::BudgetSplit split;
  bool plan_joins = true;  ///< --no-plan: legacy literal order and probes
  std::string checkpoint_dir;
  int checkpoint_every = 0;
  bool resume = false;
  std::string inject;         ///< fault scenario DSL (see fault_injector.h)
  uint64_t inject_seed = 1;   ///< reserved for randomized scenarios
  std::string degrade = "fail";
  std::string values_out;     ///< binary dump of final vertex values
  std::string stats_json;     ///< machine-readable run report (--stats-json)
};

int Usage() {
  std::fprintf(stderr,
               "usage: ariadne_run --analytic pagerank|sssp|wcc|bfs\n"
               "  [--graph <edge-list>] [--rmat-scale N] [--avg-degree D]\n"
               "  [--seed S] [--query <file.pql>|apt|q4|q5|q6|capture-full|"
               "capture-custom]\n"
               "  [--param name=value ...] [--mode online|capture]\n"
               "  [--store-out <file>] [--source V] [--iterations N]\n"
               "  [--retention W] [--dump <table>] [--no-plan]\n"
               "  [--threads N] [--spill-dir <dir>] [--mem-budget-mb M] "
               "[--flush-threads N]\n"
               "  [--graph-backend memory|paged] "
               "[--graph-budget-fraction F] [--graph-spill <file>]\n"
               "  [--graph-partition-span N]\n"
               "  [--checkpoint-dir <dir>] [--checkpoint-every N] [--resume]\n"
               "  [--inject point:N[+][:error|throw|crash],...] "
               "[--inject-seed S]\n"
               "  [--degrade-policy fail|capture-off|forward-lineage]\n"
               "  [--values-out <file>] [--stats-json <file>]\n");
  return 2;
}

Result<CaptureDegradePolicy> ParseDegradePolicy(const std::string& name) {
  if (name == "fail") return CaptureDegradePolicy::kFail;
  if (name == "capture-off") return CaptureDegradePolicy::kCaptureOff;
  if (name == "forward-lineage") return CaptureDegradePolicy::kForwardLineage;
  return Status::InvalidArgument("unknown degrade policy '" + name +
                                 "' (fail|capture-off|forward-lineage)");
}

Result<std::string> QueryText(const Args& args) {
  if (auto text = queries::ByName(args.query)) return *text;
  return ReadFile(args.query);
}

/// Dumps final vertex values as a deterministic binary image (the crash
/// recovery tests compare these byte-for-byte across resumed runs).
template <typename V>
Status DumpValues(const std::string& path, const std::vector<V>& values) {
  BinaryWriter w;
  w.WriteU64(values.size());
  if constexpr (recovery::Checkpointable<V>) {
    for (const V& v : values) recovery::CheckpointTraits<V>::Write(w, v);
  } else {
    return Status::Unsupported("--values-out: value type not serializable");
  }
  return WriteFile(path, w.MoveData());
}

void PrintRecoveryStats(const RunStats& stats) {
  if (stats.checkpoints_written > 0 || stats.resumed_from_step >= 0 ||
      stats.injected_faults > 0 || stats.checkpoint_failures > 0) {
    std::printf(
        "recovery: %lld checkpoint(s) in %.3fs, %lld failure(s), resumed "
        "from step %d, %lld injected fault(s)\n",
        static_cast<long long>(stats.checkpoints_written),
        stats.checkpoint_seconds,
        static_cast<long long>(stats.checkpoint_failures),
        stats.resumed_from_step,
        static_cast<long long>(stats.injected_faults));
  }
  if (stats.capture_degraded) {
    std::printf("recovery: CAPTURE DEGRADED at superstep %d\n",
                stats.capture_degraded_at);
  }
}

// ---- --stats-json emission (machine-readable run report) ----

std::string EngineStatsJson(const RunStats& s) {
  json::JsonObject o;
  o.Set("supersteps", static_cast<int64_t>(s.supersteps))
      .Set("total_messages", s.total_messages)
      .Set("total_active", s.total_active)
      .Set("seconds", s.seconds)
      .Set("halted_by_cap", s.halted_by_cap)
      .Set("dropped_messages", s.dropped_messages)
      .Set("combine_hits", s.combine_hits)
      .Set("rebuild_seconds", s.rebuild_seconds)
      .Set("compute_seconds", s.compute_seconds)
      .Set("merge_seconds", s.merge_seconds)
      .Set("master_seconds", s.master_seconds)
      .Set("checkpoints_written", s.checkpoints_written)
      .Set("checkpoint_seconds", s.checkpoint_seconds)
      .Set("checkpoint_failures", s.checkpoint_failures)
      .Set("resumed_from_step", static_cast<int64_t>(s.resumed_from_step))
      .Set("injected_faults", s.injected_faults)
      .Set("capture_degraded", s.capture_degraded)
      .Set("capture_degraded_at",
           static_cast<int64_t>(s.capture_degraded_at));
  return o.Dump();
}

std::string RuleStatsJson(const RuleEvalStats& r) {
  json::JsonObject o;
  o.Set("evaluations", r.evaluations)
      .Set("rows_scanned", r.rows_scanned)
      .Set("index_probes", r.index_probes)
      .Set("probe_rows", r.probe_rows)
      .Set("index_builds", r.index_builds)
      .Set("delta_rescans", r.delta_rescans)
      .Set("derived", r.derived)
      .Set("seconds", r.seconds);
  return o.Dump();
}

std::string EvalStatsJson(const EvalStats& e) {
  std::vector<std::string> rules;
  rules.reserve(e.rules.size());
  for (const RuleEvalStats& r : e.rules) rules.push_back(RuleStatsJson(r));
  json::JsonObject o;
  o.SetRaw("total", RuleStatsJson(e.Total()))
      .SetRaw("rules", json::JsonArray(rules));
  return o.Dump();
}

std::string StorageStatsJson(const storage::StorageStats& st) {
  json::JsonObject o;
  o.Set("layers_flushed", st.layers_flushed)
      .Set("pages_written", st.pages_written)
      .Set("compressed_bytes", st.compressed_bytes)
      .Set("raw_serialized_bytes", st.raw_serialized_bytes)
      .Set("compression_ratio", st.CompressionRatio())
      .Set("pages_read", st.pages_read)
      .Set("prefetch_requests", st.prefetch_requests)
      .Set("prefetch_pages", st.prefetch_pages)
      .Set("flush_seconds", st.flush_seconds)
      .Set("flush_retries", st.flush_retries)
      .Set("read_retries", st.read_retries)
      .SetRaw("flush_retries_by_thread", [&] {
        std::vector<std::string> per_thread;
        per_thread.reserve(st.flush_retries_by_thread.size());
        for (uint64_t n : st.flush_retries_by_thread) {
          per_thread.push_back(std::to_string(n));
        }
        return json::JsonArray(per_thread);
      }())
      .Set("layers_quarantined", st.layers_quarantined)
      .Set("degraded", st.degraded)
      .Set("cache_hits", st.cache_hits)
      .Set("cache_misses", st.cache_misses)
      .Set("cache_hit_rate", st.CacheHitRate())
      .Set("cache_evictions", st.cache_evictions)
      .Set("cache_bytes", st.cache_bytes);
  return o.Dump();
}

std::string GraphBackendStatsJson(const GraphBackendStats& g) {
  json::JsonObject o;
  o.Set("budget_bytes", g.budget_bytes)
      .Set("resident_bytes", g.resident_bytes)
      .Set("footprint_bytes", g.footprint_bytes)
      .Set("partition_faults", g.partition_faults)
      .Set("cache_hits", g.cache_hits)
      .Set("prefetch_loads", g.prefetch_loads)
      .Set("prefetch_requests", g.prefetch_requests)
      .Set("evictions", g.evictions)
      .Set("max_partition_bytes", g.max_partition_bytes)
      .Set("partitions", static_cast<int64_t>(g.partitions))
      .Set("read_retries", g.read_retries)
      .Set("fd_reopens", g.fd_reopens)
      .Set("gave_up", g.gave_up);
  return o.Dump();
}

std::string VertexStateStatsJson(const VertexStateStats& s) {
  json::JsonObject o;
  o.Set("paged", s.paged)
      .Set("budget_bytes", s.budget_bytes)
      .Set("resident_bytes", s.resident_bytes)
      .Set("footprint_bytes", s.footprint_bytes)
      .Set("page_faults", s.page_faults)
      .Set("prefetch_loads", s.prefetch_loads)
      .Set("evictions", s.evictions)
      .Set("writebacks", s.writebacks)
      .Set("pages", static_cast<int64_t>(s.pages))
      .Set("read_retries", s.read_retries)
      .Set("write_retries", s.write_retries)
      .Set("fd_reopens", s.fd_reopens)
      .Set("gave_up", s.gave_up);
  return o.Dump();
}

std::string BudgetJson(const storage::BudgetSplit& split) {
  json::JsonObject o;
  o.Set("total_bytes", static_cast<uint64_t>(split.total))
      .Set("provenance_bytes", static_cast<uint64_t>(split.provenance))
      .Set("graph_topology_bytes",
           static_cast<uint64_t>(split.graph_topology))
      .Set("vertex_state_bytes", static_cast<uint64_t>(split.vertex_state));
  return o.Dump();
}

/// Memory section shared by both --stats-json branches: unified budget
/// split, peak RSS, and the per-component backend counters.
void AddMemoryStats(json::JsonObject& root, const Args& args,
                    const RunStats& stats) {
  root.Set("peak_rss_bytes", stats.peak_rss_bytes)
      .Set("graph_backend_name",
           args.graph_backend == "paged" ? "paged" : "memory");
  root.SetRaw("budget", BudgetJson(args.split));
  root.SetRaw("graph_backend", GraphBackendStatsJson(stats.graph_backend));
  root.SetRaw("vertex_state", VertexStateStatsJson(stats.vertex_state));
}

void PrintMemoryStats(const Args& args, const RunStats& stats) {
  if (args.graph_backend != "paged") return;
  const GraphBackendStats& g = stats.graph_backend;
  const VertexStateStats& s = stats.vertex_state;
  std::printf(
      "memory: budget %s, peak rss %s\n",
      storage::DescribeBudgetSplit(args.split).c_str(),
      HumanBytes(stats.peak_rss_bytes).c_str());
  std::printf(
      "graph backend: %d partition(s), %llu fault(s), %llu cache hit(s), "
      "%llu prefetch load(s), %llu eviction(s), %s resident of %s\n",
      g.partitions, static_cast<unsigned long long>(g.partition_faults),
      static_cast<unsigned long long>(g.cache_hits),
      static_cast<unsigned long long>(g.prefetch_loads),
      static_cast<unsigned long long>(g.evictions),
      HumanBytes(g.resident_bytes).c_str(),
      HumanBytes(g.footprint_bytes).c_str());
  if (s.paged) {
    std::printf(
        "vertex state: %d page(s), %llu fault(s), %llu prefetch load(s), "
        "%llu eviction(s), %llu writeback(s)\n",
        s.pages, static_cast<unsigned long long>(s.page_faults),
        static_cast<unsigned long long>(s.prefetch_loads),
        static_cast<unsigned long long>(s.evictions),
        static_cast<unsigned long long>(s.writebacks));
  }
  if (g.read_retries > 0 || g.fd_reopens > 0 || g.gave_up > 0 ||
      s.read_retries > 0 || s.write_retries > 0 || s.fd_reopens > 0 ||
      s.gave_up > 0) {
    std::printf(
        "resilience: graph %llu read retries / %llu reopen(s) / %llu gave "
        "up; vertex state %llu read + %llu write retries / %llu reopen(s) "
        "/ %llu gave up\n",
        static_cast<unsigned long long>(g.read_retries),
        static_cast<unsigned long long>(g.fd_reopens),
        static_cast<unsigned long long>(g.gave_up),
        static_cast<unsigned long long>(s.read_retries),
        static_cast<unsigned long long>(s.write_retries),
        static_cast<unsigned long long>(s.fd_reopens),
        static_cast<unsigned long long>(s.gave_up));
  }
}

json::JsonObject StatsJsonHeader(const Args& args, const Graph& graph) {
  json::JsonObject root;
  root.Set("tool", "ariadne_run")
      .Set("analytic", args.analytic)
      .Set("query", args.query)
      .Set("mode", args.mode);
  json::JsonObject g;
  g.Set("vertices", static_cast<int64_t>(graph.num_vertices()))
      .Set("edges", static_cast<int64_t>(graph.num_edges()));
  root.SetRaw("graph", g.Dump());
  return root;
}

int WriteStatsJson(const std::string& path, const json::JsonObject& root) {
  Status written = WriteFile(path, root.Dump() + "\n");
  if (!written.ok()) {
    std::fprintf(stderr, "stats-json: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("stats written to %s\n", path.c_str());
  return 0;
}

template <typename P>
int RunWith(const Args& args, const Graph& graph, P& program) {
  SessionOptions session_options;
  session_options.engine.num_threads = static_cast<size_t>(args.threads);
  session_options.plan_joins = args.plan_joins;
  session_options.engine.checkpoint_dir = args.checkpoint_dir;
  session_options.engine.checkpoint_every = args.checkpoint_every;
  session_options.engine.resume = args.resume;
  if (args.graph_backend == "paged") {
    // Out-of-core run: vertex state pages against its slice of the unified
    // budget, spilling next to the graph's AGP1 file.
    session_options.engine.paged_vertex_state = true;
    session_options.engine.vertex_state_budget_bytes =
        args.split.vertex_state;
    session_options.engine.vertex_state_dir =
        std::filesystem::path(args.graph_spill).parent_path().string();
  }
  // The fingerprint ties a checkpoint to this exact run configuration;
  // the engine appends graph dimensions itself.
  session_options.engine.checkpoint_fingerprint =
      args.analytic + "|" + args.query + "|mode=" + args.mode +
      "|it=" + std::to_string(args.iterations) +
      "|seed=" + std::to_string(args.seed) +
      "|ret=" + std::to_string(args.retention);
  Session session(&graph, session_options);
  auto text = QueryText(args);
  if (!text.ok()) {
    std::fprintf(stderr, "query: %s\n", text.status().ToString().c_str());
    return 1;
  }
  auto query = session.PrepareOnline(*text, args.params);
  if (!query.ok()) {
    std::fprintf(stderr, "analysis: %s\n", query.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", query->DebugString().c_str());

  if (args.mode == "capture") {
    ProvenanceStore store;
    if (!args.spill_dir.empty()) {
      storage::LayerStoreOptions options;
      options.dir = args.spill_dir;
      // Provenance gets its slice of the unified budget (all of it when
      // the graph backend is in-memory).
      options.mem_budget_bytes = args.split.provenance;
      options.flush_threads = args.flush_threads;
      Status configured = store.ConfigureStorage(std::move(options));
      if (!configured.ok()) {
        std::fprintf(stderr, "spill: %s\n", configured.ToString().c_str());
        return 1;
      }
    }
    auto policy = ParseDegradePolicy(args.degrade);
    if (!policy.ok()) {
      std::fprintf(stderr, "degrade: %s\n", policy.status().ToString().c_str());
      return 1;
    }
    std::vector<typename P::ValueType> final_values;
    auto stats = session.Capture(program, *query, &store, args.retention,
                                 &final_values, /*use_fast_capture=*/true,
                                 *policy);
    if (!stats.ok()) {
      std::fprintf(stderr, "capture: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    std::printf("captured %d layers, %s (%lld tuples) in %.3fs over %d "
                "supersteps\n",
                store.num_layers(), HumanBytes(store.TotalBytes()).c_str(),
                static_cast<long long>(store.TotalTuples()), stats->seconds,
                stats->supersteps);
    PrintRecoveryStats(*stats);
    PrintMemoryStats(args, *stats);
    if (!args.spill_dir.empty()) {
      const storage::StorageStats st = store.storage_stats();
      std::printf(
          "storage: %llu layers flushed (%d spilled), %llu pages written, "
          "%s compressed / %s raw (ratio %.2f), %.3fs flushing\n",
          static_cast<unsigned long long>(st.layers_flushed),
          store.SpilledLayerCount(),
          static_cast<unsigned long long>(st.pages_written),
          HumanBytes(st.compressed_bytes).c_str(),
          HumanBytes(st.raw_serialized_bytes).c_str(), st.CompressionRatio(),
          st.flush_seconds);
      std::printf(
          "storage: cache %llu hit / %llu miss (%.0f%% hit rate), "
          "%llu evictions, %llu pages read, %llu prefetch requests\n",
          static_cast<unsigned long long>(st.cache_hits),
          static_cast<unsigned long long>(st.cache_misses),
          100.0 * st.CacheHitRate(),
          static_cast<unsigned long long>(st.cache_evictions),
          static_cast<unsigned long long>(st.pages_read),
          static_cast<unsigned long long>(st.prefetch_requests));
      if (st.flush_retries > 0 || st.read_retries > 0 ||
          st.layers_quarantined > 0 || st.degraded) {
        std::printf(
            "storage: %llu flush retries, %llu read retries, %llu layer(s) "
            "quarantined%s\n",
            static_cast<unsigned long long>(st.flush_retries),
            static_cast<unsigned long long>(st.read_retries),
            static_cast<unsigned long long>(st.layers_quarantined),
            st.degraded ? ", DEGRADED" : "");
      }
    }
    if (!args.stats_json.empty()) {
      json::JsonObject root = StatsJsonHeader(args, graph);
      root.SetRaw("engine", EngineStatsJson(*stats));
      AddMemoryStats(root, args, *stats);
      json::JsonObject store_json;
      store_json.Set("layers", store.num_layers())
          .Set("bytes", static_cast<uint64_t>(store.TotalBytes()))
          .Set("tuples", store.TotalTuples())
          .Set("spilled_layers", store.SpilledLayerCount());
      root.SetRaw("store", store_json.Dump());
      root.SetRaw("storage", StorageStatsJson(store.storage_stats()));
      if (int rc = WriteStatsJson(args.stats_json, root)) return rc;
    }
    if (!args.values_out.empty()) {
      Status dumped = DumpValues(args.values_out, final_values);
      if (!dumped.ok()) {
        std::fprintf(stderr, "values: %s\n", dumped.ToString().c_str());
        return 1;
      }
    }
    if (!args.store_out.empty()) {
      Status saved = store.SaveToFile(args.store_out);
      if (!saved.ok()) {
        std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
        return 1;
      }
      std::printf("store written to %s\n", args.store_out.c_str());
    }
    return 0;
  }

  std::vector<typename P::ValueType> final_values;
  auto run = session.RunOnline(program, *query, args.retention, &final_values);
  if (!run.ok()) {
    std::fprintf(stderr, "run: %s\n", run.status().ToString().c_str());
    return 1;
  }
  std::printf("analytic: %d supersteps, %lld messages, %.3fs\n",
              run->engine_stats.supersteps,
              static_cast<long long>(run->engine_stats.total_messages),
              run->engine_stats.seconds);
  PrintRecoveryStats(run->engine_stats);
  PrintMemoryStats(args, run->engine_stats);
  if (!args.values_out.empty()) {
    Status dumped = DumpValues(args.values_out, final_values);
    if (!dumped.ok()) {
      std::fprintf(stderr, "values: %s\n", dumped.ToString().c_str());
      return 1;
    }
  }
  std::printf("query tables:\n");
  for (const std::string& name : run->query_result.TableNames()) {
    std::printf("  %-20s %zu tuple(s)\n", name.c_str(),
                run->query_result.TupleCount(name));
  }
  const std::string profile = run->eval_stats.Summary(*query);
  if (!profile.empty()) {
    std::printf("rule profile (%s):\n%s",
                args.plan_joins ? "planned" : "no-plan", profile.c_str());
  }
  if (!args.stats_json.empty()) {
    json::JsonObject root = StatsJsonHeader(args, graph);
    root.SetRaw("engine", EngineStatsJson(run->engine_stats));
    AddMemoryStats(root, args, run->engine_stats);
    root.SetRaw("eval", EvalStatsJson(run->eval_stats));
    root.Set("transient_bytes", static_cast<uint64_t>(run->transient_bytes));
    std::vector<std::string> tables;
    for (const std::string& name : run->query_result.TableNames()) {
      json::JsonObject t;
      t.Set("name", name)
          .Set("tuples",
               static_cast<uint64_t>(run->query_result.TupleCount(name)));
      tables.push_back(t.Dump());
    }
    root.SetRaw("tables", json::JsonArray(tables));
    if (int rc = WriteStatsJson(args.stats_json, root)) return rc;
  }
  if (!args.dump_table.empty()) {
    const Relation* rel = run->query_result.Table(args.dump_table);
    if (rel == nullptr) {
      std::fprintf(stderr, "no table named %s\n", args.dump_table.c_str());
      return 1;
    }
    for (const std::string& row : rel->ToSortedStrings()) {
      std::printf("%s%s\n", args.dump_table.c_str(), row.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) return Usage();
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const std::string flag = argv[i];
    const char* v = nullptr;
    if (flag == "--analytic" && (v = next())) {
      args.analytic = v;
    } else if (flag == "--graph" && (v = next())) {
      args.graph_path = v;
    } else if (flag == "--rmat-scale" && (v = next())) {
      args.rmat_scale = std::atoi(v);
    } else if (flag == "--avg-degree" && (v = next())) {
      args.avg_degree = std::atof(v);
    } else if (flag == "--seed" && (v = next())) {
      args.seed = static_cast<uint64_t>(std::atoll(v));
    } else if (flag == "--query" && (v = next())) {
      args.query = v;
    } else if (flag == "--param" && (v = next())) {
      const std::string kv = v;
      const auto eq = kv.find('=');
      if (eq == std::string::npos) return Usage();
      args.params.emplace_back(kv.substr(0, eq),
                               ParseParamValue(kv.substr(eq + 1)));
    } else if (flag == "--mode" && (v = next())) {
      args.mode = v;
    } else if (flag == "--store-out" && (v = next())) {
      args.store_out = v;
    } else if (flag == "--source" && (v = next())) {
      args.source = std::atoll(v);
    } else if (flag == "--iterations" && (v = next())) {
      args.iterations = std::atoi(v);
    } else if (flag == "--retention" && (v = next())) {
      args.retention = std::atoi(v);
    } else if (flag == "--dump" && (v = next())) {
      args.dump_table = v;
    } else if (flag == "--no-plan") {
      args.plan_joins = false;
    } else if (flag == "--spill-dir" && (v = next())) {
      args.spill_dir = v;
    } else if (flag == "--mem-budget-mb" && (v = next())) {
      args.mem_budget_mb = std::atof(v);
    } else if (flag == "--flush-threads" && (v = next())) {
      args.flush_threads = std::atoi(v);
    } else if (flag == "--threads" && (v = next())) {
      args.threads = std::atoi(v);
      if (args.threads < 1 || args.threads > 256) {
        std::fprintf(stderr, "threads: expected 1..256, got '%s'\n", v);
        return Usage();
      }
    } else if (flag == "--graph-backend" && (v = next())) {
      args.graph_backend = v;
    } else if (flag == "--graph-budget-fraction" && (v = next())) {
      args.graph_budget_fraction = std::atof(v);
    } else if (flag == "--graph-spill" && (v = next())) {
      args.graph_spill = v;
    } else if (flag == "--graph-partition-span" && (v = next())) {
      args.graph_partition_span = std::atoll(v);
    } else if (flag == "--checkpoint-dir" && (v = next())) {
      args.checkpoint_dir = v;
    } else if (flag == "--checkpoint-every" && (v = next())) {
      args.checkpoint_every = std::atoi(v);
    } else if (flag == "--resume") {
      args.resume = true;
    } else if (flag == "--inject" && (v = next())) {
      args.inject = v;
    } else if (flag == "--inject-seed" && (v = next())) {
      args.inject_seed = static_cast<uint64_t>(std::atoll(v));
    } else if (flag == "--degrade-policy" && (v = next())) {
      args.degrade = v;
    } else if (flag == "--values-out" && (v = next())) {
      args.values_out = v;
    } else if (flag == "--stats-json" && (v = next())) {
      args.stats_json = v;
    } else {
      return Usage();
    }
  }

  if (!args.inject.empty()) {
    Status armed =
        recovery::FaultInjector::Global().Arm(args.inject, args.inject_seed);
    if (!armed.ok()) {
      std::fprintf(stderr, "inject: %s\n", armed.ToString().c_str());
      return 2;
    }
  }

  if (args.graph_backend != "memory" && args.graph_backend != "paged") {
    std::fprintf(stderr, "graph-backend: unknown backend '%s'\n",
                 args.graph_backend.c_str());
    return Usage();
  }
  // --mem-budget-mb is the TOTAL budget across provenance, paged graph
  // topology, and paged vertex state; the split is documented in
  // storage/memory_budget.h and DESIGN.md §2.7.
  args.split = storage::ResolveBudgetSplit(
      static_cast<size_t>(args.mem_budget_mb * 1024 * 1024),
      /*graph_paged=*/args.graph_backend == "paged",
      args.graph_budget_fraction);

  std::unique_ptr<PagedBackend> paged;
  const bool user_pinned_spill = !args.graph_spill.empty();
  Result<Graph> graph = Status::Internal("no graph");
  if (args.graph_backend == "paged") {
    if (args.graph_spill.empty()) {
      const std::filesystem::path dir =
          args.spill_dir.empty() ? std::filesystem::temp_directory_path()
                                 : std::filesystem::path(args.spill_dir);
      args.graph_spill =
          (dir / ("ariadne_graph." + std::to_string(::getpid()) + ".agp"))
              .string();
    }
    Status built = Status::OK();
    if (!args.graph_path.empty()) {
      // Stream the edge list straight into the AGP1 spill file — the full
      // graph is never materialized in memory.
      built = PagedBackend::BuildFromEdgeList(args.graph_path,
                                              args.graph_spill,
                                              args.graph_partition_span);
    } else {
      Result<Graph> generated = GenerateRmat({.scale = args.rmat_scale,
                                              .avg_degree = args.avg_degree,
                                              .seed = args.seed,
                                              .max_weight = 2.5});
      if (!generated.ok()) {
        std::fprintf(stderr, "graph: %s\n",
                     generated.status().ToString().c_str());
        return 1;
      }
      built = PagedBackend::CreateFrom(*generated, args.graph_spill,
                                       args.graph_partition_span);
      // The generated in-memory copy is dropped here; the run pages
      // topology back in from the spill file under the budget.
    }
    if (built.ok()) {
      PagedBackendOptions options;
      options.budget_bytes = args.split.graph_topology;
      auto opened = PagedBackend::Open(args.graph_spill, options);
      if (!opened.ok()) {
        built = opened.status();
      } else {
        paged = std::move(*opened);
      }
    }
    if (!built.ok()) {
      std::fprintf(stderr, "graph-backend: %s\n", built.ToString().c_str());
      return 1;
    }
    if (args.mem_budget_mb > 0 &&
        args.split.graph_topology < paged->max_partition_bytes()) {
      std::fprintf(stderr,
                   "warning: graph topology budget %s is below the largest "
                   "partition's working set %s; every fault reloads a "
                   "partition (raise --mem-budget-mb or "
                   "--graph-budget-fraction)\n",
                   HumanBytes(args.split.graph_topology).c_str(),
                   HumanBytes(paged->max_partition_bytes()).c_str());
    }
  } else if (!args.graph_path.empty()) {
    graph = LoadEdgeList(args.graph_path);
  } else {
    graph = GenerateRmat({.scale = args.rmat_scale,
                          .avg_degree = args.avg_degree,
                          .seed = args.seed,
                          .max_weight = 2.5});
  }
  if (paged == nullptr && !graph.ok()) {
    std::fprintf(stderr, "graph: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  const Graph& g = paged != nullptr ? *paged : *graph;
  std::printf("graph: %lld vertices, %lld edges (%s backend)\n",
              static_cast<long long>(g.num_vertices()),
              static_cast<long long>(g.num_edges()), g.backend_name());
  const VertexId source =
      args.source >= 0 ? args.source : HighestDegreeVertex(g);

  int rc = 2;
  bool matched = true;
  if (args.analytic == "pagerank") {
    PageRankProgram program({.iterations = args.iterations});
    rc = RunWith(args, g, program);
  } else if (args.analytic == "sssp") {
    SsspProgram program(source);
    rc = RunWith(args, g, program);
  } else if (args.analytic == "wcc") {
    WccProgram program;
    rc = RunWith(args, g, program);
  } else if (args.analytic == "bfs") {
    BfsProgram program(source);
    rc = RunWith(args, g, program);
  } else {
    matched = false;
  }
  if (!matched) rc = Usage();
  if (paged != nullptr) {
    // The spill file is scratch: remove it unless the user pinned a path.
    std::string path = paged->path();
    paged.reset();
    if (!user_pinned_spill) std::filesystem::remove(path);
  }
  return rc;
}
