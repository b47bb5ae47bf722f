// ariadne_serve — long-lived multi-tenant provenance query server: loads
// one captured store and serves many concurrent PQL queries with
// Quegel-style superstep-sharing (DESIGN.md §2.6).
//
// Usage:
//   ariadne_serve --store <file.prov>
//                 [--graph <edge-list> | --rmat-scale N --avg-degree D
//                  --seed S]
//                 [--max-inflight N] [--queue-cap N] [--deadline-ms D]
//                 [--step-threads N] [--stats-json <file>]
//
// The graph flags must reproduce the graph the store was captured over
// (same generator parameters or the same edge-list file).
//
// Protocol (stdin, one request per line; EOF drains and exits):
//   query <name> <file.pql|apt|q4|q5|q6> [param=value ...]
//   stats                 # print aggregate server stats so far
//   health                # print a HealthSnapshot (breaker, queue, shed)
//
// One result line per query is printed in submission order once all
// requests are read:
//   <name>: OK tables: safe=12 ... (queue 0.000s exec 0.041s)
//   <name>: ERROR <status>
// Exit code 0 iff every query succeeded.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/mem.h"
#include "common/serialize.h"
#include "common/string_util.h"
#include "core/ariadne.h"
#include "graph/paged_backend.h"
#include "recovery/fault_injector.h"
#include "serve/server.h"
#include "storage/memory_budget.h"

using namespace ariadne;

namespace {

struct Args {
  std::string store_path;
  std::string graph_path;
  int rmat_scale = 11;
  double avg_degree = 12;
  uint64_t seed = 42;
  serve::ServerOptions server;
  std::string stats_json;
  std::string graph_backend = "memory";  ///< memory|paged
  /// Fail-fast drain budget handed to Shutdown at EOF; < 0 = full drain.
  double shutdown_timeout_ms = -1.0;
  std::string inject;  ///< fault scenario DSL (see fault_injector.h)
  uint64_t inject_seed = 1;
  /// TOTAL unified budget; the paged topology gets its slice via
  /// storage::ResolveBudgetSplit (same contract as ariadne_run).
  double mem_budget_mb = 0;
  double graph_budget_fraction = storage::kDefaultGraphBudgetFraction;
};

int Usage() {
  std::fprintf(stderr,
               "usage: ariadne_serve --store <file.prov>\n"
               "  [--graph <edge-list> | --rmat-scale N --avg-degree D "
               "--seed S]\n"
               "  [--max-inflight N] [--queue-cap N] [--deadline-ms D]\n"
               "  [--step-threads N] [--stats-json <file>]\n"
               "  [--graph-backend memory|paged] [--mem-budget-mb M] "
               "[--graph-budget-fraction F]\n"
               "  [--step-retries N] [--breaker-threshold N] "
               "[--breaker-cooldown-ms D] [--no-shed]\n"
               "  [--shutdown-timeout-ms D] [--inject rule,...] "
               "[--inject-seed S]\n"
               "reads 'query <name> <file.pql> [param=value ...]' lines "
               "from stdin ('stats'/'health' print counters)\n");
  return 2;
}

Result<std::string> QueryText(const std::string& name) {
  if (auto text = queries::ByName(name)) return *text;
  return ReadFile(name);
}

std::string ServerStatsLine(const serve::ServerStats& st) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "server: %llu submitted, %llu rejected, %llu shed, %llu coalesced, "
      "%llu completed, %llu failed, %llu expired; "
      "%llu shared scans over %llu query-steps "
      "(%.0f%% shared, mean group %.1f); "
      "%llu step retries, %llu scan failures, %llu breaker trips",
      static_cast<unsigned long long>(st.submitted),
      static_cast<unsigned long long>(st.rejected),
      static_cast<unsigned long long>(st.shed),
      static_cast<unsigned long long>(st.coalesced),
      static_cast<unsigned long long>(st.completed),
      static_cast<unsigned long long>(st.failed),
      static_cast<unsigned long long>(st.expired),
      static_cast<unsigned long long>(st.scan.scans),
      static_cast<unsigned long long>(st.query_steps),
      100.0 * st.scan.HitRate(), st.MeanGroupSize(),
      static_cast<unsigned long long>(st.step_retries),
      static_cast<unsigned long long>(st.scan_failures),
      static_cast<unsigned long long>(st.breaker_trips));
  return buf;
}

std::string ServerStatsJson(const serve::ServerStats& st) {
  json::JsonObject scan;
  scan.Set("scans", st.scan.scans)
      .Set("subscribers", st.scan.subscribers)
      .Set("shared_hits", st.scan.shared_hits)
      .Set("hit_rate", st.scan.HitRate())
      .Set("view_evictions", st.scan.view_evictions);
  json::JsonObject o;
  o.Set("tool", "ariadne_serve")
      .Set("submitted", st.submitted)
      .Set("rejected", st.rejected)
      .Set("shed", st.shed)
      .Set("admitted", st.admitted)
      .Set("coalesced", st.coalesced)
      .Set("completed", st.completed)
      .Set("failed", st.failed)
      .Set("expired", st.expired)
      .Set("group_steps", st.group_steps)
      .Set("query_steps", st.query_steps)
      .Set("max_group_size", st.max_group_size)
      .Set("mean_group_size", st.MeanGroupSize())
      .Set("step_retries", st.step_retries)
      .Set("scan_failures", st.scan_failures)
      .Set("breaker_trips", st.breaker_trips)
      .Set("breaker_probes", st.breaker_probes)
      .SetRaw("shared_scan", scan.Dump());
  return o.Dump();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const std::string flag = argv[i];
    const char* v = nullptr;
    if (flag == "--store" && (v = next())) {
      args.store_path = v;
    } else if (flag == "--graph" && (v = next())) {
      args.graph_path = v;
    } else if (flag == "--rmat-scale" && (v = next())) {
      args.rmat_scale = std::atoi(v);
    } else if (flag == "--avg-degree" && (v = next())) {
      args.avg_degree = std::atof(v);
    } else if (flag == "--seed" && (v = next())) {
      args.seed = static_cast<uint64_t>(std::atoll(v));
    } else if (flag == "--max-inflight" && (v = next())) {
      args.server.max_inflight = static_cast<size_t>(std::atoll(v));
    } else if (flag == "--queue-cap" && (v = next())) {
      args.server.queue_capacity = static_cast<size_t>(std::atoll(v));
    } else if (flag == "--deadline-ms" && (v = next())) {
      args.server.default_deadline_ms = std::atof(v);
    } else if (flag == "--step-threads" && (v = next())) {
      args.server.step_threads = static_cast<size_t>(std::atoll(v));
    } else if (flag == "--stats-json" && (v = next())) {
      args.stats_json = v;
    } else if (flag == "--step-retries" && (v = next())) {
      args.server.step_retry_attempts = std::atoi(v);
    } else if (flag == "--breaker-threshold" && (v = next())) {
      args.server.breaker_threshold = std::atoi(v);
    } else if (flag == "--breaker-cooldown-ms" && (v = next())) {
      args.server.breaker_cooldown_ms = std::atof(v);
    } else if (flag == "--no-shed") {
      args.server.shed_on_deadline = false;
    } else if (flag == "--shutdown-timeout-ms" && (v = next())) {
      args.shutdown_timeout_ms = std::atof(v);
    } else if (flag == "--inject" && (v = next())) {
      args.inject = v;
    } else if (flag == "--inject-seed" && (v = next())) {
      args.inject_seed = static_cast<uint64_t>(std::atoll(v));
    } else if (flag == "--graph-backend" && (v = next())) {
      args.graph_backend = v;
    } else if (flag == "--mem-budget-mb" && (v = next())) {
      args.mem_budget_mb = std::atof(v);
    } else if (flag == "--graph-budget-fraction" && (v = next())) {
      args.graph_budget_fraction = std::atof(v);
    } else {
      return Usage();
    }
  }
  if (args.store_path.empty()) return Usage();

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
  const storage::BudgetSplit split = storage::ResolveBudgetSplit(
      static_cast<size_t>(args.mem_budget_mb * 1024 * 1024),
      /*graph_paged=*/args.graph_backend == "paged",
      args.graph_budget_fraction);

  std::unique_ptr<PagedBackend> paged;
  std::string paged_spill;
  Result<Graph> graph = Status::Internal("no graph");
  if (args.graph_backend == "paged") {
    paged_spill = (std::filesystem::temp_directory_path() /
                   ("ariadne_serve." + std::to_string(::getpid()) + ".agp"))
                      .string();
    Status built = Status::OK();
    if (!args.graph_path.empty()) {
      built = PagedBackend::BuildFromEdgeList(args.graph_path, paged_spill);
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
      built = PagedBackend::CreateFrom(*generated, paged_spill);
    }
    if (built.ok()) {
      PagedBackendOptions options;
      options.budget_bytes = split.graph_topology;
      auto opened = PagedBackend::Open(paged_spill, options);
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
  auto store = ProvenanceStore::LoadFromFile(args.store_path);
  if (!store.ok()) {
    std::fprintf(stderr, "store: %s\n", store.status().ToString().c_str());
    return 1;
  }
  auto state = serve::ServiceState::Create(&g, &*store);
  if (!state.ok()) {
    std::fprintf(stderr, "serve: %s\n", state.status().ToString().c_str());
    return 1;
  }
  std::printf("serving %s: %d layers, %lld tuples over %lld vertices "
              "(%s backend, max-inflight %zu, queue %zu, "
              "%zu step thread(s))\n",
              args.store_path.c_str(), store->num_layers(),
              static_cast<long long>(store->TotalTuples()),
              static_cast<long long>(g.num_vertices()), g.backend_name(),
              args.server.max_inflight, args.server.queue_capacity,
              args.server.step_threads);
  std::fflush(stdout);

  std::unique_ptr<serve::ServiceState> service = state.MoveValue();
  serve::QueryServer server(service.get(), args.server);
  struct Submitted {
    std::string name;
    std::future<serve::ServeResponse> future;
  };
  std::vector<Submitted> submitted;

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream tokens(line);
    std::string verb;
    tokens >> verb;
    if (verb.empty() || verb[0] == '#') continue;
    if (verb == "stats") {
      std::printf("%s\n", ServerStatsLine(server.stats()).c_str());
      std::fflush(stdout);
      continue;
    }
    if (verb == "health") {
      std::printf("health: %s\n", server.health().ToString().c_str());
      std::fflush(stdout);
      continue;
    }
    if (verb != "query") {
      std::fprintf(stderr, "protocol: unknown verb '%s'\n", verb.c_str());
      continue;
    }
    serve::ServeRequest request;
    std::string source;
    tokens >> request.name >> source;
    if (request.name.empty() || source.empty()) {
      std::fprintf(stderr,
                   "protocol: expected 'query <name> <file.pql> "
                   "[param=value ...]'\n");
      continue;
    }
    std::string kv;
    bool bad_param = false;
    while (tokens >> kv) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "protocol: bad param '%s' for query %s\n",
                     kv.c_str(), request.name.c_str());
        bad_param = true;
        break;
      }
      request.params.emplace_back(kv.substr(0, eq),
                                  ParseParamValue(kv.substr(eq + 1)));
    }
    if (bad_param) continue;
    auto text = QueryText(source);
    if (!text.ok()) {
      std::fprintf(stderr, "%s: %s\n", request.name.c_str(),
                   text.status().ToString().c_str());
      continue;
    }
    request.text = text.MoveValue();
    std::string name = request.name;
    submitted.push_back(
        Submitted{std::move(name), server.Submit(std::move(request))});
  }

  // EOF: drain every in-flight and queued query (fail-fast past
  // --shutdown-timeout-ms), then report in submission order.
  server.Shutdown(args.shutdown_timeout_ms);
  int failures = 0;
  for (Submitted& s : submitted) {
    serve::ServeResponse response = s.future.get();
    if (!response.ok()) {
      std::printf("%s: ERROR %s\n", s.name.c_str(),
                  response.status.ToString().c_str());
      ++failures;
      continue;
    }
    std::string tables;
    for (const std::string& table : response.result.TableNames()) {
      tables += " " + table + "=" +
                std::to_string(response.result.TupleCount(table));
    }
    std::printf("%s: OK tables:%s (queue %.3fs exec %.3fs, %d steps)\n",
                s.name.c_str(), tables.c_str(), response.queue_seconds,
                response.exec_seconds,
                static_cast<int>(response.stats.supersteps));
  }
  const serve::ServerStats stats = server.stats();
  std::printf("%s\n", ServerStatsLine(stats).c_str());
  if (paged != nullptr) {
    const GraphBackendStats gb = paged->backend_stats();
    std::printf("graph backend: %d partition(s), %llu fault(s), "
                "%llu prefetch load(s), %llu eviction(s), peak rss %s\n",
                gb.partitions,
                static_cast<unsigned long long>(gb.partition_faults),
                static_cast<unsigned long long>(gb.prefetch_loads),
                static_cast<unsigned long long>(gb.evictions),
                HumanBytes(PeakRssBytes()).c_str());
  }
  if (!args.stats_json.empty()) {
    Status written =
        WriteFile(args.stats_json, ServerStatsJson(stats) + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "stats-json: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  const int rc = failures == 0 ? 0 : 1;
  if (paged != nullptr) {
    // The AGP1 spill is scratch; drop it with the backend.
    paged.reset();
    std::filesystem::remove(paged_spill);
  }
  return rc;
}
