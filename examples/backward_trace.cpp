// Backward lineage tracing (paper §6.3): capture a *custom* provenance
// graph during an SSSP run — values, send supersteps and static edges,
// but no message payloads (Query 11) — and trace an output vertex back to
// the inputs that explain it (Query 12), using descending layered
// evaluation.
//
// This is the classic "crash culprit determination" workflow: which input
// vertices are responsible for this (possibly suspicious) output?

#include <cstdio>

#include "common/string_util.h"
#include "core/ariadne.h"

using namespace ariadne;

int main() {
  auto graph = GenerateRmat(
      {.scale = 10, .avg_degree = 12, .seed = 11, .max_weight = 2.5});
  if (!graph.ok()) return 1;
  Session session(&*graph);
  const VertexId source = HighestDegreeVertex(*graph);

  // ---- Capture with Query 11 (declaratively customized: no payloads).
  auto capture = session.PrepareOnline(queries::CaptureCustomBackward());
  if (!capture.ok()) {
    std::fprintf(stderr, "%s\n", capture.status().ToString().c_str());
    return 1;
  }
  ProvenanceStore store;
  SsspProgram sssp(source);
  std::vector<double> distances;
  auto capture_stats =
      session.Capture(sssp, *capture, &store, /*retention_window=*/2,
                      &distances);
  if (!capture_stats.ok()) {
    std::fprintf(stderr, "%s\n", capture_stats.status().ToString().c_str());
    return 1;
  }
  std::printf("SSSP from %lld ran %d supersteps; custom provenance: %s in "
              "%d layers (input graph: %s)\n",
              static_cast<long long>(source), capture_stats->supersteps,
              HumanBytes(store.TotalBytes()).c_str(), store.num_layers(),
              HumanBytes(graph->InputByteSize()).c_str());

  // ---- Pick an output to explain: the farthest-reached vertex among
  // those that computed in the last superstep (the trace seed must be an
  // active (vertex, superstep) pair, like the paper's).
  Superstep last = store.num_layers() - 1;
  VertexId target = source;
  double max_distance = -1;
  {
    auto layer = store.GetLayerRelations(last, {});
    if (!layer.ok()) return 1;
    const int prov_value = store.RelId("prov-value");
    for (const auto& slice : (*layer)->slices) {
      if (slice.rel != prov_value) continue;
      const double d = distances[static_cast<size_t>(slice.vertex)];
      if (d != kInfiniteDistance && d > max_distance) {
        max_distance = d;
        target = slice.vertex;
      }
    }
  }
  std::printf("tracing vertex %lld (distance %.3f) back from superstep %d\n",
              static_cast<long long>(target), max_distance, last);

  // ---- Query 12 over the custom store, descending layered evaluation.
  auto trace = session.PrepareOffline(
      queries::BackwardLineageCustom(), store,
      {{"alpha", Value(static_cast<int64_t>(target))},
       {"sigma", Value(static_cast<int64_t>(last))}});
  if (!trace.ok()) {
    std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
    return 1;
  }
  auto run = session.RunOffline(&store, *trace, EvalMode::kLayered);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }
  std::printf("trace visited %zu (vertex, superstep) pairs in %d layered "
              "supersteps\n",
              run->result.TupleCount("back-trace"), run->stats.supersteps);
  const Relation* lineage = run->result.Table("back-lineage");
  std::printf("lineage (inputs at superstep 0 explaining the output):\n");
  if (lineage != nullptr) {
    int shown = 0;
    for (const std::string& row : lineage->ToSortedStrings()) {
      std::printf("  back-lineage%s\n", row.c_str());
      if (++shown >= 10) {
        std::printf("  ... (%zu total)\n", lineage->size());
        break;
      }
    }
  }
  return 0;
}
