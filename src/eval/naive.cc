#include "eval/naive.h"

#include <string>

#include "common/timer.h"
#include "eval/layered_step.h"

namespace ariadne {

Result<OfflineRun> NaiveEvaluator::Run() {
  ARIADNE_RETURN_NOT_OK(ValidateMode(*query_, EvalMode::kNaive));
  // Same refusal as layered eval: a degraded capture must never silently
  // answer a full-history query (DESIGN.md §2.4).
  ARIADNE_RETURN_NOT_OK(CheckDegradedCapture(*query_, *store_));
  const int num_layers = store_->num_layers();
  if (num_layers == 0) {
    return Status::InvalidArgument("provenance store has no layers");
  }
  WallTimer timer;

  // Materialize the ENTIRE provenance graph up front: every vertex holds
  // all of its layers' facts, and ships fan out along the message edges
  // recorded over every superstep (no layer ordering). Routing follows
  // the recorded edges even when the query does not read them.
  EvalPhases phases;
  FactLoader facts(*store_, *query_);
  NodeDatabases nodes(query_, graph_);
  ShipExchange ships(query_, graph_);
  AdjacencyCache adjacency(graph_);
  ShipRoutes routes(store_->RelId("send-message"),
                    store_->RelId("receive-message"));
  WallTimer phase;
  auto load = [&](const storage::CaptureBatch& batch) {
    routes.Add(batch);
    const VertexSlices index(batch);
    phases.view += phase.Lap();
    for (VertexId v : index.vertices()) facts.Add(nodes, batch, index, v);
    phases.facts += phase.Lap();
  };
  load(storage::CaptureBatch::FromLayer(store_->static_data()));
  // Facts read in place stay in their layers' batches until the run ends.
  std::vector<std::shared_ptr<const storage::CaptureBatch>> batches;
  for (int step = 0; step < num_layers; ++step) {
    ARIADNE_ASSIGN_OR_RETURN(std::shared_ptr<const storage::CaptureBatch> batch,
                             store_->GetLayerBatch(step, {}));
    phases.read += phase.Lap();
    load(*batch);
    if (facts.in_place()) batches.push_back(std::move(batch));
  }
  routes.Seal();
  phases.view += phase.Lap();
  // Nothing is derived yet, so this merge only sums the loaded bytes.
  const size_t loaded_bytes = nodes.Merge().state_bytes;
  phases.facts += phase.Lap();

  // Rounds: every vertex, ascending, ships delivered at the barrier in
  // sender order; strata synchronize globally (negation may only read a
  // lower stratum once it is complete everywhere), advancing after a
  // quiet round. A simple path of message edges needs at most one round
  // per vertex; the layer term covers temporally linked queries.
  const VertexId n = graph_->num_vertices();
  const int64_t guard = n + 2 * int64_t{num_layers} + 4;
  int stratum = 0;
  int64_t stratum_rounds = 0;
  Superstep rounds = 0;
  std::vector<VertexId> all(static_cast<size_t>(n));
  for (VertexId v = 0; v < n; ++v) all[static_cast<size_t>(v)] = v;
  Round round;
  round.active = all;
  round.targets = [&](VertexId v, ShipRouting routing) {
    return routes.Targets(v, routing, adjacency);
  };
  for (;;) {
    phase.Restart();
    ships.Barrier();
    phases.ships += phase.Lap();
    round.max_stratum = stratum;
    const RoundResult result = RunRound(nodes, ships, round);
    phases.Add(result.phases);
    ++rounds;
    ++stratum_rounds;
    ARIADNE_RETURN_NOT_OK(nodes.status());
    ARIADNE_RETURN_NOT_OK(graph_->backend_error().WithContext(
        "graph backend failed during naive round " +
        std::to_string(rounds - 1)));
    if (!result.progress) {
      if (++stratum >= query_->num_strata()) break;
      stratum_rounds = 0;
    } else if (stratum_rounds >= guard) {
      return Status::Unsupported(
          "naive evaluation did not converge: stratum " +
          std::to_string(stratum) + " still derived or shipped tuples after " +
          std::to_string(stratum_rounds) + " rounds (" +
          std::to_string(rounds) +
          " in total); the query has no finite fixpoint over this store");
    }
  }

  phase.Restart();
  MergedNodes merged = nodes.Merge();
  OfflineRun run;
  run.result = std::move(merged.result);
  run.stats.eval = std::move(merged.eval);
  phases.round_end += phase.Lap();
  run.stats.phases = phases;
  run.stats.seconds = timer.ElapsedSeconds();
  run.stats.supersteps = rounds;
  run.stats.peak_layer_bytes = loaded_bytes;
  run.stats.materialized_bytes = merged.state_bytes;
  run.stats.result_tuples = run.result.TotalTuples();
  return run;
}

}  // namespace ariadne
