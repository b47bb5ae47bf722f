#include "eval/layered.h"

#include "common/timer.h"
#include "eval/layered_step.h"

namespace ariadne {

Result<OfflineRun> LayeredEvaluator::Run() {
  WallTimer timer;
  LayeredQueryRun run(graph_, store_, query_);
  ARIADNE_RETURN_NOT_OK(run.Init());
  const int send_rel = store_->RelId("send-message");
  const int receive_rel = store_->RelId("receive-message");
  EvalPhases phases;
  while (!run.done()) {
    const int step = run.NextLayerStep();
    WallTimer phase;
    ARIADNE_ASSIGN_OR_RETURN(
        std::shared_ptr<const storage::CaptureBatch> batch,
        store_->GetLayerBatch(step, run.needed_rels()));
    // Direction-aware prefetch: warm the pages of the layer the *next*
    // step will read (ascending forward, descending backward) while this
    // one computes.
    const int after = run.LayerStepAfterNext();
    if (after >= 0) store_->PrefetchLayer(after, run.needed_rels());
    phases.read += phase.Lap();
    auto view = BuildLayerView(std::move(batch), step, send_rel, receive_rel,
                               run.needed_rels());
    phases.view += phase.Lap();
    ARIADNE_RETURN_NOT_OK(run.Step(*view));
  }
  ARIADNE_ASSIGN_OR_RETURN(OfflineRun out, run.Finish(0.0));
  out.stats.phases.Add(phases);
  out.stats.seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace ariadne
