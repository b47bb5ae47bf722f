#ifndef ARIADNE_EVAL_LAYERED_H_
#define ARIADNE_EVAL_LAYERED_H_

#include "common/status.h"
#include "eval/common.h"
#include "graph/graph.h"
#include "provenance/store.h"

namespace ariadne {

/// Layered offline evaluation (paper §5.1): the query runs per vertex of
/// the input graph, materializing one provenance-graph layer per
/// processing step — ascending for forward queries, descending for
/// backward queries — and shipping remote tables along the recorded
/// message edges (or static edges for edge-guarded queries). Memory stays
/// bounded by one layer plus the query's evaluation state, unlike
/// naive evaluation.
///
/// This is the one-shot driver over the resumable LayeredQueryRun
/// (eval/layered_step.h): it builds a private LayerView per step with
/// direction-aware prefetch of the next layer. The serve scheduler drives
/// the same run type but shares each LayerView across concurrent queries.
class LayeredEvaluator {
 public:
  /// `query` must be analyzed offline (transient EDBs disallowed) against
  /// `store->ToStoreSchema()` and pass ValidateMode(kLayered).
  LayeredEvaluator(const Graph* graph, const ProvenanceStore* store,
                   const AnalyzedQuery* query)
      : graph_(graph), store_(store), query_(query) {}

  Result<OfflineRun> Run();

 private:
  const Graph* graph_;
  const ProvenanceStore* store_;
  const AnalyzedQuery* query_;
};

}  // namespace ariadne

#endif  // ARIADNE_EVAL_LAYERED_H_
