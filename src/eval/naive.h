#ifndef ARIADNE_EVAL_NAIVE_H_
#define ARIADNE_EVAL_NAIVE_H_

#include "common/status.h"
#include "eval/common.h"
#include "graph/graph.h"
#include "provenance/store.h"

namespace ariadne {

/// The traditional baseline (paper §6.2 "Naive"): materialize the entire
/// provenance graph — every layer into the query state at once —
/// and run stratified semi-naive evaluation to fixpoint in RunRound
/// rounds (eval/common.h), shipping remote tables along every recorded
/// message edge. Correct for every query class, but
/// memory scales with the whole provenance graph — this is the mode that
/// "was not able to scale beyond the two smallest datasets" in the paper.
/// A stratum that is still deriving after num_vertices + 2 * num_layers +
/// 4 rounds has no finite fixpoint; Run then fails with Unsupported
/// instead of returning a truncated answer.
class NaiveEvaluator {
 public:
  /// `query` must be analyzed offline against `store->ToStoreSchema()`.
  NaiveEvaluator(const Graph* graph, const ProvenanceStore* store,
                 const AnalyzedQuery* query)
      : graph_(graph), store_(store), query_(query) {}

  Result<OfflineRun> Run();

 private:
  const Graph* graph_;
  const ProvenanceStore* store_;
  const AnalyzedQuery* query_;
};

}  // namespace ariadne

#endif  // ARIADNE_EVAL_NAIVE_H_
