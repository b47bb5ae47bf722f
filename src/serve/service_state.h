#ifndef ARIADNE_SERVE_SERVICE_STATE_H_
#define ARIADNE_SERVE_SERVICE_STATE_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "core/session.h"
#include "eval/layered_step.h"
#include "graph/graph.h"
#include "provenance/store.h"

namespace ariadne::serve {

/// The immutable half of a query server: everything that is shared,
/// read-only, across every in-flight query — the input graph, the capture
/// (const read path), its schema view, and the precomputed static
/// adjacency planes. This is the refactor boundary forced by
/// superstep-sharing: SessionOptions-style per-call state moved into the
/// per-query QueryContext (serve/server.h); what remains here must be
/// const-correct and safe for any number of concurrent readers.
class ServiceState {
 public:
  /// `graph` and `store` must outlive the state. Validates the store has
  /// layers to serve and precomputes the static-adjacency planes (failing
  /// if the graph backend could not read them).
  static Result<std::unique_ptr<ServiceState>> Create(
      const Graph* graph, const ProvenanceStore* store);

  const Graph& graph() const { return *graph_; }
  const ProvenanceStore& store() const { return *store_; }
  int send_rel() const { return send_rel_; }
  int receive_rel() const { return receive_rel_; }

  /// Parses, binds and analyzes a PQL program for offline evaluation
  /// against the store's schema. Pure (thread-safe): concurrent Prepare
  /// calls share nothing mutable.
  Result<AnalyzedQuery> Prepare(const std::string& text,
                                const QueryParams& params = {}) const;

  /// The shared adjacency planes; precomputed, hence immutable and safe
  /// to hand to concurrent LayeredQueryRuns.
  AdjacencyCache* adjacency() const { return adjacency_.get(); }

  /// Resident bytes of the shared adjacency planes.
  size_t AdjacencyBytes() const { return adjacency_->MemoryBytes(); }

 private:
  ServiceState(const Graph* graph, const ProvenanceStore* store);

  const Graph* graph_;
  const ProvenanceStore* store_;
  Session session_;
  int send_rel_ = -1;
  int receive_rel_ = -1;
  /// unique_ptr because LayeredQueryRun takes a mutable pointer (lazy
  /// fill in one-shot mode); precomputed here, so sharing is race-free.
  std::unique_ptr<AdjacencyCache> adjacency_;
};

}  // namespace ariadne::serve

#endif  // ARIADNE_SERVE_SERVICE_STATE_H_
