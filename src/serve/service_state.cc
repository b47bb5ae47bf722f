#include "serve/service_state.h"

namespace ariadne::serve {

ServiceState::ServiceState(const Graph* graph, const ProvenanceStore* store)
    : graph_(graph),
      store_(store),
      session_(graph),
      send_rel_(store->RelId("send-message")),
      receive_rel_(store->RelId("receive-message")),
      adjacency_(std::make_unique<AdjacencyCache>(graph)) {}

Result<std::unique_ptr<ServiceState>> ServiceState::Create(
    const Graph* graph, const ProvenanceStore* store) {
  if (graph == nullptr || store == nullptr) {
    return Status::InvalidArgument("serve requires a graph and a store");
  }
  if (store->num_layers() == 0) {
    return Status::InvalidArgument(
        "provenance store has no layers to serve");
  }
  std::unique_ptr<ServiceState> state(new ServiceState(graph, store));
  state->adjacency_->Precompute();
  // A paged graph serves empty spans when a partition read fails; refuse
  // to serve from planes built over such gaps.
  ARIADNE_RETURN_NOT_OK(graph->backend_error().WithContext(
      "graph backend failed while precomputing adjacency"));
  return state;
}

Result<AnalyzedQuery> ServiceState::Prepare(const std::string& text,
                                            const QueryParams& params) const {
  return session_.PrepareOffline(text, *store_, params);
}

}  // namespace ariadne::serve
