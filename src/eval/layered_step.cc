#include "eval/layered_step.h"

#include <algorithm>

#include "pql/evaluator.h"

namespace ariadne {

namespace {

void SortUnique(std::vector<VertexId>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

}  // namespace

// ---- AdjacencyCache ----

AdjacencyCache::AdjacencyCache(const Graph* graph) : graph_(graph) {
  planes_.assign(3, std::vector<std::vector<VertexId>>(
                        static_cast<size_t>(graph_->num_vertices())));
  filled_.assign(3, std::vector<uint8_t>(
                        static_cast<size_t>(graph_->num_vertices()), 0));
}

void AdjacencyCache::Precompute() {
  for (int plane = 0; plane < 3; ++plane) {
    for (VertexId v = 0; v < graph_->num_vertices(); ++v) Fill(plane, v);
  }
  precomputed_ = true;
}

void AdjacencyCache::Fill(int plane, VertexId v) {
  std::vector<VertexId>& slot =
      planes_[static_cast<size_t>(plane)][static_cast<size_t>(v)];
  uint8_t& filled =
      filled_[static_cast<size_t>(plane)][static_cast<size_t>(v)];
  if (filled) return;
  // Fills mostly come in ascending vertex order (Precompute's sweep, the
  // step loops); with a paged graph backend this hint overlaps the next
  // partition's fault with this one's fills (no-op in memory).
  graph_->AdviseSequentialScan(v);
  if (plane != 2) {
    auto nbrs = graph_->OutNeighbors(v);
    slot.insert(slot.end(), nbrs.begin(), nbrs.end());
  }
  if (plane != 1) {
    auto nbrs = graph_->InNeighbors(v);
    slot.insert(slot.end(), nbrs.begin(), nbrs.end());
  }
  SortUnique(slot);
  filled = 1;
}

std::span<const VertexId> AdjacencyCache::Get(int plane, VertexId v) {
  if (!precomputed_) Fill(plane, v);
  return planes_[static_cast<size_t>(plane)][static_cast<size_t>(v)];
}

size_t AdjacencyCache::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& plane : planes_) {
    for (const auto& slot : plane) bytes += slot.size() * sizeof(VertexId);
  }
  return bytes;
}

// ---- ShipRoutes ----

void ShipRoutes::Add(const LayerSlice& slice) {
  if (slice.rel != send_rel_ && slice.rel != receive_rel_) return;
  auto& peers = (slice.rel == send_rel_ ? out_ : in_)[slice.vertex];
  for (const Tuple& t : slice.tuples) {
    if (t.size() > 1 && t[1].is_int()) peers.push_back(t[1].AsInt());
  }
}

void ShipRoutes::Seal() {
  for (auto* index : {&out_, &in_}) {
    for (auto& [vertex, peers] : *index) SortUnique(peers);
  }
}

std::span<const VertexId> ShipRoutes::Targets(
    VertexId v, ShipRouting routing, AdjacencyCache& adjacency) const {
  if (routing == ShipRouting::kAlongOutEdges) return adjacency.Get(1, v);
  if (routing == ShipRouting::kAlongInEdges) return adjacency.Get(2, v);
  const bool out = routing == ShipRouting::kAlongMessages;
  if ((out ? send_rel_ : receive_rel_) < 0) return adjacency.Get(0, v);
  const auto& index = out ? out_ : in_;
  auto it = index.find(v);
  if (it == index.end()) return {};
  return it->second;
}

// ---- LayerView ----

bool LayerView::HasRel(int rel) const {
  if (rels.empty()) return true;
  return std::binary_search(rels.begin(), rels.end(), rel);
}

bool LayerView::Covers(const std::vector<int>& needed) const {
  if (rels.empty()) return true;   // view holds every relation
  if (needed.empty()) return false;  // query reads all, view is partial
  return std::includes(rels.begin(), rels.end(), needed.begin(),
                       needed.end());
}

std::shared_ptr<const LayerView> BuildLayerView(
    std::shared_ptr<const Layer> layer, int step, int send_rel,
    int receive_rel, std::vector<int> rels) {
  auto view = std::make_shared<LayerView>();
  view->step = step;
  view->layer = std::move(layer);
  view->rels = std::move(rels);
  view->routes = ShipRoutes(send_rel, receive_rel);
  for (const auto& slice : view->layer->slices) {
    view->by_vertex[slice.vertex].push_back(&slice);
    view->routes.Add(slice);
  }
  view->routes.Seal();
  return view;
}

// ---- Offline facts ----

std::vector<int> StorePredicates(const ProvenanceStore& store,
                                 const AnalyzedQuery& query) {
  std::vector<int> preds(store.schema().size(), -1);
  for (size_t r = 0; r < preds.size(); ++r) {
    preds[r] = query.PredId(store.schema()[r].name);
  }
  return preds;
}

void InsertSlice(const LayerSlice& slice, const std::vector<int>& preds,
                 NodeDatabases& nodes) {
  const int pred = preds[static_cast<size_t>(slice.rel)];
  if (pred < 0) return;  // relation not referenced by this query
  for (const Tuple& t : slice.tuples) nodes.Insert(slice.vertex, pred, t);
}

// ---- LayeredQueryRun ----

LayeredQueryRun::LayeredQueryRun(const Graph* graph,
                                 const ProvenanceStore* store,
                                 const AnalyzedQuery* query,
                                 AdjacencyCache* adjacency)
    : graph_(graph),
      store_(store),
      query_(query),
      preds_(StorePredicates(*store, *query)),
      nodes_(query, graph),
      ships_(query, graph),
      adjacency_(adjacency) {
  if (adjacency_ == nullptr) {
    owned_adjacency_ = std::make_unique<AdjacencyCache>(graph);
    adjacency_ = owned_adjacency_.get();
  }
  descending_ = query_->direction() == Direction::kBackward;
  // Ship routing follows the *recorded* message edges of the store,
  // independent of whether the query itself reads them.
  send_rel_ = store_->RelId("send-message");
  receive_rel_ = store_->RelId("receive-message");
  // Relations this query actually touches (query predicates + the message
  // edges used for routing). Layer reads — and the "did this layer touch
  // v" gate below — are restricted to them, so a shared LayerView built
  // for a relation *superset* still evaluates exactly the vertices a
  // private needed-rels-only view would.
  const int num_rels = static_cast<int>(store_->schema().size());
  for (int r = 0; r < num_rels; ++r) {
    if (RelMatters(r)) needed_rels_.push_back(r);
  }
  if (static_cast<int>(needed_rels_.size()) == num_rels) {
    needed_rels_.clear();  // all relations: no point filtering
  }
}

bool LayeredQueryRun::RelMatters(int rel) const {
  return preds_[static_cast<size_t>(rel)] >= 0 || rel == send_rel_ ||
         rel == receive_rel_;
}

void LayeredQueryRun::InsertSlices(const SliceIndex& index, VertexId v) {
  auto it = index.find(v);
  if (it == index.end()) return;
  for (const LayerSlice* slice : it->second) {
    InsertSlice(*slice, preds_, nodes_);
  }
}

Status LayeredQueryRun::Init() {
  ARIADNE_RETURN_NOT_OK(ValidateMode(*query_, EvalMode::kLayered));
  // A degraded capture (DESIGN.md §2.4) is missing history; refuse any
  // query that reads a relation outside the surviving set.
  ARIADNE_RETURN_NOT_OK(CheckDegradedCapture(*query_, *store_));
  if (store_->num_layers() == 0) {
    return Status::InvalidArgument("provenance store has no layers");
  }
  total_steps_ = store_->num_layers();
  processing_step_ = 0;
  nodes_.Reset();
  ships_ = ShipExchange(query_, graph_);
  // Index the static segment once.
  static_index_.clear();
  for (const auto& slice : store_->static_data().slices) {
    static_index_[slice.vertex].push_back(&slice);
  }
  peak_layer_bytes_ = 0;
  return Status::OK();
}

int LayeredQueryRun::NextLayerStep() const {
  if (done()) return -1;
  return descending_ ? total_steps_ - 1 - processing_step_ : processing_step_;
}

int LayeredQueryRun::LayerStepAfterNext() const {
  if (processing_step_ + 1 >= total_steps_) return -1;
  return descending_ ? total_steps_ - 2 - processing_step_
                     : processing_step_ + 1;
}

Status LayeredQueryRun::Step(const LayerView& view) {
  if (done()) return Status::InvalidArgument("layered run already finished");
  if (view.step != NextLayerStep()) {
    return Status::InvalidArgument("layered run fed layer " +
                                   std::to_string(view.step) + ", expected " +
                                   std::to_string(NextLayerStep()));
  }
  if (!view.Covers(needed_rels_)) {
    return Status::InvalidArgument(
        "layer view does not cover the query's relations");
  }
  const int step = processing_step_;
  peak_layer_bytes_ = std::max(peak_layer_bytes_, view.layer->byte_size);

  // Ships sent during the previous step arrive at this one's barrier.
  ships_.Barrier();

  // The BSP engine ran Compute for every vertex each superstep, but a
  // vertex that received nothing and has no new facts returned before
  // evaluating (after step 0). Processing exactly the touched set, in
  // ascending vertex order, reproduces the engine's schedule — including
  // its deterministic ship delivery order (senders merged ascending).
  std::vector<VertexId> active;
  if (step == 0) {
    active.resize(static_cast<size_t>(graph_->num_vertices()));
    for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
      active[static_cast<size_t>(v)] = v;
    }
  } else {
    active.assign(ships_.Recipients().begin(), ships_.Recipients().end());
    for (const auto& [v, slices] : view.by_vertex) {
      // A shared superset view may hold slices of relations this query
      // never reads; they must not count as "touched".
      for (const LayerSlice* slice : slices) {
        if (RelMatters(slice->rel)) {
          active.push_back(v);
          break;
        }
      }
    }
    SortUnique(active);
  }

  // v's facts are this layer's slices, after the static segment's on the
  // first step; its ships follow the layer's recorded message edges.
  Round round;
  round.active = active;
  round.facts = [&](VertexId v) {
    if (step == 0) InsertSlices(static_index_, v);
    InsertSlices(view.by_vertex, v);
  };
  round.targets = [&](VertexId v, ShipRouting routing) {
    return view.routes.Targets(v, routing, *adjacency_);
  };
  RunRound(nodes_, ships_, round);

  ++processing_step_;
  // A paged backend serves an empty span when a partition read fails, so
  // an unchecked failure would read as missing edges.
  return graph_->backend_error().WithContext(
      "graph backend failed during layered step " + std::to_string(step));
}

Result<OfflineRun> LayeredQueryRun::Finish(double seconds) {
  if (!done()) {
    return Status::InvalidArgument("layered run has unprocessed layers");
  }
  ARIADNE_RETURN_NOT_OK(nodes_.status());

  MergedNodes merged = nodes_.Merge();
  OfflineRun run;
  run.result = std::move(merged.result);
  run.stats.eval = std::move(merged.eval);
  run.stats.seconds = seconds;
  run.stats.supersteps = total_steps_;
  run.stats.peak_layer_bytes = peak_layer_bytes_;
  run.stats.materialized_bytes = merged.state_bytes + peak_layer_bytes_;
  run.stats.result_tuples = run.result.TotalTuples();
  return run;
}

}  // namespace ariadne
