#include "eval/layered_step.h"

#include <algorithm>

#include "common/logging.h"
#include "common/timer.h"
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

void ShipRoutes::Add(const storage::CaptureBatch& batch) {
  for (const storage::CaptureBatch::Slice& s : batch.slices()) {
    if (s.rel != send_rel_ && s.rel != receive_rel_) continue;
    auto& edges = (s.rel == send_rel_ ? out_ : in_).edges;
    batch.ForEachRow(s, [&](const CellRow& row) {
      if (row.size() > 1 && row.kind(1) == Value::Kind::kInt) {
        edges.emplace_back(s.vertex, row.AsInt(1));
      }
    });
  }
}

void ShipRoutes::Seal() {
  out_.Seal();
  in_.Seal();
}

void ShipRoutes::Plane::Seal() {
  // A batch lists a relation's slices by ascending vertex, so one layer's
  // edges come grouped by vertex; only each group's targets need sorting.
  auto by_vertex = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  if (!std::is_sorted(edges.begin(), edges.end(), by_vertex)) {
    std::stable_sort(edges.begin(), edges.end(), by_vertex);
  }
  targets = PerVertex<VertexId>{};
  std::vector<VertexId>& out = targets.items;
  out.reserve(edges.size());
  for (size_t i = 0; i < edges.size();) {
    const VertexId vertex = edges[i].first;
    const auto begin = static_cast<std::ptrdiff_t>(out.size());
    for (; i < edges.size() && edges[i].first == vertex; ++i) {
      out.push_back(edges[i].second);
    }
    std::sort(out.begin() + begin, out.end());
    out.erase(std::unique(out.begin() + begin, out.end()), out.end());
    targets.Close(vertex);
  }
  edges = {};
}

std::span<const VertexId> ShipRoutes::Targets(
    VertexId v, ShipRouting routing, AdjacencyCache& adjacency) const {
  if (routing == ShipRouting::kAlongOutEdges) return adjacency.Get(1, v);
  if (routing == ShipRouting::kAlongInEdges) return adjacency.Get(2, v);
  const bool out = routing == ShipRouting::kAlongMessages;
  if ((out ? send_rel_ : receive_rel_) < 0) return adjacency.Get(0, v);
  return (out ? out_ : in_).targets.Of(v);
}

// ---- VertexSlices ----

VertexSlices::VertexSlices(const storage::CaptureBatch& batch) {
  const auto& slices = batch.slices();
  struct Key {
    VertexId vertex;
    int rel;
    uint32_t id;
    auto operator<=>(const Key&) const = default;
  };
  std::vector<Key> keys(slices.size());
  std::vector<size_t> runs = {0};  // bounds of ascending runs of keys
  for (uint32_t id = 0; id < slices.size(); ++id) {
    keys[id] = Key{slices[id].vertex, slices[id].rel, id};
    if (id > 0 && keys[id].vertex <= keys[id - 1].vertex) runs.push_back(id);
  }
  runs.push_back(keys.size());
  // A batch lists each relation's slices by ascending vertex, so merging
  // its few runs pairwise sorts the keys, about 4x faster than one
  // std::sort of them (2.5% of perfbench `trace` p50).
  while (runs.size() > 2) {
    std::vector<size_t> merged;
    for (size_t r = 0; r + 1 < runs.size(); r += 2) {
      merged.push_back(runs[r]);
      if (r + 2 < runs.size()) {
        std::inplace_merge(keys.begin() + runs[r], keys.begin() + runs[r + 1],
                           keys.begin() + runs[r + 2]);
      }
    }
    merged.push_back(runs.back());
    runs = std::move(merged);
  }
  slices_.items.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const Key& k = keys[i];
    slices_.items.push_back(k.id);
    if (i + 1 == keys.size() || keys[i + 1].vertex != k.vertex) {
      slices_.Close(k.vertex);
    }
  }
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
    std::shared_ptr<const storage::CaptureBatch> batch, int step,
    int send_rel, int receive_rel, std::vector<int> rels) {
  auto view = std::make_shared<LayerView>();
  view->step = step;
  view->batch = std::move(batch);
  view->rels = std::move(rels);
  view->index = VertexSlices(*view->batch);
  view->routes = ShipRoutes(send_rel, receive_rel);
  view->routes.Add(*view->batch);
  view->routes.Seal();
  return view;
}

std::shared_ptr<const LayerView> BuildLayerView(
    std::shared_ptr<const Layer> layer, int step, int send_rel,
    int receive_rel, std::vector<int> rels) {
  return BuildLayerView(std::make_shared<const storage::CaptureBatch>(
                            storage::CaptureBatch::FromLayer(*layer)),
                        step, send_rel, receive_rel, std::move(rels));
}

// ---- Offline facts ----

FactLoader::FactLoader(const ProvenanceStore& store,
                       const AnalyzedQuery& query)
    : preds_(store.schema().size(), -1),
      arities_(preds_.size(), 0),
      in_place_(preds_.size(), 0) {
  for (size_t r = 0; r < preds_.size(); ++r) {
    arities_[r] = store.schema()[r].arity;
    preds_[r] = query.PredId(store.schema()[r].name);
    if (preds_[r] < 0) continue;
    const PredicateInfo& info = query.pred(preds_[r]);
    in_place_[r] = store.step_pure(static_cast<int>(r)) && !info.shipped &&
                   info.arity == store.schema()[r].arity;
  }
  for (const LayerSlice& slice : store.static_data().slices) {
    if (static_cast<size_t>(slice.rel) < in_place_.size()) {
      in_place_[static_cast<size_t>(slice.rel)] = 0;
    }
  }
}

void FactLoader::Add(NodeDatabases& nodes, const storage::CaptureBatch& batch,
                     const VertexSlices& index, VertexId v) const {
  const Holder holder = NodeDatabases::HolderOf(v);
  const FactLayer layer{batch.step, batch.chars(), batch.doubles()};
  for (uint32_t id : index.Of(v)) {
    const storage::CaptureBatch::Slice& s = batch.slices()[id];
    const size_t rel = static_cast<size_t>(s.rel);
    const int pred = preds_[rel];
    if (pred < 0) continue;  // relation not referenced by this query
    if (in_place_[rel] != 0) {
      // The store keeps a step-pure relation's slices columnar.
      ARIADNE_CHECK(s.arity == static_cast<uint32_t>(arities_[rel]));
      nodes.Facts(v, pred).Add(holder, layer, batch.column(s, 0).data(),
                               s.rows, static_cast<size_t>(s.bytes));
      continue;
    }
    Relation& facts = nodes.FactRelation(v, pred);
    batch.ForEachRow(s, [&](const CellRow& row) { facts.Insert(holder, row); });
  }
}

// ---- LayeredQueryRun ----

LayeredQueryRun::LayeredQueryRun(const Graph* graph,
                                 const ProvenanceStore* store,
                                 const AnalyzedQuery* query,
                                 AdjacencyCache* adjacency)
    : graph_(graph),
      store_(store),
      query_(query),
      facts_(*store, *query),
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
  return facts_.Reads(rel) || rel == send_rel_ || rel == receive_rel_;
}

Status LayeredQueryRun::Init() {
  ARIADNE_RETURN_NOT_OK(ValidateMode(*query_, EvalMode::kLayered));
  // A degraded capture (DESIGN.md §2.4) is missing history; refuse any
  // query that reads a relation outside the surviving set.
  ARIADNE_RETURN_NOT_OK(CheckDegradedCapture(*query_, *store_));
  if (store_->num_layers() == 0) {
    return Status::InvalidArgument("provenance store has no layers");
  }
  WallTimer timer;
  total_steps_ = store_->num_layers();
  processing_step_ = 0;
  facts_ = FactLoader(*store_, *query_);
  nodes_.Reset();
  ships_ = ShipExchange(query_, graph_);
  // Index the static segment once.
  static_batch_ = storage::CaptureBatch::FromLayer(store_->static_data());
  static_index_ = VertexSlices(static_batch_);
  batches_.clear();
  peak_layer_bytes_ = 0;
  phases_ = EvalPhases{};
  phases_.view = timer.ElapsedSeconds();
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
  const storage::CaptureBatch& batch = *view.batch;
  peak_layer_bytes_ = std::max(peak_layer_bytes_, batch.byte_size());
  if (facts_.in_place()) batches_.push_back(view.batch);

  // Ships sent during the previous step arrive at this one's barrier.
  WallTimer timer;
  ships_.Barrier();
  phases_.ships += timer.Lap();

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
    const std::span<const VertexId> touched = view.index.vertices();
    for (size_t i = 0; i < touched.size(); ++i) {
      // A shared superset view may hold slices of relations this query
      // never reads; they must not count as "touched".
      for (uint32_t id : view.index.At(i)) {
        if (RelMatters(batch.slices()[id].rel)) {
          active.push_back(touched[i]);
          break;
        }
      }
    }
    SortUnique(active);
  }
  phases_.facts += timer.Lap();

  // v's facts are this layer's slices, after the static segment's on the
  // first step; its ships follow the layer's recorded message edges.
  Round round;
  round.active = active;
  round.facts = [&](VertexId v) {
    if (step == 0) facts_.Add(nodes_, static_batch_, static_index_, v);
    facts_.Add(nodes_, batch, view.index, v);
  };
  round.targets = [&](VertexId v, ShipRouting routing) {
    return view.routes.Targets(v, routing, *adjacency_);
  };
  phases_.Add(RunRound(nodes_, ships_, round).phases);

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

  WallTimer timer;
  MergedNodes merged = nodes_.Merge();
  OfflineRun run;
  run.result = std::move(merged.result);
  run.stats.eval = std::move(merged.eval);
  run.stats.seconds = seconds;
  run.stats.phases = phases_;
  run.stats.supersteps = total_steps_;
  run.stats.peak_layer_bytes = peak_layer_bytes_;
  run.stats.materialized_bytes = merged.state_bytes + peak_layer_bytes_;
  run.stats.result_tuples = run.result.TotalTuples();
  run.stats.phases.round_end += timer.ElapsedSeconds();
  return run;
}

}  // namespace ariadne
