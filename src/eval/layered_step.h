#ifndef ARIADNE_EVAL_LAYERED_STEP_H_
#define ARIADNE_EVAL_LAYERED_STEP_H_

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/types.h"
#include "eval/common.h"
#include "graph/graph.h"
#include "provenance/store.h"

namespace ariadne {

class AdjacencyCache;

/// Items grouped by vertex: the vertices that have items, ascending, and
/// each one's items, contiguous.
template <typename T>
struct PerVertex {
  std::vector<VertexId> vertices;
  /// vertices[i]'s items are items[offsets[i], offsets[i + 1]).
  std::vector<uint32_t> offsets{0};
  std::vector<T> items;

  /// Ends vertex `v`'s items: those added since the previous Close.
  void Close(VertexId v) {
    vertices.push_back(v);
    offsets.push_back(static_cast<uint32_t>(items.size()));
  }
  std::span<const T> At(size_t i) const {
    return std::span<const T>(items).subspan(offsets[i],
                                             offsets[i + 1] - offsets[i]);
  }
  /// `v`'s items (empty when it has none).
  std::span<const T> Of(VertexId v) const {
    const auto it = std::lower_bound(vertices.begin(), vertices.end(), v);
    if (it == vertices.end() || *it != v) return {};
    return At(static_cast<size_t>(it - vertices.begin()));
  }
};

/// Where a vertex's ship deltas go: the recorded message edges of one
/// layer — a LayerView's — or of every layer at once, for naive
/// evaluation. Per direction (send-message targets, receive-message
/// sources) it keeps the vertices with edges, ascending, and each one's
/// sorted-unique target array, read from the slices' target column
/// (column 1).
class ShipRoutes {
 public:
  /// The store's message-edge relation ids (-1 when not captured).
  ShipRoutes(int send_rel, int receive_rel)
      : send_rel_(send_rel), receive_rel_(receive_rel) {}

  /// Records the message edges of `batch`'s message-edge slices.
  void Add(const storage::CaptureBatch& batch);
  /// Builds the target arrays; call once after the last Add.
  void Seal();

  /// Targets of `v`'s deltas of one routing class: the recorded message
  /// edges in the class's direction, or static adjacency for edge-guarded
  /// rules and for stores that lack message records (a conservative
  /// fallback: overshipping is safe — receivers merely hold extra copies —
  /// undershipping is not). Spans stay valid while this object and
  /// `adjacency` live unmodified.
  std::span<const VertexId> Targets(VertexId v, ShipRouting routing,
                                    AdjacencyCache& adjacency) const;

 private:
  struct Plane {
    /// (vertex, target) pairs until Seal.
    std::vector<std::pair<VertexId, VertexId>> edges;
    PerVertex<VertexId> targets;

    void Seal();
  };

  int send_rel_;
  int receive_rel_;
  Plane out_;
  Plane in_;
};

/// A batch's slices grouped by vertex, the flat per-vertex slice index of
/// a layer: the vertices that have slices, ascending, each with its slice
/// ids ordered by relation, then batch order.
class VertexSlices {
 public:
  VertexSlices() = default;
  explicit VertexSlices(const storage::CaptureBatch& batch);

  std::span<const VertexId> vertices() const { return slices_.vertices; }
  /// Slice ids of vertices()[i].
  std::span<const uint32_t> At(size_t i) const { return slices_.At(i); }
  /// Slice ids of `v` (empty when it has none).
  std::span<const uint32_t> Of(VertexId v) const { return slices_.Of(v); }

 private:
  PerVertex<uint32_t> slices_;
};

/// Query-independent derived view of one provenance layer: the layer's
/// batch plus the per-vertex slice index and the ship routes along the
/// layer's recorded message edges. Building one of these is the expensive
/// part of a layered processing step (page read + decompress + index);
/// it depends only on (layer, relation subset), never on the query, so
/// the serve scheduler builds it ONCE per layer group and fans the same
/// immutable view out to every subscribed query (Quegel-style
/// superstep-sharing, DESIGN.md §2.6).
struct LayerView {
  /// Store layer index this view was built from.
  int step = 0;
  /// Keeps the layer's cells alive independent of store eviction.
  std::shared_ptr<const storage::CaptureBatch> batch;
  /// Relations materialized in this view, sorted (empty = all). A view
  /// may safely serve any query whose needed relations are a subset.
  std::vector<int> rels;
  /// The batch's slices per vertex.
  VertexSlices index;
  /// This layer's recorded message edges, for ship routing.
  ShipRoutes routes{-1, -1};

  /// True when the view materializes `rel` (empty rels = all).
  bool HasRel(int rel) const;
  /// True when a view over `rels` can serve a query needing `needed`
  /// (needed empty = the query reads every relation).
  bool Covers(const std::vector<int>& needed) const;
};

/// Builds the derived indexes for `batch` (materialized with relation
/// subset `rels`, sorted; empty = all). `send_rel`/`receive_rel` are the
/// store's message-edge relation ids (-1 when not captured). Each slice
/// of `batch` must be a set, as every batch the store serves is (facts
/// read in place rely on it).
std::shared_ptr<const LayerView> BuildLayerView(
    std::shared_ptr<const storage::CaptureBatch> batch, int step,
    int send_rel, int receive_rel, std::vector<int> rels);
/// The same over a layer of Tuples (CaptureBatch::FromLayer).
std::shared_ptr<const LayerView> BuildLayerView(
    std::shared_ptr<const Layer> layer, int step, int send_rel,
    int receive_rel, std::vector<int> rels);

/// Sorted-unique static-adjacency lists, one plane per direction class
/// (0 = both, 1 = out, 2 = in), one slot per vertex — the fallback ship
/// routing when a (custom) capture lacks message records, and the
/// routing for edge-guarded queries.
///
/// Two modes:
///  - lazily filled (one-shot evaluation): Get() fills the slot on first
///    use; each slot must then be touched by a single thread at a time
///    (the serial step loop guarantees this).
///  - Precompute()d (the serve path): all planes are built eagerly, the
///    structure is immutable afterwards and Get() is safe from any
///    number of concurrent query steps.
class AdjacencyCache {
 public:
  explicit AdjacencyCache(const Graph* graph);

  /// Eagerly fills every plane; afterwards the cache is read-only and
  /// shareable across threads.
  void Precompute();

  std::span<const VertexId> Get(int plane, VertexId v);

  /// Resident bytes of the materialized lists (serve stats).
  size_t MemoryBytes() const;

 private:
  void Fill(int plane, VertexId v);

  const Graph* graph_;
  bool precomputed_ = false;
  std::vector<std::vector<std::vector<VertexId>>> planes_;
  std::vector<std::vector<uint8_t>> filled_;
};

/// How one offline run's facts enter its NodeDatabases. A store relation
/// the query reads is read in place — each of its slices joins its
/// vertex's FactView, with no row copied, hashed or indexed — when
///  1. the store keeps it step-pure (ProvenanceStore::step_pure);
///  2. the static segment holds none of it;
///  3. the query does not ship it: a vertex's shipped rows are collected
///     from its Relation, where a self-message's copy of a vertex's own
///     row meets that row as one;
///  4. its arity is its predicate's.
/// Every other relation's rows go straight from the batch's cells through
/// Relation::Insert, so each holder sees each tuple once.
class FactLoader {
 public:
  FactLoader(const ProvenanceStore& store, const AnalyzedQuery& query);

  /// Whether the query reads store relation `rel`.
  bool Reads(int rel) const { return preds_[static_cast<size_t>(rel)] >= 0; }
  /// Whether some relation is read in place: the batches Add reads must
  /// then outlive the run's evaluation.
  bool in_place() const {
    return std::find(in_place_.begin(), in_place_.end(), 1) != in_place_.end();
  }

  /// Adds v's slices of `batch` (indexed by `index`) as v's facts.
  void Add(NodeDatabases& nodes, const storage::CaptureBatch& batch,
           const VertexSlices& index, VertexId v) const;

 private:
  std::vector<int> preds_;         ///< per store relation; -1: unread
  std::vector<int> arities_;       ///< per store relation
  std::vector<uint8_t> in_place_;  ///< per store relation
};

/// One query's layered evaluation, resumable in layer-sized steps — the
/// refactor of the old engine-driven LayeredProgram that makes
/// superstep-sharing possible. The caller (LayeredEvaluator for one-shot
/// runs, the serve scheduler for batched runs) owns the loop:
///
///   LayeredQueryRun run(graph, store, query, adjacency);
///   run.Init();
///   while (!run.done()) {
///     view = ... build/acquire LayerView for run.NextLayerStep() ...
///     run.Step(*view);
///   }
///   OfflineRun out = run.Finish();
///
/// Step runs one RunRound over exactly one provenance layer for every
/// vertex the layer or pending ships touch, and queues outgoing ships for
/// the next step — the same schedule the BSP engine produced (all
/// vertices active, ships delivered at the barrier in sender order), so
/// results and EvalStats are identical to the pre-refactor evaluator and
/// to a sequential one-shot run.
class LayeredQueryRun {
 public:
  /// `adjacency` may be shared across concurrent runs only when
  /// precomputed; pass nullptr to let the run own a lazy private cache.
  /// All pointers must outlive the run.
  LayeredQueryRun(const Graph* graph, const ProvenanceStore* store,
                  const AnalyzedQuery* query,
                  AdjacencyCache* adjacency = nullptr);

  /// Validates (mode, degraded-capture) and prepares the query state.
  Status Init();

  bool done() const { return processing_step_ >= total_steps_; }
  /// The store layer index the next Step must be fed, or -1 when done.
  int NextLayerStep() const;
  /// The store layer the step after the next one needs (prefetch hint),
  /// or -1.
  int LayerStepAfterNext() const;

  /// Store relations this query reads (sorted; empty = all) — the
  /// relation subset a serving LayerView must cover.
  const std::vector<int>& needed_rels() const { return needed_rels_; }

  /// Processes one layer. `view.step` must equal NextLayerStep() and
  /// `view` must Cover(needed_rels()). Only this query's private state
  /// is mutated — concurrent Steps of different runs over one shared
  /// view are race-free. Fails when the graph backend reported an error.
  Status Step(const LayerView& view);

  /// Collects the result and statistics. `seconds` is the caller-timed
  /// wall time (queueing excluded for served queries); the phases hold
  /// the steps' facts, ships, rules and round end, and the merge.
  Result<OfflineRun> Finish(double seconds);

 private:
  bool RelMatters(int rel) const;

  const Graph* graph_;
  const ProvenanceStore* store_;
  const AnalyzedQuery* query_;
  FactLoader facts_;
  NodeDatabases nodes_;
  ShipExchange ships_;
  AdjacencyCache* adjacency_;
  std::unique_ptr<AdjacencyCache> owned_adjacency_;
  bool descending_ = false;
  int total_steps_ = 0;
  int processing_step_ = 0;

  int send_rel_ = -1, receive_rel_ = -1;
  std::vector<int> needed_rels_;

  /// The static segment's facts, added on the first step.
  storage::CaptureBatch static_batch_;
  VertexSlices static_index_;
  /// The layer batches stepped through, while facts are read from them in
  /// place.
  std::vector<std::shared_ptr<const storage::CaptureBatch>> batches_;

  size_t peak_layer_bytes_ = 0;
  EvalPhases phases_;
};

}  // namespace ariadne

#endif  // ARIADNE_EVAL_LAYERED_STEP_H_
