#ifndef ARIADNE_EVAL_LAYERED_STEP_H_
#define ARIADNE_EVAL_LAYERED_STEP_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/types.h"
#include "eval/common.h"
#include "graph/graph.h"
#include "provenance/store.h"

namespace ariadne {

class AdjacencyCache;

/// Where a vertex's ship deltas go: the recorded message edges
/// (send-message targets and receive-message sources per vertex,
/// sorted-unique) of one layer — a LayerView's — or of every layer at
/// once, for naive evaluation.
class ShipRoutes {
 public:
  /// The store's message-edge relation ids (-1 when not captured).
  ShipRoutes(int send_rel, int receive_rel)
      : send_rel_(send_rel), receive_rel_(receive_rel) {}

  /// Records `slice`'s message edges, if it holds a message-edge relation.
  void Add(const LayerSlice& slice);
  /// Sorts and dedups every list; call once after the last Add.
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
  int send_rel_;
  int receive_rel_;
  std::unordered_map<VertexId, std::vector<VertexId>> out_;
  std::unordered_map<VertexId, std::vector<VertexId>> in_;
};

/// Query-independent derived view of one provenance layer: the decoded
/// layer plus the per-vertex slice index and the ship routes along the
/// layer's recorded message edges. Building one of these is the expensive
/// part of a layered processing step (page read + decompress + index);
/// it depends only on (layer, relation subset), never on the query, so
/// the serve scheduler builds it ONCE per layer group and fans the same
/// immutable view out to every subscribed query (Quegel-style
/// superstep-sharing, DESIGN.md §2.6).
struct LayerView {
  /// Store layer index this view was built from.
  int step = 0;
  /// Keeps the decoded slices alive independent of store eviction.
  std::shared_ptr<const Layer> layer;
  /// Relations materialized in this view, sorted (empty = all). A view
  /// may safely serve any query whose needed relations are a subset.
  std::vector<int> rels;
  /// vertex -> its slices in this layer (pointers into `layer`).
  std::unordered_map<VertexId, std::vector<const LayerSlice*>> by_vertex;
  /// This layer's recorded message edges, for ship routing.
  ShipRoutes routes{-1, -1};

  /// True when the view materializes `rel` (empty rels = all).
  bool HasRel(int rel) const;
  /// True when a view over `rels` can serve a query needing `needed`
  /// (needed empty = the query reads every relation).
  bool Covers(const std::vector<int>& needed) const;
};

/// Builds the derived indexes for `layer` (materialized with relation
/// subset `rels`, sorted; empty = all). `send_rel`/`receive_rel` are the
/// store's message-edge relation ids (-1 when not captured).
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

/// The query predicate each store relation feeds, by name (-1 when the
/// query does not read it).
std::vector<int> StorePredicates(const ProvenanceStore& store,
                                 const AnalyzedQuery& query);

/// Inserts `slice`'s tuples into its vertex's state as rows of
/// `preds[slice.rel]` (none when that is -1).
void InsertSlice(const LayerSlice& slice, const std::vector<int>& preds,
                 NodeDatabases& nodes);

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
  /// wall time (queueing excluded for served queries).
  Result<OfflineRun> Finish(double seconds);

 private:
  using SliceIndex =
      std::unordered_map<VertexId, std::vector<const LayerSlice*>>;

  bool RelMatters(int rel) const;
  /// Inserts v's slices of `index`.
  void InsertSlices(const SliceIndex& index, VertexId v);

  const Graph* graph_;
  const ProvenanceStore* store_;
  const AnalyzedQuery* query_;
  std::vector<int> preds_;  ///< per store relation, see StorePredicates
  NodeDatabases nodes_;
  ShipExchange ships_;
  AdjacencyCache* adjacency_;
  std::unique_ptr<AdjacencyCache> owned_adjacency_;
  bool descending_ = false;
  int total_steps_ = 0;
  int processing_step_ = 0;

  int send_rel_ = -1, receive_rel_ = -1;
  std::vector<int> needed_rels_;

  SliceIndex static_index_;

  size_t peak_layer_bytes_ = 0;
};

}  // namespace ariadne

#endif  // ARIADNE_EVAL_LAYERED_STEP_H_
