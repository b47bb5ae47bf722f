#ifndef ARIADNE_EVAL_COMMON_H_
#define ARIADNE_EVAL_COMMON_H_

#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "engine/types.h"
#include "pql/analysis.h"
#include "pql/evaluator.h"
#include "pql/relation.h"

namespace ariadne {

/// Vertices per evaluation partition. Each partition keeps the state of
/// a fixed vertex-id range in one Database, and each rule runs once per
/// partition per superstep, layer or naive round over the new rows of
/// all its holders. A constant: results never depend on it.
inline constexpr VertexId kPartitionVertices = 64;

/// Rows of shipped relations collected from one partition's holders in
/// one round, each sender's rows contiguous (a [begin, end) range of
/// `rows`). ShipExchange routes ranges of these batches instead of
/// per-message copies.
struct ShipBatch {
  struct Row {
    int pred = -1;
    uint32_t begin = 0;  ///< the row's values are [begin, begin + arity)
  };
  std::vector<Row> rows;
  std::vector<Value> values;

  void Clear() {
    rows.clear();
    values.clear();
  }
};

/// A sender's rows within a ShipBatch.
struct ShipRange {
  uint32_t begin = 0;
  uint32_t end = 0;
  bool empty() const { return begin == end; }
};

/// Union of a query's derived tables over every provenance node, the
/// per-rule evaluator counters merged over them, and the resident bytes
/// of their databases.
struct MergedNodes {
  QueryResult result;
  EvalStats eval;
  size_t state_bytes = 0;
};

/// One query's evaluation state for every vertex of the graph (paper §5:
/// a database per provenance node, remote tables shipped along message
/// edges), kept set-at-a-time: one Database per kPartitionVertices-vertex
/// range, each vertex a holder of its partition's relations (see
/// Relation). RunRound drives it: it activates a round's vertices, feeds
/// them their facts (Insert, ClearHolder) and ships (InsertShips),
/// evaluates each partition that has active vertices once
/// (EvaluatePartition), collects ships (CollectShips) and closes the
/// round (EndRound). Online, layered and naive evaluation all run a query
/// this way; they differ only in which facts feed a vertex, where its
/// ships go and when strata synchronize.
///
/// A partition's state must be touched by one thread at a time; distinct
/// partitions may be used concurrently (the online barrier evaluates them
/// on the engine's workers).
class NodeDatabases {
 public:
  /// Both pointers must outlive this object.
  NodeDatabases(const AnalyzedQuery* query, const Graph* graph);

  /// Drops every vertex's state and the recorded error.
  void Reset();

  size_t num_partitions() const { return parts_.size(); }
  static size_t PartitionOf(VertexId v) {
    return static_cast<size_t>(v / kPartitionVertices);
  }

  /// Marks `v` active: its partition's next EvaluatePartition evaluates
  /// it. Applies the retention Retain decided at v's previous activation
  /// first (the rows it drops are only observable from here on).
  void Activate(VertexId v);

  /// Inserts a fact (or a delivered row) into v's state.
  void Insert(VertexId v, int pred, std::span<const Value> tuple);
  void Insert(VertexId v, int pred, std::initializer_list<Value> tuple) {
    Insert(v, pred, std::span<const Value>(tuple.begin(), tuple.size()));
  }
  /// v's relation of `pred`, where v is holder HolderOf(v): offline facts
  /// are inserted into it straight from a layer's cells (FactLoader).
  Relation& FactRelation(VertexId v, int pred);
  /// The facts of `pred` v's partition reads in place (FactLoader).
  FactView& Facts(VertexId v, int pred);
  static Holder HolderOf(VertexId v) {
    return static_cast<Holder>(v % kPartitionVertices);
  }
  /// Inserts `batch`'s rows in `range` into v's state.
  void InsertShips(VertexId v, const ShipBatch& batch, ShipRange range);
  /// Drops v's rows of `pred` (the transient views of a new activation).
  void ClearHolder(VertexId v, int pred);

  /// Runs the stratified evaluator over partition `p`'s database, strata
  /// up to `max_stratum`, for the vertices activated since its last
  /// EndRound. Returns whether anything new was derived. The first error
  /// of any partition is also kept for status().
  Result<bool> EvaluatePartition(
      size_t p, int max_stratum = std::numeric_limits<int>::max());

  /// Ends partition p's round: forgets its active set and compacts dead
  /// rows.
  void EndRound(size_t p);

  /// First evaluation error of any partition (OK when none).
  Status status() const;

  /// Appends v's rows of the shipped predicates of class `routing`
  /// inserted since its last collection to `out` and returns their range
  /// (each class has its own targets). Only rows *located at* `v` (column
  /// 0) ship: remote rows that arrived via earlier ships are someone
  /// else's partition and must not be re-shipped (distributed semantics,
  /// and the difference between O(E) and epidemic flooding).
  ShipRange CollectShips(VertexId v, ShipRouting routing, ShipBatch* out);

  /// Output rows located at their holder that partition `p` derived since
  /// the last call, per holder ascending, then per output predicate:
  /// `emit(v, pred, relation, row ids)`, the ids ascending. Rows that
  /// arrived via ships belong to their own vertex's capture (persisting
  /// copies would multiply the store by the average degree). An aggregate
  /// head whose rows changed emits its whole new set
  /// (Relation::ReplaceHolder appends it), so each layer holds the
  /// current groups of every vertex whose aggregate changed.
  using CaptureVisitor = std::function<void(
      VertexId, int, const Relation&, std::span<const uint32_t>)>;
  void CollectCaptures(size_t p, const CaptureVisitor& emit);

  /// Online EDB retention at `v` after its activation at `step` (see
  /// DropHistory): every 2*window steps the history older than `window`
  /// is dropped — at v's next activation, or by ApplyPendingRetention.
  /// Still O(window) memory, without per-step rebuild costs. A window of
  /// 0 or less keeps every step.
  void Retain(VertexId v, Superstep step, int window);
  /// Drops the history pending retention decisions cover (end of run).
  void ApplyPendingRetention();

  MergedNodes Merge() const;

 private:
  struct Partition {
    std::unique_ptr<Database> db;
    std::vector<Holder> active;
    std::vector<uint8_t> is_active;  ///< per holder
    /// Per shipped_preds() position: rows below it were sorted into
    /// `pending` (self-located rows not yet shipped, per holder).
    std::vector<size_t> ship_scan;
    std::vector<std::vector<uint32_t>> pending;  ///< [holder * K + k]
    /// Per output_preds() position: rows below it were collected.
    std::vector<size_t> capture_mark;
    /// Row ids CollectCaptures is emitting, [holder * outputs + k].
    std::vector<std::vector<uint32_t>> captured;
    std::vector<Superstep> last_retention;  ///< per holder
    /// Per holder: the cutoff of a retention still to apply, or -1.
    std::vector<Superstep> retention_cutoff;
  };

  Partition& Part(VertexId v);
  Database& Db(Partition& part);
  void ApplyRetentionAt(Partition& part, Holder h);

  const AnalyzedQuery* query_;
  const Graph* graph_;
  RuleEvaluator evaluator_;
  std::vector<Partition> parts_;
  mutable std::mutex mu_;
  Status first_error_;
};

/// The ships in flight between two round barriers (paper §5: a vertex's
/// new rows of shipped relations travel along its message edges and
/// arrive at the next barrier). Each partition queues its senders' rows
/// into its own batch and its own outbox of (target, range) entries, so
/// partitions ship concurrently. Barrier() merges the outboxes in
/// partition order, which hands every receiver its ships in sender order
/// at any thread count.
class ShipExchange {
 public:
  /// Nothing in flight. Both pointers must outlive this object.
  ShipExchange(const AnalyzedQuery* query, const Graph* graph);

  /// The routing classes of the query's shipped predicates.
  std::span<const ShipRouting> routings() const { return routings_; }

  /// Round barrier: the ships queued since the previous barrier become
  /// deliverable.
  void Barrier();
  /// Vertices with deliverable ships, ascending.
  std::span<const VertexId> Recipients() const { return recipients_; }
  /// Inserts v's deliverable ships into its state, in sender order.
  void Deliver(VertexId v, NodeDatabases& nodes) const;

  /// Collects v's new self-located rows of `routing` (CollectShips) into
  /// its partition's batch and queues them for every target inside the
  /// graph (the engine drops messages to any other id). With no target
  /// the rows stay pending, as online rows leave only when the analytic
  /// sends. Returns whether any row was collected. Touches only v's
  /// partition's batch and outbox.
  bool Ship(VertexId v, ShipRouting routing,
            std::span<const VertexId> targets, NodeDatabases& nodes);

 private:
  struct Outbox {
    ShipBatch batch;
    std::vector<std::pair<VertexId, ShipRange>> entries;  ///< (target, rows)
  };
  /// Rows of one sender, in its partition's batch of the previous round.
  struct Delivery {
    uint32_t partition;
    ShipRange range;
  };

  const Graph* graph_;
  std::vector<ShipRouting> routings_;
  std::vector<Outbox> outboxes_;    ///< per partition, filled this round
  std::vector<ShipBatch> arrived_;  ///< per partition, the previous round's
  /// v's deliveries are inbox_[offsets_[v], offsets_[v + 1]).
  std::vector<uint32_t> offsets_;
  std::vector<Delivery> inbox_;
  std::vector<VertexId> recipients_;
};

/// Seconds an evaluation spent per phase. RunRound times facts, ships,
/// rules and round end per partition; the offline evaluators time reads
/// and views per layer. Never timed per row.
struct EvalPhases {
  double read = 0.0;   ///< reading layer batches from the store
  double view = 0.0;   ///< building layer views: slice index, ship routes
  double facts = 0.0;  ///< choosing and activating vertices, adding facts
  /// The barrier, deliveries, and collecting and queueing new ships.
  double ships = 0.0;
  double rules = 0.0;      ///< rule evaluation (EvaluatePartition)
  double round_end = 0.0;  ///< closing partitions; merging the result

  double Total() const {
    return read + view + facts + ships + rules + round_end;
  }
  void Add(const EvalPhases& o);
};

/// What a caller hands RunRound; `facts` and `on_partition` may be empty.
struct Round {
  std::span<const VertexId> active;  ///< ascending
  std::function<void(VertexId)> facts;  ///< inserts v's facts of the round
  /// Where v's new rows of one routing class go this round.
  std::function<std::span<const VertexId>(VertexId, ShipRouting)> targets;
  /// Per partition, with its active vertices, before it closes.
  std::function<void(size_t, std::span<const VertexId>)> on_partition;
  int max_stratum = std::numeric_limits<int>::max();
  ThreadPool* pool = nullptr;  ///< runs the partitions; null: in order
};

/// What one RunRound did.
struct RoundResult {
  bool progress = false;  ///< whether anything was derived or shipped
  /// The round's facts, ships, rules and round_end seconds, summed over
  /// partitions (with a pool, over workers too).
  EvalPhases phases;
};

/// One round of a query's per-vertex program on the BSP schedule (paper
/// §5, Theorem 5.4), the same in every evaluation mode: each active
/// vertex of a partition is activated and receives its facts, then each
/// receives its ships in sender order; each partition with an active
/// vertex evaluates strata up to `max_stratum` once; each vertex queues
/// its new self-located rows, per routing class, to its targets; each
/// partition closes (EndRound).
/// Evaluation errors are kept in nodes.status().
RoundResult RunRound(NodeDatabases& nodes, ShipExchange& ships,
                     const Round& round);

/// The retention step: marks `holder`'s EDB rows of steps before `cutoff`
/// dead (relations whose EDB kind has a superstep column). Keeps IDB
/// results and the other holders' rows intact.
void DropHistory(const AnalyzedQuery& query, Database& db, Superstep cutoff,
                 Holder holder);

/// Statistics of an offline (layered / naive) query evaluation.
struct OfflineEvalStats {
  double seconds = 0.0;
  /// `seconds` split by phase. One-shot layered and naive runs fill every
  /// phase; a served query fills the step phases (facts, ships, rules,
  /// round end), its reads and views being shared scans.
  EvalPhases phases;
  Superstep supersteps = 0;       ///< processing steps (layered)
  size_t peak_layer_bytes = 0;    ///< largest single materialized layer
  size_t materialized_bytes = 0;  ///< evaluation-state bytes at the end
  size_t result_tuples = 0;
  EvalStats eval;  ///< per-rule evaluator counters, merged over vertices
};

struct OfflineRun {
  QueryResult result;
  OfflineEvalStats stats;
};

/// How a query is evaluated (paper §5 / §6.2): online alongside the
/// analytic, layered over a captured store, or naively over the fully
/// materialized provenance graph.
enum class EvalMode { kOnline, kLayered, kNaive };

const char* EvalModeToString(EvalMode mode);

/// Checks the (query class, mode) compatibility rules of Definition 5.2:
/// online needs a forward (or purely local) VC-compatible query; layered
/// needs a directed VC-compatible query; naive accepts anything.
Status ValidateMode(const AnalyzedQuery& query, EvalMode mode);

/// What capture does when spilling fails unrecoverably mid-run — the
/// degradation ladder of DESIGN.md §2.4. The analytic's output is exact
/// under every policy; only the captured provenance differs.
enum class CaptureDegradePolicy {
  /// Surface the storage error as the capture run's error (pre-recovery
  /// behavior, and the default).
  kFail,
  /// Stop capturing entirely: no further layers are appended, the store
  /// is marked degraded, RunStats::capture_degraded is set.
  kCaptureOff,
  /// Keep capturing only the forward-lineage skeleton (the superstep and
  /// evolution relations) in memory; derived relations stop at the
  /// degradation point.
  kForwardLineage,
};

const char* CaptureDegradePolicyToString(CaptureDegradePolicy policy);

/// Refusal gate for offline evaluation over a degraded capture: OK when
/// the store is complete, or when every store relation the query reads is
/// in the store's surviving set. Otherwise a clear Unsupported error
/// naming the missing relation and the degradation point — a degraded
/// store must never silently answer a full-history query.
class ProvenanceStore;  // fwd (provenance/store.h includes this header)
Status CheckDegradedCapture(const AnalyzedQuery& query,
                            const ProvenanceStore& store);

}  // namespace ariadne

#endif  // ARIADNE_EVAL_COMMON_H_
