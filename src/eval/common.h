#ifndef ARIADNE_EVAL_COMMON_H_
#define ARIADNE_EVAL_COMMON_H_

#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "engine/types.h"
#include "pql/analysis.h"
#include "pql/evaluator.h"
#include "pql/relation.h"

namespace ariadne {

/// Tuples of shipped relations travelling between provenance nodes,
/// grouped by predicate id. Attached to analytic messages during online
/// evaluation (paper §5.2: "appends the query tables to the messages")
/// and carried by dedicated ship messages during layered evaluation.
using ShipBundle = std::vector<std::pair<int, std::vector<Tuple>>>;
using ShipBundlePtr = std::shared_ptr<const ShipBundle>;

/// Union of a query's derived tables over every provenance node, the
/// per-rule evaluator counters merged over them, and the resident bytes
/// of their databases.
struct MergedNodes {
  QueryResult result;
  EvalStats eval;
  size_t state_bytes = 0;
};

/// One query's per-provenance-node evaluation state, for every vertex of
/// the graph: each vertex's Database (created on first use) and its ship,
/// capture and retention watermarks. Online, layered and naive evaluation
/// all run a query through this class (paper §5: a database per
/// provenance node, remote tables shipped along message edges); they
/// differ only in which facts feed a vertex and when strata synchronize.
///
/// A vertex's state must be touched by one thread at a time; distinct
/// vertices may be used concurrently (the online wrapper calls in from
/// every engine worker).
class NodeDatabases {
 public:
  /// Both pointers must outlive this object.
  NodeDatabases(const AnalyzedQuery* query, const Graph* graph);

  /// Drops every vertex's state and the recorded error.
  void Reset();

  /// `v`'s database, created on first use.
  Database& Db(VertexId v);

  /// Inserts a bundle's tuples into `v`'s database.
  void Deliver(VertexId v, const ShipBundle& bundle);

  /// Runs the stratified evaluator over `v`'s database, strata up to
  /// `max_stratum`. Returns whether anything new was derived. The first
  /// error of any vertex is also kept for status().
  Result<bool> Evaluate(VertexId v,
                        int max_stratum = std::numeric_limits<int>::max());

  /// First evaluation error of any vertex (OK when none).
  Status status() const;

  /// Tuples of shipped relations inserted at `v` since the last call,
  /// advancing `v`'s ship watermarks; nullptr when nothing is new. With a
  /// `routing`, only the shipped predicates of that class (offline
  /// evaluation routes each class separately). Only tuples *located at*
  /// `v` (column 0) ship: remote tuples that arrived via earlier ships
  /// are someone else's partition and must not be re-shipped (distributed
  /// semantics, and the difference between O(E) and epidemic flooding).
  ShipBundlePtr CollectShips(VertexId v,
                             std::optional<ShipRouting> routing = {});

  /// Output tuples located at `v` derived since the last call, per output
  /// predicate id, advancing `v`'s capture watermarks. Tuples that arrived
  /// via ships belong to their own vertex's capture (persisting copies
  /// would multiply the store by the average degree).
  ShipBundle CollectCaptureDelta(VertexId v);

  /// Online EDB retention at `v` (see ApplyRetention). Retention rebuilds
  /// relations (resetting semi-naive watermarks), so it is amortized: the
  /// history is trimmed every 2*window steps, keeping at most 3*window of
  /// it — still O(window) memory, without per-step rebuild costs.
  void Retain(VertexId v, Superstep step, int window);

  MergedNodes Merge() const;

 private:
  struct Node {
    std::unique_ptr<Database> db;
    Superstep last_retention = 0;
  };

  /// The one self-located-delta loop: appends `v`'s rows of `preds[k]`
  /// past `marks[k]` whose column 0 is `v` to `out` (keyed by predicate
  /// id), for the predicates of `routing` (all when unset), and advances
  /// the marks.
  void CollectLocal(VertexId v, const std::vector<int>& preds, size_t* marks,
                    std::optional<ShipRouting> routing, ShipBundle* out) const;

  const AnalyzedQuery* query_;
  const Graph* graph_;
  RuleEvaluator evaluator_;
  std::vector<Node> nodes_;
  /// Per vertex, per shipped_preds() / output_preds() position: rows
  /// already shipped / persisted (row-major, one stride per vertex).
  std::vector<size_t> ship_marks_;
  std::vector<size_t> capture_marks_;
  mutable std::mutex mu_;
  Status first_error_;
};

/// Drops EDB history older than `window` supersteps from `db` (relations
/// whose EDB kind has a superstep column). Keeps IDB results intact.
void ApplyRetention(const AnalyzedQuery& query, Database& db,
                    Superstep current, int window);

/// Statistics of an offline (layered / naive) query evaluation.
struct OfflineEvalStats {
  double seconds = 0.0;
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
