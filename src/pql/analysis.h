#ifndef ARIADNE_PQL_ANALYSIS_H_
#define ARIADNE_PQL_ANALYSIS_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "pql/ast.h"
#include "pql/catalog.h"
#include "pql/diagnostics.h"
#include "pql/relation.h"
#include "pql/udf.h"

namespace ariadne {

/// Direction of a rule / query per the paper's Definition 5.2:
///   * kLocal      — no remote predicates; every evaluation mode works.
///   * kForward    — remote predicates guarded only by receive-message;
///                   online + ascending layered + naive.
///   * kBackward   — guarded only by send-message (or an edge-like guard
///                   with a later-superstep temporal link); descending
///                   layered + naive.
///   * kUndirected — mixed or unguarded (the paper's R1 counter-example);
///                   naive only.
enum class Direction { kLocal, kForward, kBackward, kUndirected };

const char* DirectionToString(Direction d);

/// How a shipped relation's tuples travel between provenance nodes.
enum class ShipRouting {
  kAlongMessages,         ///< to the destinations of this step's sends
  kAlongReverseMessages,  ///< to the senders of this step's receives
  kAlongOutEdges,         ///< to all static out-neighbors
  kAlongInEdges,          ///< to all static in-neighbors
};

/// Schema of a ProvenanceStore, used to resolve custom captured relations
/// (e.g. prov-send) as EDBs of offline queries.
struct StoreSchema {
  struct Entry {
    std::string name;
    int arity = 0;
  };
  std::vector<Entry> relations;

  const Entry* Find(const std::string& name) const {
    for (const auto& e : relations) {
      if (e.name == name) return &e;
    }
    return nullptr;
  }
};

/// Per-predicate metadata assembled by Analyze.
struct PredicateInfo {
  std::string name;
  int arity = -1;
  EdbKind edb = EdbKind::kNone;  ///< kNone for IDBs, kStored for store-backed
  bool is_idb() const { return edb == EdbKind::kNone; }
  bool shipped = false;          ///< appears as a remote body atom somewhere
  ShipRouting routing = ShipRouting::kAlongMessages;  ///< valid when shipped
  /// Valid when shipped: the columns a receiver tells shipped rows apart
  /// by, the union of the columns the remote atoms reading this predicate
  /// use (location included). Receivers read shipped rows only through
  /// those atoms, so a shipped row whose key the receiver already holds
  /// derives nothing new and is dropped. Every column unless the
  /// predicate is an IDB without an aggregate rule (its rows, once held,
  /// are never lost).
  ColumnSet ship_key = 0;
  bool has_aggregate_rule = false;
  int stratum = 0;

  /// Whether receivers check ship_key: a shipped predicate whose key
  /// leaves out some column.
  bool ship_keyed() const { return shipped && ship_key != AllColumns(arity); }
};

/// Compiled term over a per-rule term pool (variables interned to dense
/// ids for fast evaluation).
struct CTerm {
  enum class Kind { kVar, kConst, kArith };
  Kind kind = Kind::kConst;
  int var = -1;        ///< kVar: dense variable id
  Value constant;      ///< kConst
  char op = 0;         ///< kArith
  int lhs = -1, rhs = -1;  ///< kArith: term pool indices
};

/// One resolved, compiled body literal.
struct CLiteral {
  enum class Kind { kAtom, kComparison, kUdf };
  Kind kind = Kind::kAtom;

  // kAtom
  int pred = -1;
  bool negated = false;
  bool remote = false;       ///< location variable differs from head's
  int loc_var = -1;          ///< dense id of the location variable
  std::vector<int> args;     ///< term pool indices

  // kComparison
  ComparisonOp cmp_op = ComparisonOp::kEq;
  int cmp_lhs = -1, cmp_rhs = -1;

  // kUdf
  const Udf* udf = nullptr;
  std::vector<int> udf_args;  ///< term pool indices (output last for functions)

  Span span;  ///< source extent of the originating body literal
};

struct CHeadTerm {
  bool is_aggregate = false;
  int term = -1;  ///< term pool index (plain head term)
  AggregateFn aggregate = AggregateFn::kCount;
  int aggregate_arg = -1;  ///< term pool index of the aggregated variable
};

/// A compiled rule: interned terms, resolved predicates, a safe greedy
/// evaluation order, stratum and direction classification.
struct CompiledRule {
  int head_pred = -1;
  std::vector<CHeadTerm> head;
  int head_loc_var = -1;          ///< dense id of the head location variable
  std::vector<std::string> vars;  ///< dense id -> name
  std::vector<CTerm> term_pool;
  std::vector<CLiteral> body;
  std::vector<size_t> eval_order;  ///< indices into body, safe ordering
  /// Parallel to eval_order: true when a positive atom at that plan
  /// position may stop at its first unifying tuple (every variable it
  /// binds is dead afterwards — existential subgoal / semi-join).
  std::vector<uint8_t> existential;
  std::vector<int> body_preds;     ///< distinct predicate ids read (watermarks)
  int stratum = 0;
  Direction direction = Direction::kLocal;
  bool has_aggregate = false;
  /// Whether eval_order came from the cost-ordered planner; also enables
  /// runtime probe-column selection by index-bucket cardinality. Off with
  /// AnalyzeOptions::plan_joins = false (the --no-plan escape hatch),
  /// which reproduces the legacy greedy order + first-evaluable probe.
  bool planned = false;
  std::string source_text;  ///< pretty-printed original rule (diagnostics)
  Span span;                ///< full source extent of the rule
  Span name_span;           ///< the head predicate name token
};

/// A capture query whose rules are pure projections of built-in EDBs gets
/// compiled to a direct recording plan, bypassing Datalog evaluation —
/// this is what keeps full capture (paper Query 2) within the 2.7-5.6x
/// envelope instead of paying interpreter costs per message.
struct FastCaptureProjection {
  EdbKind source = EdbKind::kNone;  ///< record stream to project from
  int head_pred = -1;
  /// head column -> source column; -1 means "current superstep".
  std::vector<int> columns;
};

struct FastCapturePlan {
  std::vector<FastCaptureProjection> projections;
};

struct AnalyzeOptions {
  /// Accept the transient capture-time EDBs (vertex-value/send/receive).
  /// Offline evaluation rejects them.
  bool allow_transient = true;
  /// Cost-ordered join planning (sideways information passing) plus
  /// runtime probe-column choice by index-bucket cardinality. Results are
  /// bit-identical either way (set semantics + fixpoint); false restores
  /// the legacy greedy order for A/B comparison (--no-plan).
  bool plan_joins = true;
};

/// A fully analyzed PQL query, ready for any evaluator.
class AnalyzedQuery {
 public:
  const std::vector<PredicateInfo>& preds() const { return preds_; }
  const PredicateInfo& pred(int id) const { return preds_[static_cast<size_t>(id)]; }
  int num_preds() const { return static_cast<int>(preds_.size()); }
  /// Predicate id by name; -1 if absent.
  int PredId(const std::string& name) const;

  const std::vector<CompiledRule>& rules() const { return rules_; }
  int num_strata() const { return num_strata_; }
  Direction direction() const { return direction_; }
  bool vc_compatible() const { return vc_compatible_; }

  /// IDB predicate ids (the query's output tables).
  const std::vector<int>& output_preds() const { return output_preds_; }
  /// Predicates whose tuples must be shipped between provenance nodes.
  const std::vector<int>& shipped_preds() const { return shipped_preds_; }

  /// True if some rule reads the given built-in EDB kind (drives which
  /// record streams the online wrapper materializes).
  bool UsesEdb(EdbKind kind) const;

  const std::optional<FastCapturePlan>& fast_capture() const {
    return fast_capture_;
  }

  /// Human-readable analysis summary (strata, directions, ships).
  std::string DebugString() const;

 private:
  /// Populated by the analyzer (analysis.cc) via this internal builder.
  friend class AnalyzedQueryBuilder;

  std::vector<PredicateInfo> preds_;
  std::vector<CompiledRule> rules_;  // sorted by stratum
  int num_strata_ = 1;
  Direction direction_ = Direction::kLocal;
  bool vc_compatible_ = true;
  std::vector<int> output_preds_;
  std::vector<int> shipped_preds_;
  std::optional<FastCapturePlan> fast_capture_;
};

/// Performs the full semantic analysis pipeline: predicate resolution
/// (catalog EDBs, UDFs, store-backed relations, IDBs), arity checking,
/// safety / range-restriction with a greedy join-order plan,
/// stratification of negation and aggregation, location analysis with
/// guard detection (paper Definition 4.1), direction classification
/// (Definition 5.2), ship-routing assignment, and fast-capture plan
/// extraction.
///
/// The query must have no unbound $parameters (bind them first).
///
/// When `sink` is non-null the analyzer accumulates every error it can
/// recover from (bad rules are dropped and analysis continues with the
/// rest), each with a stable PQL2xxx code and a source span; the returned
/// Status is then the first error. With a null sink behavior is the
/// legacy first-error bail-out.
Result<AnalyzedQuery> Analyze(const Program& program, const Catalog& catalog,
                              const UdfRegistry& udfs,
                              const StoreSchema* store = nullptr,
                              const AnalyzeOptions& options = {},
                              DiagnosticSink* sink = nullptr);

}  // namespace ariadne

#endif  // ARIADNE_PQL_ANALYSIS_H_
