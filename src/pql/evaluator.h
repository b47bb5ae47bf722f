#ifndef ARIADNE_PQL_EVALUATOR_H_
#define ARIADNE_PQL_EVALUATOR_H_

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "pql/analysis.h"
#include "pql/fact_view.h"
#include "pql/relation.h"

namespace ariadne {

/// Per-(rule, body-literal) delta watermark for semi-naive evaluation:
/// rows of the literal's relation below `rows` were already joined by
/// earlier evaluations, except the rows of holders whose kill generation
/// is newer than `kill_gen` — those holders had rows removed since, and
/// may be rescanned whole. Database::Compact remaps `rows`.
struct AtomWatermark {
  size_t rows = 0;
  uint64_t kill_gen = 0;
};

/// Persistent per-group accumulator for incrementally-evaluated aggregate
/// rules (single positive body atom: each new input row is a distinct
/// valuation, so group state can accumulate across evaluations instead of
/// rescanning the input).
struct PersistentAggCell {
  std::unordered_set<Value, ValueHash> distinct;  // COUNT
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  int64_t n = 0;
};

struct PersistentAggState {
  /// Per holder: group key -> one cell per aggregate head position.
  std::vector<std::map<Tuple, std::vector<PersistentAggCell>>> groups;
};

/// Evaluation counters of one rule (profiling; printed by ariadne_run and
/// reported by bench_eval_micro). Counters accumulate across evaluations
/// of one Database; partition databases are merged at collection time.
struct RuleEvalStats {
  uint64_t evaluations = 0;    ///< rule walks (one per driver delta)
  uint64_t rows_scanned = 0;   ///< rows unified without an index probe
  /// Keyed lookups: column-index buckets, full-key dedup lookups, and
  /// probes of facts read in place.
  uint64_t index_probes = 0;
  uint64_t probe_rows = 0;     ///< candidate rows the lookups returned
  /// Lazy column-index constructions (of a relation, or of one holder's
  /// facts read in place).
  uint64_t index_builds = 0;
  uint64_t delta_rescans = 0;  ///< holders rescanned whole after losing rows
  uint64_t derived = 0;        ///< head tuples actually inserted
  double seconds = 0;          ///< wall time inside this rule's evaluation

  void Merge(const RuleEvalStats& o);
};

/// Per-rule evaluation profile of a query run, indexed like
/// AnalyzedQuery::rules().
struct EvalStats {
  std::vector<RuleEvalStats> rules;

  void Merge(const EvalStats& o);
  RuleEvalStats Total() const;
  /// One line per rule (counters + rule text), for ariadne_run.
  std::string Summary(const AnalyzedQuery& query) const;
};

/// The relations of a range of provenance nodes (one holder each, see
/// Relation), of one node, or of the whole system. Relations are created
/// lazily; evaluation watermarks are kept here so the same RuleEvaluator
/// can serve many Databases.
///
/// An EDB predicate's facts may instead be read in place (offline runs,
/// FactView): such a predicate never has a Relation, and the evaluator
/// walks and probes its view.
class Database {
 public:
  explicit Database(const AnalyzedQuery* query) : query_(query) {}

  Relation& Rel(int pred);
  const Relation* RelIfExists(int pred) const;
  Relation* MutableRelIfExists(int pred) {
    return const_cast<Relation*>(
        static_cast<const Database*>(this)->RelIfExists(pred));
  }

  /// The facts of EDB predicate `pred` read in place (created on first
  /// use).
  FactView& Facts(int pred);
  const FactView* FactsIfExists(int pred) const;
  FactView* MutableFactsIfExists(int pred) {
    return const_cast<FactView*>(
        static_cast<const Database*>(this)->FactsIfExists(pred));
  }

  /// Bytes and tuples of the relations and of the facts read in place.
  size_t TotalBytes() const;
  size_t TotalTuples() const;

  /// Sum of versions of the given predicates' relations (a view's version
  /// is its slice count).
  uint64_t VersionSum(const std::vector<int>& preds) const;

  const AnalyzedQuery& query() const { return *query_; }

  /// Per-rule input watermarks (managed by RuleEvaluator::Evaluate).
  std::vector<uint64_t>& rule_watermarks() { return rule_watermarks_; }
  /// Per-rule, per-body-literal delta watermarks (semi-naive evaluation).
  std::vector<std::vector<AtomWatermark>>& atom_watermarks() {
    return atom_watermarks_;
  }
  /// Per-rule persistent aggregate accumulators (incremental aggregates).
  std::vector<std::unique_ptr<PersistentAggState>>& agg_states() {
    return agg_states_;
  }
  /// Per-rule, per-holder input version sums of the rules that run holder
  /// by holder (aggregates and rules without a delta driver).
  std::vector<std::vector<uint64_t>>& holder_watermarks() {
    return holder_watermarks_;
  }

  /// Drops the dead rows of relations where they outnumber the live ones,
  /// remapping every delta watermark. `on_remap(pred, remap)` lets the
  /// caller remap row ids it keeps itself (see Relation::Compact).
  void Compact(
      const std::function<void(int, const std::vector<uint32_t>&)>& on_remap);

  /// Per-rule evaluation counters of this database (single-writer: each
  /// vertex database is evaluated by one thread per superstep).
  EvalStats& eval_stats() { return eval_stats_; }
  const EvalStats& eval_stats() const { return eval_stats_; }

 private:
  const AnalyzedQuery* query_;
  std::vector<std::unique_ptr<Relation>> rels_;
  std::vector<std::unique_ptr<FactView>> facts_;
  std::vector<uint64_t> rule_watermarks_;
  std::vector<std::vector<AtomWatermark>> atom_watermarks_;
  std::vector<std::unique_ptr<PersistentAggState>> agg_states_;
  std::vector<std::vector<uint64_t>> holder_watermarks_;
  EvalStats eval_stats_;
};

/// Where and how a Database is being evaluated.
struct EvalContext {
  Database* db = nullptr;
  /// Input graph for static edge/edge-value enumeration (all modes).
  const Graph* graph = nullptr;
  /// Holder-scoped (per-vertex) mode over a partition database: holder h
  /// is provenance node holder_base + h. Every rule walk binds the head
  /// location variable to its driver row's holder (distributed semantics,
  /// paper §4.3) and scopes every atom, negation, aggregate group and
  /// static edge scan (incident edges) to that holder, so each holder
  /// sees exactly what a private database of its own would hold.
  std::optional<VertexId> holder_base;
  /// The holders this call evaluates, ascending: aggregate rules and rules
  /// without a delta driver run for these, when their inputs changed.
  std::span<const Holder> holders;
  /// Evaluate only rules in strata <= max_stratum (naive evaluation
  /// synchronizes strata globally so negation sees complete lower strata).
  int max_stratum = std::numeric_limits<int>::max();
};

/// Bottom-up, stratified, fixpoint evaluation of an AnalyzedQuery over a
/// Database. Incremental across calls: a rule re-evaluates only when one
/// of its input relations changed since the previous call (insertion
/// watermarks), so per-superstep online evaluation does not redo old work.
class RuleEvaluator {
 public:
  explicit RuleEvaluator(const AnalyzedQuery* query) : query_(query) {}

  /// Runs all strata to fixpoint. Returns true if any new tuple was
  /// derived (including aggregate relation changes).
  Result<bool> Evaluate(EvalContext& ctx) const;

 private:
  const AnalyzedQuery* query_;
};

/// Merged output tables of a query run (union over its partition
/// databases, or one global database).
class QueryResult {
 public:
  /// Adds the IDB tuples of `db` into the merged tables.
  void Merge(const AnalyzedQuery& query, const Database& db);

  const Relation* Table(const std::string& name) const;
  std::vector<std::string> TableNames() const;
  size_t TotalTuples() const;
  size_t TotalBytes() const;

  /// Number of tuples in `name` (0 if absent) — bench convenience.
  size_t TupleCount(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, std::unique_ptr<Relation>>> tables_;
};

}  // namespace ariadne

#endif  // ARIADNE_PQL_EVALUATOR_H_
