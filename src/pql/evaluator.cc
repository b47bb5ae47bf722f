#include "pql/evaluator.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/timer.h"

namespace ariadne {

Relation& Database::Rel(int pred) {
  const size_t n = static_cast<size_t>(query_->num_preds());
  if (rels_.size() < n) rels_.resize(n);
  auto& slot = rels_[static_cast<size_t>(pred)];
  if (slot == nullptr) {
    slot = std::make_unique<Relation>(query_->pred(pred).arity);
  }
  return *slot;
}

const Relation* Database::RelIfExists(int pred) const {
  if (static_cast<size_t>(pred) >= rels_.size()) return nullptr;
  return rels_[static_cast<size_t>(pred)].get();
}

size_t Database::TotalBytes() const {
  size_t bytes = 0;
  for (const auto& rel : rels_) {
    if (rel != nullptr) bytes += rel->byte_size();
  }
  return bytes;
}

size_t Database::TotalTuples() const {
  size_t n = 0;
  for (const auto& rel : rels_) {
    if (rel != nullptr) n += rel->size();
  }
  return n;
}

uint64_t Database::VersionSum(const std::vector<int>& preds) const {
  uint64_t sum = 0;
  for (int p : preds) {
    const Relation* rel = RelIfExists(p);
    if (rel != nullptr) sum += rel->version();
  }
  return sum;
}

void RuleEvalStats::Merge(const RuleEvalStats& o) {
  evaluations += o.evaluations;
  rows_scanned += o.rows_scanned;
  index_probes += o.index_probes;
  probe_rows += o.probe_rows;
  index_builds += o.index_builds;
  delta_rescans += o.delta_rescans;
  derived += o.derived;
  seconds += o.seconds;
}

void EvalStats::Merge(const EvalStats& o) {
  if (rules.size() < o.rules.size()) rules.resize(o.rules.size());
  for (size_t i = 0; i < o.rules.size(); ++i) rules[i].Merge(o.rules[i]);
}

RuleEvalStats EvalStats::Total() const {
  RuleEvalStats total;
  for (const RuleEvalStats& r : rules) total.Merge(r);
  return total;
}

std::string EvalStats::Summary(const AnalyzedQuery& query) const {
  std::string out;
  char line[512];
  for (size_t i = 0; i < rules.size(); ++i) {
    const RuleEvalStats& s = rules[i];
    if (s.evaluations == 0) continue;
    const char* text = i < query.rules().size()
                           ? query.rules()[i].source_text.c_str()
                           : "";
    std::snprintf(line, sizeof(line),
                  "  [r%zu] evals=%llu scanned=%llu probes=%llu "
                  "probe-rows=%llu builds=%llu rescans=%llu derived=%llu "
                  "%.3fs  %s\n",
                  i, static_cast<unsigned long long>(s.evaluations),
                  static_cast<unsigned long long>(s.rows_scanned),
                  static_cast<unsigned long long>(s.index_probes),
                  static_cast<unsigned long long>(s.probe_rows),
                  static_cast<unsigned long long>(s.index_builds),
                  static_cast<unsigned long long>(s.delta_rescans),
                  static_cast<unsigned long long>(s.derived), s.seconds,
                  text);
    out += line;
  }
  return out;
}

namespace {

/// Mutable variable bindings during one rule walk. Values of unbound
/// slots are stale leftovers and never read.
struct Env {
  std::vector<Value> vals;
  std::vector<uint8_t> bound;

  void Reset(size_t n) {
    vals.resize(n);
    bound.assign(n, 0);
  }
};

/// Scratch storage of rule walks, reused from walk to walk so evaluation
/// allocates only while a thread's frame still grows. The evaluator is
/// shared by every engine worker and serve step thread, and a walk never
/// starts another walk, so one frame per thread suffices.
struct RuleFrame {
  Env env;
  std::vector<size_t> order;
  std::vector<uint8_t> existential;
  Tuple head;
  /// Per plan position: the ground tuple of a negated atom, or the edge
  /// tuple a static atom enumerates into.
  std::vector<Tuple> rows;
  // Semi-naive driver loop of one rule (EvalRuleSemiNaiveImpl).
  std::vector<int> drivers;
  std::vector<size_t> sizes;
  std::vector<uint64_t> epochs;
};

RuleFrame& ThreadFrame() {
  thread_local RuleFrame frame;
  return frame;
}

Result<Value> ApplyArith(char op, const Value& l, const Value& r) {
  switch (op) {
    case '+':
      return l.Add(r);
    case '-':
      return l.Sub(r);
    case '*':
      return l.Mul(r);
    case '/':
      return l.Div(r);
  }
  return Status::Internal("bad op");
}

/// Evaluates pool term `idx`; nullopt when arithmetic fails (div by zero,
/// type error) — the current valuation is then skipped, not a hard error.
std::optional<Value> EvalTerm(const CompiledRule& rule, int idx,
                              const Env& env) {
  const CTerm& t = rule.term_pool[static_cast<size_t>(idx)];
  switch (t.kind) {
    case CTerm::Kind::kConst:
      return t.constant;
    case CTerm::Kind::kVar:
      ARIADNE_CHECK(env.bound[static_cast<size_t>(t.var)]);
      return env.vals[static_cast<size_t>(t.var)];
    case CTerm::Kind::kArith: {
      auto l = EvalTerm(rule, t.lhs, env);
      auto r = EvalTerm(rule, t.rhs, env);
      if (!l || !r) return std::nullopt;
      Result<Value> out = ApplyArith(t.op, *l, *r);
      if (!out.ok()) return std::nullopt;
      return std::move(out).value();
    }
  }
  return std::nullopt;
}

/// Zero-copy view of a term that is a constant or a bound plain variable;
/// nullptr for arithmetic terms or unbound variables.
const Value* FastTerm(const CompiledRule& rule, int idx, const Env& env) {
  const CTerm& t = rule.term_pool[static_cast<size_t>(idx)];
  switch (t.kind) {
    case CTerm::Kind::kConst:
      return &t.constant;
    case CTerm::Kind::kVar:
      return env.bound[static_cast<size_t>(t.var)]
                 ? &env.vals[static_cast<size_t>(t.var)]
                 : nullptr;
    case CTerm::Kind::kArith:
      return nullptr;
  }
  return nullptr;
}

bool TermEvaluable(const CompiledRule& rule, int idx, const Env& env) {
  const CTerm& t = rule.term_pool[static_cast<size_t>(idx)];
  switch (t.kind) {
    case CTerm::Kind::kConst:
      return true;
    case CTerm::Kind::kVar:
      return env.bound[static_cast<size_t>(t.var)] != 0;
    case CTerm::Kind::kArith:
      return TermEvaluable(rule, t.lhs, env) &&
             TermEvaluable(rule, t.rhs, env);
  }
  return false;
}

int PlainVarOf(const CompiledRule& rule, int idx) {
  const CTerm& t = rule.term_pool[static_cast<size_t>(idx)];
  return t.kind == CTerm::Kind::kVar ? t.var : -1;
}

// Uniform column access over the two row representations MatchTuple sees:
// materialized Tuples (static edge enumeration, negated-atom grounding)
// and borrowed Relation::RowView rows (stored relations — the hot path,
// which must not materialize per row).
inline bool RowColEquals(const Tuple& t, size_t i, const Value& v) {
  return t[i] == v;
}
inline bool RowColEquals(const Relation::RowView& t, size_t i,
                         const Value& v) {
  return t.Equals(i, v);
}
inline Value RowColValue(const Tuple& t, size_t i) { return t[i]; }
inline Value RowColValue(const Relation::RowView& t, size_t i) {
  return t.value(i);
}

/// Group accumulator for aggregate rules.
struct AggCell {
  std::unordered_set<Value, ValueHash> distinct;  // COUNT
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  int64_t n = 0;
};

struct GroupAccum {
  std::vector<AggCell> cells;  // one per aggregate head position
};

/// One rule evaluation pass: walks the planned body order, deriving head
/// tuples (or aggregate contributions).
///
/// Semi-naive support: when `delta_literal >= 0`, that body atom only
/// ranges over rows at indices >= `delta_from` (the tuples inserted since
/// the previous evaluation of this rule); the fixpoint driver calls the
/// walk once per positive atom with the respective deltas, which bounds
/// the per-superstep work of online evaluation by the *new* facts instead
/// of the whole retained history.
class RuleRun {
 public:
  RuleRun(const CompiledRule& rule, EvalContext& ctx,
          RuleEvalStats& stats, RuleFrame& frame, int delta_literal,
          size_t delta_from, PersistentAggState* persistent_agg = nullptr)
      : rule_(rule),
        ctx_(ctx),
        stats_(stats),
        env_(frame.env),
        head_(frame.head),
        rows_(frame.rows),
        order_(frame.order),
        existential_(frame.existential),
        delta_literal_(delta_literal),
        delta_from_(delta_from),
        persistent_agg_(persistent_agg) {
    env_.Reset(rule.vars.size());
    // Semi-naive: walk the delta atom FIRST so per-round work scales with
    // the new tuples, not the accumulated relation. Promoting a positive
    // atom can only add bindings earlier, so the plan stays safe; the
    // runtime handles flipped binding directions of `=` comparisons.
    order_.assign(rule.eval_order.begin(), rule.eval_order.end());
    existential_.assign(rule.existential.begin(), rule.existential.end());
    if (rows_.size() < order_.size()) rows_.resize(order_.size());
    if (delta_literal_ >= 0) {
      for (size_t k = 0; k < order_.size(); ++k) {
        if (static_cast<int>(order_[k]) == delta_literal_) {
          const size_t body_idx = order_[k];
          const uint8_t flag = k < existential_.size() ? existential_[k] : 0;
          order_.erase(order_.begin() + static_cast<ptrdiff_t>(k));
          if (k < existential_.size()) {
            existential_.erase(existential_.begin() +
                               static_cast<ptrdiff_t>(k));
          }
          order_.insert(order_.begin(), body_idx);
          (void)flag;
          // Flags of the *other* atoms stay valid after promotion (their
          // newly-bound sets can only shrink, and a subset of an all-dead
          // set is all-dead), but the promoted atom itself now binds more
          // variables than the static analysis assumed: it must iterate
          // every delta row.
          existential_.insert(existential_.begin(), 0);
          break;
        }
      }
    }
  }

  Result<bool> Run() {
    // Distributed semantics: per-vertex mode pre-binds the head location.
    if (ctx_.local_vertex.has_value()) {
      Bind(rule_.head_loc_var,
           Value(static_cast<int64_t>(*ctx_.local_vertex)));
    }
    ARIADNE_RETURN_NOT_OK(Step(0));
    if (rule_.has_aggregate) {
      SeedDefaultGroup();
      return FlushAggregates();
    }
    return derived_;
  }

  /// Incremental aggregate path: walk only the driver's delta, fold each
  /// valuation into the persistent group state (every row of a deduped
  /// single-atom body is a distinct valuation), then rebuild the head.
  Result<bool> RunIncrementalAggregate() {
    ARIADNE_CHECK(persistent_agg_ != nullptr);
    if (ctx_.local_vertex.has_value()) {
      Bind(rule_.head_loc_var,
           Value(static_cast<int64_t>(*ctx_.local_vertex)));
    }
    ARIADNE_RETURN_NOT_OK(Step(0));
    SeedDefaultPersistentGroup();
    return FlushPersistentAggregates();
  }

 private:
  void Bind(int var, Value v) {
    env_.vals[static_cast<size_t>(var)] = std::move(v);
    env_.bound[static_cast<size_t>(var)] = 1;
  }
  void Unbind(int var) { env_.bound[static_cast<size_t>(var)] = 0; }

  Status Step(size_t k) {
    if (k == order_.size()) return Derive();
    const size_t body_idx = order_[k];
    const CLiteral& lit = rule_.body[body_idx];
    switch (lit.kind) {
      case CLiteral::Kind::kComparison:
        return StepComparison(lit, k);
      case CLiteral::Kind::kUdf:
        return StepUdf(lit, k);
      case CLiteral::Kind::kAtom:
        if (lit.negated) return StepNegatedAtom(lit, k);
        return StepAtom(lit, k,
                        static_cast<int>(body_idx) == delta_literal_);
    }
    return Status::Internal("unknown literal kind");
  }

  /// True when plan position `k` may stop at its first unifying tuple.
  bool Existential(size_t k) const {
    return k < existential_.size() && existential_[k] != 0;
  }

  Status StepComparison(const CLiteral& lit, size_t k) {
    const bool lhs_ok = TermEvaluable(rule_, lit.cmp_lhs, env_);
    const bool rhs_ok = TermEvaluable(rule_, lit.cmp_rhs, env_);
    if (lhs_ok && rhs_ok) {
      auto l = EvalTerm(rule_, lit.cmp_lhs, env_);
      auto r = EvalTerm(rule_, lit.cmp_rhs, env_);
      if (!l || !r) return Status::OK();  // failed arithmetic: no match
      auto cmp = l->NumericCompare(*r);
      if (!cmp.ok()) return Status::OK();  // incomparable: no match
      bool pass = false;
      switch (lit.cmp_op) {
        case ComparisonOp::kEq:
          pass = *cmp == 0;
          break;
        case ComparisonOp::kNe:
          pass = *cmp != 0;
          break;
        case ComparisonOp::kLt:
          pass = *cmp < 0;
          break;
        case ComparisonOp::kLe:
          pass = *cmp <= 0;
          break;
        case ComparisonOp::kGt:
          pass = *cmp > 0;
          break;
        case ComparisonOp::kGe:
          pass = *cmp >= 0;
          break;
      }
      return pass ? Step(k + 1) : Status::OK();
    }
    // Binding equality: exactly one side is an unbound plain variable.
    ARIADNE_CHECK(lit.cmp_op == ComparisonOp::kEq);
    const int bind_idx = lhs_ok ? lit.cmp_rhs : lit.cmp_lhs;
    const int eval_idx = lhs_ok ? lit.cmp_lhs : lit.cmp_rhs;
    const int var = PlainVarOf(rule_, bind_idx);
    ARIADNE_CHECK(var >= 0);
    auto v = EvalTerm(rule_, eval_idx, env_);
    if (!v) return Status::OK();
    Bind(var, std::move(*v));
    Status s = Step(k + 1);
    Unbind(var);
    return s;
  }

  Status StepUdf(const CLiteral& lit, size_t k) {
    const size_t n_in = lit.udf->kind == UdfKind::kFunction
                            ? lit.udf_args.size() - 1
                            : lit.udf_args.size();
    std::array<Value, 8> arg_buf;
    ARIADNE_CHECK(n_in <= arg_buf.size());
    for (size_t i = 0; i < n_in; ++i) {
      auto v = EvalTerm(rule_, lit.udf_args[i], env_);
      if (!v) return Status::OK();
      arg_buf[i] = std::move(*v);
    }
    std::span<const Value> args(arg_buf.data(), n_in);
    if (lit.udf->kind == UdfKind::kPredicate) {
      auto holds = lit.udf->predicate(args);
      if (!holds.ok()) return Status::OK();  // type mismatch: no match
      const bool pass = lit.negated ? !*holds : *holds;
      return pass ? Step(k + 1) : Status::OK();
    }
    auto out = lit.udf->function(args);
    if (!out.ok()) return Status::OK();
    const int out_idx = lit.udf_args.back();
    if (TermEvaluable(rule_, out_idx, env_)) {
      auto expected = EvalTerm(rule_, out_idx, env_);
      if (!expected) return Status::OK();
      auto cmp = out->NumericCompare(*expected);
      const bool equal = cmp.ok() ? *cmp == 0 : *out == *expected;
      return equal ? Step(k + 1) : Status::OK();
    }
    const int var = PlainVarOf(rule_, out_idx);
    ARIADNE_CHECK(var >= 0);
    Bind(var, std::move(out).value());
    Status s = Step(k + 1);
    Unbind(var);
    return s;
  }

  /// Attempts to unify `tuple` with the atom's argument terms; on success
  /// recurses into Step(k+1). Newly bound variables are restored after.
  /// `unified` (when non-null) reports whether unification succeeded.
  /// `RowT` is Tuple or Relation::RowView; the row is only dereferenced
  /// before the recursion, so views stay valid even when recursive rules
  /// insert into (and reallocate) the relation the view borrows from.
  template <typename RowT>
  Status MatchTuple(const CLiteral& lit, const RowT& tuple, size_t k,
                    bool* unified = nullptr) {
    std::array<int, 16> trail;
    size_t trail_size = 0;
    bool ok = true;
    for (size_t i = 0; i < lit.args.size() && ok; ++i) {
      const int arg = lit.args[i];
      const CTerm& term = rule_.term_pool[static_cast<size_t>(arg)];
      switch (term.kind) {
        case CTerm::Kind::kConst:
          ok = RowColEquals(tuple, i, term.constant);
          break;
        case CTerm::Kind::kVar:
          if (env_.bound[static_cast<size_t>(term.var)]) {
            ok = RowColEquals(tuple, i,
                              env_.vals[static_cast<size_t>(term.var)]);
          } else {
            env_.vals[static_cast<size_t>(term.var)] = RowColValue(tuple, i);
            env_.bound[static_cast<size_t>(term.var)] = 1;
            ARIADNE_CHECK(trail_size < trail.size());
            trail[trail_size++] = term.var;
          }
          break;
        case CTerm::Kind::kArith: {
          auto v = EvalTerm(rule_, arg, env_);
          ok = v.has_value() && RowColEquals(tuple, i, *v);
          break;
        }
      }
    }
    if (unified != nullptr) *unified = ok;
    Status s = ok ? Step(k + 1) : Status::OK();
    for (size_t i = 0; i < trail_size; ++i) Unbind(trail[i]);
    return s;
  }

  /// Enumerates static graph tuples for kEdge / kEdgeValue atoms.
  Status StepStaticAtom(const CLiteral& lit, size_t k) {
    const Graph& g = *ctx_.graph;
    const EdbKind kind = ctx_.db->query().pred(lit.pred).edb;
    const bool with_value = kind == EdbKind::kEdgeValue;

    const Value* src_v = FastTerm(rule_, lit.args[0], env_);
    const Value* dst_v = FastTerm(rule_, lit.args[1], env_);
    std::optional<Value> src_owned, dst_owned, step_owned;
    if (src_v == nullptr && TermEvaluable(rule_, lit.args[0], env_)) {
      src_owned = EvalTerm(rule_, lit.args[0], env_);
      if (!src_owned) return Status::OK();
      src_v = &*src_owned;
    }
    if (dst_v == nullptr && TermEvaluable(rule_, lit.args[1], env_)) {
      dst_owned = EvalTerm(rule_, lit.args[1], env_);
      if (!dst_owned) return Status::OK();
      dst_v = &*dst_owned;
    }
    const Value* step_v = nullptr;
    if (with_value) {
      if (!TermEvaluable(rule_, lit.args[3], env_)) {
        return Status::Unsupported(
            "edge-value requires its superstep argument to be bound");
      }
      step_owned = EvalTerm(rule_, lit.args[3], env_);
      if (!step_owned) return Status::OK();
      step_v = &*step_owned;
    }

    // One tuple buffer per plan position: MatchTuple never keeps the row
    // past its return, so refilling in place is safe and allocation-free.
    Tuple& edge_tuple = rows_[k];
    auto emit_out_edges = [&](VertexId src) -> Status {
      if (src < 0 || src >= g.num_vertices()) return Status::OK();
      auto nbrs = g.OutNeighbors(src);
      auto weights = g.OutWeights(src);
      stats_.rows_scanned += nbrs.size();
      for (size_t i = 0; i < nbrs.size(); ++i) {
        edge_tuple.clear();
        edge_tuple.emplace_back(static_cast<int64_t>(src));
        edge_tuple.emplace_back(static_cast<int64_t>(nbrs[i]));
        if (with_value) {
          edge_tuple.emplace_back(weights[i]);
          edge_tuple.push_back(*step_v);
        }
        ARIADNE_RETURN_NOT_OK(MatchTuple(lit, edge_tuple, k));
      }
      return Status::OK();
    };
    auto emit_in_edges = [&](VertexId dst) -> Status {
      if (dst < 0 || dst >= g.num_vertices()) return Status::OK();
      auto nbrs = g.InNeighbors(dst);
      auto weights = g.InWeights(dst);
      stats_.rows_scanned += nbrs.size();
      for (size_t i = 0; i < nbrs.size(); ++i) {
        edge_tuple.clear();
        edge_tuple.emplace_back(static_cast<int64_t>(nbrs[i]));
        edge_tuple.emplace_back(static_cast<int64_t>(dst));
        if (with_value) {
          edge_tuple.emplace_back(weights[i]);
          edge_tuple.push_back(*step_v);
        }
        ARIADNE_RETURN_NOT_OK(MatchTuple(lit, edge_tuple, k));
      }
      return Status::OK();
    };

    if (src_v != nullptr) {
      if (!src_v->is_int()) return Status::OK();
      return emit_out_edges(src_v->AsInt());
    }
    if (dst_v != nullptr) {
      if (!dst_v->is_int()) return Status::OK();
      return emit_in_edges(dst_v->AsInt());
    }
    if (ctx_.local_vertex.has_value()) {
      // Incident edges of the evaluating node (both directions).
      ARIADNE_RETURN_NOT_OK(emit_out_edges(*ctx_.local_vertex));
      return emit_in_edges(*ctx_.local_vertex);
    }
    // Global mode, nothing bound: full edge scan.
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ARIADNE_RETURN_NOT_OK(emit_out_edges(v));
    }
    return Status::OK();
  }

  Status StepAtom(const CLiteral& lit, size_t k, bool is_delta) {
    const EdbKind kind = ctx_.db->query().pred(lit.pred).edb;
    if (IsStaticEdb(kind) && ctx_.graph != nullptr) {
      return StepStaticAtom(lit, k);
    }
    const Relation* rel_probe = ctx_.db->RelIfExists(lit.pred);
    if (rel_probe == nullptr || rel_probe->empty()) return Status::OK();
    Relation& rel = ctx_.db->Rel(lit.pred);
    const size_t min_row = is_delta ? delta_from_ : 0;
    if (min_row >= rel.size()) return Status::OK();

    int probe_col = -1;
    const Value* probe_val = nullptr;
    std::optional<Value> probe_owned;
    auto eval_col = [&](size_t i, std::optional<Value>& owned) {
      const Value* v = FastTerm(rule_, lit.args[i], env_);
      if (v == nullptr && TermEvaluable(rule_, lit.args[i], env_)) {
        owned = EvalTerm(rule_, lit.args[i], env_);
        v = owned ? &*owned : nullptr;
      }
      return v;
    };
    if (rule_.planned) {
      // Planned probe choice: among all evaluable columns, probe the one
      // whose index bucket is smallest *right now* (ties: lowest column).
      // Bucket cardinality subsumes the old per-vertex column-0 special
      // case — the location column's bucket holds every local row, so a
      // selective column always beats it when one exists.
      size_t best_bucket = std::numeric_limits<size_t>::max();
      for (size_t i = 0; i < lit.args.size(); ++i) {
        std::optional<Value> owned;
        const Value* v = eval_col(i, owned);
        if (v == nullptr) continue;
        if (!rel.HasIndex(static_cast<int>(i))) ++stats_.index_builds;
        ++stats_.index_probes;
        const size_t bucket = rel.Probe(static_cast<int>(i), *v).size();
        if (bucket < best_bucket) {
          best_bucket = bucket;
          probe_col = static_cast<int>(i);
          probe_owned = std::move(owned);
          probe_val = probe_owned ? &*probe_owned : v;
          if (best_bucket == 0) break;  // nothing can beat an empty bucket
        }
      }
    } else {
      // Legacy probe choice: first evaluable column wins. In per-vertex
      // mode column 0 is the location and matches every local row, so a
      // later bound column is always more selective; fall back to column
      // 0 only when nothing else is bound (and in global mode, where the
      // location is selective, try it first).
      const size_t first_col = ctx_.local_vertex.has_value() ? 1 : 0;
      auto try_col = [&](size_t i) {
        probe_val = eval_col(i, probe_owned);
        if (probe_val != nullptr) probe_col = static_cast<int>(i);
        return probe_val != nullptr;
      };
      for (size_t i = first_col; i < lit.args.size() && probe_col < 0; ++i) {
        try_col(i);
      }
      if (probe_col < 0 && first_col == 1) try_col(0);
      if (probe_col >= 0) {
        if (!rel.HasIndex(probe_col)) ++stats_.index_builds;
        ++stats_.index_probes;
      }
    }
    const bool existential = Existential(k);
    bool unified = false;
    if (probe_col >= 0) {
      // The bucket walks only the rows it held when probed, so a recursive
      // rule may insert into this very relation mid-walk; those rows are
      // picked up by the enclosing fixpoint round.
      const Relation::Bucket bucket = rel.Probe(probe_col, *probe_val);
      stats_.probe_rows += bucket.size();
      for (uint32_t idx : bucket) {
        if (idx < min_row) continue;
        ARIADNE_RETURN_NOT_OK(
            MatchTuple(lit, rel.row_view(idx), k, &unified));
        if (existential && unified) break;
      }
      return Status::OK();
    }
    const size_t n = rel.size();  // snapshot: ignore tuples added mid-scan
    stats_.rows_scanned += n - min_row;
    for (size_t i = min_row; i < n; ++i) {
      ARIADNE_RETURN_NOT_OK(MatchTuple(lit, rel.row_view(i), k, &unified));
      if (existential && unified) break;
    }
    return Status::OK();
  }

  Status StepNegatedAtom(const CLiteral& lit, size_t k) {
    // All arguments are bound (plan guarantee); build the ground tuple.
    Tuple& t = rows_[k];
    t.clear();
    for (int arg : lit.args) {
      auto v = EvalTerm(rule_, arg, env_);
      if (!v) return Status::OK();
      t.push_back(std::move(*v));
    }
    const EdbKind kind = ctx_.db->query().pred(lit.pred).edb;
    bool exists = false;
    if (IsStaticEdb(kind) && ctx_.graph != nullptr) {
      if (t[0].is_int() && t[1].is_int()) {
        const VertexId src = t[0].AsInt(), dst = t[1].AsInt();
        if (src >= 0 && src < ctx_.graph->num_vertices() && dst >= 0 &&
            dst < ctx_.graph->num_vertices()) {
          if (kind == EdbKind::kEdge) {
            exists = ctx_.graph->HasEdge(src, dst);
          } else {
            auto nbrs = ctx_.graph->OutNeighbors(src);
            auto weights = ctx_.graph->OutWeights(src);
            for (size_t i = 0; i < nbrs.size(); ++i) {
              if (nbrs[i] == dst && Value(weights[i]) == t[2]) {
                exists = true;
                break;
              }
            }
          }
        }
      }
    } else {
      const Relation* rel = ctx_.db->RelIfExists(lit.pred);
      exists = rel != nullptr && rel->Contains(t);
    }
    return exists ? Status::OK() : Step(k + 1);
  }

  Status Derive() {
    if (rule_.has_aggregate && persistent_agg_ != nullptr) {
      // Incremental path: no valuation dedup needed (each driver row is a
      // distinct tuple of the single body atom).
      Tuple group_key;
      for (const CHeadTerm& h : rule_.head) {
        if (h.is_aggregate) continue;
        auto v = EvalTerm(rule_, h.term, env_);
        if (!v) return Status::OK();
        group_key.push_back(std::move(*v));
      }
      auto& cells = persistent_agg_->groups[group_key];
      size_t cell = 0;
      for (const CHeadTerm& h : rule_.head) {
        if (!h.is_aggregate) continue;
        if (cells.size() <= cell) cells.emplace_back();
        PersistentAggCell& c = cells[cell++];
        auto v = EvalTerm(rule_, h.aggregate_arg, env_);
        if (!v) return Status::OK();
        if (h.aggregate == AggregateFn::kCount) {
          c.distinct.insert(*v);
        } else {
          auto d = v->ToDouble();
          if (!d.ok()) return Status::OK();
          c.sum += *d;
          c.min = std::min(c.min, *d);
          c.max = std::max(c.max, *d);
          ++c.n;
        }
      }
      return Status::OK();
    }
    if (rule_.has_aggregate) {
      // Record this valuation once (set semantics over full valuations).
      Tuple signature;
      signature.reserve(env_.vals.size());
      for (size_t i = 0; i < env_.vals.size(); ++i) {
        signature.push_back(env_.bound[i] ? env_.vals[i] : Value());
      }
      if (!seen_valuations_.insert(signature).second) return Status::OK();

      Tuple group_key;
      for (const CHeadTerm& h : rule_.head) {
        if (h.is_aggregate) continue;
        auto v = EvalTerm(rule_, h.term, env_);
        if (!v) return Status::OK();
        group_key.push_back(std::move(*v));
      }
      GroupAccum& accum = groups_[group_key];
      size_t cell = 0;
      for (const CHeadTerm& h : rule_.head) {
        if (!h.is_aggregate) continue;
        if (accum.cells.size() <= cell) accum.cells.emplace_back();
        AggCell& c = accum.cells[cell++];
        auto v = EvalTerm(rule_, h.aggregate_arg, env_);
        if (!v) return Status::OK();
        if (h.aggregate == AggregateFn::kCount) {
          c.distinct.insert(*v);
        } else {
          auto d = v->ToDouble();
          if (!d.ok()) return Status::OK();
          c.sum += *d;
          c.min = std::min(c.min, *d);
          c.max = std::max(c.max, *d);
          ++c.n;
        }
      }
      return Status::OK();
    }

    head_.clear();
    for (const CHeadTerm& h : rule_.head) {
      auto v = EvalTerm(rule_, h.term, env_);
      if (!v) return Status::OK();
      head_.push_back(std::move(*v));
    }
    if (ctx_.db->Rel(rule_.head_pred).Insert(head_)) {
      derived_ = true;
      ++stats_.derived;
    }
    return Status::OK();
  }

  /// In per-vertex mode, a group whose key only depends on the location
  /// must exist even when the body matched nothing: COUNT/SUM over an
  /// empty partition is 0 (this is what makes the paper's Query 4 see
  /// in-degree(x, 0) for orphan vertices).
  void SeedDefaultGroup() {
    if (!ctx_.local_vertex.has_value()) return;
    Tuple group_key;
    for (const CHeadTerm& h : rule_.head) {
      if (h.is_aggregate) continue;
      if (!TermEvaluable(rule_, h.term, env_)) return;  // needs body vars
      auto v = EvalTerm(rule_, h.term, env_);
      if (!v) return;
      group_key.push_back(std::move(*v));
    }
    GroupAccum& accum = groups_[group_key];  // default-constructs if absent
    size_t n_aggs = 0;
    for (const CHeadTerm& h : rule_.head) {
      if (h.is_aggregate) ++n_aggs;
    }
    while (accum.cells.size() < n_aggs) accum.cells.emplace_back();
  }

  void SeedDefaultPersistentGroup() {
    if (!ctx_.local_vertex.has_value()) return;
    Tuple group_key;
    for (const CHeadTerm& h : rule_.head) {
      if (h.is_aggregate) continue;
      if (!TermEvaluable(rule_, h.term, env_)) return;
      auto v = EvalTerm(rule_, h.term, env_);
      if (!v) return;
      group_key.push_back(std::move(*v));
    }
    auto& cells = persistent_agg_->groups[group_key];
    size_t n_aggs = 0;
    for (const CHeadTerm& h : rule_.head) {
      if (h.is_aggregate) ++n_aggs;
    }
    while (cells.size() < n_aggs) cells.emplace_back();
  }

  Result<bool> FlushPersistentAggregates() {
    std::vector<Tuple> tuples;
    tuples.reserve(persistent_agg_->groups.size());
    for (const auto& [group_key, cells] : persistent_agg_->groups) {
      bool skip = false;
      size_t probe_cell = 0;
      for (const CHeadTerm& h : rule_.head) {
        if (!h.is_aggregate) continue;
        const PersistentAggCell& c = cells[probe_cell++];
        if ((h.aggregate == AggregateFn::kMin ||
             h.aggregate == AggregateFn::kMax) &&
            c.n == 0) {
          skip = true;
        }
      }
      if (skip) continue;
      Tuple t;
      t.reserve(rule_.head.size());
      size_t group_col = 0, cell = 0;
      for (const CHeadTerm& h : rule_.head) {
        if (!h.is_aggregate) {
          t.push_back(group_key[group_col++]);
          continue;
        }
        const PersistentAggCell& c = cells[cell++];
        switch (h.aggregate) {
          case AggregateFn::kCount:
            t.emplace_back(static_cast<int64_t>(c.distinct.size()));
            break;
          case AggregateFn::kSum:
            t.emplace_back(c.sum);
            break;
          case AggregateFn::kMin:
            t.emplace_back(c.min);
            break;
          case AggregateFn::kMax:
            t.emplace_back(c.max);
            break;
          case AggregateFn::kAvg:
            t.emplace_back(c.n == 0 ? 0.0
                                    : c.sum / static_cast<double>(c.n));
            break;
        }
      }
      tuples.push_back(std::move(t));
    }
    return ctx_.db->Rel(rule_.head_pred).ReplaceAll(std::move(tuples));
  }

  Result<bool> FlushAggregates() {
    std::vector<Tuple> tuples;
    tuples.reserve(groups_.size());
    for (const auto& [group_key, accum] : groups_) {
      // Empty MIN/MAX groups have no defined value; skip the group.
      bool skip = false;
      size_t probe_cell = 0;
      for (const CHeadTerm& h : rule_.head) {
        if (!h.is_aggregate) continue;
        const AggCell& c = accum.cells[probe_cell++];
        if ((h.aggregate == AggregateFn::kMin ||
             h.aggregate == AggregateFn::kMax) &&
            c.n == 0) {
          skip = true;
        }
      }
      if (skip) continue;
      Tuple t;
      t.reserve(rule_.head.size());
      size_t group_col = 0, cell = 0;
      for (const CHeadTerm& h : rule_.head) {
        if (!h.is_aggregate) {
          t.push_back(group_key[group_col++]);
          continue;
        }
        const AggCell& c = accum.cells[cell++];
        switch (h.aggregate) {
          case AggregateFn::kCount:
            t.emplace_back(static_cast<int64_t>(c.distinct.size()));
            break;
          case AggregateFn::kSum:
            t.emplace_back(c.sum);
            break;
          case AggregateFn::kMin:
            t.emplace_back(c.min);
            break;
          case AggregateFn::kMax:
            t.emplace_back(c.max);
            break;
          case AggregateFn::kAvg:
            t.emplace_back(c.n == 0 ? 0.0 : c.sum / static_cast<double>(c.n));
            break;
        }
      }
      tuples.push_back(std::move(t));
    }
    return ctx_.db->Rel(rule_.head_pred).ReplaceAll(std::move(tuples));
  }

  const CompiledRule& rule_;
  EvalContext& ctx_;
  RuleEvalStats& stats_;
  // Borrowed from the thread's RuleFrame.
  Env& env_;
  Tuple& head_;
  std::vector<Tuple>& rows_;
  std::vector<size_t>& order_;
  std::vector<uint8_t>& existential_;
  bool derived_ = false;
  int delta_literal_ = -1;
  size_t delta_from_ = 0;
  PersistentAggState* persistent_agg_ = nullptr;
  std::unordered_set<Tuple, TupleHash> seen_valuations_;
  std::map<Tuple, GroupAccum> groups_;
};

/// True when an aggregate rule can use persistent incremental state: one
/// positive dynamic body atom, no negation (non-monotone inputs), and no
/// recursion through the head.
bool AggregateIsIncremental(const CompiledRule& rule, EvalContext& ctx,
                            int* driver) {
  int positive = -1;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const CLiteral& lit = rule.body[i];
    if (lit.kind != CLiteral::Kind::kAtom) continue;
    if (lit.negated) return false;
    if (lit.pred == rule.head_pred) return false;
    if (IsStaticEdb(ctx.db->query().pred(lit.pred).edb) &&
        ctx.graph != nullptr) {
      continue;  // static atoms never grow; a full pass handles them
    }
    if (positive >= 0) return false;
    positive = static_cast<int>(i);
  }
  if (positive < 0) return false;
  *driver = positive;
  return true;
}

/// Evaluates one rule semi-naively: one walk per positive non-static body
/// atom, restricted to that atom's delta rows (tuples inserted since the
/// previous evaluation). Aggregate rules and rules with no dynamic atoms
/// run one full walk.
Result<bool> EvalRuleSemiNaiveImpl(
    const CompiledRule& rule, EvalContext& ctx,
    std::vector<AtomWatermark>& atom_watermarks,
    std::unique_ptr<PersistentAggState>* agg_state, RuleEvalStats& stats) {
  if (atom_watermarks.size() != rule.body.size()) {
    atom_watermarks.assign(rule.body.size(), AtomWatermark{});
  }
  RuleFrame& frame = ThreadFrame();
  // Incremental aggregates: fold only the driver atom's delta into
  // persistent group state (bounded per-superstep work for the paper's
  // degree / sum-error aggregates).
  int agg_driver = -1;
  if (rule.has_aggregate && agg_state != nullptr &&
      AggregateIsIncremental(rule, ctx, &agg_driver)) {
    const CLiteral& lit = rule.body[static_cast<size_t>(agg_driver)];
    const Relation* rel = ctx.db->RelIfExists(lit.pred);
    const size_t size = rel == nullptr ? 0 : rel->size();
    const uint64_t epoch = rel == nullptr ? 0 : rel->epoch();
    AtomWatermark& wm = atom_watermarks[static_cast<size_t>(agg_driver)];
    size_t from = wm.epoch == epoch ? wm.rows : 0;
    if (from > 0 && wm.epoch != epoch) from = 0;
    if (wm.epoch != epoch && *agg_state != nullptr) {
      // Input rows were rearranged/removed: rebuild state from scratch.
      (*agg_state)->groups.clear();
      from = 0;
      if (wm.rows > 0) ++stats.delta_rescans;
    }
    if (*agg_state == nullptr) *agg_state = std::make_unique<PersistentAggState>();
    RuleRun run(rule, ctx, stats, frame, agg_driver, from,
                agg_state->get());
    ++stats.evaluations;
    auto result = run.RunIncrementalAggregate();
    wm.epoch = epoch;
    wm.rows = size;
    return result;
  }
  std::vector<int>& drivers = frame.drivers;
  drivers.clear();
  if (!rule.has_aggregate) {
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const CLiteral& lit = rule.body[i];
      if (lit.kind != CLiteral::Kind::kAtom || lit.negated) continue;
      if (IsStaticEdb(ctx.db->query().pred(lit.pred).edb) &&
          ctx.graph != nullptr) {
        continue;  // static relations never grow
      }
      drivers.push_back(static_cast<int>(i));
    }
  }
  bool derived = false;
  if (drivers.empty()) {
    RuleRun run(rule, ctx, stats, frame, /*delta_literal=*/-1, 0);
    ++stats.evaluations;
    ARIADNE_ASSIGN_OR_RETURN(bool d, run.Run());
    derived = d;
  } else {
    // Snapshot sizes first: rows inserted *during* this evaluation get
    // covered by the next fixpoint round. Epoch changes (retention,
    // aggregate replacement) invalidate row indices: rescan from zero.
    std::vector<size_t>& current = frame.sizes;
    std::vector<uint64_t>& epochs = frame.epochs;
    current.assign(drivers.size(), 0);
    epochs.assign(drivers.size(), 0);
    for (size_t j = 0; j < drivers.size(); ++j) {
      const Relation* rel = ctx.db->RelIfExists(
          rule.body[static_cast<size_t>(drivers[j])].pred);
      current[j] = rel == nullptr ? 0 : rel->size();
      epochs[j] = rel == nullptr ? 0 : rel->epoch();
    }
    for (size_t j = 0; j < drivers.size(); ++j) {
      AtomWatermark& wm = atom_watermarks[static_cast<size_t>(drivers[j])];
      const size_t from = wm.epoch == epochs[j] ? wm.rows : 0;
      if (wm.epoch != epochs[j] && wm.rows > 0) ++stats.delta_rescans;
      if (from >= current[j]) continue;  // no new rows for this driver
      RuleRun run(rule, ctx, stats, frame, drivers[j], from);
      ++stats.evaluations;
      ARIADNE_ASSIGN_OR_RETURN(bool d, run.Run());
      derived = derived || d;
    }
    for (size_t j = 0; j < drivers.size(); ++j) {
      AtomWatermark& wm = atom_watermarks[static_cast<size_t>(drivers[j])];
      wm.epoch = epochs[j];
      wm.rows = current[j];
    }
  }
  return derived;
}

Result<bool> EvalRuleSemiNaive(const CompiledRule& rule, EvalContext& ctx,
                               std::vector<AtomWatermark>& atom_watermarks,
                               std::unique_ptr<PersistentAggState>* agg_state,
                               RuleEvalStats& stats) {
  WallTimer timer;
  auto result =
      EvalRuleSemiNaiveImpl(rule, ctx, atom_watermarks, agg_state, stats);
  stats.seconds += timer.ElapsedSeconds();
  return result;
}

}  // namespace

Result<bool> RuleEvaluator::Evaluate(EvalContext& ctx) const {
  const auto& rules = query_->rules();
  auto& watermarks = ctx.db->rule_watermarks();
  if (watermarks.size() != rules.size()) {
    watermarks.assign(rules.size(), std::numeric_limits<uint64_t>::max());
  }
  auto& atom_watermarks = ctx.db->atom_watermarks();
  if (atom_watermarks.size() != rules.size()) {
    atom_watermarks.resize(rules.size());
  }
  auto& agg_states = ctx.db->agg_states();
  if (agg_states.size() != rules.size()) {
    agg_states.resize(rules.size());
  }
  auto& eval_stats = ctx.db->eval_stats();
  if (eval_stats.rules.size() != rules.size()) {
    eval_stats.rules.resize(rules.size());
  }
  bool any_new = false;
  size_t start = 0;
  while (start < rules.size()) {
    if (rules[start].stratum > ctx.max_stratum) break;
    // Rules are sorted by stratum; find this stratum's extent.
    size_t end = start;
    while (end < rules.size() &&
           rules[end].stratum == rules[start].stratum) {
      ++end;
    }
    for (;;) {
      bool changed = false;
      for (size_t i = start; i < end; ++i) {
        const uint64_t version = ctx.db->VersionSum(rules[i].body_preds);
        if (watermarks[i] == version) continue;
        watermarks[i] = version;
        ARIADNE_ASSIGN_OR_RETURN(
            bool derived,
            EvalRuleSemiNaive(rules[i], ctx, atom_watermarks[i],
                              &agg_states[i], eval_stats.rules[i]));
        if (derived) {
          changed = true;
          any_new = true;
        }
      }
      if (!changed) break;
    }
    start = end;
  }
  return any_new;
}

void QueryResult::Merge(const AnalyzedQuery& query, const Database& db) {
  for (int pred : query.output_preds()) {
    const Relation* rel = db.RelIfExists(pred);
    if (rel == nullptr || rel->empty()) continue;
    const std::string& name = query.pred(pred).name;
    Relation* merged = nullptr;
    for (auto& [n, r] : tables_) {
      if (n == name) {
        merged = r.get();
        break;
      }
    }
    if (merged == nullptr) {
      tables_.emplace_back(name, std::make_unique<Relation>(rel->arity()));
      merged = tables_.back().second.get();
    }
    for (size_t i = 0; i < rel->size(); ++i) merged->Insert(rel->row_view(i));
  }
}

const Relation* QueryResult::Table(const std::string& name) const {
  for (const auto& [n, r] : tables_) {
    if (n == name) return r.get();
  }
  return nullptr;
}

std::vector<std::string> QueryResult::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [n, r] : tables_) names.push_back(n);
  std::sort(names.begin(), names.end());
  return names;
}

size_t QueryResult::TotalTuples() const {
  size_t n = 0;
  for (const auto& [name, r] : tables_) n += r->size();
  return n;
}

size_t QueryResult::TotalBytes() const {
  size_t n = 0;
  for (const auto& [name, r] : tables_) n += r->byte_size();
  return n;
}

size_t QueryResult::TupleCount(const std::string& name) const {
  const Relation* rel = Table(name);
  return rel == nullptr ? 0 : rel->size();
}

}  // namespace ariadne
