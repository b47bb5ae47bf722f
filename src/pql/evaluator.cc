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

FactView& Database::Facts(int pred) {
  const size_t n = static_cast<size_t>(query_->num_preds());
  if (facts_.size() < n) facts_.resize(n);
  auto& slot = facts_[static_cast<size_t>(pred)];
  if (slot == nullptr) {
    const PredicateInfo& info = query_->pred(pred);
    slot = std::make_unique<FactView>(EdbStepColumn(info.edb).value_or(-1),
                                      info.arity);
  }
  return *slot;
}

const FactView* Database::FactsIfExists(int pred) const {
  if (static_cast<size_t>(pred) >= facts_.size()) return nullptr;
  return facts_[static_cast<size_t>(pred)].get();
}

size_t Database::TotalBytes() const {
  size_t bytes = 0;
  for (const auto& rel : rels_) {
    if (rel != nullptr) bytes += rel->byte_size();
  }
  for (const auto& facts : facts_) {
    if (facts != nullptr) bytes += facts->byte_size();
  }
  return bytes;
}

size_t Database::TotalTuples() const {
  size_t n = 0;
  for (const auto& rel : rels_) {
    if (rel != nullptr) n += rel->size();
  }
  for (const auto& facts : facts_) {
    if (facts != nullptr) n += facts->num_rows();
  }
  return n;
}

uint64_t Database::VersionSum(const std::vector<int>& preds) const {
  uint64_t sum = 0;
  for (int p : preds) {
    if (const Relation* rel = RelIfExists(p)) sum += rel->version();
    if (const FactView* facts = FactsIfExists(p)) sum += facts->num_slices();
  }
  return sum;
}

void Database::Compact(
    const std::function<void(int, const std::vector<uint32_t>&)>& on_remap) {
  // Below this many dead rows a compaction costs more than it saves.
  constexpr size_t kMinDeadRows = 64;
  const auto& rules = query_->rules();
  for (size_t p = 0; p < rels_.size(); ++p) {
    Relation* rel = rels_[p].get();
    if (rel == nullptr || rel->dead_rows() < kMinDeadRows ||
        rel->dead_rows() <= rel->size()) {
      continue;
    }
    const std::vector<uint32_t> remap = rel->Compact();
    auto map_row = [&remap](size_t row) {
      return static_cast<size_t>(remap[std::min(row, remap.size() - 1)]);
    };
    for (size_t r = 0; r < rules.size() && r < atom_watermarks_.size(); ++r) {
      std::vector<AtomWatermark>& marks = atom_watermarks_[r];
      for (size_t l = 0; l < marks.size() && l < rules[r].body.size(); ++l) {
        if (rules[r].body[l].pred == static_cast<int>(p)) {
          marks[l].rows = map_row(marks[l].rows);
        }
      }
    }
    on_remap(static_cast<int>(p), remap);
  }
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

/// One column of the key a positive atom probes its relation on. A
/// direct column's value is its argument term, known at the atom. A pinned
/// column holds a variable `v` the atom binds, which a later equality
/// pins: `E = v`, `E = v + c` or `E = v - c` (either side), with E and c
/// known at the atom. Its key value is E, E - c or E + c; the equality
/// still filters afterwards, so the key only narrows the bucket.
struct KeyColumn {
  int col = 0;
  int term = -1;          ///< direct: the argument; pinned: E
  bool pinned = false;
  int offset = -1;        ///< pinned: the term c, or -1 for `E = v`
  bool subtract = false;  ///< pinned `E = v + c`: the key is E - c
};

/// How a positive stored atom at one plan position probes: once, on the
/// columns `cols`. `fallback` (direct columns only) serves the probes
/// where a pinned value cannot stand for its comparison. No columns: the
/// holder's rows are scanned.
struct AtomKey {
  ColumnSet cols = 0;
  ColumnSet fallback = 0;
  std::vector<KeyColumn> columns;  ///< ascending column order
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
  /// Per plan position: the rows a probe of a FactView returned.
  std::vector<std::vector<FactRef>> fact_rows;
  /// Per plan position: a planned rule's probe key (RuleRun::PlanKeys).
  /// Then the variables bound on entry while planning, and the key being
  /// probed: a pointer per column, to the bound value or to the value
  /// computed for it.
  std::vector<AtomKey> keys;
  std::vector<uint8_t> plan_bound;
  std::vector<const Value*> key;
  std::vector<Value> key_values;
  // One rule evaluation (EvalRuleImpl): the rule's semi-naive drivers,
  // the holders it runs, the holders a delta walk rescans, and the driver
  // marks snapshotted before the walks.
  std::vector<int> drivers;
  std::vector<Holder> holders;
  std::vector<Holder> rescan;
  std::vector<AtomWatermark> marks;
  /// The predicates of a delta walk's other positive stored atoms.
  std::vector<int> others;
  /// The row a full-key probe looks up (RuleRun::FullRow).
  std::vector<const Value*> full_row;
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

bool TermEvaluable(const CompiledRule& rule, int idx,
                   const std::vector<uint8_t>& bound) {
  const CTerm& t = rule.term_pool[static_cast<size_t>(idx)];
  switch (t.kind) {
    case CTerm::Kind::kConst:
      return true;
    case CTerm::Kind::kVar:
      return bound[static_cast<size_t>(t.var)] != 0;
    case CTerm::Kind::kArith:
      return TermEvaluable(rule, t.lhs, bound) &&
             TermEvaluable(rule, t.rhs, bound);
  }
  return false;
}

bool TermEvaluable(const CompiledRule& rule, int idx, const Env& env) {
  return TermEvaluable(rule, idx, env.bound);
}

int PlainVarOf(const CompiledRule& rule, int idx) {
  const CTerm& t = rule.term_pool[static_cast<size_t>(idx)];
  return t.kind == CTerm::Kind::kVar ? t.var : -1;
}

// Uniform column access over the row representations MatchTuple sees:
// materialized Tuples (static edge enumeration, negated-atom grounding),
// borrowed Relation::RowView rows (stored relations) and CellRows of facts
// read in place (FactView) — the hot paths, which must not materialize
// per row.
inline bool RowColEquals(const Tuple& t, size_t i, const Value& v) {
  return t[i] == v;
}
inline bool RowColEquals(const Relation::RowView& t, size_t i,
                         const Value& v) {
  return t.Equals(i, v);
}
inline bool RowColEquals(const CellRow& t, size_t i, const Value& v) {
  return t.Equals(i, v);
}
inline Value RowColValue(const Tuple& t, size_t i) { return t[i]; }
inline Value RowColValue(const Relation::RowView& t, size_t i) {
  return t.value(i);
}
inline Value RowColValue(const CellRow& t, size_t i) { return t.value(i); }

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
/// tuples (or aggregate contributions), holder by holder.
///
/// Semi-naive support: when `delta_literal >= 0`, that body atom is
/// promoted to the front of the plan and WalkDelta ranges it over the rows
/// inserted since the previous evaluation of this rule (each under its own
/// holder), which bounds the per-superstep work of online evaluation by
/// the *new* facts instead of the whole retained history. RunHolder walks
/// one holder's whole state instead (rules without a delta driver and
/// non-incremental aggregates).
class RuleRun {
 public:
  RuleRun(const CompiledRule& rule, EvalContext& ctx,
          RuleEvalStats& stats, RuleFrame& frame, int delta_literal,
          PersistentAggState* persistent_agg = nullptr)
      : rule_(rule),
        ctx_(ctx),
        stats_(stats),
        env_(frame.env),
        head_(frame.head),
        rows_(frame.rows),
        order_(frame.order),
        existential_(frame.existential),
        keys_(frame.keys),
        key_(frame.key),
        key_values_(frame.key_values),
        fact_rows_(frame.fact_rows),
        others_(frame.others),
        full_row_(frame.full_row),
        delta_literal_(delta_literal),
        persistent_agg_(persistent_agg) {
    env_.Reset(rule.vars.size());
    // Semi-naive: walk the delta atom FIRST so per-round work scales with
    // the new tuples, not the accumulated relation. Promoting a positive
    // atom can only add bindings earlier, so the plan stays safe; the
    // runtime handles flipped binding directions of `=` comparisons.
    order_.assign(rule.eval_order.begin(), rule.eval_order.end());
    existential_.assign(rule.existential.begin(), rule.existential.end());
    if (rows_.size() < order_.size()) rows_.resize(order_.size());
    if (fact_rows_.size() < order_.size()) fact_rows_.resize(order_.size());
    others_.clear();
    if (delta_literal_ >= 0) {
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const CLiteral& lit = rule.body[i];
        if (static_cast<int>(i) == delta_literal_ ||
            lit.kind != CLiteral::Kind::kAtom || lit.negated ||
            (IsStaticEdb(ctx.db->query().pred(lit.pred).edb) &&
             ctx.graph != nullptr)) {
          continue;
        }
        others_.push_back(lit.pred);
      }
      for (size_t k = 0; k < order_.size(); ++k) {
        if (static_cast<int>(order_[k]) == delta_literal_) {
          const size_t body_idx = order_[k];
          order_.erase(order_.begin() + static_cast<ptrdiff_t>(k));
          if (k < existential_.size()) {
            existential_.erase(existential_.begin() +
                               static_cast<ptrdiff_t>(k));
          }
          order_.insert(order_.begin(), body_idx);
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
    if (rule_.planned) PlanKeys(frame.plan_bound);
  }

  bool derived() const { return derived_; }

  /// Makes the positive atoms before the delta atom in body order read
  /// only the facts read in place below their watermarks in `marks`
  /// (their slices before this evaluation). A valuation with a newer slice
  /// there is the business of that atom's own delta walk, which runs
  /// first; a head row it misses for want of a row derived since comes
  /// from that row's delta walk in the next fixpoint round.
  void ReadOldFactsBefore(std::span<const AtomWatermark> marks) {
    old_marks_ = marks;
  }

  /// Walks `holder`'s whole state once. An aggregate rule then replaces
  /// the holder's head rows with the walk's groups.
  Result<bool> RunHolder(Holder holder) {
    derived_ = false;
    groups_.clear();
    seen_valuations_.clear();
    BeginHolder(holder);
    Status s = Step(0);
    Result<bool> out = derived_;
    if (s.ok() && rule_.has_aggregate) {
      SeedDefaultGroup();
      out = FlushAggregates();
    }
    EndHolder();
    ARIADNE_RETURN_NOT_OK(s);
    return out;
  }

  /// Ranges the promoted delta atom over the live rows [from, end) of
  /// `rel`, each under its own holder, except the holders in `rescan`
  /// (sorted), which had rows removed and walk every live row below `end`
  /// instead. `end` snapshots the relation: rows derived during the walk
  /// are left to the next fixpoint round. Rows of holders no valuation
  /// can reach (Reachable) are skipped.
  Status WalkDelta(const Relation& rel, size_t from, size_t end,
                   std::span<const Holder> rescan) {
    const CLiteral& lit = rule_.body[order_[0]];
    // Rows of one holder mostly sit together: rebind only on a change.
    bool scoped = false;
    bool skip = false;
    Status s;
    for (size_t i = from; i < end && s.ok(); ++i) {
      if (!rel.alive(i)) continue;
      const Holder holder = rel.holder_of(i);
      if (!rescan.empty() &&
          std::binary_search(rescan.begin(), rescan.end(), holder)) {
        continue;
      }
      if (!scoped || holder != holder_) {
        if (scoped) EndHolder();
        BeginHolder(holder);
        scoped = true;
        skip = !Reachable(holder);
      }
      if (skip) continue;
      ++stats_.rows_scanned;
      s = MatchTuple(lit, rel.row_view(i), 0);
    }
    if (scoped) EndHolder();
    ARIADNE_RETURN_NOT_OK(s);
    for (Holder holder : rescan) {
      if (!Reachable(holder)) continue;
      BeginHolder(holder);
      for (uint32_t i : rel.HolderRows(holder)) {
        if (i >= end) break;
        if (!rel.alive(i)) continue;
        ++stats_.rows_scanned;
        s = MatchTuple(lit, rel.row_view(i), 0);
        if (!s.ok()) break;
      }
      EndHolder();
      ARIADNE_RETURN_NOT_OK(s);
    }
    return Status::OK();
  }

  /// The same over the slices [from, end) of `facts`, which never lose
  /// rows.
  Status WalkDelta(const FactView& facts, size_t from, size_t end) {
    const CLiteral& lit = rule_.body[order_[0]];
    for (size_t id = from; id < end; ++id) {
      const FactView::Slice& slice = facts.slice(id);
      if (!Reachable(slice.holder)) continue;
      BeginHolder(slice.holder);
      stats_.rows_scanned += slice.rows;
      Status s;
      for (uint32_t r = 0; r < slice.rows && s.ok(); ++r) {
        s = MatchTuple(lit, facts.Row(slice, r), 0);
      }
      EndHolder();
      ARIADNE_RETURN_NOT_OK(s);
    }
    return Status::OK();
  }

  /// Incremental aggregate: after WalkDelta folded the new valuations into
  /// the persistent group state, rebuilds `holder`'s head rows from it.
  Result<bool> FlushPersistent(Holder holder) {
    BeginHolder(holder);
    SeedDefaultPersistentGroup();
    Result<bool> out = FlushPersistentAggregates();
    EndHolder();
    return out;
  }

 private:
  void Bind(int var, Value v) {
    env_.vals[static_cast<size_t>(var)] = std::move(v);
    env_.bound[static_cast<size_t>(var)] = 1;
  }
  void Unbind(int var) { env_.bound[static_cast<size_t>(var)] = 0; }

  /// Scopes the walk to `holder`; in holder-scoped mode also binds the
  /// head location to the holder's vertex (distributed semantics).
  void BeginHolder(Holder holder) {
    holder_ = holder;
    if (ctx_.holder_base.has_value()) {
      holder_vertex_ = *ctx_.holder_base + static_cast<VertexId>(holder);
      Bind(rule_.head_loc_var, Value(static_cast<int64_t>(holder_vertex_)));
    }
  }
  void EndHolder() {
    if (ctx_.holder_base.has_value()) Unbind(rule_.head_loc_var);
  }

  /// Whether a delta walk's row at `holder` can take part in a valuation:
  /// every other positive stored atom of the rule has a row there. A walk
  /// only adds head rows at the holder it walks, so when one of those
  /// atoms has none at a holder's first row, no row of that holder joins
  /// in this walk; the skipped rows still meet that atom's later rows
  /// through the atom's own delta walk.
  bool Reachable(Holder holder) const {
    for (int pred : others_) {
      if (const Relation* rel = ctx_.db->RelIfExists(pred)) {
        if (rel->holder_size(holder) == 0) return false;
      } else if (const FactView* facts = ctx_.db->FactsIfExists(pred)) {
        if (!facts->Holds(holder)) return false;
      } else {
        return false;
      }
    }
    return true;
  }

  /// The holder's group map of the persistent aggregate state.
  std::map<Tuple, std::vector<PersistentAggCell>>& PersistentGroups() {
    if (persistent_agg_->groups.size() <= holder_) {
      persistent_agg_->groups.resize(size_t{holder_} + 1);
    }
    return persistent_agg_->groups[holder_];
  }

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
        return StepAtom(lit, k);
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
      std::optional<Value> l_owned, r_owned;
      const Value* l = TermValue(lit.cmp_lhs, l_owned);
      const Value* r = TermValue(lit.cmp_rhs, r_owned);
      if (l == nullptr || r == nullptr) {
        return Status::OK();  // failed arithmetic: no match
      }
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
    if (ctx_.holder_base.has_value()) {
      // Incident edges of the evaluating node (both directions).
      ARIADNE_RETURN_NOT_OK(emit_out_edges(holder_vertex_));
      return emit_in_edges(holder_vertex_);
    }
    // Global mode, nothing bound: full edge scan.
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ARIADNE_RETURN_NOT_OK(emit_out_edges(v));
    }
    return Status::OK();
  }

  Status StepAtom(const CLiteral& lit, size_t k) {
    const EdbKind kind = ctx_.db->query().pred(lit.pred).edb;
    if (IsStaticEdb(kind) && ctx_.graph != nullptr) {
      return StepStaticAtom(lit, k);
    }
    Relation* rel = ctx_.db->MutableRelIfExists(lit.pred);
    FactView* facts =
        rel == nullptr ? ctx_.db->MutableFactsIfExists(lit.pred) : nullptr;
    if (rel != nullptr ? rel->holder_size(holder_) == 0
                       : facts == nullptr || !facts->Holds(holder_)) {
      return Status::OK();
    }

    // The probed columns and key_: every column known here (PlanKeys), or
    // the first evaluable one. No columns: the holder's rows are scanned.
    ColumnSet cols = 0;
    bool full = false;
    if (rule_.planned) {
      const AtomKey& key = keys_[k];
      const ColumnSet ints = facts != nullptr
                                 ? ColumnSetOf(facts->step_column())
                                 : rel->int_columns();
      cols = key.cols;
      KeyFill fill = FillKey(key, cols, ints);
      if (fill == KeyFill::kUnusable) {
        cols = key.fallback;
        fill = FillKey(key, cols, ints);
      }
      if (fill == KeyFill::kNoMatch) return Status::OK();
      full = cols != 0 && lit.args.size() <= kMaxKeyColumns &&
             (cols | LocationColumn(lit)) ==
                 AllColumns(static_cast<int>(lit.args.size()));
    } else {
      // Legacy probe choice: first evaluable column wins. In holder-scoped
      // mode column 0 is the location and usually matches every row of the
      // holder, so a later bound column is more selective; fall back to
      // column 0 only when nothing else is bound.
      const size_t first_col = ctx_.holder_base.has_value() ? 1 : 0;
      auto try_col = [&](size_t i) {
        key_.clear();
        if (const Value* v = FastTerm(rule_, lit.args[i], env_)) {
          key_.push_back(v);
        } else if (TermEvaluable(rule_, lit.args[i], env_)) {
          if (key_values_.empty()) key_values_.resize(1);
          std::optional<Value> v = EvalTerm(rule_, lit.args[i], env_);
          if (!v) return;
          key_values_[0] = std::move(*v);
          key_.push_back(&key_values_[0]);
        } else {
          return;
        }
        cols = ColumnSetOf(static_cast<int>(i));
      };
      for (size_t i = first_col; i < lit.args.size() && cols == 0; ++i) {
        try_col(i);
      }
      if (cols == 0 && first_col == 1) try_col(0);
    }
    if (facts != nullptr) return StepFacts(lit, k, *facts, cols);

    // Candidate rows: the holder's bucket of the bound key (keyed by
    // holder and the key's values), else all of the holder's rows.
    Relation::Bucket rows;
    if (cols == 0) {
      rows = rel->HolderRows(holder_);
      stats_.rows_scanned += rows.size();
    } else {
      ++stats_.index_probes;
      if (full) {
        rows = rel->Find(holder_, FullRow(lit, cols));
      } else {
        if (!rel->HasIndex(cols)) ++stats_.index_builds;
        rows = rel->Probe(holder_, cols, key_);
      }
      stats_.probe_rows += rows.size();
    }
    // The bucket walks only the rows it held when returned, so a recursive
    // rule may insert into this very relation mid-walk; those rows are
    // picked up by the enclosing fixpoint round.
    const bool existential = Existential(k);
    bool unified = false;
    for (uint32_t idx : rows) {
      if (!rel->alive(idx)) continue;
      ARIADNE_RETURN_NOT_OK(MatchTuple(lit, rel->row_view(idx), k, &unified));
      if (existential && unified) break;
    }
    return Status::OK();
  }

  /// StepAtom over facts read in place: the rows of the probed key (one
  /// layer's slice when the key holds the step column), or every row of
  /// the holder.
  Status StepFacts(const CLiteral& lit, size_t k, FactView& facts,
                   ColumnSet cols) {
    const bool existential = Existential(k);
    bool unified = false;
    const size_t body_idx = order_[k];
    const size_t below = static_cast<int>(body_idx) < delta_literal_ &&
                                 body_idx < old_marks_.size()
                             ? old_marks_[body_idx].rows
                             : facts.num_slices();
    if (cols == 0) {
      for (uint32_t id : facts.HolderSlices(holder_)) {
        if (id >= below) break;
        const FactView::Slice& slice = facts.slice(id);
        stats_.rows_scanned += slice.rows;
        for (uint32_t r = 0; r < slice.rows; ++r) {
          ARIADNE_RETURN_NOT_OK(
              MatchTuple(lit, facts.Row(slice, r), k, &unified));
          if (existential && unified) return Status::OK();
        }
      }
      return Status::OK();
    }
    std::vector<FactRef>& rows = fact_rows_[k];
    ++stats_.index_probes;
    if (facts.Probe(holder_, cols, key_, below, &rows)) ++stats_.index_builds;
    stats_.probe_rows += rows.size();
    for (const FactRef& ref : rows) {
      ARIADNE_RETURN_NOT_OK(MatchTuple(lit, facts.Row(ref), k, &unified));
      if (existential && unified) break;
    }
    return Status::OK();
  }

  /// Column 0 when it holds the head location in holder-scoped mode: it is
  /// then bound to the holder's own vertex.
  ColumnSet LocationColumn(const CLiteral& lit) const {
    return ctx_.holder_base.has_value() && !lit.args.empty() &&
                   PlainVarOf(rule_, lit.args[0]) == rule_.head_loc_var
               ? ColumnSetOf(0)
               : 0;
  }

  /// The probed row of a full key: key_'s values for `cols`, and the
  /// holder's vertex in the location column outside them.
  std::span<const Value* const> FullRow(const CLiteral& lit, ColumnSet cols) {
    const size_t n = lit.args.size();
    full_row_.resize(n);
    size_t j = 0;
    for (size_t c = 0; c < n; ++c) {
      full_row_[c] = (cols & ColumnSetOf(static_cast<int>(c))) != 0
                         ? key_[j++]
                         : &env_.vals[static_cast<size_t>(rule_.head_loc_var)];
    }
    return full_row_;
  }

  /// The value of evaluable term `idx`: borrowed for constants and bound
  /// variables, else computed into `owned`; nullptr when arithmetic fails.
  const Value* TermValue(int idx, std::optional<Value>& owned) const {
    if (const Value* v = FastTerm(rule_, idx, env_)) return v;
    owned = EvalTerm(rule_, idx, env_);
    return owned ? &*owned : nullptr;
  }

  /// Plans the probe key of every positive stored atom in this run's
  /// order (the semi-naive driver first). The variables bound on entry to
  /// a plan position follow from the literals before it, exactly as the
  /// walk binds them, so keys are planned once per run, not per row.
  void PlanKeys(std::vector<uint8_t>& bound) {
    bound.assign(rule_.vars.size(), 0);
    if (ctx_.holder_base.has_value()) {
      bound[static_cast<size_t>(rule_.head_loc_var)] = 1;
    }
    if (keys_.size() < order_.size()) keys_.resize(order_.size());
    auto bind = [&](int term) {
      const int var = PlainVarOf(rule_, term);
      if (var >= 0) bound[static_cast<size_t>(var)] = 1;
    };
    for (size_t k = 0; k < order_.size(); ++k) {
      const CLiteral& lit = rule_.body[order_[k]];
      switch (lit.kind) {
        case CLiteral::Kind::kAtom:
          if (lit.negated) break;
          PlanAtomKey(lit, k, bound, keys_[k]);
          for (int arg : lit.args) bind(arg);
          break;
        case CLiteral::Kind::kComparison: {
          const bool lhs_ok = TermEvaluable(rule_, lit.cmp_lhs, bound);
          const bool rhs_ok = TermEvaluable(rule_, lit.cmp_rhs, bound);
          if (!lhs_ok || !rhs_ok) bind(lhs_ok ? lit.cmp_rhs : lit.cmp_lhs);
          break;
        }
        case CLiteral::Kind::kUdf:
          if (lit.udf->kind == UdfKind::kFunction &&
              !TermEvaluable(rule_, lit.udf_args.back(), bound)) {
            bind(lit.udf_args.back());
          }
          break;
      }
    }
  }

  /// The key of the atom at plan position `k`, given the variables bound
  /// on entry there.
  void PlanAtomKey(const CLiteral& lit, size_t k,
                   const std::vector<uint8_t>& bound, AtomKey& key) const {
    key.cols = 0;
    key.fallback = 0;
    key.columns.clear();
    if (IsStaticEdb(ctx_.db->query().pred(lit.pred).edb) &&
        ctx_.graph != nullptr) {
      return;  // StepStaticAtom reads the graph
    }
    const size_t n = std::min(lit.args.size(), size_t{kMaxKeyColumns});
    for (size_t i = 0; i < n; ++i) {
      KeyColumn column;
      column.col = static_cast<int>(i);
      column.term = lit.args[i];
      if (TermEvaluable(rule_, column.term, bound)) {
        key.fallback |= ColumnSetOf(column.col);
      } else if (!PinnedLater(PlainVarOf(rule_, column.term), k, bound,
                              column)) {
        continue;
      }
      key.cols |= ColumnSetOf(column.col);
      key.columns.push_back(column);
    }
    // A location bound to the holder's own vertex selects nearly every
    // row of the holder: it joins the key only when nothing else does.
    constexpr ColumnSet kLocation = 1;
    if (ctx_.holder_base.has_value() && !lit.args.empty() &&
        PlainVarOf(rule_, lit.args[0]) == rule_.head_loc_var) {
      if ((key.cols & ~kLocation) != 0) key.cols &= ~kLocation;
      if ((key.fallback & ~kLocation) != 0) key.fallback &= ~kLocation;
    }
  }

  /// Whether an equality after plan position `k` pins variable `var`
  /// (unbound there) to a value known at `k`; fills `column` if so.
  bool PinnedLater(int var, size_t k, const std::vector<uint8_t>& bound,
                   KeyColumn& column) const {
    if (var < 0) return false;
    // `side` is var, var + c, c + var or var - c, with c known at `k`.
    auto pins = [&](int side) {
      const CTerm& t = rule_.term_pool[static_cast<size_t>(side)];
      if (t.kind == CTerm::Kind::kVar) {
        column.offset = -1;
        return t.var == var;
      }
      if (t.kind != CTerm::Kind::kArith || (t.op != '+' && t.op != '-')) {
        return false;
      }
      column.subtract = t.op == '+';
      if (PlainVarOf(rule_, t.lhs) == var &&
          TermEvaluable(rule_, t.rhs, bound)) {
        column.offset = t.rhs;
        return true;
      }
      if (t.op == '+' && PlainVarOf(rule_, t.rhs) == var &&
          TermEvaluable(rule_, t.lhs, bound)) {
        column.offset = t.lhs;
        return true;
      }
      return false;
    };
    for (size_t j = k + 1; j < order_.size(); ++j) {
      const CLiteral& lit = rule_.body[order_[j]];
      if (lit.kind != CLiteral::Kind::kComparison ||
          lit.cmp_op != ComparisonOp::kEq) {
        continue;
      }
      for (const auto& [side, other] : {std::pair(lit.cmp_lhs, lit.cmp_rhs),
                                       std::pair(lit.cmp_rhs, lit.cmp_lhs)}) {
        if (TermEvaluable(rule_, other, bound) && pins(side)) {
          column.term = other;
          column.pinned = true;
          return true;
        }
      }
    }
    return false;
  }

  enum class KeyFill {
    kOk,
    kNoMatch,   ///< a direct column's arithmetic failed: no row unifies
    kUnusable,  ///< a pinned value cannot stand for its comparison
  };

  /// Points key_ at the values of `key`'s columns in `cols`: bound values
  /// in place, computed ones in key_values_.
  ///
  /// A pinned column keys on E - c, E + c or E only when E and c are ints,
  /// |E| < 2^53 and the relation has held only ints in that column (it is
  /// in `int_cols`). The equality
  /// compares numerically, through doubles, and under those conditions
  /// the integer key (wrapping, as integer arithmetic does) is the one
  /// value of the column it accepts.
  KeyFill FillKey(const AtomKey& key, ColumnSet cols, ColumnSet int_cols) {
    constexpr int64_t kExactDouble = int64_t{1} << 53;
    key_.clear();
    // Sized up front, as key_ keeps pointers into it: a pinned column may
    // compute E, c and its key.
    if (key_values_.size() < 3 * key.columns.size()) {
      key_values_.resize(3 * key.columns.size());
    }
    size_t computed = 0;
    // The value of evaluable term `idx`, or nullptr when arithmetic fails.
    auto value_of = [&](int idx) -> const Value* {
      if (const Value* v = FastTerm(rule_, idx, env_)) return v;
      std::optional<Value> v = EvalTerm(rule_, idx, env_);
      if (!v) return nullptr;
      key_values_[computed] = std::move(*v);
      return &key_values_[computed++];
    };
    for (const KeyColumn& column : key.columns) {
      if ((cols & ColumnSetOf(column.col)) == 0) continue;
      const Value* v = value_of(column.term);
      if (!column.pinned) {
        if (v == nullptr) return KeyFill::kNoMatch;
        key_.push_back(v);
        continue;
      }
      if (v == nullptr || !v->is_int() ||
          (int_cols & ColumnSetOf(column.col)) == 0 ||
          v->AsInt() <= -kExactDouble || v->AsInt() >= kExactDouble) {
        return KeyFill::kUnusable;
      }
      uint64_t pinned = static_cast<uint64_t>(v->AsInt());
      if (column.offset >= 0) {
        const Value* c = value_of(column.offset);
        if (c == nullptr || !c->is_int()) return KeyFill::kUnusable;
        const uint64_t offset = static_cast<uint64_t>(c->AsInt());
        pinned = column.subtract ? pinned - offset : pinned + offset;
      }
      key_values_[computed] = Value(static_cast<int64_t>(pinned));
      key_.push_back(&key_values_[computed++]);
    }
    return KeyFill::kOk;
  }

  Status StepNegatedAtom(const CLiteral& lit, size_t k) {
    // All arguments are bound (plan guarantee); build the ground tuple.
    Tuple& t = rows_[k];
    t.clear();
    for (int arg : lit.args) {
      std::optional<Value> owned;
      const Value* v = TermValue(arg, owned);
      if (v == nullptr) return Status::OK();
      t.push_back(owned ? std::move(*owned) : *v);
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
    } else if (FactView* facts = ctx_.db->MutableFactsIfExists(lit.pred)) {
      exists = facts->Contains(holder_, t);
    } else {
      const Relation* rel = ctx_.db->RelIfExists(lit.pred);
      exists = rel != nullptr && rel->Contains(holder_, t);
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
      auto& cells = PersistentGroups()[group_key];
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
      std::optional<Value> owned;
      const Value* v = TermValue(h.term, owned);
      if (v == nullptr) return Status::OK();
      head_.push_back(owned ? std::move(*owned) : *v);
    }
    if (ctx_.db->Rel(rule_.head_pred).Insert(holder_, head_)) {
      derived_ = true;
      ++stats_.derived;
    }
    return Status::OK();
  }

  /// In holder-scoped mode, a group whose key only depends on the
  /// location must exist even when the body matched nothing: COUNT/SUM
  /// over an empty partition is 0 (this is what makes the paper's Query 4
  /// see in-degree(x, 0) for orphan vertices).
  void SeedDefaultGroup() {
    if (!ctx_.holder_base.has_value()) return;
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
    if (!ctx_.holder_base.has_value()) return;
    Tuple group_key;
    for (const CHeadTerm& h : rule_.head) {
      if (h.is_aggregate) continue;
      if (!TermEvaluable(rule_, h.term, env_)) return;
      auto v = EvalTerm(rule_, h.term, env_);
      if (!v) return;
      group_key.push_back(std::move(*v));
    }
    auto& cells = PersistentGroups()[group_key];
    size_t n_aggs = 0;
    for (const CHeadTerm& h : rule_.head) {
      if (h.is_aggregate) ++n_aggs;
    }
    while (cells.size() < n_aggs) cells.emplace_back();
  }

  Result<bool> FlushPersistentAggregates() {
    const auto& groups = PersistentGroups();
    std::vector<Tuple> tuples;
    tuples.reserve(groups.size());
    for (const auto& [group_key, cells] : groups) {
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
    return ctx_.db->Rel(rule_.head_pred).ReplaceHolder(holder_,
                                                       std::move(tuples));
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
    return ctx_.db->Rel(rule_.head_pred).ReplaceHolder(holder_,
                                                       std::move(tuples));
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
  std::vector<AtomKey>& keys_;
  std::vector<const Value*>& key_;
  std::vector<Value>& key_values_;
  std::vector<std::vector<FactRef>>& fact_rows_;
  std::vector<int>& others_;
  std::vector<const Value*>& full_row_;
  std::span<const AtomWatermark> old_marks_;
  bool derived_ = false;
  int delta_literal_ = -1;
  PersistentAggState* persistent_agg_ = nullptr;
  Holder holder_ = 0;
  VertexId holder_vertex_ = 0;
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

/// Positive non-static body atoms: the semi-naive drivers of a rule.
/// Aggregate rules have none (they either fold one driver incrementally
/// or walk each holder whole).
void CollectDrivers(const CompiledRule& rule, const EvalContext& ctx,
                    std::vector<int>& drivers) {
  drivers.clear();
  if (rule.has_aggregate) return;
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

/// The holders a per-holder rule evaluates now: in holder-scoped mode the
/// context's holders whose input versions changed since the rule last ran
/// for them (advancing their watermarks); otherwise the single holder 0.
void HoldersToRun(const CompiledRule& rule, EvalContext& ctx,
                  std::vector<uint64_t>& watermarks,
                  std::vector<Holder>& out) {
  out.clear();
  if (!ctx.holder_base.has_value()) {
    out.push_back(0);
    return;
  }
  for (Holder holder : ctx.holders) {
    uint64_t version = 0;
    for (int pred : rule.body_preds) {
      if (const Relation* rel = ctx.db->RelIfExists(pred)) {
        version += rel->holder_version(holder);
      }
      if (const FactView* facts = ctx.db->FactsIfExists(pred)) {
        version += facts->holder_version(holder);
      }
    }
    if (watermarks.size() <= holder) {
      watermarks.resize(size_t{holder} + 1,
                        std::numeric_limits<uint64_t>::max());
    }
    if (watermarks[holder] == version) continue;
    watermarks[holder] = version;
    out.push_back(holder);
  }
}

/// Which holders that lost rows a delta walk rescans whole.
enum class Rescan {
  kEveryKilled,  ///< all of them (aggregate state is rebuilt per holder)
  kOlderRows,    ///< those with live rows below the watermark
  kNone,         ///< none (RescanIsRedundant)
};

/// A semi-naive driver's rows: its Relation, or its facts read in place
/// (which never lose rows), or neither.
struct DriverRows {
  const Relation* rel = nullptr;
  const FactView* facts = nullptr;

  DriverRows(const Database& db, int pred)
      : rel(db.RelIfExists(pred)), facts(db.FactsIfExists(pred)) {}

  /// One past the last row id (slice id for facts).
  size_t end() const {
    return rel != nullptr ? rel->end_row()
                          : facts != nullptr ? facts->num_slices() : 0;
  }
  AtomWatermark Mark() const {
    return AtomWatermark{end(), rel != nullptr ? rel->kill_gen() : 0};
  }
};

/// Delta range of a driver under watermark `wm`: returns the first row to
/// walk and fills `rescan` with the holders, chosen by `mode`, whose rows
/// were removed since (kill generation past the watermark).
size_t DeltaStart(const DriverRows& driver, const AtomWatermark& wm,
                  Rescan mode, std::vector<Holder>& rescan,
                  RuleEvalStats& stats) {
  rescan.clear();
  const Relation* rel = driver.rel;
  if (rel == nullptr) return driver.facts != nullptr ? wm.rows : 0;
  if (mode != Rescan::kNone && rel->kill_gen() > wm.kill_gen) {
    for (Holder h = 0; h < rel->num_holders(); ++h) {
      if (rel->holder_kill_gen(h) <= wm.kill_gen) continue;
      // A holder whose live rows all lie in the delta is walked whole by
      // the delta scan already (a cleared transient view refilled).
      bool below = mode == Rescan::kEveryKilled;
      for (uint32_t row : rel->HolderRows(h)) {
        if (row >= wm.rows) break;
        if (rel->alive(row)) {
          below = true;
          break;
        }
      }
      if (below) rescan.push_back(h);
    }
    stats.delta_rescans += rescan.size();
  }
  return wm.rows;
}

/// Walks a driver's delta rows [from, end) (RuleRun::WalkDelta).
Status Walk(RuleRun& run, const DriverRows& driver, size_t from, size_t end,
            std::span<const Holder> rescan) {
  if (driver.facts != nullptr) return run.WalkDelta(*driver.facts, from, end);
  if (driver.rel != nullptr) {
    return run.WalkDelta(*driver.rel, from, end, rescan);
  }
  return Status::OK();
}

/// True when walking a driver's old rows again cannot derive anything
/// new: no aggregate, and every negated atom reads a relation that never
/// loses rows (static edges, or an IDB no aggregate replaces). Old rows
/// then met every row another atom gained since through that atom's own
/// delta, and negations can only have become false, so a holder that
/// lost rows needs no rescan of the rest.
bool RescanIsRedundant(const CompiledRule& rule, const AnalyzedQuery& query) {
  if (rule.has_aggregate) return false;
  for (const CLiteral& lit : rule.body) {
    if (lit.kind != CLiteral::Kind::kAtom || !lit.negated) continue;
    const PredicateInfo& info = query.pred(lit.pred);
    if (IsStaticEdb(info.edb)) continue;
    if (!info.is_idb() || info.has_aggregate_rule) return false;
  }
  return true;
}

/// Evaluates one rule semi-naively over every holder of the database:
/// one walk per positive non-static body atom (`frame.drivers`, filled by
/// the caller) over that atom's delta rows (tuples inserted since the
/// previous evaluation, of all holders at once). Incremental aggregates
/// fold their driver's delta into per-holder group state; other
/// aggregates and rules with no dynamic atoms walk each holder whose
/// inputs changed.
Result<bool> EvalRuleImpl(const CompiledRule& rule, EvalContext& ctx,
                          RuleFrame& frame,
                          std::vector<AtomWatermark>& atom_watermarks,
                          std::unique_ptr<PersistentAggState>& agg_state,
                          std::vector<uint64_t>& holder_watermarks,
                          RuleEvalStats& stats) {
  if (atom_watermarks.size() != rule.body.size()) {
    atom_watermarks.assign(rule.body.size(), AtomWatermark{});
  }
  std::vector<Holder>& holders = frame.holders;
  std::vector<Holder>& rescan = frame.rescan;
  // Incremental aggregates: fold only the driver atom's delta into
  // persistent group state (bounded per-superstep work for the paper's
  // degree / sum-error aggregates).
  int agg_driver = -1;
  if (rule.has_aggregate && AggregateIsIncremental(rule, ctx, &agg_driver)) {
    HoldersToRun(rule, ctx, holder_watermarks, holders);
    const DriverRows driver(
        *ctx.db, rule.body[static_cast<size_t>(agg_driver)].pred);
    AtomWatermark& wm = atom_watermarks[static_cast<size_t>(agg_driver)];
    if (agg_state == nullptr) agg_state = std::make_unique<PersistentAggState>();
    const size_t from =
        DeltaStart(driver, wm, Rescan::kEveryKilled, rescan, stats);
    for (Holder h : rescan) {
      if (h < agg_state->groups.size()) agg_state->groups[h].clear();
    }
    const size_t end = driver.end();
    if (holders.empty() && from >= end && rescan.empty()) return false;
    RuleRun run(rule, ctx, stats, frame, agg_driver, agg_state.get());
    ++stats.evaluations;
    ARIADNE_RETURN_NOT_OK(Walk(run, driver, from, end, rescan));
    wm = driver.Mark();
    bool changed = false;
    for (Holder h : holders) {
      ARIADNE_ASSIGN_OR_RETURN(bool c, run.FlushPersistent(h));
      changed = changed || c;
    }
    return changed;
  }
  const std::vector<int>& drivers = frame.drivers;
  if (drivers.empty()) {
    HoldersToRun(rule, ctx, holder_watermarks, holders);
    if (holders.empty()) return false;
    RuleRun run(rule, ctx, stats, frame, /*delta_literal=*/-1);
    bool derived = false;
    for (Holder h : holders) {
      ++stats.evaluations;
      ARIADNE_ASSIGN_OR_RETURN(bool d, run.RunHolder(h));
      derived = derived || d;
    }
    return derived;
  }
  // Snapshot the driver marks first: rows inserted *during* this
  // evaluation get covered by the next fixpoint round.
  std::vector<AtomWatermark>& marks = frame.marks;
  marks.resize(drivers.size());
  for (size_t j = 0; j < drivers.size(); ++j) {
    marks[j] =
        DriverRows(*ctx.db, rule.body[static_cast<size_t>(drivers[j])].pred)
            .Mark();
  }
  bool derived = false;
  const Rescan mode = RescanIsRedundant(rule, ctx.db->query())
                          ? Rescan::kNone
                          : Rescan::kOlderRows;
  for (size_t j = 0; j < drivers.size(); ++j) {
    const DriverRows driver(*ctx.db,
                            rule.body[static_cast<size_t>(drivers[j])].pred);
    const AtomWatermark& wm = atom_watermarks[static_cast<size_t>(drivers[j])];
    const size_t from = DeltaStart(driver, wm, mode, rescan, stats);
    if (from >= marks[j].rows && rescan.empty()) continue;  // nothing new
    RuleRun run(rule, ctx, stats, frame, drivers[j]);
    run.ReadOldFactsBefore(atom_watermarks);
    ++stats.evaluations;
    ARIADNE_RETURN_NOT_OK(Walk(run, driver, from, driver.end(), rescan));
    derived = derived || run.derived();
  }
  for (size_t j = 0; j < drivers.size(); ++j) {
    atom_watermarks[static_cast<size_t>(drivers[j])] = marks[j];
  }
  return derived;
}

Result<bool> EvalRule(const CompiledRule& rule, EvalContext& ctx,
                      RuleFrame& frame,
                      std::vector<AtomWatermark>& atom_watermarks,
                      std::unique_ptr<PersistentAggState>& agg_state,
                      std::vector<uint64_t>& holder_watermarks,
                      RuleEvalStats& stats) {
  WallTimer timer;
  auto result = EvalRuleImpl(rule, ctx, frame, atom_watermarks, agg_state,
                             holder_watermarks, stats);
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
  auto& holder_watermarks = ctx.db->holder_watermarks();
  if (holder_watermarks.size() != rules.size()) {
    holder_watermarks.resize(rules.size());
  }
  auto& eval_stats = ctx.db->eval_stats();
  if (eval_stats.rules.size() != rules.size()) {
    eval_stats.rules.resize(rules.size());
  }
  RuleFrame& frame = ThreadFrame();
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
        const CompiledRule& rule = rules[i];
        CollectDrivers(rule, ctx, frame.drivers);
        // The database-wide version gate. In holder-scoped mode the rules
        // that run holder by holder (aggregates and rules without a delta
        // driver) gate each holder on its own versions instead.
        const bool per_holder = ctx.holder_base.has_value() &&
                                (rule.has_aggregate || frame.drivers.empty());
        if (!per_holder) {
          const uint64_t version = ctx.db->VersionSum(rule.body_preds);
          if (watermarks[i] == version) continue;
          watermarks[i] = version;
        }
        ARIADNE_ASSIGN_OR_RETURN(
            bool derived,
            EvalRule(rule, ctx, frame, atom_watermarks[i], agg_states[i],
                     holder_watermarks[i], eval_stats.rules[i]));
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
    // Holder by holder, each in insertion order: the order a merge of
    // one private database per holder, ascending, would produce.
    for (Holder h = 0; h < rel->num_holders(); ++h) {
      for (uint32_t row : rel->HolderRows(h)) {
        if (rel->alive(row)) merged->Insert(rel->row_view(row));
      }
    }
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
