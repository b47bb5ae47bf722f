#include "pql/analysis.h"

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_map>

#include "common/logging.h"

namespace ariadne {

const char* DirectionToString(Direction d) {
  switch (d) {
    case Direction::kLocal:
      return "local";
    case Direction::kForward:
      return "forward";
    case Direction::kBackward:
      return "backward";
    case Direction::kUndirected:
      return "undirected";
  }
  return "?";
}

int AnalyzedQuery::PredId(const std::string& name) const {
  for (size_t i = 0; i < preds_.size(); ++i) {
    if (preds_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

bool AnalyzedQuery::UsesEdb(EdbKind kind) const {
  for (const auto& p : preds_) {
    if (p.edb == kind) return true;
  }
  return false;
}

std::string AnalyzedQuery::DebugString() const {
  std::string out = "query direction=" + std::string(DirectionToString(direction_)) +
                    " vc_compatible=" + (vc_compatible_ ? "yes" : "no") +
                    " strata=" + std::to_string(num_strata_) + "\n";
  for (const auto& rule : rules_) {
    out += "  [s" + std::to_string(rule.stratum) + " " +
           DirectionToString(rule.direction) + "] " + rule.source_text + "\n";
  }
  for (int p : shipped_preds_) {
    const PredicateInfo& info = preds_[static_cast<size_t>(p)];
    out += "  ship: " + info.name;
    if (info.ship_keyed()) {
      std::string cols;
      for (int c = 0; c < info.arity; ++c) {
        if ((info.ship_key & ColumnSetOf(c)) == 0) continue;
        cols += (cols.empty() ? "" : ",") + std::to_string(c);
      }
      out += " key (" + cols + ")";
    }
    out += "\n";
  }
  return out;
}

namespace {
struct AnalyzerOutputs {
  std::vector<PredicateInfo> preds;
  std::vector<CompiledRule> rules;  // sorted by stratum
  int num_strata = 1;
  Direction direction = Direction::kLocal;
  bool vc_compatible = true;
  std::optional<FastCapturePlan> fast_capture;
};
}  // namespace

/// Friend of AnalyzedQuery; moves analyzer outputs into the result object.
class AnalyzedQueryBuilder {
 public:
  static AnalyzedQuery Build(AnalyzerOutputs outputs) {
    AnalyzedQuery out;
    out.preds_ = std::move(outputs.preds);
    out.rules_ = std::move(outputs.rules);
    out.num_strata_ = outputs.num_strata;
    out.direction_ = outputs.direction;
    out.vc_compatible_ = outputs.vc_compatible;
    for (size_t i = 0; i < out.preds_.size(); ++i) {
      if (out.preds_[i].is_idb()) {
        out.output_preds_.push_back(static_cast<int>(i));
      }
      if (out.preds_[i].shipped) {
        out.shipped_preds_.push_back(static_cast<int>(i));
      }
    }
    out.fast_capture_ = std::move(outputs.fast_capture);
    return out;
  }
};

namespace {

/// Builder state while compiling one rule.
struct RuleBuilder {
  CompiledRule rule;
  std::unordered_map<std::string, int> var_ids;

  int InternVar(const std::string& name) {
    auto it = var_ids.find(name);
    if (it != var_ids.end()) return it->second;
    const int id = static_cast<int>(rule.vars.size());
    rule.vars.push_back(name);
    var_ids.emplace(name, id);
    return id;
  }

  Result<int> InternTerm(const Term& term) {
    CTerm ct;
    switch (term.kind) {
      case Term::Kind::kVariable:
        ct.kind = CTerm::Kind::kVar;
        ct.var = InternVar(term.name);
        break;
      case Term::Kind::kConstant:
        ct.kind = CTerm::Kind::kConst;
        ct.constant = term.constant;
        break;
      case Term::Kind::kParameter:
        return Status::AnalysisError("unbound parameter $" + term.name +
                                     " (call BindParameters first)");
      case Term::Kind::kArith: {
        ct.kind = CTerm::Kind::kArith;
        ct.op = term.op;
        ARIADNE_ASSIGN_OR_RETURN(ct.lhs, InternTerm(*term.lhs));
        ARIADNE_ASSIGN_OR_RETURN(ct.rhs, InternTerm(*term.rhs));
        break;
      }
    }
    rule.term_pool.push_back(std::move(ct));
    return static_cast<int>(rule.term_pool.size() - 1);
  }

};

/// All dense var ids in term pool entry `idx` of `rule`.
void TermVars(const CompiledRule& rule, int idx, std::set<int>& out) {
  const CTerm& t = rule.term_pool[static_cast<size_t>(idx)];
  switch (t.kind) {
    case CTerm::Kind::kVar:
      out.insert(t.var);
      break;
    case CTerm::Kind::kArith:
      TermVars(rule, t.lhs, out);
      TermVars(rule, t.rhs, out);
      break;
    default:
      break;
  }
}

/// Adds one to `uses[v]` for every occurrence of a variable v in pool
/// term `idx` of `rule`.
void CountVarUses(const CompiledRule& rule, int idx, std::vector<int>& uses) {
  const CTerm& t = rule.term_pool[static_cast<size_t>(idx)];
  if (t.kind == CTerm::Kind::kVar) {
    ++uses[static_cast<size_t>(t.var)];
  } else if (t.kind == CTerm::Kind::kArith) {
    CountVarUses(rule, t.lhs, uses);
    CountVarUses(rule, t.rhs, uses);
  }
}

bool IsPlainVar(const CompiledRule& rule, int idx, int* var = nullptr) {
  const CTerm& t = rule.term_pool[static_cast<size_t>(idx)];
  if (t.kind != CTerm::Kind::kVar) return false;
  if (var != nullptr) *var = t.var;
  return true;
}

/// True when every variable of pool term `idx` is in `bound`.
bool TermBound(const CompiledRule& rule, int idx, const std::set<int>& bound) {
  std::set<int> vars;
  TermVars(rule, idx, vars);
  for (int v : vars) {
    if (bound.count(v) == 0) return false;
  }
  return true;
}

/// Collects unbound $parameters of a term with their spans.
void TermParams(const Term& term,
                std::vector<std::pair<std::string, Span>>& out) {
  switch (term.kind) {
    case Term::Kind::kParameter:
      out.emplace_back(term.name, term.span);
      break;
    case Term::Kind::kArith:
      TermParams(*term.lhs, out);
      TermParams(*term.rhs, out);
      break;
    default:
      break;
  }
}

class Analyzer {
 public:
  Analyzer(const Program& program, const Catalog& catalog,
           const UdfRegistry& udfs, const StoreSchema* store,
           const AnalyzeOptions& options, DiagnosticSink* sink)
      : program_(program),
        catalog_(catalog),
        udfs_(udfs),
        store_(store),
        options_(options),
        sink_(sink != nullptr ? sink : &own_sink_) {}

  Result<AnalyzedQuery> Run() {
    bad_.assign(program_.rules.size(), false);
    MarkParameterRules();
    CollectHeads();
    CompileRules();
    if (!HasErrors()) Stratify();
    if (!HasErrors()) PlanRules();
    if (!HasErrors()) {
      AnalyzeLocations();
      CheckAggregates();
    }
    if (HasErrors()) return first_error_;
    ComputeShipKeys();
    ExtractFastCapture();

    std::stable_sort(rules_.begin(), rules_.end(),
                     [](const CompiledRule& a, const CompiledRule& b) {
                       return a.stratum < b.stratum;
                     });
    AnalyzerOutputs outputs;
    outputs.preds = std::move(preds_);
    outputs.rules = std::move(rules_);
    outputs.num_strata = num_strata_;
    outputs.direction = direction_;
    outputs.vc_compatible = vc_compatible_;
    outputs.fast_capture = std::move(fast_capture_);
    return AnalyzedQueryBuilder::Build(std::move(outputs));
  }

 private:
  bool HasErrors() const { return sink_->has_errors(); }

  /// Emits a diagnostic with a stable code and source span, and records
  /// the first error as the Status the legacy Result<> API returns.
  /// `status_code` preserves the historical error category (AnalysisError
  /// for most, Unsupported for mode/feature gaps the caller can act on).
  Status Err(StatusCode status_code, const char* code, const Span& span,
             std::string message) {
    sink_->Error(code, span, message);
    Status status(status_code, std::move(message));
    if (first_error_.ok()) first_error_ = status;
    return status;
  }

  int FindPred(const std::string& name) const {
    for (size_t i = 0; i < preds_.size(); ++i) {
      if (preds_[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }

  Result<int> AddOrGetPred(const std::string& name, int arity, EdbKind edb,
                           const Span& span) {
    const int existing = FindPred(name);
    if (existing >= 0) {
      PredicateInfo& info = preds_[static_cast<size_t>(existing)];
      if (info.arity != arity) {
        return Err(StatusCode::kAnalysisError, "PQL2006", span,
                   "predicate " + name + " used with arities " +
                       std::to_string(info.arity) + " and " +
                       std::to_string(arity));
      }
      return existing;
    }
    PredicateInfo info;
    info.name = name;
    info.arity = arity;
    info.edb = edb;
    preds_.push_back(std::move(info));
    return static_cast<int>(preds_.size() - 1);
  }

  /// Reports every distinct unbound $parameter once (with the span of its
  /// first occurrence) and marks the rules mentioning parameters as bad so
  /// the remaining rules still compile and get linted.
  void MarkParameterRules() {
    std::set<std::string> reported;
    for (size_t r = 0; r < program_.rules.size(); ++r) {
      const Rule& rule = program_.rules[r];
      std::vector<std::pair<std::string, Span>> params;
      for (const HeadTerm& h : rule.head) {
        TermParams(h.term, params);
        TermParams(h.aggregate_arg, params);
      }
      for (const BodyLiteral& lit : rule.body) {
        if (lit.kind == BodyLiteral::Kind::kAtom) {
          for (const Term& t : lit.atom.args) TermParams(t, params);
        } else {
          TermParams(lit.comparison.lhs, params);
          TermParams(lit.comparison.rhs, params);
        }
      }
      if (params.empty()) continue;
      bad_[r] = true;
      for (const auto& [name, span] : params) {
        if (!reported.insert(name).second) continue;
        Err(StatusCode::kAnalysisError, "PQL2001", span,
            "unbound parameter $" + name +
                " (bind with --param or BindParameters)");
      }
    }
  }

  void CollectHeads() {
    for (size_t r = 0; r < program_.rules.size(); ++r) {
      if (bad_[r]) continue;
      const Rule& rule = program_.rules[r];
      if (rule.head.empty()) {
        Err(StatusCode::kAnalysisError, "PQL2020", rule.name_span,
            "rule with empty head: " + rule.ToString());
        bad_[r] = true;
        continue;
      }
      if (catalog_.Find(rule.head_predicate) != nullptr &&
          !options_.allow_transient) {
        Err(StatusCode::kAnalysisError, "PQL2002", rule.name_span,
            "cannot redefine built-in EDB " + rule.head_predicate);
        bad_[r] = true;
        continue;
      }
      if (udfs_.Find(rule.head_predicate) != nullptr) {
        Err(StatusCode::kAnalysisError, "PQL2003", rule.name_span,
            "cannot use UDF name as rule head: " + rule.head_predicate);
        bad_[r] = true;
        continue;
      }
      // Capture queries may re-derive Table-1 names (paper Query 2 derives
      // `value` from `vertex-value`); outside capture, redefining catalog
      // EDBs is rejected above. Capture heads shadow the catalog entry.
      const auto* schema = catalog_.Find(rule.head_predicate);
      if (schema != nullptr && IsTransientEdb(schema->kind)) {
        Err(StatusCode::kAnalysisError, "PQL2004", rule.name_span,
            "cannot redefine transient EDB " + rule.head_predicate);
        bad_[r] = true;
        continue;
      }
      if (schema != nullptr &&
          schema->arity != static_cast<int>(rule.head.size())) {
        Err(StatusCode::kAnalysisError, "PQL2005", rule.name_span,
            "capture rule redefines " + rule.head_predicate +
                " with wrong arity (built-in arity " +
                std::to_string(schema->arity) + ")");
        bad_[r] = true;
        continue;
      }
      auto pred = AddOrGetPred(rule.head_predicate,
                               static_cast<int>(rule.head.size()),
                               EdbKind::kNone, rule.name_span);
      if (!pred.ok()) {
        bad_[r] = true;
        continue;
      }
      head_preds_.insert(*pred);
    }
  }

  Result<int> ResolveBodyAtomPred(const AtomLiteral& atom,
                                  const std::string& rule_name) {
    // Heads shadow everything (a capture query deriving `value` reads the
    // transient EDB but writes its own IDB of the same name only when the
    // name differs; same-name recursion through Table-1 names is resolved
    // to the IDB).
    const int head_pred = FindPred(atom.predicate);
    if (head_pred >= 0 && head_preds_.count(head_pred) > 0) {
      if (preds_[static_cast<size_t>(head_pred)].arity !=
          static_cast<int>(atom.args.size())) {
        return Err(StatusCode::kAnalysisError, "PQL2006", atom.name_span,
                   "arity mismatch for " + atom.predicate + " in rule " +
                       rule_name + ": defined with " +
                       std::to_string(
                           preds_[static_cast<size_t>(head_pred)].arity) +
                       ", used with " + std::to_string(atom.args.size()));
      }
      return head_pred;
    }
    const EdbSchema* schema = catalog_.Find(atom.predicate);
    if (schema != nullptr) {
      if (IsTransientEdb(schema->kind) && !options_.allow_transient) {
        return Err(StatusCode::kAnalysisError, "PQL2007", atom.name_span,
                   "transient predicate " + atom.predicate +
                       " is only available during online/capture evaluation");
      }
      if (schema->arity != static_cast<int>(atom.args.size())) {
        return Err(StatusCode::kAnalysisError, "PQL2006", atom.name_span,
                   "arity mismatch for " + atom.predicate + ": expected " +
                       std::to_string(schema->arity) + ", got " +
                       std::to_string(atom.args.size()));
      }
      // Canonical name so aliases (receive-msg) share a predicate id.
      const std::string canonical = CanonicalEdbName(schema->kind);
      return AddOrGetPred(canonical, schema->arity, schema->kind,
                          atom.name_span);
    }
    if (store_ != nullptr) {
      const auto* entry = store_->Find(atom.predicate);
      if (entry != nullptr) {
        if (entry->arity != static_cast<int>(atom.args.size())) {
          return Err(StatusCode::kAnalysisError, "PQL2006", atom.name_span,
                     "arity mismatch for stored relation " + atom.predicate +
                         ": expected " + std::to_string(entry->arity) +
                         ", got " + std::to_string(atom.args.size()));
        }
        return AddOrGetPred(atom.predicate, entry->arity, EdbKind::kStored,
                            atom.name_span);
      }
    }
    return Err(StatusCode::kAnalysisError, "PQL2008", atom.name_span,
               "unknown predicate " + atom.predicate + " in rule " +
                   rule_name);
  }

  static std::string CanonicalEdbName(EdbKind kind) {
    switch (kind) {
      case EdbKind::kSuperstep:
        return "superstep";
      case EdbKind::kValue:
        return "value";
      case EdbKind::kEvolution:
        return "evolution";
      case EdbKind::kSendMessage:
        return "send-message";
      case EdbKind::kReceiveMessage:
        return "receive-message";
      case EdbKind::kEdge:
        return "edge";
      case EdbKind::kEdgeValue:
        return "edge-value";
      case EdbKind::kVertexValueNow:
        return "vertex-value";
      case EdbKind::kSendNow:
        return "send";
      case EdbKind::kReceiveNow:
        return "receive";
      default:
        return "?";
    }
  }

  /// Compiles one rule; errors have already been emitted to the sink when
  /// this returns non-OK (the caller just drops the rule and continues).
  Result<CompiledRule> CompileOneRule(const Rule& rule) {
    RuleBuilder rb;
    rb.rule.source_text = rule.ToString();
    rb.rule.span = rule.span;
    rb.rule.name_span = rule.name_span;
    rb.rule.head_pred = FindPred(rule.head_predicate);
    rb.rule.has_aggregate = rule.HasAggregate();

    // Head terms; head[0] is the location specifier and must be a
    // variable (paper §4.2).
    if (rule.head[0].is_aggregate ||
        rule.head[0].term.kind != Term::Kind::kVariable) {
      return Err(StatusCode::kAnalysisError, "PQL2014", rule.head[0].span,
                 "head location specifier must be a variable in rule " +
                     rule.head_predicate);
    }
    for (const HeadTerm& h : rule.head) {
      CHeadTerm ch;
      ch.is_aggregate = h.is_aggregate;
      if (h.is_aggregate) {
        ch.aggregate = h.aggregate;
        ARIADNE_ASSIGN_OR_RETURN(ch.aggregate_arg,
                                 rb.InternTerm(h.aggregate_arg));
      } else {
        ARIADNE_ASSIGN_OR_RETURN(ch.term, rb.InternTerm(h.term));
      }
      rb.rule.head.push_back(ch);
    }
    rb.rule.head_loc_var =
        rb.rule.term_pool[static_cast<size_t>(rb.rule.head[0].term)].var;

    // Body literals.
    for (const BodyLiteral& lit : rule.body) {
      CLiteral cl;
      cl.span = lit.span();
      if (lit.kind == BodyLiteral::Kind::kComparison) {
        cl.kind = CLiteral::Kind::kComparison;
        cl.cmp_op = lit.comparison.op;
        ARIADNE_ASSIGN_OR_RETURN(cl.cmp_lhs,
                                 rb.InternTerm(lit.comparison.lhs));
        ARIADNE_ASSIGN_OR_RETURN(cl.cmp_rhs,
                                 rb.InternTerm(lit.comparison.rhs));
        rb.rule.body.push_back(std::move(cl));
        continue;
      }
      const AtomLiteral& atom = lit.atom;
      const Udf* udf = udfs_.Find(atom.predicate);
      if (udf != nullptr) {
        if (udf->arity != static_cast<int>(atom.args.size())) {
          return Err(StatusCode::kAnalysisError, "PQL2009", atom.name_span,
                     "UDF " + atom.predicate + " expects " +
                         std::to_string(udf->arity) + " arguments, got " +
                         std::to_string(atom.args.size()));
        }
        if (atom.negated && udf->kind == UdfKind::kFunction) {
          return Err(StatusCode::kAnalysisError, "PQL2010", lit.span(),
                     "cannot negate function UDF " + atom.predicate);
        }
        cl.kind = CLiteral::Kind::kUdf;
        cl.udf = udf;
        cl.negated = atom.negated;
        for (const Term& t : atom.args) {
          ARIADNE_ASSIGN_OR_RETURN(int idx, rb.InternTerm(t));
          cl.udf_args.push_back(idx);
        }
        rb.rule.body.push_back(std::move(cl));
        continue;
      }
      cl.kind = CLiteral::Kind::kAtom;
      cl.negated = atom.negated;
      ARIADNE_ASSIGN_OR_RETURN(cl.pred,
                               ResolveBodyAtomPred(atom, rule.head_predicate));
      for (const Term& t : atom.args) {
        ARIADNE_ASSIGN_OR_RETURN(int idx, rb.InternTerm(t));
        cl.args.push_back(idx);
      }
      rb.rule.body.push_back(std::move(cl));
    }

    // Distinct predicate reads for evaluation watermarks.
    std::set<int> reads;
    for (const CLiteral& cl : rb.rule.body) {
      if (cl.kind == CLiteral::Kind::kAtom) reads.insert(cl.pred);
    }
    rb.rule.body_preds.assign(reads.begin(), reads.end());
    return std::move(rb.rule);
  }

  void CompileRules() {
    for (size_t r = 0; r < program_.rules.size(); ++r) {
      if (bad_[r]) continue;
      auto compiled = CompileOneRule(program_.rules[r]);
      if (!compiled.ok()) {
        bad_[r] = true;
        continue;
      }
      rules_.push_back(std::move(*compiled));
    }
  }

  void Stratify() {
    // stratum[p]: EDBs at 0; head strata grow through negative edges
    // (negation, dependencies of aggregate rules, and reads of aggregate
    // heads — consumers must evaluate after the aggregate stabilizes).
    std::set<int> aggregate_heads;
    for (const CompiledRule& rule : rules_) {
      if (rule.has_aggregate) aggregate_heads.insert(rule.head_pred);
    }
    const int n = static_cast<int>(preds_.size());
    std::vector<int> stratum(static_cast<size_t>(n), 0);
    const int limit = n + 1;
    bool changed = true;
    int guard = 0;
    while (changed) {
      changed = false;
      if (++guard > limit * static_cast<int>(rules_.size() + 1) + 4) {
        Err(StatusCode::kAnalysisError, "PQL2011", Span{},
            "program is not stratifiable (negation or aggregation through "
            "recursion)");
        return;
      }
      for (const CompiledRule& rule : rules_) {
        int& head_stratum = stratum[static_cast<size_t>(rule.head_pred)];
        for (const CLiteral& cl : rule.body) {
          if (cl.kind != CLiteral::Kind::kAtom) continue;
          if (!preds_[static_cast<size_t>(cl.pred)].is_idb()) continue;
          const int dep = stratum[static_cast<size_t>(cl.pred)];
          const bool negative = cl.negated || rule.has_aggregate ||
                                aggregate_heads.count(cl.pred) > 0;
          const int required = negative ? dep + 1 : dep;
          if (required > head_stratum) {
            if (required > limit) {
              Err(StatusCode::kAnalysisError, "PQL2011", rule.span,
                  "program is not stratifiable (negation or aggregation "
                  "through recursion involving " +
                      preds_[static_cast<size_t>(rule.head_pred)].name + ")");
              return;
            }
            head_stratum = required;
            changed = true;
          }
        }
      }
    }
    num_strata_ = 1;
    for (CompiledRule& rule : rules_) {
      rule.stratum = stratum[static_cast<size_t>(rule.head_pred)];
      num_strata_ = std::max(num_strata_, rule.stratum + 1);
    }
    for (int p = 0; p < n; ++p) {
      preds_[static_cast<size_t>(p)].stratum = stratum[static_cast<size_t>(p)];
    }
  }

  void PlanRules() {
    for (size_t r = 0; r < rules_.size(); ++r) {
      PlanOneRule(rules_[r]);  // errors accumulate; bad plans are reported
    }
  }

  Status PlanOneRule(CompiledRule& rule) {
    std::set<int> bound;
    std::vector<bool> used(rule.body.size(), false);
    rule.eval_order.clear();
    rule.planned = options_.plan_joins;

    auto comparison_usable = [&](const CLiteral& cl, bool* binds,
                                 int* bind_var) {
      const bool lhs_bound = TermBound(rule, cl.cmp_lhs, bound);
      const bool rhs_bound = TermBound(rule, cl.cmp_rhs, bound);
      if (lhs_bound && rhs_bound) {
        *binds = false;
        return true;
      }
      if (cl.cmp_op != ComparisonOp::kEq) return false;
      int var;
      if (!lhs_bound && rhs_bound && IsPlainVar(rule, cl.cmp_lhs, &var) &&
          bound.count(var) == 0) {
        *binds = true;
        *bind_var = var;
        return true;
      }
      if (lhs_bound && !rhs_bound && IsPlainVar(rule, cl.cmp_rhs, &var) &&
          bound.count(var) == 0) {
        *binds = true;
        *bind_var = var;
        return true;
      }
      return false;
    };

    auto udf_usable = [&](const CLiteral& cl, bool* binds, int* bind_var) {
      const size_t n_in = cl.udf->kind == UdfKind::kFunction
                              ? cl.udf_args.size() - 1
                              : cl.udf_args.size();
      for (size_t i = 0; i < n_in; ++i) {
        if (!TermBound(rule, cl.udf_args[i], bound)) return false;
      }
      if (cl.udf->kind == UdfKind::kPredicate) {
        *binds = false;
        return true;
      }
      const int out = cl.udf_args.back();
      if (TermBound(rule, out, bound)) {
        *binds = false;
        return true;
      }
      int var;
      if (IsPlainVar(rule, out, &var)) {
        *binds = true;
        *bind_var = var;
        return true;
      }
      return false;
    };

    auto atom_usable = [&](const CLiteral& cl) {
      // Every non-plain-var argument must be fully evaluable.
      for (int arg : cl.args) {
        if (!IsPlainVar(rule, arg) && !TermBound(rule, arg, bound)) return false;
      }
      // edge-value is a weight lookup: its superstep argument is a
      // pass-through and must already be bound (weights carry no step).
      if (preds_[static_cast<size_t>(cl.pred)].edb == EdbKind::kEdgeValue &&
          !TermBound(rule, cl.args[3], bound)) {
        return false;
      }
      return true;
    };

    auto negated_usable = [&](const CLiteral& cl) {
      for (int arg : cl.args) {
        if (!TermBound(rule, arg, bound)) return false;
      }
      return true;
    };

    auto bind_atom_vars = [&](const CLiteral& cl) {
      for (int arg : cl.args) {
        int var;
        if (IsPlainVar(rule, arg, &var)) bound.insert(var);
      }
    };

    size_t remaining = rule.body.size();
    while (remaining > 0) {
      int picked = -1;
      bool picked_binds = false;
      int picked_bind_var = -1;
      // 1. Comparisons and UDFs ready to filter or bind.
      for (size_t i = 0; i < rule.body.size() && picked < 0; ++i) {
        if (used[i]) continue;
        const CLiteral& cl = rule.body[i];
        bool binds = false;
        int bind_var = -1;
        if (cl.kind == CLiteral::Kind::kComparison &&
            comparison_usable(cl, &binds, &bind_var)) {
          picked = static_cast<int>(i);
          picked_binds = binds;
          picked_bind_var = bind_var;
        } else if (cl.kind == CLiteral::Kind::kUdf &&
                   udf_usable(cl, &binds, &bind_var)) {
          picked = static_cast<int>(i);
          picked_binds = binds;
          picked_bind_var = bind_var;
        }
      }
      // 2. Usable positive atom. Legacy: most bound argument positions
      // wins. Planned (sideways information passing): among atoms with
      // at least one bound column to probe on, the one introducing the
      // fewest unbound positions wins — it has the smallest expected
      // fan-out, so the most selective join runs earliest and later
      // atoms see more bound columns to probe on. An atom with no bound
      // argument is a full scan regardless of arity, so all-unbound
      // atoms rank below any probe-able one and keep body order among
      // themselves. Ties fall back to most-bound, then body order. Both
      // orders are safe (any usable atom preserves range restriction)
      // and produce identical fixpoints (set semantics).
      if (picked < 0) {
        int best_bound_args = -1;
        int best_unbound_args = std::numeric_limits<int>::max();
        for (size_t i = 0; i < rule.body.size(); ++i) {
          if (used[i]) continue;
          const CLiteral& cl = rule.body[i];
          if (cl.kind != CLiteral::Kind::kAtom || cl.negated) continue;
          if (!atom_usable(cl)) continue;
          int n_bound = 0;
          for (int arg : cl.args) {
            if (TermBound(rule, arg, bound)) ++n_bound;
          }
          // Full scans sort after every probe-able atom, in body order.
          const int n_unbound =
              n_bound == 0 ? std::numeric_limits<int>::max() - 1
                           : static_cast<int>(cl.args.size()) - n_bound;
          const bool better =
              options_.plan_joins
                  ? (n_unbound < best_unbound_args ||
                     (n_unbound == best_unbound_args &&
                      n_bound > best_bound_args))
                  : n_bound > best_bound_args;
          if (better) {
            best_bound_args = n_bound;
            best_unbound_args = n_unbound;
            picked = static_cast<int>(i);
          }
        }
        if (picked >= 0) bind_atom_vars(rule.body[static_cast<size_t>(picked)]);
      }
      // 3. Fully bound negated atoms.
      if (picked < 0) {
        for (size_t i = 0; i < rule.body.size(); ++i) {
          if (used[i]) continue;
          const CLiteral& cl = rule.body[i];
          if (cl.kind == CLiteral::Kind::kAtom && cl.negated &&
              negated_usable(cl)) {
            picked = static_cast<int>(i);
            break;
          }
        }
      }
      if (picked < 0) {
        return Err(StatusCode::kAnalysisError, "PQL2012", rule.span,
                   "rule is not range-restricted (cannot order body literals "
                   "safely): " + rule.source_text);
      }
      if (picked_binds) bound.insert(picked_bind_var);
      used[static_cast<size_t>(picked)] = true;
      rule.eval_order.push_back(static_cast<size_t>(picked));
      --remaining;
    }

    // Safety: every head variable must be bound by the body.
    std::set<int> head_vars;
    for (const CHeadTerm& h : rule.head) {
      if (h.is_aggregate) {
        TermVars(rule, h.aggregate_arg, head_vars);
      } else {
        TermVars(rule, h.term, head_vars);
      }
    }
    for (int v : head_vars) {
      if (bound.count(v) == 0) {
        return Err(StatusCode::kAnalysisError, "PQL2013", rule.span,
                   "unsafe rule: head variable '" +
                       rule.vars[static_cast<size_t>(v)] +
                       "' is not bound by the body: " + rule.source_text);
      }
    }

    // Existential-subgoal analysis: a positive atom whose newly bound
    // variables are never used later (nor in the head) contributes at
    // most one distinct continuation, so evaluation may stop at its
    // first unifying tuple. Invalid for aggregate rules, where the
    // multiset of full valuations feeds the aggregates.
    rule.existential.assign(rule.eval_order.size(), 0);
    if (!rule.has_aggregate) {
      auto literal_vars = [&](size_t body_idx, std::set<int>& out) {
        const CLiteral& l = rule.body[body_idx];
        switch (l.kind) {
          case CLiteral::Kind::kAtom:
            for (int arg : l.args) TermVars(rule, arg, out);
            break;
          case CLiteral::Kind::kComparison:
            TermVars(rule, l.cmp_lhs, out);
            TermVars(rule, l.cmp_rhs, out);
            break;
          case CLiteral::Kind::kUdf:
            for (int arg : l.udf_args) TermVars(rule, arg, out);
            break;
        }
      };
      std::set<int> sim_bound;
      for (size_t k = 0; k < rule.eval_order.size(); ++k) {
        const CLiteral& l = rule.body[rule.eval_order[k]];
        if (l.kind == CLiteral::Kind::kAtom && !l.negated) {
          std::set<int> new_vars;
          for (int arg : l.args) {
            int v;
            if (IsPlainVar(rule, arg, &v) && sim_bound.count(v) == 0) {
              new_vars.insert(v);
            }
          }
          bool live = false;
          for (int v : new_vars) {
            if (head_vars.count(v) > 0) {
              live = true;
              break;
            }
          }
          for (size_t j = k + 1; j < rule.eval_order.size() && !live; ++j) {
            std::set<int> later;
            literal_vars(rule.eval_order[j], later);
            for (int v : new_vars) {
              if (later.count(v) > 0) {
                live = true;
                break;
              }
            }
          }
          rule.existential[k] = live ? 0 : 1;
          sim_bound.insert(new_vars.begin(), new_vars.end());
        } else if (l.kind == CLiteral::Kind::kComparison &&
                   l.cmp_op == ComparisonOp::kEq) {
          int v;
          if (IsPlainVar(rule, l.cmp_lhs, &v)) sim_bound.insert(v);
          if (IsPlainVar(rule, l.cmp_rhs, &v)) sim_bound.insert(v);
        } else if (l.kind == CLiteral::Kind::kUdf &&
                   l.udf->kind == UdfKind::kFunction) {
          int v;
          if (IsPlainVar(rule, l.udf_args.back(), &v)) sim_bound.insert(v);
        }
      }
    }
    return Status::OK();
  }

  void AnalyzeLocations() {
    struct ShipRequest {
      int pred;
      ShipRouting routing;
    };
    std::vector<ShipRequest> ships;
    direction_ = Direction::kLocal;
    vc_compatible_ = true;

    for (size_t r = 0; r < rules_.size(); ++r) {
      CompiledRule& rule = rules_[r];
      Direction rule_dir = Direction::kLocal;
      bool rule_unguarded = false;

      // Local variable set = variables of non-remote atoms (first pass
      // decides remoteness; static EDBs are local everywhere).
      auto atom_is_located = [&](const CLiteral& cl) {
        return cl.kind == CLiteral::Kind::kAtom &&
               !IsStaticEdb(preds_[static_cast<size_t>(cl.pred)].edb);
      };

      bool rule_ok = true;
      for (CLiteral& cl : rule.body) {
        if (!atom_is_located(cl)) continue;
        if (cl.args.empty()) {
          Err(StatusCode::kAnalysisError, "PQL2015", cl.span,
              "located atom with no arguments in: " + rule.source_text);
          rule_ok = false;
          continue;
        }
        int loc;
        if (!IsPlainVar(rule, cl.args[0], &loc)) {
          Err(StatusCode::kAnalysisError, "PQL2016", cl.span,
              "location specifier (first argument) must be a variable in: " +
                  rule.source_text);
          rule_ok = false;
          continue;
        }
        cl.loc_var = loc;
        cl.remote = loc != rule.head_loc_var;
      }
      if (!rule_ok) continue;

      std::set<int> local_vars;
      for (const CLiteral& cl : rule.body) {
        if (cl.kind != CLiteral::Kind::kAtom || cl.negated || cl.remote) continue;
        for (int arg : cl.args) {
          int v;
          if (IsPlainVar(rule, arg, &v)) local_vars.insert(v);
        }
      }

      for (CLiteral& cl : rule.body) {
        if (!atom_is_located(cl) || !cl.remote) continue;
        // Find a guard atom linking (head_loc, remote_loc).
        Direction guard_dir = Direction::kUndirected;
        ShipRouting routing = ShipRouting::kAlongMessages;
        bool guarded = false;
        for (const CLiteral& g : rule.body) {
          if (g.kind != CLiteral::Kind::kAtom || g.negated || g.remote ||
              &g == &cl) {
            continue;
          }
          if (g.args.size() < 2) continue;
          int a0, a1;
          if (!IsPlainVar(rule, g.args[0], &a0) || !IsPlainVar(rule, g.args[1], &a1)) {
            continue;
          }
          if (a0 != rule.head_loc_var || a1 != cl.loc_var) continue;
          const EdbKind gk = preds_[static_cast<size_t>(g.pred)].edb;
          if (gk == EdbKind::kReceiveMessage || gk == EdbKind::kReceiveNow) {
            guard_dir = Direction::kForward;
            routing = ShipRouting::kAlongMessages;
            guarded = true;
            break;  // message guards take precedence over edge-like guards
          }
          if (gk == EdbKind::kSendMessage || gk == EdbKind::kSendNow) {
            guard_dir = Direction::kBackward;
            routing = ShipRouting::kAlongReverseMessages;
            guarded = true;
            break;
          }
          // Edge-like guard (static edge, stored prov-edges, any local
          // binary-prefix atom): direction from temporal inference.
          Direction temporal = InferTemporalDirection(rule, cl);
          if (temporal != Direction::kUndirected) {
            guard_dir = temporal;
            routing = temporal == Direction::kForward
                          ? ShipRouting::kAlongOutEdges
                          : ShipRouting::kAlongInEdges;
            guarded = true;
            // keep scanning: a message guard later in the body wins
          }
        }
        if (!guarded) {
          rule_unguarded = true;
          continue;
        }
        // Merge into the rule direction.
        if (rule_dir == Direction::kLocal) {
          rule_dir = guard_dir;
        } else if (rule_dir != guard_dir) {
          rule_dir = Direction::kUndirected;
        }
        ships.push_back(ShipRequest{cl.pred, routing});
      }

      if (rule_unguarded) {
        rule.direction = Direction::kUndirected;
        vc_compatible_ = false;
      } else {
        rule.direction = rule_dir;
      }

      // Fold into query direction.
      if (rule.direction == Direction::kUndirected) {
        direction_ = Direction::kUndirected;
      } else if (rule.direction != Direction::kLocal) {
        if (direction_ == Direction::kLocal) {
          direction_ = rule.direction;
        } else if (direction_ != rule.direction) {
          direction_ = Direction::kUndirected;
        }
      }
    }

    // Apply ship requests; conflicting routings are unsupported.
    for (const auto& req : ships) {
      PredicateInfo& info = preds_[static_cast<size_t>(req.pred)];
      if (info.shipped && info.routing != req.routing) {
        Err(StatusCode::kUnsupported, "PQL2017", Span{},
            "relation " + info.name +
                " is shipped along conflicting routes; split the query");
        continue;
      }
      info.shipped = true;
      info.routing = req.routing;
    }
  }

  /// Sets every shipped predicate's ship_key: the location plus each
  /// column a remote atom reading the predicate uses, over all rules. A
  /// column is unused only when it holds a plain variable occurring
  /// nowhere else in the rule (head, other literals, or twice in the
  /// atom); a negated atom, or any atom of an aggregate rule, uses every
  /// column.
  void ComputeShipKeys() {
    std::vector<ColumnSet> used(preds_.size(), ColumnSetOf(0));
    for (const CompiledRule& rule : rules_) {
      std::vector<int> uses(rule.vars.size(), 0);
      for (const CHeadTerm& h : rule.head) {
        CountVarUses(rule, h.is_aggregate ? h.aggregate_arg : h.term, uses);
      }
      for (const CLiteral& cl : rule.body) {
        for (int arg : cl.args) CountVarUses(rule, arg, uses);
        for (int arg : cl.udf_args) CountVarUses(rule, arg, uses);
        if (cl.kind == CLiteral::Kind::kComparison) {
          CountVarUses(rule, cl.cmp_lhs, uses);
          CountVarUses(rule, cl.cmp_rhs, uses);
        }
      }
      for (const CLiteral& cl : rule.body) {
        if (cl.kind != CLiteral::Kind::kAtom || !cl.remote) continue;
        ColumnSet& key = used[static_cast<size_t>(cl.pred)];
        for (size_t c = 0; c < cl.args.size(); ++c) {
          int var;
          if (!cl.negated && !rule.has_aggregate &&
              IsPlainVar(rule, cl.args[c], &var) &&
              uses[static_cast<size_t>(var)] == 1) {
            continue;
          }
          // A used column past kMaxKeyColumns cannot be keyed: key all.
          const ColumnSet col = ColumnSetOf(static_cast<int>(c));
          key |= col != 0 ? col : ~ColumnSet{0};
        }
      }
    }
    for (size_t p = 0; p < preds_.size(); ++p) {
      PredicateInfo& info = preds_[p];
      if (!info.shipped) continue;
      const ColumnSet all = AllColumns(info.arity);
      info.ship_key =
          info.is_idb() && !info.has_aggregate_rule ? used[p] & all : all;
    }
  }

  /// For an edge-guarded remote atom, infer direction from a comparison
  /// linking a remote-atom variable to a local variable with a constant
  /// offset: `j = i + 1` (remote j later) => backward; `j = i - 1` =>
  /// forward (paper Queries 12 and 3 respectively).
  Direction InferTemporalDirection(const CompiledRule& rule,
                                   const CLiteral& remote_atom) {
    std::set<int> remote_vars;
    for (int arg : remote_atom.args) TermVars(rule, arg, remote_vars);

    std::set<int> local_vars;
    for (const CLiteral& cl : rule.body) {
      if (cl.kind != CLiteral::Kind::kAtom || cl.remote || cl.negated) continue;
      for (int arg : cl.args) TermVars(rule, arg, local_vars);
    }

    auto term_offset_of_var = [&](int term_idx, int* var,
                                  double* offset) -> bool {
      // Matches v, v + c, v - c, c + v.
      const CTerm& t = rule.term_pool[static_cast<size_t>(term_idx)];
      if (t.kind == CTerm::Kind::kVar) {
        *var = t.var;
        *offset = 0;
        return true;
      }
      if (t.kind != CTerm::Kind::kArith || (t.op != '+' && t.op != '-')) {
        return false;
      }
      const CTerm& l = rule.term_pool[static_cast<size_t>(t.lhs)];
      const CTerm& rt = rule.term_pool[static_cast<size_t>(t.rhs)];
      if (l.kind == CTerm::Kind::kVar && rt.kind == CTerm::Kind::kConst &&
          rt.constant.is_numeric()) {
        *var = l.var;
        *offset = rt.constant.ToDouble().ValueOr(0);
        if (t.op == '-') *offset = -*offset;
        return true;
      }
      if (t.op == '+' && l.kind == CTerm::Kind::kConst &&
          l.constant.is_numeric() && rt.kind == CTerm::Kind::kVar) {
        *var = rt.var;
        *offset = l.constant.ToDouble().ValueOr(0);
        return true;
      }
      return false;
    };

    for (const CLiteral& cl : rule.body) {
      if (cl.kind != CLiteral::Kind::kComparison ||
          cl.cmp_op != ComparisonOp::kEq) {
        continue;
      }
      int v1, v2;
      double o1, o2;
      if (!term_offset_of_var(cl.cmp_lhs, &v1, &o1) ||
          !term_offset_of_var(cl.cmp_rhs, &v2, &o2)) {
        continue;
      }
      // v1 + o1 == v2 + o2  =>  v1 == v2 + (o2 - o1)
      double delta = o2 - o1;
      int remote_var = -1;
      if (remote_vars.count(v1) > 0 && local_vars.count(v2) > 0) {
        remote_var = v1;
      } else if (remote_vars.count(v2) > 0 && local_vars.count(v1) > 0) {
        remote_var = v2;
        delta = -delta;
      } else {
        continue;
      }
      (void)remote_var;
      if (delta > 0) return Direction::kBackward;  // remote = local + c
      if (delta < 0) return Direction::kForward;
    }
    return Direction::kUndirected;
  }

  void CheckAggregates() {
    std::map<int, int> rules_per_head;
    for (const CompiledRule& rule : rules_) {
      ++rules_per_head[rule.head_pred];
      if (rule.has_aggregate) {
        preds_[static_cast<size_t>(rule.head_pred)].has_aggregate_rule = true;
      }
    }
    std::set<int> reported;
    for (const CompiledRule& rule : rules_) {
      if (preds_[static_cast<size_t>(rule.head_pred)].has_aggregate_rule &&
          rules_per_head[rule.head_pred] > 1 &&
          reported.insert(rule.head_pred).second) {
        Err(StatusCode::kUnsupported, "PQL2018", rule.name_span,
            "aggregate relation " +
                preds_[static_cast<size_t>(rule.head_pred)].name +
                " must be defined by exactly one rule");
      }
    }
    for (const PredicateInfo& info : preds_) {
      if (info.shipped && info.has_aggregate_rule) {
        Err(StatusCode::kUnsupported, "PQL2019", Span{},
            "shipping aggregate relation " + info.name + " is not supported");
      }
    }
  }

  /// Recognizes projection-only capture programs (paper Queries 2 and 11)
  /// and compiles direct recording plans for them.
  void ExtractFastCapture() {
    if (!options_.allow_transient) return;
    FastCapturePlan plan;
    for (size_t r = 0; r < rules_.size(); ++r) {
      const CompiledRule& rule = rules_[r];
      if (rule.has_aggregate) return;
      // The head predicate must not be read by any rule (non-recursive).
      for (const CompiledRule& other : rules_) {
        for (int p : other.body_preds) {
          if (p == rule.head_pred) return;
        }
      }
      const CLiteral* source = nullptr;
      const CLiteral* step_atom = nullptr;
      for (const CLiteral& cl : rule.body) {
        if (cl.kind != CLiteral::Kind::kAtom || cl.negated) return;
        const EdbKind kind = preds_[static_cast<size_t>(cl.pred)].edb;
        if (kind == EdbKind::kSuperstep && step_atom == nullptr) {
          step_atom = &cl;
        } else if (source == nullptr &&
                   (kind == EdbKind::kVertexValueNow ||
                    kind == EdbKind::kValue || kind == EdbKind::kSendNow ||
                    kind == EdbKind::kSendMessage ||
                    kind == EdbKind::kReceiveNow ||
                    kind == EdbKind::kReceiveMessage ||
                    kind == EdbKind::kEdge)) {
          source = &cl;
        } else {
          return;
        }
      }
      if (source == nullptr) return;
      // Source args must be distinct plain variables; the superstep atom
      // may freely repeat them (it only re-asserts the current step).
      std::set<int> seen;
      for (int arg : source->args) {
        int v;
        if (!IsPlainVar(rule, arg, &v)) return;
        if (!seen.insert(v).second) return;
      }
      if (step_atom != nullptr) {
        for (int arg : step_atom->args) {
          if (!IsPlainVar(rule, arg)) return;
        }
      }
      // Map head columns.
      FastCaptureProjection projection;
      projection.source = preds_[static_cast<size_t>(source->pred)].edb;
      projection.head_pred = rule.head_pred;
      for (const CHeadTerm& h : rule.head) {
        if (h.is_aggregate) return;
        int v;
        if (!IsPlainVar(rule, h.term, &v)) return;
        int col = -2;
        for (size_t i = 0; i < source->args.size(); ++i) {
          int sv;
          if (IsPlainVar(rule, source->args[static_cast<size_t>(i)], &sv) &&
              sv == v) {
            col = static_cast<int>(i);
            break;
          }
        }
        if (col == -2 && step_atom != nullptr) {
          int sv;
          if (step_atom->args.size() == 2 &&
              IsPlainVar(rule, step_atom->args[1], &sv) && sv == v) {
            col = -1;  // current superstep
          }
        }
        if (col == -2) return;
        projection.columns.push_back(col);
      }
      plan.projections.push_back(std::move(projection));
    }
    if (!plan.projections.empty() &&
        plan.projections.size() == rules_.size()) {
      fast_capture_ = std::move(plan);
    }
  }

  const Program& program_;
  const Catalog& catalog_;
  const UdfRegistry& udfs_;
  const StoreSchema* store_;
  AnalyzeOptions options_;
  DiagnosticSink own_sink_;
  DiagnosticSink* sink_;
  Status first_error_;

  std::vector<bool> bad_;  ///< program rule index -> dropped by an error
  std::vector<PredicateInfo> preds_;
  std::set<int> head_preds_;
  std::vector<CompiledRule> rules_;
  int num_strata_ = 1;
  Direction direction_ = Direction::kLocal;
  bool vc_compatible_ = true;
  std::optional<FastCapturePlan> fast_capture_;
};

}  // namespace

Result<AnalyzedQuery> Analyze(const Program& program, const Catalog& catalog,
                              const UdfRegistry& udfs,
                              const StoreSchema* store,
                              const AnalyzeOptions& options,
                              DiagnosticSink* sink) {
  return Analyzer(program, catalog, udfs, store, options, sink).Run();
}

}  // namespace ariadne
