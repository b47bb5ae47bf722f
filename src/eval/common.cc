#include "eval/common.h"

#include <algorithm>

#include "provenance/store.h"

namespace ariadne {

const char* CaptureDegradePolicyToString(CaptureDegradePolicy policy) {
  switch (policy) {
    case CaptureDegradePolicy::kFail:
      return "fail";
    case CaptureDegradePolicy::kCaptureOff:
      return "capture-off";
    case CaptureDegradePolicy::kForwardLineage:
      return "forward-lineage";
  }
  return "?";
}

Status CheckDegradedCapture(const AnalyzedQuery& query,
                            const ProvenanceStore& store) {
  if (!store.degraded()) return Status::OK();
  const std::vector<int>& surviving = store.surviving_relations();
  for (size_t r = 0; r < store.schema().size(); ++r) {
    if (query.PredId(store.schema()[r].name) < 0) continue;  // not read
    if (std::find(surviving.begin(), surviving.end(), static_cast<int>(r)) !=
        surviving.end()) {
      continue;
    }
    return Status::Unsupported(
        "cannot evaluate over a degraded capture: relation '" +
        store.schema()[r].name + "' stopped being captured at superstep " +
        std::to_string(store.degraded_at()) +
        (store.degraded_reason().empty()
             ? std::string()
             : " (" + store.degraded_reason() + ")") +
        "; re-run capture or restrict the query to surviving relations");
  }
  return Status::OK();
}

NodeDatabases::NodeDatabases(const AnalyzedQuery* query, const Graph* graph)
    : query_(query), graph_(graph), evaluator_(query) {
  Reset();
}

void NodeDatabases::Reset() {
  const size_t n = static_cast<size_t>(graph_->num_vertices());
  nodes_.clear();
  nodes_.resize(n);
  ship_marks_.assign(n * query_->shipped_preds().size(), 0);
  capture_marks_.assign(n * query_->output_preds().size(), 0);
  first_error_ = Status::OK();
}

Database& NodeDatabases::Db(VertexId v) {
  std::unique_ptr<Database>& db = nodes_[static_cast<size_t>(v)].db;
  if (db == nullptr) db = std::make_unique<Database>(query_);
  return *db;
}

void NodeDatabases::Deliver(VertexId v, const ShipBundle& bundle) {
  Database& db = Db(v);
  for (const auto& [pred, tuples] : bundle) {
    Relation& rel = db.Rel(pred);
    for (const Tuple& t : tuples) rel.Insert(t);
  }
}

Result<bool> NodeDatabases::Evaluate(VertexId v, int max_stratum) {
  EvalContext ctx;
  ctx.db = &Db(v);
  ctx.graph = graph_;
  ctx.local_vertex = v;
  ctx.max_stratum = max_stratum;
  Result<bool> evaluated = evaluator_.Evaluate(ctx);
  if (!evaluated.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_error_.ok()) first_error_ = evaluated.status();
  }
  return evaluated;
}

Status NodeDatabases::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_;
}

void NodeDatabases::CollectLocal(VertexId v, const std::vector<int>& preds,
                                 size_t* marks,
                                 std::optional<ShipRouting> routing,
                                 ShipBundle* out) const {
  const Database* db = nodes_[static_cast<size_t>(v)].db.get();
  if (db == nullptr) return;
  const Value self(static_cast<int64_t>(v));
  for (size_t k = 0; k < preds.size(); ++k) {
    const int pred = preds[k];
    if (routing && query_->pred(pred).routing != *routing) continue;
    const Relation* rel = db->RelIfExists(pred);
    const size_t size = rel == nullptr ? 0 : rel->size();
    if (size <= marks[k]) continue;
    std::vector<Tuple> tuples;
    tuples.reserve(size - marks[k]);
    for (size_t i = marks[k]; i < size; ++i) {
      const Relation::RowView row = rel->row_view(i);
      if (row.size() > 0 && row.Equals(0, self)) {
        tuples.push_back(row.ToTuple());
      }
    }
    marks[k] = size;
    if (!tuples.empty()) out->emplace_back(pred, std::move(tuples));
  }
}

ShipBundlePtr NodeDatabases::CollectShips(VertexId v,
                                          std::optional<ShipRouting> routing) {
  const std::vector<int>& shipped = query_->shipped_preds();
  ShipBundle bundle;
  CollectLocal(v, shipped,
               ship_marks_.data() + static_cast<size_t>(v) * shipped.size(),
               routing, &bundle);
  if (bundle.empty()) return nullptr;
  return std::make_shared<const ShipBundle>(std::move(bundle));
}

ShipBundle NodeDatabases::CollectCaptureDelta(VertexId v) {
  const std::vector<int>& outputs = query_->output_preds();
  ShipBundle delta;
  CollectLocal(v, outputs,
               capture_marks_.data() + static_cast<size_t>(v) * outputs.size(),
               std::nullopt, &delta);
  return delta;
}

void NodeDatabases::Retain(VertexId v, Superstep step, int window) {
  Node& node = nodes_[static_cast<size_t>(v)];
  if (window <= 0 || node.db == nullptr ||
      step - node.last_retention < 2 * window) {
    return;
  }
  ApplyRetention(*query_, *node.db, step, window);
  node.last_retention = step;
}

MergedNodes NodeDatabases::Merge() const {
  MergedNodes merged;
  for (const Node& node : nodes_) {
    if (node.db == nullptr) continue;
    merged.result.Merge(*query_, *node.db);
    merged.eval.Merge(node.db->eval_stats());
    merged.state_bytes += node.db->TotalBytes();
  }
  return merged;
}

void ApplyRetention(const AnalyzedQuery& query, Database& db,
                    Superstep current, int window) {
  if (window <= 0) return;
  const Superstep cutoff = current - window;
  if (cutoff < 0) return;
  for (int p = 0; p < query.num_preds(); ++p) {
    const PredicateInfo& info = query.pred(p);
    if (info.is_idb() || IsStaticEdb(info.edb) || IsTransientEdb(info.edb)) {
      continue;
    }
    const auto step_col = EdbStepColumn(info.edb);
    if (!step_col.has_value()) continue;
    Relation* rel = db.MutableRelIfExists(p);
    if (rel == nullptr || rel->empty()) continue;
    const size_t col = static_cast<size_t>(*step_col);
    rel->RemoveIf([col, cutoff](const Relation::RowView& row) {
      return row.is_int(col) && row.AsInt(col) < cutoff;
    });
  }
}

const char* EvalModeToString(EvalMode mode) {
  switch (mode) {
    case EvalMode::kOnline:
      return "online";
    case EvalMode::kLayered:
      return "layered";
    case EvalMode::kNaive:
      return "naive";
  }
  return "?";
}

Status ValidateMode(const AnalyzedQuery& query, EvalMode mode) {
  switch (mode) {
    case EvalMode::kOnline:
      if (!query.vc_compatible() ||
          (query.direction() != Direction::kForward &&
           query.direction() != Direction::kLocal)) {
        return Status::InvalidArgument(
            "online evaluation requires a forward (or local) VC-compatible "
            "query; this query is " +
            std::string(DirectionToString(query.direction())));
      }
      return Status::OK();
    case EvalMode::kLayered:
      if (!query.vc_compatible() ||
          query.direction() == Direction::kUndirected) {
        return Status::InvalidArgument(
            "layered evaluation requires a directed VC-compatible query; "
            "this query is " +
            std::string(DirectionToString(query.direction())));
      }
      return Status::OK();
    case EvalMode::kNaive:
      return Status::OK();
  }
  return Status::Internal("unknown mode");
}

}  // namespace ariadne
