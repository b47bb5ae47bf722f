#include "eval/common.h"

#include <algorithm>
#include <array>
#include <bit>

#include "common/timer.h"
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
  parts_.clear();
  parts_.resize((n + kPartitionVertices - 1) / kPartitionVertices);
  first_error_ = Status::OK();
}

NodeDatabases::Partition& NodeDatabases::Part(VertexId v) {
  return parts_[PartitionOf(v)];
}

Database& NodeDatabases::Db(Partition& part) {
  if (part.db == nullptr) {
    part.db = std::make_unique<Database>(query_);
    const size_t holders = kPartitionVertices;
    part.is_active.assign(holders, 0);
    part.ship_scan.assign(query_->shipped_preds().size(), 0);
    part.pending.resize(holders * query_->shipped_preds().size());
    part.capture_mark.assign(query_->output_preds().size(), 0);
    part.captured.resize(holders * query_->output_preds().size());
    part.last_retention.assign(holders, 0);
    part.retention_cutoff.assign(holders, -1);
  }
  return *part.db;
}

void NodeDatabases::Activate(VertexId v) {
  Partition& part = Part(v);
  Db(part);
  const Holder h = HolderOf(v);
  if (part.retention_cutoff[h] >= 0) ApplyRetentionAt(part, h);
  if (part.is_active[h] != 0) return;
  part.is_active[h] = 1;
  part.active.push_back(h);
}

void NodeDatabases::Insert(VertexId v, int pred,
                           std::span<const Value> tuple) {
  Db(Part(v)).Rel(pred).Insert(HolderOf(v), tuple);
}

Relation& NodeDatabases::FactRelation(VertexId v, int pred) {
  return Db(Part(v)).Rel(pred);
}

FactView& NodeDatabases::Facts(VertexId v, int pred) {
  return Db(Part(v)).Facts(pred);
}

namespace {

/// Whether `holder` has a live row of `rel` that agrees with `row` on the
/// columns `key`.
bool HoldsKey(Relation& rel, Holder holder, ColumnSet key, const Value* row) {
  std::array<const Value*, kMaxKeyColumns> values;
  size_t n = 0;
  for (ColumnSet rest = key; rest != 0; rest &= rest - 1) {
    values[n++] = row + std::countr_zero(rest);
  }
  for (uint32_t i : rel.Probe(holder, key, std::span(values.data(), n))) {
    if (rel.alive(i)) return true;
  }
  return false;
}

}  // namespace

void NodeDatabases::InsertShips(VertexId v, const ShipBatch& batch,
                                ShipRange range) {
  Database& db = Db(Part(v));
  const Holder h = HolderOf(v);
  for (uint32_t i = range.begin; i < range.end; ++i) {
    const ShipBatch::Row& row = batch.rows[i];
    const PredicateInfo& info = query_->pred(row.pred);
    Relation& rel = db.Rel(row.pred);
    const Value* values = batch.values.data() + row.begin;
    // A row agreeing with a held one on the ship key unifies with the
    // receiver's remote atoms exactly as that row does: drop it.
    if (info.ship_keyed() && HoldsKey(rel, h, info.ship_key, values)) continue;
    rel.Insert(h, std::span<const Value>(values,
                                         static_cast<size_t>(rel.arity())));
  }
}

void NodeDatabases::ClearHolder(VertexId v, int pred) {
  Relation* rel = Db(Part(v)).MutableRelIfExists(pred);
  if (rel != nullptr) rel->KillHolder(HolderOf(v));
}

Result<bool> NodeDatabases::EvaluatePartition(size_t p, int max_stratum) {
  Partition& part = parts_[p];
  if (part.db == nullptr || part.active.empty()) return false;
  std::sort(part.active.begin(), part.active.end());
  EvalContext ctx;
  ctx.db = part.db.get();
  ctx.graph = graph_;
  ctx.holder_base = static_cast<VertexId>(p) * kPartitionVertices;
  ctx.holders = part.active;
  ctx.max_stratum = max_stratum;
  Result<bool> evaluated = evaluator_.Evaluate(ctx);
  if (!evaluated.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_error_.ok()) first_error_ = evaluated.status();
  }
  return evaluated;
}

void NodeDatabases::EndRound(size_t p) {
  Partition& part = parts_[p];
  for (Holder h : part.active) part.is_active[h] = 0;
  part.active.clear();
  if (part.db == nullptr) return;
  const std::vector<int>& shipped = query_->shipped_preds();
  const std::vector<int>& outputs = query_->output_preds();
  part.db->Compact([&](int pred, const std::vector<uint32_t>& remap) {
    for (size_t k = 0; k < shipped.size(); ++k) {
      if (shipped[k] != pred) continue;
      part.ship_scan[k] = remap[std::min(part.ship_scan[k], remap.size() - 1)];
      for (size_t h = 0; h < kPartitionVertices; ++h) {
        std::vector<uint32_t>& rows = part.pending[h * shipped.size() + k];
        // A dead row maps onto its live successor: drop it.
        std::erase_if(rows, [&](uint32_t row) {
          return remap[row] == remap[row + 1];
        });
        for (uint32_t& row : rows) row = remap[row];
      }
    }
    for (size_t k = 0; k < outputs.size(); ++k) {
      if (outputs[k] != pred) continue;
      part.capture_mark[k] =
          remap[std::min(part.capture_mark[k], remap.size() - 1)];
    }
  });
}

Status NodeDatabases::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_;
}

ShipRange NodeDatabases::CollectShips(VertexId v, ShipRouting routing,
                                      ShipBatch* out) {
  ShipRange range;
  range.begin = range.end = static_cast<uint32_t>(out->rows.size());
  Partition& part = Part(v);
  if (part.db == nullptr) return range;
  const std::vector<int>& shipped = query_->shipped_preds();
  const Holder h = HolderOf(v);
  const VertexId base = v - static_cast<VertexId>(h);
  for (size_t k = 0; k < shipped.size(); ++k) {
    const int pred = shipped[k];
    if (query_->pred(pred).routing != routing) continue;
    const Relation* rel = part.db->RelIfExists(pred);
    if (rel == nullptr) continue;
    // Sort the partition's rows inserted since the last scan into their
    // holders' pending lists (self-located rows only).
    for (size_t i = part.ship_scan[k]; i < rel->end_row(); ++i) {
      if (!rel->alive(i)) continue;
      const Holder holder = rel->holder_of(i);
      const Relation::RowView row = rel->row_view(i);
      if (row.size() > 0 &&
          row.Equals(0, Value(static_cast<int64_t>(base + holder)))) {
        part.pending[holder * shipped.size() + k].push_back(
            static_cast<uint32_t>(i));
      }
    }
    part.ship_scan[k] = rel->end_row();
    std::vector<uint32_t>& rows = part.pending[h * shipped.size() + k];
    for (uint32_t i : rows) {
      if (!rel->alive(i)) continue;
      const Relation::RowView row = rel->row_view(i);
      out->rows.push_back(
          ShipBatch::Row{pred, static_cast<uint32_t>(out->values.size())});
      for (size_t c = 0; c < row.size(); ++c) {
        out->values.push_back(row.value(c));
      }
    }
    rows.clear();
  }
  range.end = static_cast<uint32_t>(out->rows.size());
  return range;
}

void NodeDatabases::CollectCaptures(size_t p, const CaptureVisitor& emit) {
  Partition& part = parts_[p];
  if (part.db == nullptr) return;
  const std::vector<int>& outputs = query_->output_preds();
  const size_t n_out = outputs.size();
  const VertexId base = static_cast<VertexId>(p) * kPartitionVertices;
  bool any = false;
  for (size_t k = 0; k < n_out; ++k) {
    const Relation* rel = part.db->RelIfExists(outputs[k]);
    if (rel == nullptr) continue;
    for (size_t i = part.capture_mark[k]; i < rel->end_row(); ++i) {
      if (!rel->alive(i)) continue;
      const Holder holder = rel->holder_of(i);
      const Relation::RowView row = rel->row_view(i);
      if (row.size() == 0 || !row.is_int(0) ||
          row.AsInt(0) != base + static_cast<VertexId>(holder)) {
        continue;
      }
      part.captured[holder * n_out + k].push_back(static_cast<uint32_t>(i));
      any = true;
    }
    part.capture_mark[k] = rel->end_row();
  }
  if (!any) return;
  for (Holder h = 0; h < kPartitionVertices; ++h) {
    for (size_t k = 0; k < n_out; ++k) {
      std::vector<uint32_t>& rows = part.captured[h * n_out + k];
      if (rows.empty()) continue;
      emit(base + static_cast<VertexId>(h), outputs[k],
           *part.db->RelIfExists(outputs[k]), rows);
      rows.clear();
    }
  }
}

void NodeDatabases::Retain(VertexId v, Superstep step, int window) {
  Partition& part = Part(v);
  const Holder h = HolderOf(v);
  if (window <= 0 || part.db == nullptr ||
      step - part.last_retention[h] < 2 * window) {
    return;
  }
  part.last_retention[h] = step;
  if (step - window >= 0) part.retention_cutoff[h] = step - window;
}

void NodeDatabases::ApplyRetentionAt(Partition& part, Holder h) {
  DropHistory(*query_, *part.db, part.retention_cutoff[h], h);
  part.retention_cutoff[h] = -1;
}

void NodeDatabases::ApplyPendingRetention() {
  for (Partition& part : parts_) {
    if (part.db == nullptr) continue;
    for (Holder h = 0; h < kPartitionVertices; ++h) {
      if (part.retention_cutoff[h] >= 0) ApplyRetentionAt(part, h);
    }
  }
}

MergedNodes NodeDatabases::Merge() const {
  MergedNodes merged;
  for (const Partition& part : parts_) {
    if (part.db == nullptr) continue;
    merged.result.Merge(*query_, *part.db);
    merged.eval.Merge(part.db->eval_stats());
    merged.state_bytes += part.db->TotalBytes();
  }
  return merged;
}

ShipExchange::ShipExchange(const AnalyzedQuery* query, const Graph* graph)
    : graph_(graph) {
  for (ShipRouting routing :
       {ShipRouting::kAlongMessages, ShipRouting::kAlongReverseMessages,
        ShipRouting::kAlongOutEdges, ShipRouting::kAlongInEdges}) {
    for (int pred : query->shipped_preds()) {
      if (query->pred(pred).routing != routing) continue;
      routings_.push_back(routing);
      break;
    }
  }
  const size_t n = static_cast<size_t>(graph_->num_vertices());
  const size_t parts = (n + kPartitionVertices - 1) / kPartitionVertices;
  outboxes_.resize(parts);
  arrived_.resize(parts);
  offsets_.assign(n + 1, 0);
}

void ShipExchange::Barrier() {
  // A counting sort of the outboxes by receiver, stable in partition (and
  // so sender) order.
  std::fill(offsets_.begin(), offsets_.end(), 0);
  for (const Outbox& out : outboxes_) {
    for (const auto& [target, range] : out.entries) {
      ++offsets_[static_cast<size_t>(target) + 1];
    }
  }
  recipients_.clear();
  for (size_t v = 0; v + 1 < offsets_.size(); ++v) {
    if (offsets_[v + 1] != 0) recipients_.push_back(static_cast<VertexId>(v));
    offsets_[v + 1] += offsets_[v];
  }
  inbox_.resize(offsets_.back());
  std::vector<uint32_t> next(offsets_.begin(), offsets_.end() - 1);
  for (size_t p = 0; p < outboxes_.size(); ++p) {
    std::swap(arrived_[p], outboxes_[p].batch);
    outboxes_[p].batch.Clear();
    for (const auto& [target, range] : outboxes_[p].entries) {
      inbox_[next[static_cast<size_t>(target)]++] =
          Delivery{static_cast<uint32_t>(p), range};
    }
    outboxes_[p].entries.clear();
  }
}

void ShipExchange::Deliver(VertexId v, NodeDatabases& nodes) const {
  const size_t i = static_cast<size_t>(v);
  for (uint32_t k = offsets_[i]; k < offsets_[i + 1]; ++k) {
    nodes.InsertShips(v, arrived_[inbox_[k].partition], inbox_[k].range);
  }
}

bool ShipExchange::Ship(VertexId v, ShipRouting routing,
                        std::span<const VertexId> targets,
                        NodeDatabases& nodes) {
  if (targets.empty()) return false;
  Outbox& out = outboxes_[NodeDatabases::PartitionOf(v)];
  const ShipRange range = nodes.CollectShips(v, routing, &out.batch);
  if (range.empty()) return false;
  for (VertexId target : targets) {
    if (target >= 0 && target < graph_->num_vertices()) {
      out.entries.emplace_back(target, range);
    }
  }
  return true;
}

RoundResult RunRound(NodeDatabases& nodes, ShipExchange& ships,
                     const Round& round) {
  // Each partition's active vertices are a run of the ascending list.
  const std::span<const VertexId> active = round.active;
  std::vector<std::span<const VertexId>> parts;
  for (auto it = active.begin(); it != active.end();) {
    const VertexId limit = (*it / kPartitionVertices + 1) * kPartitionVertices;
    const auto end = std::lower_bound(it, active.end(), limit);
    parts.emplace_back(it, end);
    it = end;
  }
  std::vector<uint8_t> progress(parts.size(), 0);
  std::vector<EvalPhases> phases(parts.size());
  auto run = [&](size_t i) {
    const std::span<const VertexId> vertices = parts[i];
    const size_t p = NodeDatabases::PartitionOf(vertices.front());
    // Facts, then deliveries, so each is timed once per partition. Every
    // vertex still gets its facts before its ships: rows of different
    // holders never meet.
    WallTimer timer;
    for (VertexId v : vertices) {
      nodes.Activate(v);
      if (round.facts) round.facts(v);
    }
    EvalPhases& phase = phases[i];
    phase.facts = timer.Lap();
    for (VertexId v : vertices) ships.Deliver(v, nodes);
    phase.ships = timer.Lap();
    Result<bool> evaluated = nodes.EvaluatePartition(p, round.max_stratum);
    bool any = evaluated.ok() && *evaluated;
    phase.rules = timer.Lap();
    for (VertexId v : vertices) {
      for (ShipRouting routing : ships.routings()) {
        if (ships.Ship(v, routing, round.targets(v, routing), nodes)) {
          any = true;
        }
      }
    }
    phase.ships += timer.Lap();
    if (round.on_partition) round.on_partition(p, vertices);
    nodes.EndRound(p);
    progress[i] = any ? 1 : 0;
    phase.round_end = timer.Lap();
  };
  if (round.pool != nullptr) {
    round.pool->ParallelForChunked(
        parts.size(), 1,
        [&](size_t /*worker*/, size_t /*chunk*/, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) run(i);
        });
  } else {
    for (size_t i = 0; i < parts.size(); ++i) run(i);
  }
  RoundResult result;
  result.progress =
      std::find(progress.begin(), progress.end(), 1) != progress.end();
  for (const EvalPhases& part : phases) result.phases.Add(part);
  return result;
}

void EvalPhases::Add(const EvalPhases& o) {
  read += o.read;
  view += o.view;
  facts += o.facts;
  ships += o.ships;
  rules += o.rules;
  round_end += o.round_end;
}

void DropHistory(const AnalyzedQuery& query, Database& db, Superstep cutoff,
                 Holder holder) {
  for (int p = 0; p < query.num_preds(); ++p) {
    const PredicateInfo& info = query.pred(p);
    if (info.is_idb() || IsStaticEdb(info.edb) || IsTransientEdb(info.edb)) {
      continue;
    }
    const auto step_col = EdbStepColumn(info.edb);
    if (!step_col.has_value()) continue;
    Relation* rel = db.MutableRelIfExists(p);
    if (rel == nullptr) continue;
    const size_t col = static_cast<size_t>(*step_col);
    // A no-op for a holder without rows.
    rel->KillHolderIf(holder, [col, cutoff](const Relation::RowView& row) {
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
