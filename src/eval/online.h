#ifndef ARIADNE_EVAL_ONLINE_H_
#define ARIADNE_EVAL_ONLINE_H_

#include <algorithm>
#include <array>
#include <span>
#include <utility>
#include <vector>

#include "analytics/value_traits.h"
#include "common/logging.h"
#include "engine/vertex_program.h"
#include "eval/common.h"
#include "provenance/store.h"
#include "recovery/checkpoint.h"
#include "storage/capture_batch.h"
#include "storage/page.h"

namespace ariadne {

/// Envelope around an analytic's message during online/capture runs: the
/// sender id, which the receive-message provenance relation records and
/// the barrier routes the sender's shipped query rows by (paper §5.2).
template <typename M>
struct OnlineMessage {
  VertexId src = 0;
  M payload{};
};

namespace recovery {

/// Checkpoint serialization of in-flight online messages, so capture runs
/// are engine-checkpointable. Shipped query rows never ride a message
/// (they wait in the barrier's per-partition batches), so the record
/// keeps a ship count that is always 0.
template <typename M>
  requires Checkpointable<M>
struct CheckpointTraits<OnlineMessage<M>> {
  static void Write(BinaryWriter& w, const OnlineMessage<M>& m) {
    w.WriteI64(m.src);
    CheckpointTraits<M>::Write(w, m.payload);
    w.WriteU64(0);
  }

  static Result<OnlineMessage<M>> Read(BinaryReader& r) {
    OnlineMessage<M> m;
    ARIADNE_ASSIGN_OR_RETURN(int64_t src, r.ReadI64());
    m.src = static_cast<VertexId>(src);
    ARIADNE_ASSIGN_OR_RETURN(m.payload, CheckpointTraits<M>::Read(r));
    ARIADNE_ASSIGN_OR_RETURN(uint64_t n_ships, r.ReadU64());
    if (n_ships != 0) {
      return Status::ParseError("checkpointed online message carries " +
                                std::to_string(n_ships) +
                                " ship relation(s); only ship-free "
                                "messages are checkpointed");
    }
    return m;
  }
};

}  // namespace recovery

struct OnlineOptions {
  /// Persist derived relations (plus the superstep/evolution skeleton)
  /// into `store`, layer by layer — this is capture mode (paper Fig 1a).
  /// With a null store the run is pure online querying (paper Fig 2).
  ProvenanceStore* store = nullptr;
  /// EDB history window in supersteps (0 = keep everything). Safe for
  /// queries that only join the previous activation (evolution / i-1).
  int retention_window = 0;
  /// Disable the compiled projection fast path for capture queries and
  /// interpret them like any other query (ablation / fair comparisons).
  bool disable_fast_capture = false;
  /// What to do when the store reports an unrecoverable append/spill
  /// failure mid-run (DESIGN.md §2.4). Anything but kFail keeps the
  /// analytic alive and degrades the capture instead.
  CaptureDegradePolicy degrade_policy = CaptureDegradePolicy::kFail;
};

/// Wraps an unmodified analytic `P` and evaluates a forward PQL query in
/// lockstep with it (paper §5.2, Theorem 5.4). The wrapper is itself an
/// ordinary vertex program: the engine is untouched and the analytic is
/// untouched. Compute runs the analytic and records the activation's
/// facts; the query evaluates set-at-a-time at the superstep barrier
/// (MasterCompute, on the engine's workers) as one RunRound, and a
/// vertex's shipped rows reach exactly the vertices its analytic messages
/// reach, one superstep later (Theorem 5.4 ii).
///
/// The same wrapper implements declarative capture (paper Fig 1a): with a
/// ProvenanceStore attached, the query's derived tuples are persisted per
/// layer. Projection-only capture queries (paper Queries 2 and 11) take a
/// compiled fast path that bypasses Datalog evaluation entirely. Either
/// way each partition writes its rows into its own column batch at the
/// barrier, and the sealed layer joins them in partition order.
template <typename P>
class OnlineProgram final
    : public VertexProgram<typename P::ValueType,
                           OnlineMessage<typename P::MessageType>> {
 public:
  using V = typename P::ValueType;
  using M = typename P::MessageType;
  using WrappedMessage = OnlineMessage<M>;

  /// All pointers must outlive the program. `query` must be analyzed with
  /// transient EDBs allowed and must pass ValidateMode for kOnline.
  OnlineProgram(P* analytic, const AnalyzedQuery* query, const Graph* graph,
                OnlineOptions options = {})
      : analytic_(analytic),
        query_(query),
        graph_(graph),
        options_(options),
        nodes_(query, graph),
        ships_(query, graph),
        fast_capture_steps_(FastCaptureSteps()) {
    value_pred_ = query_->PredId("value");
    vertex_value_now_pred_ = query_->PredId("vertex-value");
    superstep_pred_ = query_->PredId("superstep");
    evolution_pred_ = query_->PredId("evolution");
    send_pred_ = query_->PredId("send-message");
    send_now_pred_ = query_->PredId("send");
    receive_pred_ = query_->PredId("receive-message");
    receive_now_pred_ = query_->PredId("receive");
    if (options_.store != nullptr) {
      capture_rels_.assign(static_cast<size_t>(query_->num_preds()), -1);
      for (int pred : query_->output_preds()) {
        capture_rels_[static_cast<size_t>(pred)] = options_.store->AddRelation(
            query_->pred(pred).name, query_->pred(pred).arity);
      }
      skeleton_superstep_rel_ = options_.store->AddRelation("superstep", 2);
      skeleton_evolution_rel_ = options_.store->AddRelation("evolution", 3);
    }
  }

  // ---- VertexProgram interface (transparent delegation) ----

  V InitialValue(VertexId id, const Graph& graph) const override {
    return analytic_->InitialValue(id, graph);
  }

  void RegisterAggregators(AggregatorRegistry& registry) override {
    analytic_->RegisterAggregators(registry);
    // Run start: reset wrapper state.
    nodes_.Reset();
    ships_ = ShipExchange(query_, graph_);
    const size_t n = static_cast<size_t>(graph_->num_vertices());
    last_active_.assign(n, -1);
    activations_.assign(n, Activation{});
    partition_batches_.assign(
        options_.store != nullptr ? nodes_.num_partitions() : 0, {});
    first_error_ = Status::OK();
    capture_degraded_ = false;
    capture_degraded_at_ = -1;
    capture_off_ = false;
    forward_lineage_only_ = false;
    checkpointed_layers_ = 0;
    segments_valid_bytes_ = 0;
    if (options_.store != nullptr) ProjectStaticCapture();
  }

  void MasterCompute(MasterContext& master) override {
    analytic_->MasterCompute(master);
    EvaluateBarrier(master);
    if (options_.store != nullptr) SealLayer(master.superstep);
  }

  void Compute(VertexContext<V, WrappedMessage>& ctx,
               std::span<const WrappedMessage> messages) override {
    const VertexId v = ctx.id();
    const Superstep step = ctx.superstep();

    // 1. Run the analytic against an adapter that buffers its sends, in
    //    this thread's buffers.
    ComputeBuffers& buffers = ThreadBuffers();
    buffers.payloads.clear();
    buffers.sends.clear();
    Adapter adapter(&ctx, buffers.sends);
    for (const auto& m : messages) buffers.payloads.push_back(m.payload);
    analytic_->Compute(adapter, buffers.payloads);

    // 2. Record the transient provenance of this step: the barrier
    //    evaluates the query over it (or projects it straight into the
    //    layer on the fast capture path).
    Record(ctx, adapter, messages);
    last_active_[static_cast<size_t>(v)] = step;

    // 3. Release the analytic's messages.
    for (auto& [target, payload] : adapter.sends) {
      ctx.SendMessage(target, WrappedMessage{v, std::move(payload)});
    }
    if (adapter.voted_halt) ctx.VoteToHalt();
  }

  // ---- Results ----

  /// The query's tables, evaluator counters and state bytes at the end of
  /// the run (transient provenance). Applies the retention decided at
  /// each vertex's last activation first.
  MergedNodes Merge() {
    nodes_.ApplyPendingRetention();
    return nodes_.Merge();
  }

  /// First capture-append or evaluation error (OK when the run was clean).
  Status status() const {
    return first_error_.ok() ? nodes_.status() : first_error_;
  }

  /// True when a storage failure downgraded the capture mid-run (the
  /// analytic itself completed exactly; only the store is partial).
  bool capture_degraded() const { return capture_degraded_; }
  Superstep capture_degraded_at() const { return capture_degraded_at_; }

  // ---- Checkpoint hooks (engine barrier; no worker concurrency) ----

  /// Only capture runs on the compiled fast path checkpoint: the generic
  /// path keeps Datalog state (the partition databases) with no
  /// serialization.
  bool checkpoint_supported(std::string* why) const override {
    if (!analytic_->checkpoint_supported(why)) return false;
    if (options_.store == nullptr) {
      if (why != nullptr) {
        *why = "online query evaluation keeps per-partition Datalog state "
               "that does not serialize; checkpointing supports capture "
               "runs only";
      }
      return false;
    }
    if (!query_->fast_capture().has_value() || options_.disable_fast_capture) {
      if (why != nullptr) {
        *why = "capture via the generic evaluation path keeps "
               "per-partition Datalog state; only projection-only "
               "(fast-capture) queries support checkpointing";
      }
      return false;
    }
    return true;
  }

  /// Body layout: analytic state, last-active vector, degradation
  /// flags (+ reason and surviving relations when degraded), the store
  /// schema, then a watermark into the segments sidecar. The layers
  /// themselves go to the sidecar incrementally — only layers sealed
  /// since the previous checkpoint are encoded, so per-checkpoint cost
  /// is O(new layers), not O(whole store). The static layer is not
  /// checkpointed: RegisterAggregators re-projects it deterministically
  /// on resume.
  Status SaveCheckpointState(BinaryWriter& w,
                             const CheckpointIo& io) override {
    ARIADNE_RETURN_NOT_OK(analytic_->SaveCheckpointState(w, io));
    w.WriteU64(last_active_.size());
    for (Superstep s : last_active_) w.WriteI64(s);
    w.WriteU8(capture_degraded_ ? 1 : 0);
    w.WriteI64(capture_degraded_at_);
    if (capture_degraded_) {
      w.WriteString(options_.store->degraded_reason());
      const std::vector<int>& surviving =
          options_.store->surviving_relations();
      w.WriteU64(surviving.size());
      for (int rel : surviving) w.WriteI64(rel);
    }
    const auto& schema = options_.store->schema();
    w.WriteU64(schema.size());
    for (const auto& rel : schema) {
      w.WriteString(rel.name);
      w.WriteU32(static_cast<uint32_t>(rel.arity));
    }
    const int n_layers = options_.store->num_layers();
    if (n_layers > checkpointed_layers_) {
      BinaryWriter segment;
      segment.WriteU64(static_cast<uint64_t>(n_layers - checkpointed_layers_));
      for (int step = checkpointed_layers_; step < n_layers; ++step) {
        // Same per-layer record as the APV2 image, so resumed stores
        // re-serialize byte-identically.
        Status written = options_.store->WriteLayerRecord(step, segment);
        if (!written.ok()) {
          return written.WithContext("checkpointing layer " +
                                     std::to_string(step));
        }
      }
      ARIADNE_ASSIGN_OR_RETURN(
          segments_valid_bytes_,
          recovery::AppendSegmentFile(recovery::SegmentsPath(io.dir),
                                      segments_valid_bytes_,
                                      segment.data()));
      checkpointed_layers_ = n_layers;
    }
    w.WriteI64(checkpointed_layers_);
    w.WriteU64(segments_valid_bytes_);
    return Status::OK();
  }

  Status LoadCheckpointState(BinaryReader& r,
                             const CheckpointIo& io) override {
    ARIADNE_RETURN_NOT_OK(analytic_->LoadCheckpointState(r, io));
    ARIADNE_ASSIGN_OR_RETURN(uint64_t n, r.ReadU64());
    if (n != last_active_.size()) {
      return Status::ParseError(
          "checkpointed last-active vector covers " + std::to_string(n) +
          " vertices, graph has " + std::to_string(last_active_.size()));
    }
    for (size_t i = 0; i < last_active_.size(); ++i) {
      ARIADNE_ASSIGN_OR_RETURN(int64_t s, r.ReadI64());
      last_active_[i] = static_cast<Superstep>(s);
    }
    ARIADNE_ASSIGN_OR_RETURN(uint8_t degraded, r.ReadU8());
    ARIADNE_ASSIGN_OR_RETURN(int64_t degraded_at, r.ReadI64());
    std::string degraded_reason;
    std::vector<int> surviving;
    if (degraded != 0) {
      ARIADNE_ASSIGN_OR_RETURN(degraded_reason, r.ReadString());
      ARIADNE_ASSIGN_OR_RETURN(uint64_t n_surviving, r.ReadU64());
      if (n_surviving > r.remaining() / 8) {
        return Status::ParseError(
            "surviving-relation count " + std::to_string(n_surviving) +
            " exceeds remaining checkpoint bytes");
      }
      for (uint64_t i = 0; i < n_surviving; ++i) {
        ARIADNE_ASSIGN_OR_RETURN(int64_t rel, r.ReadI64());
        surviving.push_back(static_cast<int>(rel));
      }
    }
    // The ctor already registered this run's schema in the live store;
    // a mismatch means the checkpoint belongs to a different query.
    ARIADNE_ASSIGN_OR_RETURN(uint64_t n_rels, r.ReadU64());
    if (n_rels != options_.store->schema().size()) {
      return Status::ParseError(
          "checkpointed store schema has " + std::to_string(n_rels) +
          " relations, expected " +
          std::to_string(options_.store->schema().size()));
    }
    for (uint64_t i = 0; i < n_rels; ++i) {
      ARIADNE_ASSIGN_OR_RETURN(std::string name, r.ReadString());
      ARIADNE_ASSIGN_OR_RETURN(uint32_t arity, r.ReadU32());
      const auto& live = options_.store->schema()[i];
      if (name != live.name || static_cast<int>(arity) != live.arity) {
        return Status::ParseError(
            "checkpointed store relation " + std::to_string(i) + " is '" +
            name + "/" + std::to_string(arity) + "', expected '" + live.name +
            "/" + std::to_string(live.arity) + "'");
      }
    }
    ARIADNE_ASSIGN_OR_RETURN(int64_t n_ckpt_layers, r.ReadI64());
    ARIADNE_ASSIGN_OR_RETURN(uint64_t valid_bytes, r.ReadU64());
    if (options_.store->num_layers() != 0) {
      return Status::InvalidArgument(
          "resume requires an empty provenance store (it already holds " +
          std::to_string(options_.store->num_layers()) + " layer(s))");
    }
    // Re-applying degradation before the appends keeps the replay
    // resident-only, exactly like the degraded original.
    capture_degraded_ = degraded != 0;
    capture_degraded_at_ = static_cast<Superstep>(degraded_at);
    capture_off_ = capture_degraded_ &&
                   options_.degrade_policy == CaptureDegradePolicy::kCaptureOff;
    forward_lineage_only_ =
        capture_degraded_ &&
        options_.degrade_policy == CaptureDegradePolicy::kForwardLineage;
    if (capture_degraded_) {
      options_.store->EnterStorageDegradedMode();
      options_.store->MarkDegraded(capture_degraded_at_, std::move(surviving),
                                   std::move(degraded_reason));
    }
    const std::string segments_path = recovery::SegmentsPath(io.dir);
    ARIADNE_ASSIGN_OR_RETURN(
        std::vector<std::string> segments,
        recovery::ReadSegmentsFile(segments_path, valid_bytes));
    int64_t appended = 0;
    for (size_t seg = 0; seg < segments.size(); ++seg) {
      BinaryReader sr(std::move(segments[seg]));
      ARIADNE_ASSIGN_OR_RETURN(uint64_t n_seg_layers, sr.ReadU64());
      // A layer costs >= 24 bytes (step + page count + blob length).
      if (n_seg_layers > sr.remaining() / 24) {
        return Status::ParseError(
            "layer count " + std::to_string(n_seg_layers) +
            " exceeds segment " + std::to_string(seg) + " of " +
            segments_path);
      }
      for (uint64_t i = 0; i < n_seg_layers; ++i) {
        ARIADNE_ASSIGN_OR_RETURN(int64_t step, sr.ReadI64());
        ARIADNE_ASSIGN_OR_RETURN(uint64_t n_pages, sr.ReadU64());
        ARIADNE_ASSIGN_OR_RETURN(std::string blob, sr.ReadString());
        if (n_pages > blob.size() / storage::kPageWireHeaderBytes) {
          return Status::ParseError(
              "page count " + std::to_string(n_pages) +
              " exceeds layer blob in segment " + std::to_string(seg) +
              " of " + segments_path);
        }
        storage::CaptureBatch batch;
        batch.step = static_cast<Superstep>(step);
        size_t offset = 0;
        for (uint64_t p = 0; p < n_pages; ++p) {
          auto page = storage::ParsePage(blob, &offset);
          if (!page.ok()) {
            return page.status().WithContext(segments_path + " (segment " +
                                             std::to_string(seg) + ")");
          }
          Status decoded = storage::DecodePage(*page, &batch);
          if (!decoded.ok()) {
            return decoded.WithContext(segments_path + " (segment " +
                                       std::to_string(seg) + ", page " +
                                       std::to_string(p) + ")");
          }
        }
        if (batch.step != appended) {
          return Status::ParseError(
              "segment " + std::to_string(seg) + " of " + segments_path +
              " holds layer for superstep " + std::to_string(batch.step) +
              ", expected " + std::to_string(appended));
        }
        ARIADNE_RETURN_NOT_OK(options_.store->AppendBatch(std::move(batch)));
        ++appended;
      }
    }
    if (appended != n_ckpt_layers) {
      return Status::ParseError(
          "checkpoint references " + std::to_string(n_ckpt_layers) +
          " layer(s) but " + segments_path + " holds " +
          std::to_string(appended));
    }
    checkpointed_layers_ = static_cast<int>(appended);
    segments_valid_bytes_ = valid_bytes;
    return Status::OK();
  }

 private:
  /// Compute's scratch: the analytic's inbox and its buffered sends. One
  /// per thread (Compute never re-enters on a thread), keeping capacity
  /// from activation to activation.
  struct ComputeBuffers {
    std::vector<M> payloads;
    std::vector<std::pair<VertexId, M>> sends;
  };
  static ComputeBuffers& ThreadBuffers() {
    thread_local ComputeBuffers buffers;
    return buffers;
  }

  /// Presents the plain VertexContext<V, M> face to the analytic while
  /// buffering its sends (into `sends`) for ship attachment.
  class Adapter final : public VertexContext<V, M> {
   public:
    Adapter(VertexContext<V, WrappedMessage>* real,
            std::vector<std::pair<VertexId, M>>& sends)
        : sends(sends), real_(real) {}

    VertexId id() const override { return real_->id(); }
    Superstep superstep() const override { return real_->superstep(); }
    const Graph& graph() const override { return real_->graph(); }
    const V& value() const override { return real_->value(); }
    void SetValue(V value) override { real_->SetValue(std::move(value)); }
    void SendMessage(VertexId target, M message) override {
      sends.emplace_back(target, std::move(message));
    }
    void VoteToHalt() override { voted_halt = true; }
    void AggregateDouble(const std::string& name, double v) override {
      real_->AggregateDouble(name, v);
    }
    double GetAggregate(const std::string& name) const override {
      return real_->GetAggregate(name);
    }

    std::vector<std::pair<VertexId, M>>& sends;
    bool voted_halt = false;

   private:
    VertexContext<V, WrappedMessage>* real_;
  };

  /// One vertex's activation as Compute recorded it, for the barrier.
  struct Activation {
    Superstep step = -1;
    Superstep prev = -1;  ///< previous activation (-1 = first)
    Value value;
    std::vector<std::pair<VertexId, Value>> received;  ///< (src, payload)
    std::vector<std::pair<VertexId, Value>> sent;      ///< (target, payload)
    std::vector<VertexId> targets;  ///< sent's targets, when the query ships
  };

  bool FastPath() const {
    return query_->fast_capture().has_value() && options_.store != nullptr &&
           !options_.disable_fast_capture;
  }

  /// Compute side: keeps this activation's facts in v's slot (touched
  /// only by v's own Compute).
  void Record(VertexContext<V, WrappedMessage>& ctx, Adapter& adapter,
              std::span<const WrappedMessage> messages) {
    const VertexId v = ctx.id();
    Activation& a = activations_[static_cast<size_t>(v)];
    a.step = ctx.superstep();
    a.prev = last_active_[static_cast<size_t>(v)];
    const bool want_receive = receive_pred_ >= 0 || receive_now_pred_ >= 0;
    const bool want_send = send_pred_ >= 0 || send_now_pred_ >= 0;
    if (value_pred_ >= 0 || vertex_value_now_pred_ >= 0) {
      a.value = ValueTraits<V>::ToValue(ctx.value());
    }
    a.received.clear();
    for (const auto& m : messages) {
      a.received.emplace_back(
          m.src, want_receive ? ValueTraits<M>::ToValue(m.payload) : Value());
    }
    a.sent.clear();
    a.targets.clear();
    for (const auto& [target, payload] : adapter.sends) {
      a.sent.emplace_back(
          target, want_send ? ValueTraits<M>::ToValue(payload) : Value());
      if (!ships_.routings().empty()) a.targets.push_back(target);
    }
  }

  /// Barrier side: the vertices active this superstep run one round of
  /// the query or, on the fast capture path, project their activations.
  /// Either way the partitions run in parallel on the engine's workers,
  /// each writing its capture rows into its own batch.
  void EvaluateBarrier(MasterContext& master) {
    const Superstep step = master.superstep;
    if (FastPath()) {
      master.pool->ParallelForChunked(
          nodes_.num_partitions(), 1,
          [&](size_t /*worker*/, size_t /*chunk*/, size_t begin, size_t end) {
            for (size_t p = begin; p < end; ++p) ProjectPartition(p, step);
          });
      return;
    }
    active_.clear();
    for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
      if (activations_[static_cast<size_t>(v)].step == step) {
        active_.push_back(v);
      }
    }
    // Ships follow the analytic's messages (the receive-message guard
    // means nobody else can reference them).
    ships_.Barrier();
    Round round;
    round.active = active_;
    round.facts = [&](VertexId v) { InsertFacts(v, step); };
    round.targets = [&](VertexId v, ShipRouting) {
      return std::span<const VertexId>(
          activations_[static_cast<size_t>(v)].targets);
    };
    round.on_partition = [&](size_t p, std::span<const VertexId> vertices) {
      if (options_.store != nullptr) PersistCaptureDeltas(p, step);
      for (VertexId v : vertices) {
        nodes_.Retain(v, step, options_.retention_window);
      }
    };
    round.pool = master.pool;
    RunRound(nodes_, ships_, round);
  }

  /// Joins the partitions' batches into the layer of `step` and appends
  /// it. Partitions cover ascending vertex ranges, so the layer is in
  /// canonical (relation, vertex) order for any engine thread count with
  /// no lock and no sort; the rows themselves are deterministic because
  /// the engine delivers messages in serial order (DESIGN.md §2).
  void SealLayer(Superstep step) {
    if (capture_off_) {  // degraded, policy = capture-off
      for (storage::CaptureBatch& batch : partition_batches_) batch.Clear();
      return;
    }
    const int skeleton[] = {skeleton_superstep_rel_, skeleton_evolution_rel_};
    storage::CaptureBatch sealed = storage::CaptureBatch::Concat(
        step, partition_batches_,
        forward_lineage_only_ ? std::span<const int>(skeleton)
                              : std::span<const int>());
    for (storage::CaptureBatch& batch : partition_batches_) batch.Clear();
    Status s = options_.store->AppendBatch(std::move(sealed));
    if (s.ok() && !capture_degraded_) {
      // Append succeeds while the write-behind flusher still has
      // allowance, so also poll the sticky flush error here: the
      // barrier is where the degrade ladder can act on it.
      s = options_.store->storage_flush_error();
    }
    if (!s.ok()) HandleAppendFailure(step, s);
  }

  /// v's facts of its activation at `step`. Transient views describe only
  /// the current superstep, so they are cleared first. The superstep
  /// relation is also current-activation-only during online evaluation:
  /// past activations are reachable via evolution and the step columns of
  /// value/send-message/receive-message (catalog.h).
  void InsertFacts(VertexId v, Superstep step) {
    const Activation& a = activations_[static_cast<size_t>(v)];
    const Value loc(static_cast<int64_t>(v));
    const Value step_v(static_cast<int64_t>(step));
    for (int pred : {vertex_value_now_pred_, send_now_pred_,
                     receive_now_pred_, superstep_pred_}) {
      if (pred >= 0) nodes_.ClearHolder(v, pred);
    }
    for (const auto& [src, payload] : a.received) {
      const Value from(static_cast<int64_t>(src));
      if (receive_pred_ >= 0) {
        nodes_.Insert(v, receive_pred_, {loc, from, payload, step_v});
      }
      if (receive_now_pred_ >= 0) {
        nodes_.Insert(v, receive_now_pred_, {loc, from, payload});
      }
    }
    if (value_pred_ >= 0) {
      nodes_.Insert(v, value_pred_, {loc, a.value, step_v});
    }
    if (vertex_value_now_pred_ >= 0) {
      nodes_.Insert(v, vertex_value_now_pred_, {loc, a.value});
    }
    if (superstep_pred_ >= 0) nodes_.Insert(v, superstep_pred_, {loc, step_v});
    if (evolution_pred_ >= 0 && a.prev >= 0) {
      nodes_.Insert(v, evolution_pred_,
                    {loc, Value(static_cast<int64_t>(a.prev)), step_v});
    }
    for (const auto& [target, payload] : a.sent) {
      const Value to(static_cast<int64_t>(target));
      if (send_pred_ >= 0) {
        nodes_.Insert(v, send_pred_, {loc, to, payload, step_v});
      }
      if (send_now_pred_ >= 0) {
        nodes_.Insert(v, send_now_pred_, {loc, to, payload});
      }
    }
  }

  /// Writes partition p's newly derived output rows located at their
  /// vertex (and the superstep/evolution skeleton of every vertex that
  /// has some) into the partition's batch for the current layer.
  void PersistCaptureDeltas(size_t p, Superstep step) {
    storage::CaptureBatch& batch = partition_batches_[p];
    VertexId last = -1;
    nodes_.CollectCaptures(p, [&](VertexId v, int pred, const Relation& rel,
                                  std::span<const uint32_t> rows) {
      if (v != last) {
        if (last >= 0) AppendSkeleton(batch, last, step);
        last = v;
      }
      // Live rows of one holder of a relation are distinct.
      batch.BeginSlice(capture_rels_[static_cast<size_t>(pred)], v,
                       storage::CaptureBatch::Rows::kDistinct);
      for (uint32_t row : rows) batch.AddRow(rel.row_view(row));
      batch.EndSlice();
    });
    if (last >= 0) AppendSkeleton(batch, last, step);
  }

  /// The degradation ladder (DESIGN.md §2.4). The failed layer itself is
  /// never lost: AppendBatch registers the entry before reporting a flush
  /// error, so the store still holds complete layers up to and including
  /// `step` — only later supersteps are degraded.
  void HandleAppendFailure(Superstep step, const Status& s) {
    if (options_.degrade_policy == CaptureDegradePolicy::kFail ||
        capture_degraded_) {
      if (first_error_.ok()) first_error_ = s;
      return;
    }
    capture_degraded_ = true;
    capture_degraded_at_ = step;
    options_.store->EnterStorageDegradedMode();
    std::vector<int> surviving;
    if (options_.degrade_policy == CaptureDegradePolicy::kForwardLineage) {
      forward_lineage_only_ = true;
      surviving = {skeleton_superstep_rel_, skeleton_evolution_rel_};
    } else {
      capture_off_ = true;
    }
    options_.store->MarkDegraded(step, surviving, s.message());
    ARIADNE_LOG(Warning)
        << "capture degraded at superstep " << step << " (policy "
        << CaptureDegradePolicyToString(options_.degrade_policy)
        << "): " << s.message();
  }

  /// The superstep/evolution skeleton rows of v's activation at `step`.
  void AppendSkeleton(storage::CaptureBatch& batch, VertexId v,
                      Superstep step) {
    constexpr auto kAtStep = storage::CaptureBatch::Steps::kLayer;
    batch.BeginSlice(skeleton_superstep_rel_, v,
                     storage::CaptureBatch::Rows::kAny, kAtStep);
    batch.AddInt(v);
    batch.AddInt(step);
    batch.EndRow();
    batch.EndSlice();
    const Superstep prev = activations_[static_cast<size_t>(v)].prev;
    if (prev >= 0) {
      batch.BeginSlice(skeleton_evolution_rel_, v,
                       storage::CaptureBatch::Rows::kAny, kAtStep);
      batch.AddInt(v);
      batch.AddInt(prev);
      batch.AddInt(step);
      batch.EndRow();
      batch.EndSlice();
    }
  }

  /// Fast path for projection-only capture queries, barrier side: no
  /// query database; each active vertex of partition p projects its
  /// recorded activation straight into the partition's batch. A vertex
  /// with no projected row gets no skeleton either.
  void ProjectPartition(size_t p, Superstep step) {
    storage::CaptureBatch& batch = partition_batches_[p];
    const auto& plan = *query_->fast_capture();
    const VertexId base = static_cast<VertexId>(p) * kPartitionVertices;
    const VertexId end =
        std::min<VertexId>(base + kPartitionVertices, graph_->num_vertices());
    const Value step_v(static_cast<int64_t>(step));
    for (VertexId v = base; v < end; ++v) {
      const Activation& a = activations_[static_cast<size_t>(v)];
      if (a.step != step) continue;
      const Value loc(static_cast<int64_t>(v));
      bool captured = false;
      for (size_t pi = 0; pi < plan.projections.size(); ++pi) {
        const FastCaptureProjection& projection = plan.projections[pi];
        // Provenance relations are sets: duplicate identical events (e.g.
        // a WCC vertex messaging a reciprocal neighbor via both adjacency
        // directions) collapse, exactly as the interpreted path dedups.
        batch.BeginSlice(FastCaptureRel(pi), v,
                         storage::CaptureBatch::Rows::kDedup,
                         fast_capture_steps_[pi]);
        auto row = [&](std::array<const Value*, 4> source) {
          for (int col : projection.columns) {
            batch.AddValue(col == -1 ? step_v
                                     : *source[static_cast<size_t>(col)]);
          }
          batch.EndRow();
        };
        switch (projection.source) {
          case EdbKind::kVertexValueNow:
            row({&loc, &a.value, nullptr, nullptr});
            break;
          case EdbKind::kValue:
            row({&loc, &a.value, &step_v, nullptr});
            break;
          case EdbKind::kSendNow:
          case EdbKind::kSendMessage:
            for (const auto& [target, payload] : a.sent) {
              const Value to(static_cast<int64_t>(target));
              row({&loc, &to, &payload, &step_v});
            }
            break;
          case EdbKind::kReceiveNow:
          case EdbKind::kReceiveMessage:
            for (const auto& [src, payload] : a.received) {
              const Value from(static_cast<int64_t>(src));
              row({&loc, &from, &payload, &step_v});
            }
            break;
          default:
            break;  // edges: static, projected once in ProjectStaticCapture
        }
        captured = batch.EndSlice() || captured;
      }
      if (captured) AppendSkeleton(batch, v, step);
    }
  }

  /// Store relation id for fast-capture projection `pi` (its head pred's).
  int FastCaptureRel(size_t pi) const {
    const int head = (*query_->fast_capture()).projections[pi].head_pred;
    const int rel = capture_rels_[static_cast<size_t>(head)];
    ARIADNE_CHECK(rel >= 0);
    return rel;
  }

  /// Per fast-capture projection: whether it writes the current superstep
  /// into the step column of the built-in EDB its relation is named after.
  std::vector<storage::CaptureBatch::Steps> FastCaptureSteps() const {
    std::vector<storage::CaptureBatch::Steps> steps;
    if (!query_->fast_capture().has_value()) return steps;
    for (const FastCaptureProjection& projection :
         query_->fast_capture()->projections) {
      const EdbSchema* edb =
          Catalog::Default().Find(query_->pred(projection.head_pred).name);
      const std::optional<int> col =
          edb != nullptr ? EdbStepColumn(edb->kind) : std::nullopt;
      steps.push_back(
          col.has_value() &&
                  static_cast<size_t>(*col) < projection.columns.size() &&
                  projection.columns[static_cast<size_t>(*col)] == -1
              ? storage::CaptureBatch::Steps::kLayer
              : storage::CaptureBatch::Steps::kAny);
    }
    return steps;
  }

  /// Projects static (edge-sourced) capture rules into the store's static
  /// segment, once per run.
  void ProjectStaticCapture() {
    if (!query_->fast_capture().has_value()) return;
    const auto& plan = *query_->fast_capture();
    for (size_t pi = 0; pi < plan.projections.size(); ++pi) {
      const auto& projection = plan.projections[pi];
      if (projection.source != EdbKind::kEdge) continue;
      const int store_rel = FastCaptureRel(pi);
      for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
        std::vector<Tuple> tuples;
        const Value loc(static_cast<int64_t>(v));
        for (VertexId u : graph_->OutNeighbors(v)) {
          Tuple source{loc, Value(static_cast<int64_t>(u))};
          Tuple t;
          t.reserve(projection.columns.size());
          for (int col : projection.columns) {
            ARIADNE_CHECK(col >= 0);
            t.push_back(source[static_cast<size_t>(col)]);
          }
          tuples.push_back(std::move(t));
        }
        options_.store->static_layer().Add(store_rel, v, std::move(tuples));
      }
    }
  }

  P* analytic_;
  const AnalyzedQuery* query_;
  const Graph* graph_;
  OnlineOptions options_;
  NodeDatabases nodes_;
  ShipExchange ships_;

  int value_pred_ = -1, vertex_value_now_pred_ = -1;
  int superstep_pred_ = -1, evolution_pred_ = -1;
  int send_pred_ = -1, send_now_pred_ = -1;
  int receive_pred_ = -1, receive_now_pred_ = -1;

  std::vector<Superstep> last_active_;
  /// Per vertex, its latest activation.
  std::vector<Activation> activations_;
  /// The vertices active at the current barrier, ascending.
  std::vector<VertexId> active_;
  /// Capture rows of the current barrier, per partition (capacity is
  /// kept across supersteps).
  std::vector<storage::CaptureBatch> partition_batches_;
  std::vector<int> capture_rels_;  ///< store rel per output pred id, or -1
  int skeleton_superstep_rel_ = -1;
  int skeleton_evolution_rel_ = -1;
  std::vector<storage::CaptureBatch::Steps> fast_capture_steps_;

  Status first_error_;  ///< first capture-append failure
  bool capture_degraded_ = false;
  Superstep capture_degraded_at_ = -1;
  bool capture_off_ = false;          ///< degraded, kCaptureOff
  bool forward_lineage_only_ = false;  ///< degraded, kForwardLineage
  /// Incremental-checkpoint watermark: layers [0, checkpointed_layers_)
  /// are durable in the segments sidecar, whose valid prefix is
  /// segments_valid_bytes_ long (DESIGN.md §2.4).
  int checkpointed_layers_ = 0;
  uint64_t segments_valid_bytes_ = 0;
};

}  // namespace ariadne

#endif  // ARIADNE_EVAL_ONLINE_H_
