#ifndef ARIADNE_ENGINE_ENGINE_H_
#define ARIADNE_ENGINE_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/mem.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "engine/aggregators.h"
#include "engine/types.h"
#include "engine/vertex_program.h"
#include "engine/vertex_state.h"
#include "graph/graph.h"
#include "recovery/checkpoint.h"
#include "recovery/fault_injector.h"

namespace ariadne {

/// Bulk-Synchronous-Parallel vertex-centric engine (the Giraph stand-in,
/// see DESIGN.md §2). Loads the whole graph in memory, runs supersteps
/// with a global barrier, delivers messages between supersteps, and stops
/// when every vertex has voted to halt and no messages are in flight (or
/// at max_supersteps).
///
/// Each superstep runs in two parallel phases (owner-computes routing):
///
///   1. *Compute*: the active list is cut into fixed-size chunks; each
///      chunk runs the vertex kernel and appends its sends into a
///      per-chunk outbox partitioned into P = shard_multiplier * threads
///      shards by target id (with sender-side combining when the program
///      registers a MessageCombiner).
///   2. *Merge*: each shard is merged into `next_inbox_` by exactly one
///      task, walking the chunks in index order — no locks, no atomics on
///      the message path.
///
/// Because chunk boundaries depend only on the active-set size (never on
/// the thread count) and the merge walks chunks in order, every inbox
/// receives its messages in the exact order a serial run would produce.
/// Vertex values and captured provenance are therefore bit-identical for
/// any `num_threads` (see DESIGN.md §2 and engine_parallel_test.cc).
///
/// The engine is provenance-agnostic: capture and online query evaluation
/// are ordinary `VertexProgram`s wrapping the analytic (src/provenance,
/// src/eval), exactly as the paper requires ("without modifying the graph
/// processing engine itself").
template <typename V, typename M>
class Engine {
 public:
  /// `graph` must outlive the engine.
  explicit Engine(const Graph* graph, EngineOptions options = {})
      : graph_(graph),
        options_(options),
        pool_(options.num_threads) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs `program` to quiescence (or the superstep cap). The program must
  /// outlive the call. Vertex values are readable afterwards via values().
  Result<RunStats> Run(VertexProgram<V, M>& program) {
    const VertexId n = graph_->num_vertices();
    if (n == 0) return Status::InvalidArgument("empty graph");
    if (options_.max_supersteps < 0) {
      return Status::InvalidArgument("max_supersteps must be >= 0");
    }
    const bool checkpointing = options_.checkpoint_every > 0;
    if (checkpointing || options_.resume) {
      if (options_.checkpoint_dir.empty()) {
        return Status::InvalidArgument(
            "checkpoint_every/resume require checkpoint_dir");
      }
      if constexpr (!(recovery::Checkpointable<V> &&
                      recovery::Checkpointable<M>)) {
        return Status::Unsupported(
            "checkpointing is unsupported for this vertex-value/message "
            "type combination (no CheckpointTraits specialization)");
      } else {
        std::string why;
        if (!program.checkpoint_supported(&why)) {
          return Status::Unsupported(
              "this program cannot be checkpointed" +
              (why.empty() ? std::string() : ": " + why));
        }
      }
    }

    // Out-of-core state (DESIGN.md §2.7): opt into paged vertex values,
    // and note whether either graph or values live behind a buffer
    // manager (enables residency hints + barrier error checks below).
    if (options_.paged_vertex_state && !values_.paged()) {
      if (options_.vertex_state_dir.empty()) {
        return Status::InvalidArgument(
            "paged_vertex_state requires vertex_state_dir");
      }
      Status cfg = values_.ConfigurePaged(
          options_.vertex_state_dir + "/vertex_state.spill",
          options_.vertex_state_budget_bytes);
      if (cfg.IsUnsupported()) {
        // Non-trivially-copyable V cannot be paged; fall back loudly.
        ARIADNE_LOG(Warning)
            << "engine: " << cfg.message() << "; using flat vertex state";
      } else if (!cfg.ok()) {
        return cfg;
      }
    }
    ooc_ = graph_->paged() || values_.paged();

    PrepareBuffers(n);
    ARIADNE_RETURN_NOT_OK(values_.Reset(static_cast<size_t>(n)));
    {
      // Initialize values through block windows: contiguous, so the paged
      // store streams pages instead of faulting per vertex.
      constexpr VertexId kInitBlock = 1 << 16;
      for (VertexId b = 0; b < n; b += kInitBlock) {
        const VertexId last = std::min<VertexId>(b + kInitBlock, n) - 1;
        if (ooc_ && last + 1 < n) {
          graph_->PrefetchVertexRange(last + 1,
                                      std::min<VertexId>(last + kInitBlock, n - 1));
        }
        auto window = values_.AcquireWindow(b, last);
        for (VertexId v = b; v <= last; ++v) {
          window.at(v) = program.InitialValue(v, *graph_);
        }
      }
    }
    aggregators_.Reset();
    program.RegisterAggregators(aggregators_);
    const MessageCombiner<M>* combiner = program.combiner();

    const size_t workers = pool_.num_workers();
    num_shards_ = std::max<size_t>(1, options_.shard_multiplier * workers);
    const size_t chunk_size = std::max<size_t>(1, options_.chunk_size);

    RunStats stats;
    const uint64_t faults_before =
        recovery::FaultInjector::Global().fired_count();
    Superstep start_step = 0;
    if (options_.resume) {
      if constexpr (recovery::Checkpointable<V> &&
                    recovery::Checkpointable<M>) {
        auto resumed = ResumeFromCheckpoint(program);
        if (resumed.ok()) {
          start_step = resumed.value();
          stats.resumed_from_step = start_step;
        } else if (!resumed.status().IsNotFound()) {
          // Corrupt or mismatched checkpoints are loud errors; only a
          // *missing* checkpoint falls back to a fresh run (the killed
          // process may have died before the first barrier).
          return resumed.status();
        }
      }
    }

    WallTimer run_timer;
    for (Superstep step = start_step; step < options_.max_supersteps;
         ++step) {
      // Fault point "superstep": a scripted error/throw/crash at the start
      // of the N-th executed superstep (crash-matrix tests kill here).
      ARIADNE_RETURN_NOT_OK(recovery::CheckFaultPoint("superstep"));
      WallTimer step_timer;
      WallTimer phase_timer;

      // A vertex computes iff it has not voted to halt or received mail.
      RebuildActiveList(n, chunk_size);
      const double rebuild_seconds = phase_timer.ElapsedSeconds();
      if (active_.empty()) break;

      StepCounters counters;
      phase_timer.Restart();
      const size_t num_chunks =
          ComputePhaseSharded(program, combiner, step, chunk_size, workers);
      const double compute_seconds = phase_timer.ElapsedSeconds();
      phase_timer.Restart();
      MergePhaseSharded(combiner, num_chunks);
      const double merge_seconds = phase_timer.ElapsedSeconds();
      for (size_t c = 0; c < num_chunks; ++c) {
        counters.sent += chunk_sent_[c];
        counters.dropped += chunk_dropped_[c];
        counters.combined += chunk_combined_[c];
      }
      for (int64_t hits : shard_combined_) counters.combined += hits;

      // Out-of-core barrier check: the span-returning adjacency/value
      // accessors cannot report IO or checksum failures inline, so the
      // backends record them sticky and the run fails here — loudly,
      // before any partially-computed superstep is observable.
      if (ooc_) {
        ARIADNE_RETURN_NOT_OK(graph_->backend_error().WithContext(
            "graph backend failed during superstep " + std::to_string(step)));
        ARIADNE_RETURN_NOT_OK(values_.error().WithContext(
            "vertex state failed during superstep " + std::to_string(step)));
      }

      aggregators_.EndSuperstep();
      MasterContext master;
      master.superstep = step;
      master.aggregators = &aggregators_;
      master.pool = &pool_;
      phase_timer.Restart();
      program.MasterCompute(master);
      const double master_seconds = phase_timer.ElapsedSeconds();

      stats.supersteps = step + 1;
      stats.total_messages += counters.sent;
      stats.dropped_messages += counters.dropped;
      stats.combine_hits += counters.combined;
      stats.total_active += static_cast<int64_t>(active_.size());
      stats.rebuild_seconds += rebuild_seconds;
      stats.compute_seconds += compute_seconds;
      stats.merge_seconds += merge_seconds;
      stats.master_seconds += master_seconds;
      stats.steps.push_back(SuperstepStats{
          .step = step,
          .active_vertices = static_cast<int64_t>(active_.size()),
          .messages_sent = counters.sent,
          .seconds = step_timer.ElapsedSeconds(),
          .rebuild_seconds = rebuild_seconds,
          .compute_seconds = compute_seconds,
          .merge_seconds = merge_seconds,
          .master_seconds = master_seconds});

      std::swap(inbox_, next_inbox_);

      // Checkpoint at the barrier: values, halted bitmap, the freshly
      // swapped inbox (the messages superstep step+1 will consume),
      // aggregators and program state — i.e. exactly the state a fresh
      // run has at the start of superstep step+1.
      if (checkpointing && (step + 1) % options_.checkpoint_every == 0 &&
          !master.halt) {
        if constexpr (recovery::Checkpointable<V> &&
                      recovery::Checkpointable<M>) {
          WallTimer ckpt_timer;
          Status written = WriteCheckpoint(program, step + 1);
          stats.checkpoint_seconds += ckpt_timer.ElapsedSeconds();
          if (written.ok()) {
            ++stats.checkpoints_written;
          } else {
            // A failed checkpoint never kills the analytic: the previous
            // checkpoint (if any) is still intact on disk thanks to the
            // atomic replace, and the next interval tries again.
            ++stats.checkpoint_failures;
            ARIADNE_LOG(Warning) << "engine: checkpoint at superstep "
                                 << (step + 1)
                                 << " failed: " << written.message();
          }
        }
      }

      if (master.halt) break;
    }
    stats.halted_by_cap = stats.supersteps == options_.max_supersteps &&
                          HasPendingWork();
    stats.seconds = run_timer.ElapsedSeconds();
    stats.peak_rss_bytes = PeakRssBytes();
    stats.graph_backend = graph_->backend_stats();
    stats.vertex_state = values_.stats();
    stats.injected_faults = static_cast<int64_t>(
        recovery::FaultInjector::Global().fired_count() - faults_before);
    if (stats.dropped_messages > 0) {
      ARIADNE_LOG(Warning) << "engine: dropped " << stats.dropped_messages
                           << " message(s) addressed to out-of-range vertex "
                              "ids (valid range [0, "
                           << n << ")) during this run";
    }
    return stats;
  }

  /// Zero-copy view of the vertex values. FLAT MODE ONLY: with paged
  /// vertex state there is no contiguous array and this returns an empty
  /// span — use CopyValuesTo, which works in both modes.
  std::span<const V> values() const { return values_.flat_span(); }
  const V& value(VertexId v) const {
    return values_.flat_span()[static_cast<size_t>(v)];
  }
  /// Copies every vertex value into `out` (works for flat and paged
  /// vertex state; the result-reporting path of Session and the tools).
  Status CopyValuesTo(std::vector<V>* out) { return values_.CopyTo(out); }
  const Graph& graph() const { return *graph_; }

 private:
  using Send = std::pair<VertexId, M>;

  /// Message counters of one superstep (summed from race-free per-chunk /
  /// per-shard slots).
  struct StepCounters {
    int64_t sent = 0;
    int64_t dropped = 0;
    int64_t combined = 0;
  };

  /// One compute chunk's outbox, partitioned by target shard. Kept across
  /// supersteps so the inner vectors retain their capacity.
  struct ShardedOutbox {
    std::vector<std::vector<Send>> shards;
  };

  /// Per-worker scratch for sender-side combining: maps a target id to
  /// its slot in the current chunk's outbox. `epoch` tags entries with the
  /// chunk that wrote them, so the arrays never need clearing.
  struct CombineScratch {
    std::vector<uint64_t> epoch;
    std::vector<uint32_t> pos;
    uint64_t current = 0;
  };

  /// Concrete context handed to Compute; reset per vertex within a chunk.
  /// Routes SendMessage into the chunk's sharded outbox.
  class Ctx final : public VertexContext<V, M> {
   public:
    Ctx(Engine* engine, Superstep step) : engine_(engine), step_(step) {}

    void BeginChunk(std::vector<std::vector<Send>>* shards,
                    const MessageCombiner<M>* sender_combiner,
                    CombineScratch* scratch,
                    std::vector<std::pair<std::string, double>>* agg_sink) {
      shards_ = shards;
      sender_combiner_ = sender_combiner;
      scratch_ = scratch;
      agg_sink_ = agg_sink;
      sent_ = dropped_ = combined_ = 0;
    }

    void SetWindow(typename VertexState<V>::Window* window) {
      window_ = window;
    }

    void Reset(VertexId v) {
      vertex_ = v;
      voted_halt_ = false;
    }
    bool voted_halt() const { return voted_halt_; }
    int64_t sent() const { return sent_; }
    int64_t dropped() const { return dropped_; }
    int64_t combined() const { return combined_; }

    VertexId id() const override { return vertex_; }
    Superstep superstep() const override { return step_; }
    const Graph& graph() const override { return *engine_->graph_; }
    const V& value() const override { return window_->at(vertex_); }
    void SetValue(V value) override {
      window_->at(vertex_) = std::move(value);
    }
    void SendMessage(VertexId target, M message) override {
      ++sent_;
      if (target < 0 || target >= engine_->graph_->num_vertices()) {
        // Giraph semantics for messages to non-existent vertex ids: the
        // message is dropped, but visibly (RunStats::dropped_messages).
        ++dropped_;
        return;
      }
      auto& box = (*shards_)[engine_->ShardOf(target)];
      if (scratch_ != nullptr) {
        const size_t t = static_cast<size_t>(target);
        if (scratch_->epoch[t] == scratch_->current) {
          Send& slot = box[scratch_->pos[t]];
          slot.second = sender_combiner_->Combine(slot.second, message);
          ++combined_;
          return;
        }
        scratch_->epoch[t] = scratch_->current;
        scratch_->pos[t] = static_cast<uint32_t>(box.size());
      }
      box.emplace_back(target, std::move(message));
    }
    void VoteToHalt() override { voted_halt_ = true; }
    void AggregateDouble(const std::string& name, double v) override {
      // Accumulations are buffered per chunk and folded in chunk order at
      // the barrier: no registry mutex on the hot path, and floating-point
      // aggregate sums stay identical for any thread count.
      agg_sink_->emplace_back(name, v);
    }
    double GetAggregate(const std::string& name) const override {
      return engine_->aggregators_.Get(name);
    }

   private:
    Engine* engine_;
    Superstep step_;
    VertexId vertex_ = 0;
    /// Pinned value window of the current chunk (set by RunChunk).
    typename VertexState<V>::Window* window_ = nullptr;
    std::vector<std::vector<Send>>* shards_ = nullptr;
    const MessageCombiner<M>* sender_combiner_ = nullptr;
    CombineScratch* scratch_ = nullptr;
    std::vector<std::pair<std::string, double>>* agg_sink_ = nullptr;
    bool voted_halt_ = false;
    int64_t sent_ = 0;
    int64_t dropped_ = 0;
    int64_t combined_ = 0;
  };

  size_t ShardOf(VertexId target) const {
    return static_cast<size_t>(static_cast<uint64_t>(target) * num_shards_ /
                               static_cast<uint64_t>(graph_->num_vertices()));
  }

  /// Resets run state, reusing inbox/outbox buffers (and their inner
  /// capacities) from previous runs instead of reallocating.
  void PrepareBuffers(VertexId n) {
    const size_t un = static_cast<size_t>(n);
    halted_.assign(un, 0);
    if (inbox_.size() != un) {
      inbox_.assign(un, {});
      next_inbox_.assign(un, {});
    } else {
      for (auto& box : inbox_) box.clear();
      for (auto& box : next_inbox_) box.clear();
    }
  }

  /// Rebuilds `active_` (ascending vertex order) with a two-pass parallel
  /// count + fill; replaces the serial O(n) scan per superstep.
  void RebuildActiveList(VertexId n, size_t chunk_size) {
    const size_t un = static_cast<size_t>(n);
    const size_t chunk = std::max<size_t>(chunk_size, 2048);
    const size_t num_chunks = (un + chunk - 1) / chunk;
    rebuild_offsets_.assign(num_chunks, 0);
    pool_.ParallelForChunked(
        un, chunk, [&](size_t, size_t c, size_t begin, size_t end) {
          size_t count = 0;
          for (size_t v = begin; v < end; ++v) {
            if (!halted_[v] || !inbox_[v].empty()) ++count;
          }
          rebuild_offsets_[c] = count;
        });
    size_t total = 0;
    for (size_t& offset : rebuild_offsets_) {
      const size_t count = offset;
      offset = total;
      total += count;
    }
    active_.resize(total);
    pool_.ParallelForChunked(
        un, chunk, [&](size_t, size_t c, size_t begin, size_t end) {
          size_t out = rebuild_offsets_[c];
          for (size_t v = begin; v < end; ++v) {
            if (!halted_[v] || !inbox_[v].empty()) {
              active_[out++] = static_cast<VertexId>(v);
            }
          }
        });
  }

  /// Phase 1 of a sharded superstep: run the kernel chunk by chunk,
  /// filling per-chunk sharded outboxes. Returns the number of chunks.
  size_t ComputePhaseSharded(VertexProgram<V, M>& program,
                             const MessageCombiner<M>* combiner,
                             Superstep step, size_t chunk_size,
                             size_t workers) {
    const size_t num_chunks = (active_.size() + chunk_size - 1) / chunk_size;
    if (outboxes_.size() < num_chunks) outboxes_.resize(num_chunks);
    if (agg_buffers_.size() < num_chunks) agg_buffers_.resize(num_chunks);
    chunk_sent_.assign(num_chunks, 0);
    chunk_dropped_.assign(num_chunks, 0);
    chunk_combined_.assign(num_chunks, 0);
    if (combiner != nullptr && scratch_.size() != workers) {
      scratch_.assign(workers, CombineScratch{});
    }
    pool_.ParallelForChunked(
        active_.size(), chunk_size,
        [&](size_t worker, size_t c, size_t begin, size_t end) {
          ShardedOutbox& out = outboxes_[c];
          if (out.shards.size() != num_shards_) {
            out.shards.clear();
            out.shards.resize(num_shards_);
          } else {
            for (auto& shard : out.shards) shard.clear();
          }
          CombineScratch* scratch = nullptr;
          if (combiner != nullptr) {
            scratch = &scratch_[worker];
            if (scratch->epoch.size() !=
                static_cast<size_t>(graph_->num_vertices())) {
              scratch->epoch.assign(
                  static_cast<size_t>(graph_->num_vertices()), 0);
              scratch->pos.resize(
                  static_cast<size_t>(graph_->num_vertices()));
              scratch->current = 0;
            }
            ++scratch->current;
          }
          Ctx ctx(this, step);
          agg_buffers_[c].clear();
          ctx.BeginChunk(&out.shards, combiner, scratch, &agg_buffers_[c]);
          RunChunk(program, ctx, begin, end);
          chunk_sent_[c] = ctx.sent();
          chunk_dropped_[c] = ctx.dropped();
          chunk_combined_[c] = ctx.combined();
        });
    // Fold buffered aggregate accumulations in chunk order (deterministic
    // for any thread count; see Ctx::AggregateDouble).
    for (size_t c = 0; c < num_chunks; ++c) {
      for (const auto& [name, v] : agg_buffers_[c]) {
        aggregators_.Accumulate(name, v);
      }
    }
    return num_chunks;
  }

  /// Phase 2 of a sharded superstep: every shard is drained into
  /// `next_inbox_` by exactly one task, walking chunks in index order.
  /// Shards partition the target space, so no synchronization is needed,
  /// and the chunk-order walk reproduces serial delivery order exactly.
  void MergePhaseSharded(const MessageCombiner<M>* combiner,
                         size_t num_chunks) {
    shard_combined_.assign(num_shards_, 0);
    const bool injecting = recovery::InjectionArmed();
    pool_.ParallelForChunked(
        num_shards_, 1, [&](size_t, size_t s, size_t, size_t) {
          if (injecting) {
            // Fault point "shard-drop" (error kind only — this runs on a
            // pool thread): the fired shard's outboxes are discarded, i.e.
            // one shard's worth of messages is lost this superstep.
            if (!recovery::FaultInjector::Global().Hit("shard-drop").ok()) {
              for (size_t c = 0; c < num_chunks; ++c) {
                outboxes_[c].shards[s].clear();
              }
              return;
            }
          }
          int64_t combined = 0;
          for (size_t c = 0; c < num_chunks; ++c) {
            for (Send& send : outboxes_[c].shards[s]) {
              auto& box = next_inbox_[static_cast<size_t>(send.first)];
              if (combiner != nullptr && !box.empty()) {
                box[0] = combiner->Combine(box[0], send.second);
                ++combined;
              } else {
                box.push_back(std::move(send.second));
              }
            }
          }
          shard_combined_[s] = combined;
        });
  }

  /// Runs the kernel for active-list positions [begin, end). The active
  /// list is ascending, so the chunk's vertices span the contiguous range
  /// [active_[begin], active_[end-1]] — one pinned value window covers
  /// the whole chunk, and (out-of-core) the *next* chunk's topology and
  /// value pages are hinted to the prefetchers before this one computes,
  /// which is the "shard k computes while shard k+1 faults in" overlap of
  /// DESIGN.md §2.7.
  void RunChunk(VertexProgram<V, M>& program, Ctx& ctx, size_t begin,
                size_t end) {
    if (ooc_ && end < active_.size()) {
      const size_t next_end =
          std::min(end + (end - begin), active_.size());
      graph_->PrefetchVertexRange(active_[end], active_[next_end - 1]);
      values_.PrefetchRange(active_[end], active_[next_end - 1]);
    }
    auto window = values_.AcquireWindow(active_[begin], active_[end - 1]);
    ctx.SetWindow(&window);
    for (size_t i = begin; i < end; ++i) {
      const VertexId v = active_[i];
      ctx.Reset(v);
      halted_[static_cast<size_t>(v)] = 0;
      auto& mail = inbox_[static_cast<size_t>(v)];
      program.Compute(ctx, std::span<const M>(mail.data(), mail.size()));
      if (ctx.voted_halt()) halted_[static_cast<size_t>(v)] = 1;
      mail.clear();
    }
  }

  /// What this run is, for checkpoint/run matching: the caller-provided
  /// fingerprint (analytic + parameters + capture query) plus the graph
  /// dimensions. A checkpoint whose fingerprint differs is refused.
  std::string FingerprintString() const {
    return options_.checkpoint_fingerprint +
           "|v=" + std::to_string(graph_->num_vertices()) +
           "|e=" + std::to_string(graph_->num_edges());
  }

  /// Serializes the barrier state (see Run's checkpoint call site) and
  /// atomically replaces <checkpoint_dir>/checkpoint.bin.
  Status WriteCheckpoint(VertexProgram<V, M>& program, Superstep next_step)
    requires(recovery::Checkpointable<V> && recovery::Checkpointable<M>)
  {
    BinaryWriter body;
    body.WriteString(FingerprintString());
    body.WriteI64(next_step);
    body.WriteU64(values_.size());
    {
      // Block windows instead of a flat iteration: works identically for
      // paged vertex state, so checkpoints restore across storage modes
      // (a flat-run checkpoint resumes a paged run and vice versa — the
      // bytes are the same).
      const VertexId n = static_cast<VertexId>(values_.size());
      constexpr VertexId kBlock = 1 << 16;
      for (VertexId b = 0; b < n; b += kBlock) {
        const VertexId last = std::min<VertexId>(b + kBlock, n) - 1;
        auto window = values_.AcquireWindow(b, last);
        for (VertexId v = b; v <= last; ++v) {
          recovery::CheckpointTraits<V>::Write(body, window.at(v));
        }
      }
      ARIADNE_RETURN_NOT_OK(values_.error());
    }
    body.WriteString(std::string(halted_.begin(), halted_.end()));
    for (const auto& box : inbox_) {
      body.WriteU64(box.size());
      for (const M& m : box) {
        recovery::CheckpointTraits<M>::Write(body, m);
      }
    }
    aggregators_.Serialize(body);
    BinaryWriter program_state;
    ARIADNE_RETURN_NOT_OK(program.SaveCheckpointState(
        program_state, CheckpointIo{options_.checkpoint_dir}));
    body.WriteString(program_state.MoveData());
    return recovery::WriteCheckpointFile(options_.checkpoint_dir,
                                         body.MoveData());
  }

  /// Restores the barrier state from <checkpoint_dir>/checkpoint.bin and
  /// returns the superstep to start at. NotFound when no checkpoint
  /// exists; ParseError/InvalidArgument (naming the mismatch) otherwise —
  /// never a silent wrong resume.
  Result<Superstep> ResumeFromCheckpoint(VertexProgram<V, M>& program)
    requires(recovery::Checkpointable<V> && recovery::Checkpointable<M>)
  {
    const std::string path =
        recovery::CheckpointPath(options_.checkpoint_dir);
    ARIADNE_ASSIGN_OR_RETURN(
        BinaryReader r, recovery::OpenCheckpointFile(options_.checkpoint_dir));
    ARIADNE_ASSIGN_OR_RETURN(std::string fingerprint, r.ReadString());
    if (fingerprint != FingerprintString()) {
      return Status::InvalidArgument(
          "checkpoint fingerprint mismatch in " + path + ": checkpoint is "
          "for '" + fingerprint + "' but this run is '" +
          FingerprintString() + "'");
    }
    ARIADNE_ASSIGN_OR_RETURN(int64_t next_step, r.ReadI64());
    if (next_step <= 0 || next_step > options_.max_supersteps) {
      return Status::ParseError("checkpoint superstep " +
                                std::to_string(next_step) +
                                " out of range in " + path);
    }
    ARIADNE_ASSIGN_OR_RETURN(uint64_t n, r.ReadU64());
    if (n != values_.size()) {
      return Status::ParseError(
          "checkpoint vertex count " + std::to_string(n) + " != graph " +
          std::to_string(values_.size()) + " in " + path);
    }
    {
      const VertexId vn = static_cast<VertexId>(n);
      constexpr VertexId kBlock = 1 << 16;
      for (VertexId b = 0; b < vn; b += kBlock) {
        const VertexId last = std::min<VertexId>(b + kBlock, vn) - 1;
        auto window = values_.AcquireWindow(b, last);
        for (VertexId v = b; v <= last; ++v) {
          ARIADNE_ASSIGN_OR_RETURN(window.at(v),
                                   recovery::CheckpointTraits<V>::Read(r));
        }
      }
      ARIADNE_RETURN_NOT_OK(values_.error());
    }
    ARIADNE_ASSIGN_OR_RETURN(std::string halted, r.ReadString());
    if (halted.size() != n) {
      return Status::ParseError("checkpoint halted bitmap has " +
                                std::to_string(halted.size()) +
                                " entries, want " + std::to_string(n) +
                                " in " + path);
    }
    std::copy(halted.begin(), halted.end(), halted_.begin());
    for (size_t i = 0; i < n; ++i) {
      ARIADNE_ASSIGN_OR_RETURN(uint64_t count, r.ReadU64());
      if (count > r.remaining()) {
        return Status::ParseError(
            "checkpoint inbox length " + std::to_string(count) +
            " exceeds remaining bytes at offset " + std::to_string(r.pos()) +
            " in " + path);
      }
      auto& box = inbox_[i];
      box.clear();
      box.reserve(count);
      for (uint64_t k = 0; k < count; ++k) {
        ARIADNE_ASSIGN_OR_RETURN(M m, recovery::CheckpointTraits<M>::Read(r));
        box.push_back(std::move(m));
      }
    }
    {
      Status agg = aggregators_.Deserialize(r);
      if (!agg.ok()) return agg.WithContext("reading " + path);
    }
    ARIADNE_ASSIGN_OR_RETURN(std::string program_state, r.ReadString());
    if (!r.AtEnd()) {
      return Status::ParseError(
          "trailing bytes after checkpoint body at offset " +
          std::to_string(r.pos()) + " in " + path);
    }
    BinaryReader program_reader(std::move(program_state));
    {
      Status loaded = program.LoadCheckpointState(
          program_reader, CheckpointIo{options_.checkpoint_dir});
      if (!loaded.ok()) {
        return loaded.WithContext("restoring program state from " + path);
      }
    }
    return static_cast<Superstep>(next_step);
  }

  bool HasPendingWork() {
    const size_t un = static_cast<size_t>(graph_->num_vertices());
    return pool_.ParallelReduce(
        un, size_t{4096}, false,
        [&](size_t begin, size_t end) {
          for (size_t v = begin; v < end; ++v) {
            if (!halted_[v] || !inbox_[v].empty()) return true;
          }
          return false;
        },
        [](bool a, bool b) { return a || b; });
  }

  const Graph* graph_;
  EngineOptions options_;
  ThreadPool pool_;
  size_t num_shards_ = 1;
  /// Vertex values — flat vector or paged store (EngineOptions::
  /// paged_vertex_state). All access goes through chunk windows.
  VertexState<V> values_;
  /// Graph or values are behind a buffer manager this run: drive the
  /// prefetchers and check the sticky backend errors at barriers.
  bool ooc_ = false;
  std::vector<uint8_t> halted_;
  std::vector<std::vector<M>> inbox_;
  std::vector<std::vector<M>> next_inbox_;
  std::vector<VertexId> active_;
  std::vector<size_t> rebuild_offsets_;
  std::vector<ShardedOutbox> outboxes_;
  std::vector<int64_t> chunk_sent_, chunk_dropped_, chunk_combined_;
  std::vector<int64_t> shard_combined_;
  std::vector<CombineScratch> scratch_;
  std::vector<std::vector<std::pair<std::string, double>>> agg_buffers_;
  AggregatorRegistry aggregators_;
};

}  // namespace ariadne

#endif  // ARIADNE_ENGINE_ENGINE_H_
