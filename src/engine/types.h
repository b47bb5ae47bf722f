#ifndef ARIADNE_ENGINE_TYPES_H_
#define ARIADNE_ENGINE_TYPES_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace ariadne {

/// BSP superstep index, 0-based.
using Superstep = int32_t;

/// Engine configuration (Giraph-job-conf equivalent).
struct EngineOptions {
  /// Worker threads for vertex compute; <= 1 runs inline (deterministic).
  size_t num_threads = 1;
  /// Hard cap; Run() stops after this many supersteps even if messages
  /// remain in flight.
  Superstep max_supersteps = 1000000;
  /// Shards per worker for owner-computes routing (P = shard_multiplier *
  /// num_threads). More shards smooth the merge-phase load balance at the
  /// cost of smaller per-shard outboxes.
  size_t shard_multiplier = 4;
  /// Vertices per compute chunk. Chunk boundaries are a pure function of
  /// the active-set size and this knob — never of num_threads — which is
  /// what keeps message delivery order (and therefore captured provenance)
  /// bit-identical across thread counts.
  size_t chunk_size = 1024;

  // -- Checkpoint / restart (DESIGN.md §2.4) --

  /// Checkpoint every N supersteps at the barrier; 0 disables (default).
  /// Requires checkpoint_dir. The checkpoint is taken after MasterCompute
  /// of superstep s whenever (s+1) % checkpoint_every == 0, i.e. it
  /// describes the state a fresh run would have at the start of s+1.
  Superstep checkpoint_every = 0;
  /// Directory holding checkpoint.bin (atomically replaced each time).
  std::string checkpoint_dir;
  /// Resume from checkpoint_dir if a valid checkpoint exists; a missing
  /// checkpoint falls back to a fresh run from superstep 0, a corrupt one
  /// is a loud ParseError (never a silent wrong resume).
  bool resume = false;
  /// Free-form configuration fingerprint recorded in every checkpoint and
  /// verified on resume, so a checkpoint from run A cannot silently resume
  /// run B (different analytic, parameters, or capture query). The engine
  /// adds graph dimensions on top of this string.
  std::string checkpoint_fingerprint;

  // -- Out-of-core vertex state (DESIGN.md §2.7) --

  /// Keep vertex values in fixed-size checksummed pages under a byte
  /// budget, spilling cold pages to a scratch file in vertex_state_dir.
  /// Requires a trivially-copyable vertex value type (the engine falls
  /// back to flat storage with a warning otherwise). Residency never
  /// affects values: runs are byte-identical to flat storage for any
  /// budget or thread count.
  bool paged_vertex_state = false;
  /// Decoded-page budget for paged vertex state (the vertex-state share of
  /// the unified memory budget, storage/memory_budget.h).
  size_t vertex_state_budget_bytes = 32ull << 20;
  /// Directory for the vertex-state spill file (required when
  /// paged_vertex_state is set; the file is scratch, removed afterwards).
  std::string vertex_state_dir;
};

/// Counters of the engine's paged vertex-value store (all zero in flat
/// mode). Mirrors GraphBackendStats for the values side of §2.7.
struct VertexStateStats {
  bool paged = false;
  uint64_t budget_bytes = 0;
  uint64_t resident_bytes = 0;
  uint64_t footprint_bytes = 0;  ///< num_vertices * sizeof(V)
  uint64_t page_faults = 0;      ///< demand loads that blocked a window
  uint64_t prefetch_loads = 0;   ///< pages loaded by the prefetcher
  uint64_t evictions = 0;
  uint64_t writebacks = 0;  ///< dirty pages written to the spill file
  int32_t pages = 0;
  /// Resilience counters (DESIGN.md §2.8): page reads / write-backs
  /// retried after a transient error, spill-fd reopen recoveries, and
  /// ops abandoned (error went sticky) after retries + reopen.
  uint64_t read_retries = 0;
  uint64_t write_retries = 0;
  uint64_t fd_reopens = 0;
  uint64_t gave_up = 0;
};

/// Context handed to the program checkpoint hooks (DESIGN.md §2.4).
/// Programs with bulky append-only state (OnlineProgram's sealed layers)
/// persist it incrementally into sidecar files under `dir` instead of
/// re-serializing everything into every checkpoint body.
struct CheckpointIo {
  /// The engine's checkpoint_dir: checkpoint.bin plus program sidecars.
  std::string dir;
};

/// Statistics for one superstep.
struct SuperstepStats {
  Superstep step = 0;
  int64_t active_vertices = 0;
  int64_t messages_sent = 0;
  double seconds = 0.0;
  /// Phase breakdown: active-list rebuild, parallel compute (phase 1),
  /// owner merge (phase 2) and the program's MasterCompute at the barrier
  /// (where online queries evaluate). rebuild + compute + merge + master
  /// <= seconds; the remainder is aggregator bookkeeping.
  double rebuild_seconds = 0.0;
  double compute_seconds = 0.0;
  double merge_seconds = 0.0;
  double master_seconds = 0.0;
};

/// Statistics for a whole run; the provenance overhead experiments report
/// ratios of RunStats::seconds.
struct RunStats {
  Superstep supersteps = 0;  ///< supersteps actually executed
  int64_t total_messages = 0;
  int64_t total_active = 0;  ///< sum of active vertices over supersteps
  double seconds = 0.0;
  bool halted_by_cap = false;  ///< stopped by max_supersteps, not quiescence
  /// Messages addressed to vertex ids outside [0, num_vertices), dropped
  /// at send time (Giraph semantics for non-existent targets). Counted in
  /// total_messages; logged once per run when non-zero.
  int64_t dropped_messages = 0;
  /// Times a MessageCombiner folded two messages into one (sender-side
  /// hits + owner-merge hits).
  int64_t combine_hits = 0;
  /// Whole-run phase totals (sums of the SuperstepStats fields).
  double rebuild_seconds = 0.0;
  double compute_seconds = 0.0;
  double merge_seconds = 0.0;
  double master_seconds = 0.0;

  // -- Recovery counters (DESIGN.md §2.4) --

  int64_t checkpoints_written = 0;  ///< checkpoints taken this run
  double checkpoint_seconds = 0.0;  ///< wall time spent writing them
  /// Superstep the run resumed at, or -1 for a fresh start. A resumed run
  /// executes supersteps [resumed_from_step, end); RunStats::supersteps
  /// still reports the absolute superstep index reached, as if the run
  /// had never been interrupted.
  Superstep resumed_from_step = -1;
  int64_t injected_faults = 0;      ///< injector rules fired during the run
  int64_t checkpoint_failures = 0;  ///< checkpoint writes that failed (the
                                    ///< run continues; next interval retries)
  /// Capture was degraded mid-run (unrecoverable spill failure): the
  /// analytic output is still exact, but the provenance image holds only
  /// the degraded subset and layered eval refuses full-history queries
  /// over it. capture_degraded_at is the superstep where degradation hit.
  bool capture_degraded = false;
  Superstep capture_degraded_at = -1;

  // -- Memory accounting (DESIGN.md §2.7) --

  /// Process peak RSS (VmHWM) sampled when the run finished; 0 if the
  /// platform offers no reading. Covers the whole process, not just this
  /// engine — the out-of-core claim in one number.
  uint64_t peak_rss_bytes = 0;
  /// Topology cache counters of the graph backend this run iterated
  /// (all zero for the in-memory backend).
  GraphBackendStats graph_backend;
  /// Paged vertex-value store counters (all zero in flat mode).
  VertexStateStats vertex_state;
  std::vector<SuperstepStats> steps;
};

}  // namespace ariadne

#endif  // ARIADNE_ENGINE_TYPES_H_
