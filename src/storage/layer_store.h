#ifndef ARIADNE_STORAGE_LAYER_STORE_H_
#define ARIADNE_STORAGE_LAYER_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "storage/capture_batch.h"
#include "storage/flusher.h"
#include "storage/layer.h"
#include "storage/page.h"
#include "storage/page_cache.h"

namespace ariadne::storage {

struct LayerStoreOptions {
  /// Spill directory (must exist). Empty = invalid for Configure.
  std::string dir;
  /// Byte budget for in-memory layer batches + the compressed page cache
  /// (the cache gets a quarter, batches the rest). 0 = everything spills
  /// and nothing is cached — every read pays disk + decode.
  size_t mem_budget_bytes = 0;
  /// Background write-behind/prefetch threads; <= 0 flushes inline
  /// (deterministic, but Append then blocks on the write).
  int flush_threads = 1;
  /// Target payload bytes per page.
  size_t page_size = kDefaultPageSize;
  /// Backpressure bound: Append blocks only once the logical bytes
  /// awaiting flush exceed this (write-behind stays bounded without
  /// stalling the superstep barrier in steady state).
  size_t max_unflushed_bytes = size_t{256} << 20;

  // -- Transient-I/O retry policy (DESIGN.md §2.4) --

  /// Attempts per flush write / page read before the op counts as failed;
  /// attempts beyond the first back off exponentially.
  int io_max_attempts = 3;
  /// Backoff before the 2nd attempt, in ms; doubles per attempt, plus a
  /// seeded jitter in [0, 100%) of the delay.
  double io_backoff_base_ms = 1.0;

  /// The two knobs above as the shared RetryPolicy (common/retry.h). The
  /// jitter seed is fixed: each retrying call site mixes in a
  /// per-layer/page salt AND a per-thread salt, so concurrent flush
  /// threads never back off in lockstep.
  RetryPolicy IoRetryPolicy() const {
    RetryPolicy p;
    p.max_attempts = io_max_attempts;
    p.backoff_base_ms = io_backoff_base_ms;
    p.seed = 0x41524941;  // "ARIA"
    return p;
  }
};

/// Aggregate counters of the storage subsystem (flusher + page cache +
/// read path), surfaced by `ariadne_run` and `bench_store_micro`.
struct StorageStats {
  uint64_t layers_flushed = 0;
  uint64_t pages_written = 0;
  /// Page wire bytes written to spill files.
  uint64_t compressed_bytes = 0;
  /// SerializeLayer (row-major uncompressed) bytes of the same layers —
  /// the denominator of the compression ratio.
  uint64_t raw_serialized_bytes = 0;
  uint64_t pages_read = 0;  ///< pages parsed from disk (incl. prefetch)
  uint64_t prefetch_requests = 0;
  uint64_t prefetch_pages = 0;
  double flush_seconds = 0.0;  ///< cumulative wall time in flush tasks
  /// Recovery counters (DESIGN.md §2.4): retried flush writes / page
  /// reads (attempts beyond the first), flush-exhausted layers that were
  /// quarantined and requeued once, and whether spilling was abandoned.
  uint64_t flush_retries = 0;
  uint64_t read_retries = 0;
  uint64_t layers_quarantined = 0;
  bool degraded = false;
  /// flush_retries broken down by flusher thread (descending; the sum
  /// equals flush_retries). Skewed entries betray a thread stuck on a
  /// bad region; lockstep backoff would show as equal entries retried at
  /// the same instants (the bug the per-thread jitter salt fixes).
  std::vector<uint64_t> flush_retries_by_thread;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_bytes = 0;  ///< current

  double CompressionRatio() const {
    return raw_serialized_bytes == 0
               ? 1.0
               : static_cast<double>(compressed_bytes) /
                     static_cast<double>(raw_serialized_bytes);
  }
  /// Counter movement since `before` (an earlier stats() snapshot);
  /// current-value fields (`cache_bytes`, `degraded`) carry the current
  /// value. Both snapshots are internally consistent (taken under the
  /// store/cache locks), so deltas never race the background flusher.
  StorageStats Delta(const StorageStats& before) const {
    StorageStats d = *this;
    d.flush_retries_by_thread.clear();  // breakdown is cumulative-only
    d.layers_flushed -= before.layers_flushed;
    d.pages_written -= before.pages_written;
    d.compressed_bytes -= before.compressed_bytes;
    d.raw_serialized_bytes -= before.raw_serialized_bytes;
    d.pages_read -= before.pages_read;
    d.prefetch_requests -= before.prefetch_requests;
    d.prefetch_pages -= before.prefetch_pages;
    d.flush_seconds -= before.flush_seconds;
    d.flush_retries -= before.flush_retries;
    d.read_retries -= before.read_retries;
    d.layers_quarantined -= before.layers_quarantined;
    d.cache_hits -= before.cache_hits;
    d.cache_misses -= before.cache_misses;
    d.cache_evictions -= before.cache_evictions;
    return d;
  }

  double CacheHitRate() const {
    const uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }
};

/// Buffer-managed columnar store of provenance layers: the subsystem
/// behind ProvenanceStore (which keeps the schema and static segment).
///
/// Every layer is a CaptureBatch: the store holds and serves batches
/// only. Unconfigured, it is a plain in-memory vector of them. After
/// Configure() it becomes a spilling store: Append hands the sealed
/// layer's batch to the BackgroundFlusher, which encodes its columns into
/// compressed pages (storage/page.h), writes `layer_<step>.apg` into the
/// spill directory and then drops the batch if the memory budget demands
/// it. Reads serve the batch while it is in memory, else decode pages
/// from the compressed PageCache or disk into a new batch — optionally
/// restricted to a relation subset so a query over `send-message` never
/// decompresses `vertex-value` pages.
///
/// Held by ProvenanceStore through a unique_ptr: background tasks hold
/// `this`, so the object must not move (ProvenanceStore stays movable).
class LayerStore {
 public:
  LayerStore() = default;
  ~LayerStore();

  LayerStore(const LayerStore&) = delete;
  LayerStore& operator=(const LayerStore&) = delete;

  /// Enables spilling. Existing layers are flushed synchronously (the
  /// call returns with the store under budget); later Appends write
  /// behind. Reconfiguring an already-configured store is an error.
  Status Configure(LayerStoreOptions options);
  bool spill_enabled() const;

  /// Appends the sealed layer for superstep `num_layers()`. With spill
  /// enabled the encode+write happens on the flusher; this call only
  /// blocks when `max_unflushed_bytes` of write-behind is outstanding.
  ///
  /// Every slice the store holds is a set, the invariant offline facts
  /// read in place rely on (FactView, pql/fact_view.h): a batch not known
  /// to hold sets (CaptureBatch::sets) is stored as its Distinct().
  Status Append(std::shared_ptr<const CaptureBatch> batch);
  /// Appends `layer` as its batch (CaptureBatch::FromLayer).
  Status Append(std::shared_ptr<const Layer> layer);

  int num_layers() const;

  /// Layer `step`'s batch restricted to the relations in `rels` (empty =
  /// all): the in-memory batch when there is one (a relation superset),
  /// else decoded from (cached or on-disk) pages, touching only matching
  /// pages. A full decode re-admits its batch within the budget.
  ///
  /// The whole read path (Read/Prefetch) is logically const and
  /// thread-safe: any number of concurrent readers may call it on one
  /// store (the serve scheduler and its worker threads do), all internal
  /// mutation (LRU ticks, stats, cache admission, batch re-admission)
  /// happens under `mu_` or inside the internally-locked PageCache.
  Result<std::shared_ptr<const CaptureBatch>> Read(
      int step, const std::vector<int>& rels = {}) const;

  /// Layer `step` encoded into pages of `page_size`: straight from its
  /// batch while it has one, else its spilled pages when `page_size` is
  /// the store's, else re-encoded from a decoded batch.
  Result<std::vector<Page>> EncodePages(int step, size_t page_size) const;

  /// Asynchronous hint: load the pages of `step` restricted to `rels`
  /// into the page cache. Layered evaluation issues these
  /// direction-aware (step+1 ascending, step-1 descending). Best-effort;
  /// errors surface on the subsequent Read.
  void Prefetch(int step, const std::vector<int>& rels) const;

  /// Waits for all background writes, enforces the budget, and returns
  /// the first flush error (sticky). The spill files are durable (each
  /// write ends in a flush) once this returns. In degraded mode there is
  /// nothing outstanding and Drain returns OK.
  Status Drain();

  /// Degradation escape hatch (DESIGN.md §2.4): permanently stop
  /// spilling and keep every unflushed layer in memory. Append and Drain
  /// succeed again afterwards (the store is a plain in-memory store for
  /// new layers); layers already on disk stay readable. Irreversible.
  void EnterDegradedMode();
  bool degraded() const;

  /// The sticky error of the first exhausted flush; OK while the spill
  /// path is healthy. Preserved across EnterDegradedMode so callers can
  /// report *why* capture degraded.
  Status flush_error() const;

  size_t TotalBytes() const;  ///< logical bytes, resident or spilled
  /// Logical bytes of layers held as batches, plus cached pages.
  size_t InMemoryBytes() const;
  int64_t TotalTuples() const;
  int SpilledCount() const;  ///< layers not held as a batch
  StorageStats stats() const;

 private:
  struct Entry {
    Superstep step = 0;
    size_t byte_size = 0;
    int64_t tuple_count = 0;
    /// The layer's columns until its flush and while the budget allows
    /// (the flusher encodes pages from them), or re-admitted by a full
    /// read of its pages.
    std::shared_ptr<const CaptureBatch> batch;
    bool flush_pending = false;
    bool flushed = false;
    /// Times this entry's flush exhausted its retries and was requeued;
    /// a second exhaustion makes the error sticky instead.
    int quarantines = 0;
    std::string file;
    /// Wire location + relation of each page, in page-index order.
    struct PageRef {
      uint32_t rel = 0;
      uint64_t offset = 0;
      uint32_t bytes = 0;
    };
    std::vector<PageRef> pages;
    uint64_t last_use = 0;
  };

  static bool InMemory(const Entry& entry) { return entry.batch != nullptr; }
  Status AppendEntry(std::unique_ptr<Entry> entry);
  /// Queues `entry` for flushing: the Locked half books it as pending,
  /// SubmitFlush (called after releasing mu_) hands it to the flusher.
  void MarkFlushPendingLocked(Entry* entry);
  void SubmitFlush(Entry* entry);
  void FlushEntry(Entry* entry);
  void EvictBatchesLocked() const;
  size_t DecodedBudget() const;
  /// Page `index` of `entry` from the cache, else read through `file`
  /// (opened on first use; one per layer read).
  Result<std::shared_ptr<const Page>> FetchPage(const Entry& entry,
                                                uint32_t index,
                                                std::ifstream& file) const;

  mutable std::mutex mu_;
  std::condition_variable backpressure_cv_;
  std::vector<std::unique_ptr<Entry>> entries_;
  LayerStoreOptions options_;
  bool configured_ = false;
  bool degraded_ = false;
  size_t unflushed_bytes_ = 0;
  /// Sticky first exhausted-flush error (see flush_error()).
  Status first_flush_error_;
  /// LRU clock and counters are advanced by the (const) read path under
  /// mu_ — bookkeeping, not logical state, hence mutable.
  mutable uint64_t use_tick_ = 0;
  mutable StorageStats stats_;  ///< cache_* fields filled from cache_ on read
  /// Per-flusher-thread retry counts (stats surface; guarded by mu_).
  std::unordered_map<std::thread::id, uint64_t> flush_retries_by_thread_;
  std::unique_ptr<PageCache> cache_;
  std::unique_ptr<BackgroundFlusher> flusher_;
};

}  // namespace ariadne::storage

#endif  // ARIADNE_STORAGE_LAYER_STORE_H_
