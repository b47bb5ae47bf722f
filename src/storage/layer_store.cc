#include "storage/layer_store.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/retry.h"
#include "recovery/fault_injector.h"

namespace ariadne::storage {

namespace {

/// Magic of a spill file ("ALF1"): one flushed layer = one file.
constexpr uint32_t kLayerFileMagic = 0x31464C41;

/// Reads `bytes` bytes at `offset` of `path` without mapping the whole
/// file — the read path touches only the pages a query needs.
Result<std::string> ReadRegion(const std::string& path, uint64_t offset,
                               uint32_t bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open spill file " + path);
  }
  in.seekg(static_cast<std::streamoff>(offset));
  std::string buf(bytes, '\0');
  in.read(buf.data(), static_cast<std::streamsize>(bytes));
  if (!in || static_cast<size_t>(in.gcount()) != bytes) {
    return Status::IOError("short read of " + std::to_string(bytes) +
                           " bytes in " + path + " at offset " +
                           std::to_string(offset));
  }
  return buf;
}

int64_t CountTuples(const Layer& layer) {
  int64_t n = 0;
  for (const auto& slice : layer.slices) {
    n += static_cast<int64_t>(slice.tuples.size());
  }
  return n;
}

}  // namespace

LayerStore::~LayerStore() {
  // Background tasks capture `this`; quiesce them before members die.
  if (flusher_) flusher_->Drain();
}

bool LayerStore::spill_enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return configured_;
}

Status LayerStore::Configure(LayerStoreOptions options) {
  std::unique_lock<std::mutex> lock(mu_);
  if (configured_) {
    return Status::InvalidArgument(
        "layer store spill already configured (dir=" + options_.dir + ")");
  }
  if (options.dir.empty()) {
    return Status::InvalidArgument("spill directory must not be empty");
  }
  if (options.page_size == 0) options.page_size = kDefaultPageSize;
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);  // flush reports failures
  options_ = std::move(options);
  cache_ = std::make_unique<PageCache>(options_.mem_budget_bytes / 4);
  flusher_ = std::make_unique<BackgroundFlusher>(options_.flush_threads);
  configured_ = true;
  std::vector<Entry*> pending;
  for (auto& entry : entries_) {
    if (entry->flushed) continue;
    MarkFlushPendingLocked(entry.get());
    pending.push_back(entry.get());
  }
  lock.unlock();
  for (Entry* entry : pending) SubmitFlush(entry);
  // Callers (and existing tests) treat EnableSpill as synchronous: the
  // store is under budget when it returns.
  flusher_->Drain();
  lock.lock();
  EvictResidentsLocked();
  return first_flush_error_;
}

Status LayerStore::Append(std::shared_ptr<const Layer> layer) {
  if (!layer) return Status::InvalidArgument("null layer");
  std::unique_lock<std::mutex> lock(mu_);
  if (layer->step != static_cast<Superstep>(entries_.size())) {
    return Status::InvalidArgument(
        "layer step " + std::to_string(layer->step) +
        " appended out of order (expected " +
        std::to_string(entries_.size()) + ")");
  }
  auto entry = std::make_unique<Entry>();
  entry->step = layer->step;
  entry->byte_size = layer->byte_size;
  entry->tuple_count = CountTuples(*layer);
  entry->resident = std::move(layer);
  Entry* raw = entry.get();
  entries_.push_back(std::move(entry));
  // Degraded mode: the store is a plain in-memory store for new layers —
  // no spilling, no backpressure, no sticky error.
  if (!configured_ || degraded_) return Status::OK();
  MarkFlushPendingLocked(raw);
  lock.unlock();
  SubmitFlush(raw);
  lock.lock();
  // Write-behind with bounded lag: the barrier only waits when the
  // flusher has fallen `max_unflushed_bytes` behind.
  backpressure_cv_.wait(lock, [&] {
    return unflushed_bytes_ <= options_.max_unflushed_bytes ||
           !first_flush_error_.ok() || degraded_;
  });
  return degraded_ ? Status::OK() : first_flush_error_;
}

void LayerStore::MarkFlushPendingLocked(Entry* entry) {
  entry->flush_pending = true;
  unflushed_bytes_ += entry->byte_size;
}

void LayerStore::SubmitFlush(Entry* entry) {
  // Never called with mu_ held: with flush_threads = 0 the flusher runs
  // the task on this stack, and FlushEntry takes mu_.
  flusher_->Submit([this, entry] { FlushEntry(entry); });
}

void LayerStore::FlushEntry(Entry* entry) {
  const auto start = std::chrono::steady_clock::now();
  // `resident` is set before the task is submitted and only cleared by
  // eviction, which requires `flushed` — safe to read without the lock.
  std::shared_ptr<const Layer> layer = entry->resident;
  std::vector<Page> pages;
  std::vector<Entry::PageRef> refs;
  std::string buf;
  size_t page_bytes = 0;
  {
    pages = EncodeLayer(*layer, options_.page_size);
    BinaryWriter header;
    header.WriteU32(kLayerFileMagic);
    header.WriteU32(static_cast<uint32_t>(pages.size()));
    header.WriteI64(layer->step);
    buf = header.MoveData();
    refs.reserve(pages.size());
    for (const Page& page : pages) {
      Entry::PageRef ref;
      ref.rel = page.header.rel;
      ref.offset = buf.size();
      SerializePage(page, &buf);
      ref.bytes = static_cast<uint32_t>(buf.size() - ref.offset);
      page_bytes += ref.bytes;
      refs.push_back(ref);
    }
  }
  BinaryWriter raw;
  SerializeLayer(*layer, raw);
  const std::string path =
      options_.dir + "/layer_" + std::to_string(layer->step) + ".apg";
  // Bounded retry with exponential backoff + jitter (common/retry.h):
  // transient I/O errors (fault point "flusher-write", or a real failed
  // write) are retried io_max_attempts times before the flush counts as
  // exhausted. The jitter mixes a per-thread salt, so concurrent flusher
  // threads retrying the same sick disk fan out instead of thundering.
  const int max_attempts = std::max(1, options_.io_max_attempts);
  const RetryOutcome flushed = RetryTransient(
      options_.IoRetryPolicy(), static_cast<uint64_t>(layer->step), [&] {
        Status attempt = recovery::CheckFaultPoint("flusher-write");
        if (attempt.ok()) attempt = WriteFile(path, buf);
        return attempt;
      });
  Status st = flushed.status;
  if (flushed.retries() > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.flush_retries += static_cast<uint64_t>(flushed.retries());
    flush_retries_by_thread_[std::this_thread::get_id()] +=
        static_cast<uint64_t>(flushed.retries());
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  bool requeue = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entry->flush_pending = false;
    unflushed_bytes_ -= entry->byte_size;
    if (st.ok()) {
      entry->file = path;
      entry->pages = std::move(refs);
      entry->flushed = true;
      ++stats_.layers_flushed;
      stats_.pages_written += pages.size();
      stats_.compressed_bytes += page_bytes;
      stats_.raw_serialized_bytes += raw.size();
      stats_.flush_seconds += seconds;
      EvictResidentsLocked();
    } else if (!degraded_ && entry->quarantines == 0) {
      // Quarantine-and-requeue: the poisoned layer goes back on the queue
      // once (behind any healthy flushes). Its data stays resident, so
      // nothing is lost either way.
      entry->quarantines = 1;
      ++stats_.layers_quarantined;
      MarkFlushPendingLocked(entry);
      requeue = true;
    } else if (first_flush_error_.ok()) {
      first_flush_error_ =
          st.WithContext("flushing layer " + std::to_string(layer->step) +
                         " (after " + std::to_string(max_attempts) +
                         " attempts and 1 quarantine)");
    }
  }
  backpressure_cv_.notify_all();
  if (requeue) SubmitFlush(entry);
}

size_t LayerStore::DecodedBudget() const {
  // The page cache holds a quarter of the budget; decoded layers the rest.
  return options_.mem_budget_bytes - options_.mem_budget_bytes / 4;
}

void LayerStore::EvictResidentsLocked() const {
  const size_t target = DecodedBudget();
  size_t decoded = 0;
  for (const auto& entry : entries_) {
    if (entry->resident) decoded += entry->byte_size;
  }
  while (decoded > target) {
    Entry* victim = nullptr;
    for (const auto& entry : entries_) {
      // Only flushed layers may drop their decoded copy; a pending or
      // failed flush keeps the data resident (nothing is ever lost).
      if (entry->resident && entry->flushed && !entry->flush_pending &&
          (victim == nullptr || entry->last_use < victim->last_use)) {
        victim = entry.get();
      }
    }
    if (victim == nullptr) break;
    victim->resident.reset();
    decoded -= victim->byte_size;
  }
}

int LayerStore::num_layers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(entries_.size());
}

Result<std::shared_ptr<const Layer>> LayerStore::Read(int step) const {
  return ReadImpl(step, {});
}

Result<std::shared_ptr<const Layer>> LayerStore::ReadRelations(
    int step, const std::vector<int>& rels) const {
  return ReadImpl(step, rels);
}

Result<std::shared_ptr<const Page>> LayerStore::FetchPage(
    const Entry& entry, uint32_t index) const {
  const PageKey key{static_cast<int32_t>(entry.step), index};
  if (cache_) {
    if (auto page = cache_->Lookup(key)) return page;
  }
  const Entry::PageRef& ref = entry.pages[index];
  // Same bounded-retry policy as the flush path (fault point "page-read").
  Result<std::string> region = std::string();
  const RetryOutcome read = RetryTransient(
      options_.IoRetryPolicy(),
      (static_cast<uint64_t>(entry.step) << 20) + index, [&] {
        Status injected = recovery::CheckFaultPoint("page-read");
        region = injected.ok()
                     ? ReadRegion(entry.file, ref.offset, ref.bytes)
                     : Result<std::string>(injected);
        return region.ok() ? Status::OK() : region.status();
      });
  if (read.retries() > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.read_retries += static_cast<uint64_t>(read.retries());
  }
  if (!region.ok()) return region.status();
  size_t offset = 0;
  auto parsed = ParsePage(*region, &offset);
  if (!parsed.ok()) {
    // Re-anchor the in-buffer offset of the parse error to the file.
    return parsed.status().WithContext(
        entry.file + " (page " + std::to_string(index) + " at file offset " +
        std::to_string(ref.offset) + ")");
  }
  auto page = std::make_shared<const Page>(std::move(parsed).value());
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.pages_read;
  }
  if (cache_) cache_->Insert(key, page);
  return page;
}

Result<std::shared_ptr<const Layer>> LayerStore::ReadImpl(
    int step, const std::vector<int>& rels) const {
  std::unique_lock<std::mutex> lock(mu_);
  if (step < 0 || step >= static_cast<int>(entries_.size())) {
    return Status::OutOfRange("layer " + std::to_string(step) +
                              " out of range (store has " +
                              std::to_string(entries_.size()) + " layers)");
  }
  Entry* entry = entries_[static_cast<size_t>(step)].get();
  entry->last_use = ++use_tick_;
  if (entry->resident) {
    // Already decoded: returning the full layer is strictly cheaper than
    // filtering it, and callers tolerate a relation superset.
    return entry->resident;
  }
  if (!entry->flushed) {
    return first_flush_error_.ok()
               ? Status::Internal("layer " + std::to_string(step) +
                                  " neither resident nor flushed")
               : first_flush_error_;
  }
  const size_t n_pages = entry->pages.size();
  lock.unlock();

  const std::unordered_set<int> wanted(rels.begin(), rels.end());
  auto layer = std::make_shared<Layer>();
  layer->step = static_cast<Superstep>(step);
  std::vector<PageKey> pinned;
  pinned.reserve(n_pages);
  Status status;
  for (uint32_t i = 0; i < n_pages; ++i) {
    if (!wanted.empty() &&
        wanted.count(static_cast<int>(entry->pages[i].rel)) == 0) {
      continue;
    }
    auto page = FetchPage(*entry, i);
    if (!page.ok()) {
      status = page.status();
      break;
    }
    if (cache_) {
      // Pin for the rest of the layer decode so a later page's insert
      // cannot evict an earlier one mid-read.
      const PageKey key{static_cast<int32_t>(entry->step), i};
      cache_->Pin(key);
      pinned.push_back(key);
    }
    status = DecodePage(**page, layer.get());
    if (!status.ok()) {
      status = status.WithContext(entry->file);
      break;
    }
  }
  if (cache_) {
    for (const PageKey& key : pinned) cache_->Unpin(key);
  }
  ARIADNE_RETURN_NOT_OK(status);

  if (wanted.empty()) {
    // A full decode re-admits the layer as resident (LRU within budget),
    // so repeated layered passes do not re-decode every time.
    lock.lock();
    if (!entry->resident) entry->resident = layer;
    EvictResidentsLocked();
  }
  return std::static_pointer_cast<const Layer>(layer);
}

void LayerStore::Prefetch(int step, const std::vector<int>& rels) const {
  std::unique_lock<std::mutex> lock(mu_);
  if (!configured_ || step < 0 ||
      step >= static_cast<int>(entries_.size())) {
    return;
  }
  Entry* entry = entries_[static_cast<size_t>(step)].get();
  if (!entry->flushed || entry->resident) return;
  ++stats_.prefetch_requests;
  const size_t n_pages = entry->pages.size();
  lock.unlock();
  if (cache_->budget() == 0) return;  // nowhere to warm pages into

  std::vector<uint32_t> indices;
  const std::unordered_set<int> wanted(rels.begin(), rels.end());
  for (uint32_t i = 0; i < n_pages; ++i) {
    if (wanted.empty() ||
        wanted.count(static_cast<int>(entry->pages[i].rel)) != 0) {
      indices.push_back(i);
    }
  }
  if (indices.empty()) return;
  flusher_->Submit([this, entry, indices = std::move(indices)] {
    uint64_t loaded = 0;
    for (uint32_t i : indices) {
      const PageKey key{static_cast<int32_t>(entry->step), i};
      if (cache_->Contains(key)) continue;
      // Best-effort: a failed prefetch is silent, the subsequent Read
      // reports it with full context.
      auto page = FetchPage(*entry, i);
      if (!page.ok()) break;
      ++loaded;
    }
    std::lock_guard<std::mutex> lock(mu_);
    stats_.prefetch_pages += loaded;
  });
}

Status LayerStore::Drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!configured_) return Status::OK();
  }
  flusher_->Drain();
  std::lock_guard<std::mutex> lock(mu_);
  EvictResidentsLocked();
  return degraded_ ? Status::OK() : first_flush_error_;
}

void LayerStore::EnterDegradedMode() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (degraded_) return;
    degraded_ = true;
    stats_.degraded = true;
  }
  // Unblock any Append stuck on backpressure; new Appends skip the
  // flusher entirely, so every layer from here on stays resident.
  backpressure_cv_.notify_all();
}

bool LayerStore::degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_;
}

Status LayerStore::flush_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_flush_error_;
}

size_t LayerStore::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& entry : entries_) total += entry->byte_size;
  return total;
}

size_t LayerStore::InMemoryBytes() const {
  size_t total = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& entry : entries_) {
      if (entry->resident) total += entry->byte_size;
    }
  }
  if (cache_) total += cache_->stats().bytes_cached;
  return total;
}

int64_t LayerStore::TotalTuples() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& entry : entries_) total += entry->tuple_count;
  return total;
}

int LayerStore::SpilledCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  for (const auto& entry : entries_) {
    if (!entry->resident) ++n;
  }
  return n;
}

StorageStats LayerStore::stats() const {
  StorageStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
    out.degraded = degraded_;
    out.flush_retries_by_thread.reserve(flush_retries_by_thread_.size());
    for (const auto& [tid, n] : flush_retries_by_thread_) {
      out.flush_retries_by_thread.push_back(n);
    }
    std::sort(out.flush_retries_by_thread.begin(),
              out.flush_retries_by_thread.end(), std::greater<uint64_t>());
  }
  if (cache_) {
    const PageCacheStats cs = cache_->stats();
    out.cache_hits = cs.hits;
    out.cache_misses = cs.misses;
    out.cache_evictions = cs.evictions;
    out.cache_bytes = cs.bytes_cached;
  }
  return out;
}

}  // namespace ariadne::storage
