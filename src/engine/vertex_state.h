#ifndef ARIADNE_ENGINE_VERTEX_STATE_H_
#define ARIADNE_ENGINE_VERTEX_STATE_H_

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <span>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "engine/types.h"
#include "recovery/fault_injector.h"
#include "storage/page.h"

namespace ariadne {

/// Vertex-value store of the engine (DESIGN.md §2.7). Flat mode (the
/// default) is a plain std::vector<V> with zero overhead. Paged mode cuts
/// the value array into fixed, power-of-two-sized pages kept under a byte
/// budget: cold pages spill to a checksummed scratch file (record =
/// [page bytes][Checksum64]) with dirty write-back, and fault back in on
/// access. Requires a trivially-copyable V (records are raw memcpy);
/// ConfigurePaged refuses otherwise and the store stays flat.
///
/// Access goes through `Window`s: a window pins the pages covering a
/// contiguous vertex range, hands out V& into them, and unpins on
/// destruction. The engine acquires one window per compute chunk — chunk
/// vertex ranges are contiguous (ascending active list), so a window is
/// a handful of pages. Pinned pages are never evicted; concurrent windows
/// over boundary pages share them via the pin count. Residency never
/// affects stored values, so paged runs are byte-identical to flat ones
/// for any budget or thread count (graph_backend_test.cc).
///
/// A background prefetcher mirrors the paged graph backend: PrefetchRange
/// hints fault upcoming pages in asynchronously so chunk windows almost
/// never block on the spill file. IO failures are sticky (error());
/// windows then serve a zeroed scratch page and the engine fails the run
/// at the next superstep barrier.
template <typename V>
class VertexState {
 public:
  VertexState() = default;
  ~VertexState() { Close(); }
  VertexState(const VertexState&) = delete;
  VertexState& operator=(const VertexState&) = delete;

  /// Switches to paged mode before the next Reset. The spill file lives
  /// at `spill_path` (scratch; created on Reset, removed on Close).
  Status ConfigurePaged(std::string spill_path, size_t budget_bytes) {
    if constexpr (!std::is_trivially_copyable_v<V>) {
      return Status::Unsupported(
          "paged vertex state requires a trivially-copyable vertex value "
          "type");
    }
    if (spill_path.empty()) {
      return Status::InvalidArgument("paged vertex state needs a spill path");
    }
    paged_ = true;
    spill_path_ = std::move(spill_path);
    budget_bytes_ = budget_bytes;
    return Status::OK();
  }

  /// Transient-I/O retry ladder of the paged read/write-back path
  /// (DESIGN.md §2.8); call before Reset.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }

  bool paged() const { return paged_; }
  size_t size() const { return n_; }

  /// (Re)initializes to `n` value-initialized slots.
  Status Reset(size_t n) {
    n_ = n;
    if (!paged_) {
      flat_.assign(n, V{});
      return Status::OK();
    }
    Close();
    paged_ = true;  // Close() resets the flag for the flat fallback
    values_per_page_ = PickValuesPerPage();
    page_shift_ = 0;
    while ((size_t{1} << page_shift_) < values_per_page_) ++page_shift_;
    const size_t num_pages =
        n == 0 ? 0 : (n + values_per_page_ - 1) / values_per_page_;
    pages_ = std::vector<PageSlot>(num_pages);
    scratch_.assign(values_per_page_, V{});
    resident_bytes_ = 0;
    stats_ = VertexStateStats{};
    stats_.paged = true;
    stats_.budget_bytes = budget_bytes_;
    stats_.footprint_bytes = static_cast<uint64_t>(n) * sizeof(V);
    stats_.pages = static_cast<int32_t>(num_pages);
    error_ = Status::OK();
    fd_ = ::open(spill_path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0) {
      return Status::IOError("cannot create vertex-state spill file " +
                             spill_path_ + ": " + std::strerror(errno));
    }
    prefetch_stop_ = false;
    prefetcher_ = std::thread([this] { PrefetcherMain(); });
    return Status::OK();
  }

  /// Sticky IO/corruption error of the paged read/write path; the engine
  /// checks this at every superstep barrier.
  Status error() const {
    if (!paged_) return Status::OK();
    std::lock_guard<std::mutex> lock(mu_);
    return error_;
  }

  VertexStateStats stats() const {
    if (!paged_) {
      VertexStateStats s;
      s.footprint_bytes = static_cast<uint64_t>(n_) * sizeof(V);
      s.resident_bytes = s.footprint_bytes;
      return s;
    }
    std::lock_guard<std::mutex> lock(mu_);
    VertexStateStats s = stats_;
    s.resident_bytes = resident_bytes_;
    return s;
  }

  /// A pinned view over vertices [first, last]. Windows are cheap in flat
  /// mode (a bare pointer); in paged mode acquisition faults + pins the
  /// covering pages and destruction unpins them.
  class Window {
   public:
    Window() = default;
    Window(Window&& other) noexcept { *this = std::move(other); }
    Window& operator=(Window&& other) noexcept {
      Release();
      owner_ = other.owner_;
      flat_base_ = other.flat_base_;
      first_page_ = other.first_page_;
      page_ptrs_ = std::move(other.page_ptrs_);
      other.owner_ = nullptr;
      other.flat_base_ = nullptr;
      other.page_ptrs_.clear();
      return *this;
    }
    Window(const Window&) = delete;
    Window& operator=(const Window&) = delete;
    ~Window() { Release(); }

    V& at(VertexId v) {
      if (flat_base_ != nullptr) return flat_base_[static_cast<size_t>(v)];
      return page_ptrs_[(static_cast<size_t>(v) >> owner_->page_shift_) -
                        first_page_]
                       [static_cast<size_t>(v) &
                        (owner_->values_per_page_ - 1)];
    }
    const V& at(VertexId v) const {
      return const_cast<Window*>(this)->at(v);
    }

   private:
    friend class VertexState;
    void Release() {
      if (owner_ != nullptr && !page_ptrs_.empty()) {
        owner_->UnpinRange(first_page_, page_ptrs_.size());
      }
      owner_ = nullptr;
      flat_base_ = nullptr;
      page_ptrs_.clear();
    }
    VertexState* owner_ = nullptr;
    V* flat_base_ = nullptr;      // flat fast path; null in paged mode
    size_t first_page_ = 0;
    std::vector<V*> page_ptrs_;  // pinned pages covering the range
  };

  /// Pins [first, last] (inclusive; clamped to the vertex count).
  /// Mutable-window acquisition marks the pages dirty — cheaper than
  /// tracking per-write dirtiness, and chunk windows write anyway.
  Window AcquireWindow(VertexId first, VertexId last) {
    Window w;
    w.owner_ = this;
    if (!paged_) {
      w.flat_base_ = flat_.data();
      return w;
    }
    if (first < 0) first = 0;
    if (last >= static_cast<VertexId>(n_)) {
      last = static_cast<VertexId>(n_) - 1;
    }
    if (first > last) return w;
    const size_t p0 = static_cast<size_t>(first) >> page_shift_;
    const size_t p1 = static_cast<size_t>(last) >> page_shift_;
    w.first_page_ = p0;
    w.page_ptrs_.resize(p1 - p0 + 1);
    std::unique_lock<std::mutex> lock(mu_);
    for (size_t p = p0; p <= p1; ++p) {
      w.page_ptrs_[p - p0] = PinPageLocked(lock, p, /*mark_dirty=*/true);
    }
    return w;
  }

  /// Async hint that vertices [first, last] are about to be accessed.
  void PrefetchRange(VertexId first, VertexId last) {
    if (!paged_ || first > last) return;
    if (first < 0) first = 0;
    if (last >= static_cast<VertexId>(n_)) {
      last = static_cast<VertexId>(n_) - 1;
    }
    const size_t p0 = static_cast<size_t>(first) >> page_shift_;
    const size_t p1 = static_cast<size_t>(last) >> page_shift_;
    bool queued = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t p = p0; p <= p1 && p < pages_.size(); ++p) {
        if (pages_[p].data == nullptr && loading_.count(p) == 0) {
          ++stats_.prefetch_loads;  // adjusted down if the load is beaten
          prefetch_queue_.push_back(p);
          queued = true;
        }
      }
    }
    if (queued) prefetch_cv_.notify_one();
  }

  /// Copies every value into `out` (the session/tool result path, which
  /// works in both modes — Engine::values() only works flat).
  Status CopyTo(std::vector<V>* out) {
    out->resize(n_);
    if (!paged_) {
      std::copy(flat_.begin(), flat_.end(), out->begin());
      return Status::OK();
    }
    constexpr VertexId kBlock = 1 << 16;
    for (VertexId b = 0; b < static_cast<VertexId>(n_); b += kBlock) {
      const VertexId e =
          std::min<VertexId>(b + kBlock, static_cast<VertexId>(n_)) - 1;
      Window w = AcquireWindow(b, e);
      for (VertexId v = b; v <= e; ++v) {
        (*out)[static_cast<size_t>(v)] = w.at(v);
      }
    }
    return error();
  }

  /// Flat-mode-only direct span (Engine::values()).
  std::span<const V> flat_span() const {
    if (paged_) return {};
    return {flat_.data(), flat_.size()};
  }

 private:
  struct PageSlot {
    std::unique_ptr<V[]> data;  // resident iff non-null
    uint32_t pins = 0;
    bool dirty = false;
    bool on_disk = false;  // a record exists in the spill file
    bool in_lru = false;
    std::list<size_t>::iterator lru_it;  // valid iff in_lru
  };

  static size_t PickValuesPerPage() {
    // ~64 KiB pages, power-of-two values per page (so v>>shift / v&mask
    // replace div/mod on the window hot path).
    size_t vp = 1;
    while (vp * sizeof(V) < size_t{64} * 1024) vp <<= 1;
    return vp;
  }

  size_t PageBytes() const { return values_per_page_ * sizeof(V); }
  uint64_t RecordOffset(size_t p) const {
    return static_cast<uint64_t>(p) * (PageBytes() + 8);
  }

  /// Faults (if needed), pins and LRU-touches page `p`. Requires `lock`
  /// held; may drop it during IO (pages being loaded are tracked in
  /// loading_, and waiters block on load_done_). Returns the page array,
  /// or the shared zero scratch page after a sticky IO error.
  V* PinPageLocked(std::unique_lock<std::mutex>& lock, size_t p,
                   bool mark_dirty) {
    for (;;) {
      PageSlot& slot = pages_[p];
      if (slot.data != nullptr) {
        if (slot.pins++ == 0 && slot.in_lru) {
          lru_.erase(slot.lru_it);
          slot.in_lru = false;
        }
        if (mark_dirty) slot.dirty = true;
        return slot.data.get();
      }
      if (!error_.ok()) return scratch_.data();
      if (loading_.count(p) == 0) break;
      load_done_.wait(lock);
    }
    loading_.insert(p);
    const bool from_disk = pages_[p].on_disk;
    lock.unlock();
    std::unique_ptr<V[]> data;
    int retries = 0;
    Status load = LoadPage(p, from_disk, &data, &retries);
    bool reopened = false;
    if (!load.ok() && IsTransientError(load)) {
      // Retries exhausted on a transient error: one reopen-and-revalidate
      // of the spill fd before the error goes sticky (DESIGN.md §2.8).
      if (ReopenSpill().ok()) {
        reopened = true;
        load = LoadPage(p, from_disk, &data, &retries);
      }
    }
    lock.lock();
    loading_.erase(p);
    stats_.read_retries += static_cast<uint64_t>(retries);
    if (reopened) ++stats_.fd_reopens;
    PageSlot& slot = pages_[p];
    if (!load.ok()) {
      ++stats_.gave_up;
      if (error_.ok()) error_ = load;
      load_done_.notify_all();
      return scratch_.data();
    }
    slot.data = std::move(data);
    slot.pins = 1;
    slot.dirty = mark_dirty || !from_disk;
    resident_bytes_ += PageBytes();
    if (from_disk) ++stats_.page_faults;
    EvictOverBudgetLocked();
    load_done_.notify_all();
    return slot.data.get();
  }

  /// Reads page `p` from the spill file (or value-initializes a page that
  /// was never written), retrying transient errors (fault point
  /// "vstate-page-read") per retry_. No lock held; `*retries` accumulates
  /// attempts beyond the first for the caller to fold into stats_.
  Status LoadPage(size_t p, bool from_disk, std::unique_ptr<V[]>* out,
                  int* retries) {
    auto data = std::make_unique<V[]>(values_per_page_);
    if (from_disk) {
      const RetryOutcome read = RetryTransient(retry_, p, [&] {
        Status attempt = recovery::CheckFaultPoint("vstate-page-read");
        if (attempt.ok()) attempt = ReadRecordOnce(p, data.get());
        return attempt;
      });
      *retries += read.retries();
      ARIADNE_RETURN_NOT_OK(read.status);
    }
    *out = std::move(data);
    return Status::OK();
  }

  /// One pread+checksum attempt of page `p`'s spill record.
  Status ReadRecordOnce(size_t p, V* data) {
    const size_t rec = PageBytes() + 8;
    std::string raw(rec, '\0');
    size_t got = 0;
    while (got < rec) {
      const ssize_t r =
          ::pread(fd_, raw.data() + got, rec - got, RecordOffset(p) + got);
      if (r < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("pread failed on vertex-state spill " +
                               spill_path_ + ": " + std::strerror(errno));
      }
      if (r == 0) {
        return Status::IOError("vertex-state spill truncated at page " +
                               std::to_string(p) + " in " + spill_path_);
      }
      got += static_cast<size_t>(r);
    }
    uint64_t want;
    std::memcpy(&want, raw.data() + PageBytes(), 8);
    if (storage::Checksum64({raw.data(), PageBytes()}) != want) {
      return Status::ParseError("vertex-state page " + std::to_string(p) +
                                " checksum mismatch in " + spill_path_);
    }
    // ConfigurePaged refuses any other value type at run time.
    if constexpr (std::is_trivially_copyable_v<V>) {
      std::memcpy(data, raw.data(), PageBytes());
    }
    return Status::OK();
  }

  /// Writes page `p` (dirty write-back), retrying transient errors (fault
  /// point "vstate-page-write") per retry_. Called with mu_ held from the
  /// eviction path; the page has pins == 0, so nothing mutates it. Doing
  /// the write (and any backoff) under the lock serializes write-back
  /// against faults — acceptable because eviction happens off the chunk
  /// hot path (window release) and pages are small.
  Status StorePage(size_t p, const V* data) {
    std::string raw(PageBytes() + 8, '\0');
    std::memcpy(raw.data(), data, PageBytes());
    const uint64_t sum = storage::Checksum64({raw.data(), PageBytes()});
    std::memcpy(raw.data() + PageBytes(), &sum, 8);
    const RetryOutcome wrote = RetryTransient(retry_, p, [&] {
      Status attempt = recovery::CheckFaultPoint("vstate-page-write");
      if (attempt.ok()) attempt = WriteRecordOnce(p, raw);
      return attempt;
    });
    stats_.write_retries += static_cast<uint64_t>(wrote.retries());
    return wrote.status;
  }

  /// One pwrite attempt of page `p`'s spill record.
  Status WriteRecordOnce(size_t p, const std::string& raw) {
    size_t put = 0;
    while (put < raw.size()) {
      const ssize_t w = ::pwrite(fd_, raw.data() + put, raw.size() - put,
                                 RecordOffset(p) + put);
      if (w < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("pwrite failed on vertex-state spill " +
                               spill_path_ + ": " + std::strerror(errno));
      }
      put += static_cast<size_t>(w);
    }
    return Status::OK();
  }

  /// Last-ditch recovery before an error goes sticky: reopens the spill
  /// file and retargets fd_ via dup2 (atomic for concurrent preads).
  /// Validates the new descriptor with fstat — the scratch file has no
  /// magic; its records are individually checksummed anyway.
  Status ReopenSpill() {
    std::lock_guard<std::mutex> lock(reopen_mu_);
    const int fd = ::open(spill_path_.c_str(), O_RDWR);
    if (fd < 0) {
      return Status::IOError("reopen failed for vertex-state spill " +
                             spill_path_ + ": " + std::strerror(errno));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0 || ::dup2(fd, fd_) < 0) {
      const Status failed =
          Status::IOError("revalidating reopened vertex-state spill " +
                          spill_path_ + ": " + std::strerror(errno));
      ::close(fd);
      return failed;
    }
    ::close(fd);
    return Status::OK();
  }

  /// Evicts cold unpinned pages until under budget (soft: pinned pages
  /// can hold residency above budget). Requires mu_ held.
  void EvictOverBudgetLocked() {
    auto it = lru_.begin();
    while (resident_bytes_ > budget_bytes_ && it != lru_.end()) {
      const size_t p = *it;
      PageSlot& slot = pages_[p];
      if (slot.dirty) {
        Status stored = StorePage(p, slot.data.get());
        if (!stored.ok() && IsTransientError(stored) && ReopenSpill().ok()) {
          ++stats_.fd_reopens;
          stored = StorePage(p, slot.data.get());
        }
        if (!stored.ok()) {
          ++stats_.gave_up;
          if (error_.ok()) error_ = stored;
          return;  // keep the page; the barrier check surfaces the error
        }
        slot.dirty = false;
        slot.on_disk = true;
        ++stats_.writebacks;
      }
      slot.data.reset();
      resident_bytes_ -= PageBytes();
      ++stats_.evictions;
      it = lru_.erase(it);
      slot.in_lru = false;
    }
  }

  void UnpinRange(size_t first_page, size_t count) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t p = first_page; p < first_page + count; ++p) {
      PageSlot& slot = pages_[p];
      if (--slot.pins == 0 && !slot.in_lru) {
        slot.lru_it = lru_.insert(lru_.end(), p);
        slot.in_lru = true;
      }
    }
    if (resident_bytes_ > budget_bytes_) EvictOverBudgetLocked();
  }

  void PrefetcherMain() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      prefetch_cv_.wait(lock, [this] {
        return prefetch_stop_ || !prefetch_queue_.empty();
      });
      if (prefetch_stop_) return;
      const size_t p = prefetch_queue_.front();
      prefetch_queue_.pop_front();
      if (pages_[p].data != nullptr || loading_.count(p) > 0 ||
          !error_.ok()) {
        --stats_.prefetch_loads;  // someone else got there first
        continue;
      }
      // Pin + unpin so the prefetched page enters the LRU as warmest.
      V* data = PinPageLocked(lock, p, /*mark_dirty=*/false);
      if (data != scratch_.data()) {
        PageSlot& slot = pages_[p];
        if (--slot.pins == 0 && !slot.in_lru) {
          slot.lru_it = lru_.insert(lru_.end(), p);
          slot.in_lru = true;
        }
      }
    }
  }

  void Close() {
    if (!paged_) return;
    if (prefetcher_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        prefetch_stop_ = true;
      }
      prefetch_cv_.notify_all();
      prefetcher_.join();
    }
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
      std::remove(spill_path_.c_str());
    }
    pages_.clear();
    lru_.clear();
    loading_.clear();
    prefetch_queue_.clear();
    paged_ = false;
  }

  size_t n_ = 0;
  std::vector<V> flat_;

  // Paged-mode state (all guarded by mu_ unless noted).
  bool paged_ = false;
  std::string spill_path_;
  size_t budget_bytes_ = 0;
  size_t values_per_page_ = 0;  // power of two; set by Reset
  size_t page_shift_ = 0;
  int fd_ = -1;
  RetryPolicy retry_;
  /// Serializes ReopenSpill so concurrently failing pages don't race
  /// dup2 swaps of fd_.
  std::mutex reopen_mu_;
  mutable std::mutex mu_;
  mutable std::condition_variable load_done_;
  std::condition_variable prefetch_cv_;
  std::vector<PageSlot> pages_;
  std::list<size_t> lru_;  // unpinned resident pages, front = coldest
  std::unordered_set<size_t> loading_;
  std::deque<size_t> prefetch_queue_;
  bool prefetch_stop_ = false;
  std::thread prefetcher_;
  size_t resident_bytes_ = 0;
  Status error_ = Status::OK();
  VertexStateStats stats_;
  /// Served to windows after a sticky error (values are garbage by then;
  /// the run fails at the barrier before anything is reported).
  std::vector<V> scratch_;
};

}  // namespace ariadne

#endif  // ARIADNE_ENGINE_VERTEX_STATE_H_
