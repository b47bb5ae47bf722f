#include "serve/shared_scan.h"

#include <algorithm>

#include "recovery/fault_injector.h"

namespace ariadne::serve {

std::vector<int> UnionNeededRels(const std::vector<int>& a,
                                 const std::vector<int>& b) {
  if (a.empty() || b.empty()) return {};  // empty = all relations
  std::vector<int> merged;
  merged.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(merged));
  return merged;
}

SharedScanExecutor::SharedScanExecutor(const ProvenanceStore* store,
                                       int send_rel, int receive_rel,
                                       size_t capacity)
    : store_(store),
      send_rel_(send_rel),
      receive_rel_(receive_rel),
      capacity_(capacity == 0 ? 1 : capacity) {}

Result<std::shared_ptr<const LayerView>> SharedScanExecutor::Acquire(
    int step, const std::vector<int>& needed, size_t subscribers) {
  std::vector<int> build_rels = needed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.subscribers += subscribers;
    for (auto it = views_.begin(); it != views_.end(); ++it) {
      if ((*it)->step != step) continue;
      if ((*it)->Covers(needed)) {
        views_.splice(views_.begin(), views_, it);  // refresh LRU
        stats_.shared_hits += subscribers;
        return views_.front();
      }
      // Same layer, insufficient relations: rebuild over the union so the
      // replacement serves both this group and the evicted view's users.
      build_rels = UnionNeededRels((*it)->rels, needed);
      views_.erase(it);
      break;
    }
  }

  // One store pass: page read + decompress + per-vertex/route indexing.
  // Done outside the lock — the store's read path is concurrency-safe and
  // a slow cold scan must not block unrelated Acquires.
  // Fault point sits here, after the cache check: injected failures hit
  // only cold scans, exactly like a real store read error would.
  ARIADNE_RETURN_NOT_OK(recovery::CheckFaultPoint("serve-scan"));
  ARIADNE_ASSIGN_OR_RETURN(std::shared_ptr<const storage::CaptureBatch> batch,
                           store_->GetLayerBatch(step, build_rels));
  std::shared_ptr<const LayerView> view = BuildLayerView(
      std::move(batch), step, send_rel_, receive_rel_, std::move(build_rels));

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.scans;
  // Everyone beyond the first subscriber rides the single pass.
  if (subscribers > 0) stats_.shared_hits += subscribers - 1;
  views_.push_front(view);
  while (views_.size() > capacity_) {
    views_.pop_back();
    ++stats_.view_evictions;
  }
  return view;
}

void SharedScanExecutor::Prefetch(int step,
                                  const std::vector<int>& needed) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& view : views_) {
      if (view->step == step && view->Covers(needed)) return;
    }
  }
  store_->PrefetchLayer(step, needed);
}

SharedScanStats SharedScanExecutor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ariadne::serve
