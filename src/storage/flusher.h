#ifndef ARIADNE_STORAGE_FLUSHER_H_
#define ARIADNE_STORAGE_FLUSHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ariadne::storage {

/// Dedicated background-I/O worker pool of the layer store: write-behind
/// of sealed layers and prefetch reads run here so `AppendBatch` returns
/// to the superstep barrier immediately (the stand-in for the paper's
/// asynchronous HDFS offload thread). Distinct from common/ThreadPool,
/// which is a chunk-parallel compute pool: this one queues independent
/// FIFO tasks and supports draining to a quiescent point.
class BackgroundFlusher {
 public:
  /// `num_threads <= 0` runs every task inline in Submit (deterministic,
  /// used by tests and by stores that were never configured for spill).
  explicit BackgroundFlusher(int num_threads);
  ~BackgroundFlusher();  ///< drains, then joins

  BackgroundFlusher(const BackgroundFlusher&) = delete;
  BackgroundFlusher& operator=(const BackgroundFlusher&) = delete;

  /// Enqueues `task`; tasks start in FIFO order across the pool. Tasks
  /// must not throw and must not Submit/Drain recursively.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void Drain();

  int num_threads() const { return static_cast<int>(threads_.size()); }
  uint64_t tasks_executed() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers wait for tasks
  std::condition_variable drain_cv_;  ///< Drain waits for quiescence
  std::deque<std::function<void()>> queue_;
  int running_ = 0;  ///< tasks currently executing
  uint64_t executed_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace ariadne::storage

#endif  // ARIADNE_STORAGE_FLUSHER_H_
