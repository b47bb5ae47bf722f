#ifndef ARIADNE_SERVE_SERVER_H_
#define ARIADNE_SERVE_SERVER_H_

#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "eval/layered_step.h"
#include "serve/service_state.h"
#include "serve/shared_scan.h"
#include "storage/page_cache.h"

namespace ariadne::serve {

struct ServerOptions {
  /// Queries being stepped concurrently; further admissions wait queued.
  size_t max_inflight = 32;
  /// Bound of the admission queue; Submit beyond it is rejected
  /// immediately (OutOfRange) rather than buffered without limit.
  size_t queue_capacity = 256;
  /// Per-query wall-clock budget from admission, checked between layer
  /// steps (a step is never interrupted). 0 = unlimited.
  double default_deadline_ms = 0.0;
  /// Worker threads fanning one layer group out across its subscribed
  /// queries; 0/1 steps inline on the scheduler thread.
  size_t step_threads = 0;

  // -- Resilience (DESIGN.md §2.8) --

  /// Attempts per shared layer scan before the group step counts as
  /// failed; transient (I/O) errors only — corruption fails immediately.
  /// The scan is the retryable half of a layer step: a run's compute half
  /// mutates query state and cannot be replayed.
  int step_retry_attempts = 3;
  /// Backoff before the 2nd scan attempt, in ms; doubles per attempt,
  /// plus seeded jitter (common/retry.h).
  double step_retry_backoff_ms = 1.0;
  /// Consecutive exhausted scan failures that trip the circuit breaker;
  /// <= 0 disables the breaker.
  int breaker_threshold = 3;
  /// Open -> half-open cooldown: how long new queries are bounced before
  /// one probe is let through.
  double breaker_cooldown_ms = 250.0;
  /// Shed at admission when the estimated queue wait (EWMA of completed
  /// exec times x queued waves) already exceeds the request's deadline.
  bool shed_on_deadline = true;
};

/// One query submitted to the server.
struct ServeRequest {
  std::string name;  ///< client tag, echoed in the response
  std::string text;  ///< PQL program
  QueryParams params;
  /// Overrides ServerOptions::default_deadline_ms; < 0 = use the default,
  /// 0 = unlimited.
  double deadline_ms = -1.0;
};

struct ServeResponse {
  std::string name;
  /// Admission, parse/analysis, evaluation or deadline error.
  Status status;
  QueryResult result;
  OfflineEvalStats stats;
  /// Page-cache activity of the shared scans this query subscribed to
  /// (each subscriber of a group observes that group's whole scan).
  storage::PageCacheStats cache;
  double queue_seconds = 0.0;  ///< submit -> admission
  double exec_seconds = 0.0;   ///< admission -> completion

  bool ok() const { return status.ok(); }
};

struct ServerStats {
  uint64_t submitted = 0;
  uint64_t rejected = 0;  ///< bounced at admission (queue full / stopping)
  /// Bounced at admission for health reasons: breaker open/probing, or
  /// the estimated queue wait already exceeded the deadline.
  uint64_t shed = 0;
  uint64_t admitted = 0;
  /// Requests that attached to an identical in-flight query (same text +
  /// params) instead of evaluating — each still yields its own response.
  uint64_t coalesced = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;   ///< prepare/eval errors
  uint64_t expired = 0;  ///< deadline exceeded
  uint64_t group_steps = 0;  ///< scheduler iterations (one shared view each)
  uint64_t query_steps = 0;  ///< per-query layer steps executed
  uint64_t max_group_size = 0;
  uint64_t step_retries = 0;   ///< transient shared-scan retries
  uint64_t scan_failures = 0;  ///< scans that exhausted their retries
  uint64_t breaker_trips = 0;  ///< transitions to the open state
  uint64_t breaker_probes = 0;  ///< probe queries admitted while half-open
  SharedScanStats scan;

  /// Mean queries fed per shared view — the sharing factor.
  double MeanGroupSize() const {
    return group_steps == 0 ? 0.0
                            : static_cast<double>(query_steps) /
                                  static_cast<double>(group_steps);
  }
};

/// Circuit-breaker state (DESIGN.md §2.8). Closed = healthy; open =
/// consecutive store-read failures exceeded the threshold and new queries
/// are bounced with Unavailable until the cooldown elapses; half-open =
/// cooldown elapsed, one probe query is admitted — its scan outcome
/// closes or re-opens the breaker.
enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* BreakerStateName(BreakerState state);

/// Point-in-time health of the server (QueryServer::health(), the
/// `health` stdin command of ariadne_serve).
struct HealthSnapshot {
  bool accepting = true;  ///< false once Shutdown began
  BreakerState breaker = BreakerState::kClosed;
  int consecutive_scan_failures = 0;
  double retry_after_ms = 0.0;  ///< > 0 while the breaker is open
  size_t queue_depth = 0;
  size_t inflight = 0;
  double est_query_ms = 0.0;  ///< EWMA of completed-query exec time
  uint64_t shed = 0;
  uint64_t step_retries = 0;
  uint64_t breaker_trips = 0;

  std::string ToString() const;
};

/// The multi-tenant provenance query server (DESIGN.md §2.6): one loaded
/// capture, many concurrent PQL queries, Quegel-style superstep-sharing.
///
/// Three stages:
///  1. Admission — Submit() bounds the waiting queue and stamps the
///     deadline; the scheduler admits up to max_inflight resumable
///     LayeredQueryRuns (eval/layered_step.h).
///  2. Scheduler — groups in-flight runs by the provenance layer each
///     needs next and picks the largest group (ties: lowest layer, so
///     co-admitted same-direction queries stay in lockstep).
///  3. Shared-scan executor — one page-read + decompress + index pass for
///     the group's (layer, relation-union), fanned out to every
///     subscribed query; the group then steps in parallel on the pool.
///
/// Every query's result is identical to a one-shot Session::RunOffline
/// of the same program (see serve_concurrent_test).
class QueryServer {
 public:
  /// `state` must outlive the server.
  QueryServer(const ServiceState* state, ServerOptions options = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Enqueues a query; the future resolves when it completes, fails or
  /// expires. Bounced immediately instead of queued when: the queue is
  /// full (OutOfRange), the server is stopping (Unavailable), the circuit
  /// breaker is open / probing (Unavailable with a retry-after hint), or
  /// the estimated queue wait already exceeds the deadline (Unavailable).
  /// Every Submit yields a resolved future — promises are never dropped,
  /// even when Submit races Shutdown. Thread-safe.
  std::future<ServeResponse> Submit(ServeRequest request);

  /// Submit + future.get().
  ServeResponse SubmitAndWait(ServeRequest request);

  /// Stops the scheduler. New Submits are bounced (Unavailable) from the
  /// moment this is called. With drain_timeout_ms < 0 (the default, and
  /// what the destructor uses) the queue and all in-flight queries drain
  /// to completion; otherwise queries still waiting or running when the
  /// timeout elapses fail fast with Unavailable. Idempotent.
  void Shutdown(double drain_timeout_ms = -1.0);

  ServerStats stats() const;

  /// Point-in-time health: breaker state, queue depth, shed/retry
  /// counters. Thread-safe; never blocks on in-flight work.
  HealthSnapshot health() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// A submitted-but-not-admitted query.
  struct Pending {
    ServeRequest request;
    std::promise<ServeResponse> promise;
    WallTimer queued;
  };

  /// The mutable per-query half of a running evaluation (the counterpart
  /// of the shared ServiceState): analyzed program, resumable run,
  /// deadline, timers and attributed cache counters. Owned by the
  /// scheduler; never moved after the run is constructed (the run holds
  /// a pointer to `query`).
  struct QueryContext {
    std::string name;
    std::promise<ServeResponse> promise;
    std::unique_ptr<AnalyzedQuery> query;
    std::optional<LayeredQueryRun> run;
    Clock::time_point deadline = Clock::time_point::max();
    double queue_seconds = 0.0;
    WallTimer exec;
    storage::PageCacheStats cache;
    Status step_status;
    /// Coalescing key (program text + sorted params) and the requests
    /// riding this evaluation: identical queries over the immutable
    /// store yield identical results, so concurrent duplicates attach
    /// here instead of evaluating — LayeredQueryRun::Finish is
    /// re-callable and deterministic, so each follower gets its own
    /// (byte-identical) result. Followers share this query's deadline.
    std::string key;
    struct Follower {
      std::string name;
      std::promise<ServeResponse> promise;
      double queue_seconds = 0.0;
    };
    std::vector<Follower> followers;
  };

  void SchedulerLoop();
  void Admit(Pending pending);
  /// One scheduler iteration over the largest layer group.
  void RunGroup();
  void Respond(std::unique_ptr<QueryContext> ctx, Status status,
               Result<OfflineRun>&& run);

  /// Open -> half-open once the cooldown has elapsed. mu_ held.
  void MaybeHalfOpenLocked();
  /// Remaining open-state cooldown in ms (0 unless open). mu_ held.
  double RetryAfterMsLocked() const;
  /// EWMA exec time x full waves of (queued + inflight) ahead of a new
  /// admission. mu_ held.
  double EstimatedQueueWaitMsLocked() const;
  /// Breaker bookkeeping after a shared scan succeeded / exhausted its
  /// retries. Called from RunGroup, takes mu_.
  void NoteScanOutcome(bool ok);
  /// Refreshes the mu_-guarded mirror of inflight_.size() for health().
  void SyncInflightCount();

  const ServiceState* state_;
  const ServerOptions options_;
  SharedScanExecutor executor_;
  ThreadPool pool_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  ServerStats stats_;

  // Breaker + shedding state (all guarded by mu_).
  BreakerState breaker_ = BreakerState::kClosed;
  int consecutive_scan_failures_ = 0;
  Clock::time_point breaker_open_until_{};
  /// A half-open probe is queued or running; further admissions bounce
  /// until its scan verdict (or its completion) comes back.
  bool probe_inflight_ = false;
  /// EWMA (alpha 0.2) of completed-query exec seconds, for the
  /// deadline-aware admission shed.
  double ewma_exec_seconds_ = 0.0;
  /// Mirror of inflight_.size() so health() need not touch the
  /// scheduler-private vector.
  size_t inflight_count_ = 0;
  /// Fail-fast drain deadline set by Shutdown(timeout >= 0).
  Clock::time_point drain_deadline_ = Clock::time_point::max();

  /// Scheduler-private (only SchedulerLoop touches it).
  std::vector<std::unique_ptr<QueryContext>> inflight_;

  std::thread scheduler_;
};

}  // namespace ariadne::serve

#endif  // ARIADNE_SERVE_SERVER_H_
