#include "serve/server.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/retry.h"

namespace ariadne::serve {

namespace {

/// LayerViews retained by the shared-scan executor.
constexpr size_t kViewCacheCapacity = 4;

/// Jitter seed of the shared-scan retry ladder (common/retry.h).
constexpr uint64_t kScanRetrySeed = 0x41524941;  // "ARIA"

/// Canonical coalescing key: program text plus name-sorted params.
/// Two requests with equal keys ask the same question of the same
/// (immutable) store and may share one evaluation.
std::string RequestKey(const std::string& text, const QueryParams& params) {
  std::vector<std::pair<std::string, std::string>> sorted;
  sorted.reserve(params.size());
  for (const auto& [name, value] : params) {
    sorted.emplace_back(name, value.ToString());
  }
  std::sort(sorted.begin(), sorted.end());
  std::string key = text;
  for (const auto& [name, value] : sorted) {
    key += '\x1f';
    key += name;
    key += '=';
    key += value;
  }
  return key;
}

std::chrono::steady_clock::duration MillisDuration(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

std::string HealthSnapshot::ToString() const {
  std::ostringstream out;
  out << "state=" << (accepting ? "accepting" : "draining")
      << " breaker=" << BreakerStateName(breaker)
      << " consecutive_scan_failures=" << consecutive_scan_failures;
  if (retry_after_ms > 0.0) out << " retry_after_ms=" << retry_after_ms;
  out << " queue_depth=" << queue_depth << " inflight=" << inflight
      << " est_query_ms=" << est_query_ms << " shed=" << shed
      << " step_retries=" << step_retries
      << " breaker_trips=" << breaker_trips;
  return out.str();
}

QueryServer::QueryServer(const ServiceState* state, ServerOptions options)
    : state_(state),
      options_(options),
      executor_(&state->store(), state->send_rel(), state->receive_rel(),
                kViewCacheCapacity),
      pool_(options.step_threads) {
  scheduler_ = std::thread([this] { SchedulerLoop(); });
}

QueryServer::~QueryServer() { Shutdown(); }

std::future<ServeResponse> QueryServer::Submit(ServeRequest request) {
  std::promise<ServeResponse> promise;
  std::future<ServeResponse> future = promise.get_future();
  Status bounce;
  bool queued = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    if (stop_) {
      // Submit racing Shutdown: resolve the promise (Unavailable), never
      // drop it — callers blocked on future.get() must always wake.
      ++stats_.rejected;
      bounce = Status::Unavailable("server is shutting down");
    } else if (queue_.size() >= options_.queue_capacity) {
      ++stats_.rejected;
      bounce = Status::OutOfRange(
          "admission queue full (" + std::to_string(options_.queue_capacity) +
          " queries waiting)");
    } else {
      MaybeHalfOpenLocked();
      if (breaker_ == BreakerState::kOpen) {
        ++stats_.shed;
        bounce = Status::Unavailable(
            "circuit breaker open after " +
            std::to_string(consecutive_scan_failures_) +
            " consecutive store read failures; retry after " +
            std::to_string(RetryAfterMsLocked()) + " ms");
      } else if (breaker_ == BreakerState::kHalfOpen && probe_inflight_) {
        ++stats_.shed;
        bounce = Status::Unavailable(
            "circuit breaker half-open, probe in flight; retry after " +
            std::to_string(options_.breaker_cooldown_ms) + " ms");
      } else {
        const double deadline_ms = request.deadline_ms >= 0.0
                                       ? request.deadline_ms
                                       : options_.default_deadline_ms;
        const double est_wait_ms = EstimatedQueueWaitMsLocked();
        if (options_.shed_on_deadline && deadline_ms > 0.0 &&
            est_wait_ms > deadline_ms) {
          // The query would expire in the queue anyway; shedding it now
          // costs nothing and keeps the backlog honest.
          ++stats_.shed;
          bounce = Status::Unavailable(
              "estimated queue wait " + std::to_string(est_wait_ms) +
              " ms exceeds the " + std::to_string(deadline_ms) +
              " ms deadline; retry after the backlog drains");
        }
      }
      if (bounce.ok()) {
        if (breaker_ == BreakerState::kHalfOpen) {
          probe_inflight_ = true;
          ++stats_.breaker_probes;
        }
        queue_.push_back(Pending{std::move(request), std::move(promise), {}});
        queued = true;
      }
    }
  }
  if (!queued) {
    ServeResponse response;
    response.name = request.name;
    response.status = std::move(bounce);
    promise.set_value(std::move(response));
    return future;
  }
  cv_.notify_one();
  return future;
}

ServeResponse QueryServer::SubmitAndWait(ServeRequest request) {
  return Submit(std::move(request)).get();
}

void QueryServer::Shutdown(double drain_timeout_ms) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ && !scheduler_.joinable()) return;
    stop_ = true;
    if (drain_timeout_ms >= 0.0) {
      drain_deadline_ = Clock::now() + MillisDuration(drain_timeout_ms);
    }
  }
  cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
}

ServerStats QueryServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats out = stats_;
  out.scan = executor_.stats();
  return out;
}

HealthSnapshot QueryServer::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  HealthSnapshot snapshot;
  snapshot.accepting = !stop_;
  snapshot.breaker = breaker_;
  snapshot.consecutive_scan_failures = consecutive_scan_failures_;
  snapshot.retry_after_ms = RetryAfterMsLocked();
  snapshot.queue_depth = queue_.size();
  snapshot.inflight = inflight_count_;
  snapshot.est_query_ms = ewma_exec_seconds_ * 1000.0;
  snapshot.shed = stats_.shed;
  snapshot.step_retries = stats_.step_retries;
  snapshot.breaker_trips = stats_.breaker_trips;
  return snapshot;
}

void QueryServer::MaybeHalfOpenLocked() {
  if (breaker_ == BreakerState::kOpen && Clock::now() >= breaker_open_until_) {
    breaker_ = BreakerState::kHalfOpen;
    probe_inflight_ = false;
  }
}

double QueryServer::RetryAfterMsLocked() const {
  if (breaker_ != BreakerState::kOpen) return 0.0;
  const auto left = breaker_open_until_ - Clock::now();
  return std::max(0.0,
                  std::chrono::duration<double, std::milli>(left).count());
}

double QueryServer::EstimatedQueueWaitMsLocked() const {
  if (ewma_exec_seconds_ <= 0.0) return 0.0;
  // Queries drain max_inflight at a time; a new admission waits roughly
  // one EWMA exec time per full wave already ahead of it.
  const size_t slots = std::max<size_t>(1, options_.max_inflight);
  const size_t waves = (queue_.size() + inflight_count_) / slots;
  return static_cast<double>(waves) * ewma_exec_seconds_ * 1000.0;
}

void QueryServer::NoteScanOutcome(bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ok) {
    consecutive_scan_failures_ = 0;
    if (breaker_ == BreakerState::kHalfOpen) {
      breaker_ = BreakerState::kClosed;
      probe_inflight_ = false;
    }
    return;
  }
  ++stats_.scan_failures;
  ++consecutive_scan_failures_;
  // A failed half-open probe re-opens immediately; otherwise the breaker
  // trips once the consecutive-failure threshold is crossed.
  const bool probe_failed = breaker_ == BreakerState::kHalfOpen;
  if (options_.breaker_threshold > 0 && breaker_ != BreakerState::kOpen &&
      (probe_failed ||
       consecutive_scan_failures_ >= options_.breaker_threshold)) {
    breaker_ = BreakerState::kOpen;
    breaker_open_until_ =
        Clock::now() + MillisDuration(options_.breaker_cooldown_ms);
    probe_inflight_ = false;
    ++stats_.breaker_trips;
  }
}

void QueryServer::SyncInflightCount() {
  std::lock_guard<std::mutex> lock(mu_);
  inflight_count_ = inflight_.size();
}

void QueryServer::Respond(std::unique_ptr<QueryContext> ctx, Status status,
                          Result<OfflineRun>&& run) {
  const Status outcome =
      status.ok() ? (run.ok() ? Status::OK() : run.status()) : status;
  const double exec_seconds = ctx->exec.ElapsedSeconds();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t responses = 1 + ctx->followers.size();
    if (outcome.ok()) {
      stats_.completed += responses;
    } else if (outcome.code() == StatusCode::kOutOfRange) {
      stats_.expired += responses;
    } else {
      stats_.failed += responses;
    }
    // EWMA of exec time feeds the deadline-aware admission shed.
    ewma_exec_seconds_ = ewma_exec_seconds_ <= 0.0
                             ? exec_seconds
                             : 0.8 * ewma_exec_seconds_ + 0.2 * exec_seconds;
    // Any completion while half-open frees the probe slot: even a probe
    // that never reached a fresh scan (coalesced, expired, cached view)
    // must not wedge admissions waiting for a verdict that never comes.
    if (breaker_ == BreakerState::kHalfOpen) probe_inflight_ = false;
  }

  // Coalesced duplicates first: each gets its own result, re-derived
  // from the run's final state (Finish is deterministic and
  // re-callable), so followers and leader are byte-identical.
  for (QueryContext::Follower& follower : ctx->followers) {
    ServeResponse response;
    response.name = follower.name;
    response.queue_seconds = follower.queue_seconds;
    response.exec_seconds = exec_seconds;
    response.cache = ctx->cache;
    if (outcome.ok()) {
      Result<OfflineRun> again = ctx->run->Finish(exec_seconds);
      if (again.ok()) {
        OfflineRun finished = again.MoveValue();
        response.stats = finished.stats;
        response.result = std::move(finished.result);
      } else {
        response.status = again.status();
      }
    } else {
      response.status = outcome;
    }
    follower.promise.set_value(std::move(response));
  }

  ServeResponse response;
  response.name = ctx->name;
  response.queue_seconds = ctx->queue_seconds;
  response.exec_seconds = exec_seconds;
  response.cache = ctx->cache;
  if (outcome.ok()) {
    OfflineRun finished = run.MoveValue();
    response.stats = finished.stats;
    response.result = std::move(finished.result);
  } else {
    response.status = outcome;
  }
  ctx->promise.set_value(std::move(response));
}

void QueryServer::Admit(Pending pending) {
  // Identical in-flight query (same text + params over the immutable
  // store)? Ride its evaluation instead of starting another.
  const std::string key =
      RequestKey(pending.request.text, pending.request.params);
  for (const auto& inflight : inflight_) {
    if (inflight->key != key) continue;
    QueryContext::Follower follower;
    follower.name = pending.request.name;
    follower.promise = std::move(pending.promise);
    follower.queue_seconds = pending.queued.ElapsedSeconds();
    inflight->followers.push_back(std::move(follower));
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.coalesced;
    return;
  }

  auto ctx = std::make_unique<QueryContext>();
  ctx->name = pending.request.name;
  ctx->key = key;
  ctx->promise = std::move(pending.promise);
  ctx->queue_seconds = pending.queued.ElapsedSeconds();
  const double deadline_ms = pending.request.deadline_ms >= 0.0
                                 ? pending.request.deadline_ms
                                 : options_.default_deadline_ms;
  if (deadline_ms > 0.0) {
    ctx->deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double, std::milli>(
                                           deadline_ms));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.admitted;
  }

  auto prepared =
      state_->Prepare(pending.request.text, pending.request.params);
  if (!prepared.ok()) {
    Respond(std::move(ctx), prepared.status(), prepared.status());
    return;
  }
  ctx->query = std::make_unique<AnalyzedQuery>(prepared.MoveValue());
  ctx->run.emplace(&state_->graph(), &state_->store(), ctx->query.get(),
                   state_->adjacency());
  Status init = ctx->run->Init();
  if (!init.ok()) {
    Respond(std::move(ctx), init, init);
    return;
  }
  inflight_.push_back(std::move(ctx));
}

void QueryServer::RunGroup() {
  const Clock::time_point now = Clock::now();
  // Expire before grouping so a dead query never forces a scan.
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (now < (*it)->deadline) {
      ++it;
      continue;
    }
    std::unique_ptr<QueryContext> ctx = std::move(*it);
    it = inflight_.erase(it);
    Status expired = Status::OutOfRange(
        "deadline exceeded after " +
        std::to_string(ctx->exec.ElapsedMillis()) + " ms (layer " +
        std::to_string(ctx->run->NextLayerStep()) + " pending)");
    Respond(std::move(ctx), expired, expired);
  }
  if (inflight_.empty()) return;

  // Group by the layer each run needs next; serve the largest group
  // (ties: lowest layer) from one shared scan.
  std::map<int, std::vector<QueryContext*>> groups;
  for (const auto& ctx : inflight_) {
    groups[ctx->run->NextLayerStep()].push_back(ctx.get());
  }
  auto best = groups.begin();
  for (auto it = groups.begin(); it != groups.end(); ++it) {
    if (it->second.size() > best->second.size()) best = it;
  }
  const int step = best->first;
  std::vector<QueryContext*>& group = best->second;

  std::vector<int> needed;  // starts as the first member's set
  needed = group.front()->run->needed_rels();
  for (size_t i = 1; i < group.size(); ++i) {
    needed = UnionNeededRels(needed, group[i]->run->needed_rels());
  }

  // One pass over (layer, relation-union); every group member rides it.
  // The pass's page-cache activity is attributed to each subscriber.
  // The scan is the retryable half of a layer step — it only reads the
  // immutable store — so transient I/O errors get the retry ladder here;
  // Step() below mutates query state and is never replayed.
  storage::PageCacheStats scan_cache;
  RetryPolicy policy;
  policy.max_attempts = options_.step_retry_attempts;
  policy.backoff_base_ms = options_.step_retry_backoff_ms;
  policy.seed = kScanRetrySeed;
  Result<std::shared_ptr<const LayerView>> view =
      std::shared_ptr<const LayerView>();
  const RetryOutcome scanned =
      RetryTransient(policy, static_cast<uint64_t>(step), [&] {
        storage::ScopedCacheAttribution attribution(&scan_cache);
        view = executor_.Acquire(step, needed, group.size());
        return view.ok() ? Status::OK() : view.status();
      });
  if (scanned.retries() > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.step_retries += scanned.retries();
  }
  NoteScanOutcome(view.ok());
  if (!view.ok()) {
    // The layer is unreadable (I/O error past retries): fail the whole
    // group — no member can make progress without it.
    for (QueryContext* member : group) {
      auto it = std::find_if(
          inflight_.begin(), inflight_.end(),
          [member](const auto& c) { return c.get() == member; });
      std::unique_ptr<QueryContext> ctx = std::move(*it);
      inflight_.erase(it);
      Respond(std::move(ctx), view.status(), view.status());
    }
    return;
  }

  // Warm the next layer(s) this group will need while it computes.
  std::vector<int> prefetched;
  for (QueryContext* member : group) {
    const int after = member->run->LayerStepAfterNext();
    if (after < 0) continue;
    if (std::find(prefetched.begin(), prefetched.end(), after) !=
        prefetched.end()) {
      continue;
    }
    prefetched.push_back(after);
    executor_.Prefetch(after, needed);
  }

  // Fan the shared view out: each run mutates only its own state, the
  // view and adjacency planes are immutable — race-free by construction
  // (serve_concurrent_test runs this under tsan).
  const LayerView& shared = **view;
  pool_.ParallelFor(group.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      group[i]->step_status = group[i]->run->Step(shared);
    }
  });

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.group_steps;
    stats_.query_steps += group.size();
    stats_.max_group_size =
        std::max<uint64_t>(stats_.max_group_size, group.size());
  }

  for (QueryContext* member : group) {
    member->cache.Merge(scan_cache);
    const bool errored = !member->step_status.ok();
    if (!errored && !member->run->done()) continue;
    auto it = std::find_if(
        inflight_.begin(), inflight_.end(),
        [member](const auto& c) { return c.get() == member; });
    std::unique_ptr<QueryContext> ctx = std::move(*it);
    inflight_.erase(it);
    if (errored) {
      Status failed = ctx->step_status;
      Respond(std::move(ctx), failed, failed);
    } else {
      Result<OfflineRun> finished =
          ctx->run->Finish(ctx->exec.ElapsedSeconds());
      Respond(std::move(ctx), Status::OK(), std::move(finished));
    }
  }
}

void QueryServer::SchedulerLoop() {
  while (true) {
    std::vector<Pending> admissions;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (inflight_.empty()) {
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (stop_ && queue_.empty()) break;
      }
      // Fail-fast drain: past the Shutdown timeout, stop stepping and
      // resolve everything still pending below.
      if (stop_ && Clock::now() >= drain_deadline_) break;
      while (!queue_.empty() &&
             inflight_.size() + admissions.size() < options_.max_inflight) {
        admissions.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    for (Pending& pending : admissions) Admit(std::move(pending));
    SyncInflightCount();
    if (!inflight_.empty()) RunGroup();
    SyncInflightCount();
  }

  // Resolve every promise still outstanding with Unavailable so
  // submitted == completed + failed + expired + rejected + shed holds
  // even through a timed-out drain — promises are never dropped.
  std::deque<Pending> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftovers.swap(queue_);
    stats_.rejected += leftovers.size();
  }
  for (Pending& pending : leftovers) {
    ServeResponse response;
    response.name = pending.request.name;
    response.status =
        Status::Unavailable("server shut down before this query was admitted");
    response.queue_seconds = pending.queued.ElapsedSeconds();
    pending.promise.set_value(std::move(response));
  }
  while (!inflight_.empty()) {
    std::unique_ptr<QueryContext> ctx = std::move(inflight_.back());
    inflight_.pop_back();
    Status abandoned = Status::Unavailable(
        "shutdown drain timeout: query abandoned at layer " +
        std::to_string(ctx->run ? ctx->run->NextLayerStep() : -1));
    Respond(std::move(ctx), abandoned, abandoned);
  }
  SyncInflightCount();
}

}  // namespace ariadne::serve
