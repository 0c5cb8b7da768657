#include "serve/admission.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

namespace grasp::serve {
namespace {

double MillisBetween(QueryControl::Clock::time_point a,
                     QueryControl::Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

const char* StopReason(const core::ExplorationStats& stats) {
  if (stats.cancelled) return "cancelled";
  if (stats.deadline_expired) return "deadline";
  if (stats.budget_exceeded) return "budget";
  return "completed";
}

std::string JoinKeywords(const std::vector<std::string>& keywords) {
  std::string out;
  for (const auto& k : keywords) {
    if (!out.empty()) out += ' ';
    out += k;
  }
  return out;
}

}  // namespace

void DeadlineCalibrator::Observe(std::size_t pops, double millis) {
  if (pops == 0 || millis < 0.01) return;  // below timer noise
  const double rate = static_cast<double>(pops) / millis;
  std::lock_guard<std::mutex> lock(mutex_);
  pops_per_ms_ = alpha_ * rate + (1.0 - alpha_) * pops_per_ms_;
}

double DeadlineCalibrator::pops_per_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pops_per_ms_;
}

std::size_t DeadlineCalibrator::BudgetForDeadline(double deadline_millis,
                                                 double safety) const {
  if (deadline_millis <= 0.0) return 1;
  const double budget = pops_per_ms() * deadline_millis * safety;
  if (budget < 1.0) return 1;
  return static_cast<std::size_t>(budget);
}

QueryServer::QueryServer(const core::KeywordSearchEngine& engine,
                         Options options)
    : engine_(&engine),
      options_(options),
      calibrator_(options.ewma_alpha, options.initial_pops_per_ms),
      slow_log_(options.slow_query_log_capacity) {
  // Registry fallback: the caller's, else the engine's (so one registry
  // spans the tiers when grasp_serve wired it through), else our own.
  metrics_ = options_.metrics != nullptr ? options_.metrics
             : engine.options().metrics != nullptr
                 ? engine.options().metrics
                 : (owned_metrics_ = std::make_unique<metrics::Registry>())
                       .get();
  InitMetrics();
  fast_lane_.workers.reserve(options_.fast_workers);
  for (std::size_t i = 0; i < options_.fast_workers; ++i) {
    fast_lane_.workers.emplace_back([this] { WorkerLoop(&fast_lane_); });
  }
  deep_lane_.workers.reserve(options_.deep_workers);
  for (std::size_t i = 0; i < options_.deep_workers; ++i) {
    deep_lane_.workers.emplace_back([this] { WorkerLoop(&deep_lane_); });
  }
}

QueryServer::~QueryServer() { Shutdown(); }

void QueryServer::InitMetrics() {
  constexpr double kMicros = 1e-6;  // recorded in µs, exposed in seconds
  const char* queue_help =
      "Time between admission and a lane worker picking the query up";
  m_.queue_wait_fast = metrics_->GetHistogram(
      "grasp_serve_queue_wait_seconds", queue_help, {{"lane", "fast"}},
      kMicros);
  m_.queue_wait_deep = metrics_->GetHistogram(
      "grasp_serve_queue_wait_seconds", queue_help, {{"lane", "deep"}},
      kMicros);
  const char* service_help =
      "Worker service time per query (engine run, queue wait excluded)";
  m_.service_fast = metrics_->GetHistogram("grasp_serve_service_seconds",
                                           service_help, {{"lane", "fast"}},
                                           kMicros);
  m_.service_deep = metrics_->GetHistogram("grasp_serve_service_seconds",
                                           service_help, {{"lane", "deep"}},
                                           kMicros);
  m_.deadline_slack = metrics_->GetHistogram(
      "grasp_serve_deadline_slack_seconds",
      "Deadline budget left when a deadlined query completed (0 = finished "
      "at or past its deadline)",
      {}, kMicros);
  m_.pops_per_ms = metrics_->GetGauge(
      "grasp_serve_calibrated_pops_per_ms",
      "EWMA exploration rate the deadline calibrator converts budgets with");
  m_.submitted =
      metrics_->GetCounter("grasp_serve_submitted_total", "Submit() calls");
  m_.admitted = metrics_->GetCounter("grasp_serve_admitted_total",
                                     "Queries accepted into a lane queue");
  const char* shed_help = "Queries refused at admission, by reason";
  m_.shed_backlog = metrics_->GetCounter("grasp_serve_shed_total", shed_help,
                                         {{"reason", "backlog"}});
  m_.shed_shutdown = metrics_->GetCounter("grasp_serve_shed_total", shed_help,
                                          {{"reason", "shutdown"}});
  m_.completed = metrics_->GetCounter("grasp_serve_completed_total",
                                      "Queries that ran to a result");
  m_.degraded = metrics_->GetCounter(
      "grasp_serve_degraded_total",
      "Completed queries whose exploration stopped early");
  m_.deadline_hit = metrics_->GetCounter(
      "grasp_serve_deadline_hit_total",
      "Deadlined queries that completed within their deadline");
  m_.expired_in_queue = metrics_->GetCounter(
      "grasp_serve_expired_in_queue_total",
      "Queries whose deadline passed before a worker picked them up");
  m_.cancelled = metrics_->GetCounter(
      "grasp_serve_cancelled_total",
      "Queries cancelled while queued or failed at shutdown");
}

double QueryServer::RetryAfterMillis(std::size_t queue_len,
                                     std::size_t workers) const {
  double service;
  {
    std::lock_guard<std::mutex> lock(service_mutex_);
    service = ewma_service_millis_;
  }
  const double lanes = static_cast<double>(std::max<std::size_t>(1, workers));
  return static_cast<double>(queue_len + 1) * service / lanes;
}

std::future<QueryServer::Response> QueryServer::Submit(Request request) {
  // The future API is a thin veneer over the callback one, so both resolve
  // through exactly the same admission/shed/shutdown paths.
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  SubmitAsync(std::move(request), [promise](Response response) {
    promise->set_value(std::move(response));
  });
  return future;
}

void QueryServer::SubmitAsync(Request request,
                              std::function<void(Response)> done) {
  const std::uint64_t sequence =
      stats_.submitted.fetch_add(1, std::memory_order_relaxed) + 1;
  m_.submitted->Increment();

  if (request.control == nullptr) {
    request.control = std::make_shared<QueryControl>();
  }
  const auto now = QueryControl::Clock::now();
  if (request.deadline_millis > 0.0) {
    // Set the absolute deadline here, at admission: queue time counts
    // against it, so a request that rots in the queue expires there
    // instead of consuming a worker.
    request.control->SetDeadlineAfterMillis(request.deadline_millis);
  }

  const bool fast = !request.query.predicate_scope.empty();
  Lane& lane = fast ? fast_lane_ : deep_lane_;
  const std::size_t workers = lane.workers.size();
  {
    std::lock_guard<std::mutex> lock(lane.mutex);
    if (!stopping_.load(std::memory_order_relaxed) &&
        lane.queue.size() < options_.queue_capacity) {
      stats_.admitted.fetch_add(1, std::memory_order_relaxed);
      m_.admitted->Increment();
      lane.queue.push_back(Pending{std::move(request), std::move(done), now,
                                   sequence, fast ? "fast" : "deep"});
      lane.ready.notify_one();
      return;
    }
  }

  // Load shedding: deliberate, explicit, and cheap — the caller gets an
  // immediate kOverloaded instead of an unbounded queue (or a timeout it
  // cannot distinguish from a hang). The two shed reasons carry different
  // advice: a full queue drains, so it estimates when to retry; a draining
  // server does not come back, so no retry hint is attached and front-ends
  // map it to a terminal 503 rather than a retryable 429.
  stats_.shed.fetch_add(1, std::memory_order_relaxed);
  Response shed;
  if (stopping_.load(std::memory_order_relaxed)) {
    m_.shed_shutdown->Increment();
    shed.retry_after_millis = 0.0;
    shed.status = Status::Overloaded("server shutting down");
  } else {
    m_.shed_backlog->Increment();
    shed.retry_after_millis =
        RetryAfterMillis(options_.queue_capacity, workers);
    shed.status = Status::Overloaded(
        "admission queue full; retry after " +
        std::to_string(shed.retry_after_millis) + " ms");
  }
  done(std::move(shed));
}

QueryServer::Response QueryServer::ServeSync(Request request) {
  return Submit(std::move(request)).get();
}

void QueryServer::WorkerLoop(Lane* lane) {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(lane->mutex);
      lane->ready.wait(lock, [this, lane] {
        return stopping_.load(std::memory_order_relaxed) ||
               !lane->queue.empty();
      });
      if (lane->queue.empty()) return;  // stopping; Shutdown drains the rest
      pending = std::move(lane->queue.front());
      lane->queue.pop_front();
    }
    // The callback must be moved aside first: RunQuery consumes `pending`,
    // and the argument is evaluated before the call runs on its object.
    std::function<void(Response)> done = std::move(pending.done);
    done(RunQuery(std::move(pending)));
  }
}

QueryServer::Response QueryServer::RunQuery(Pending pending) {
  Response response;
  const auto start = QueryControl::Clock::now();
  response.queue_millis = MillisBetween(pending.enqueue_time, start);
  const QueryControl& control = *pending.request.control;
  const bool fast = pending.lane_name[0] == 'f';
  (fast ? m_.queue_wait_fast : m_.queue_wait_deep)
      ->RecordMicros(response.queue_millis * 1e3);

  // Dead on arrival: cancelled or expired while queued. Fail fast without
  // touching the engine — the worker's time belongs to requests that can
  // still make their deadline.
  if (control.cancel_requested()) {
    stats_.cancelled.fetch_add(1, std::memory_order_relaxed);
    m_.cancelled->Increment();
    response.status = Status::Cancelled("cancelled while queued");
    response.total_millis = MillisBetween(pending.enqueue_time,
                                          QueryControl::Clock::now());
    return response;
  }
  const double remaining = control.remaining_millis();
  if (remaining <= 0.0) {
    stats_.expired_in_queue.fetch_add(1, std::memory_order_relaxed);
    m_.expired_in_queue->Increment();
    response.status = Status::DeadlineExceeded(
        "deadline expired after " + std::to_string(response.queue_millis) +
        " ms in queue");
    response.total_millis = MillisBetween(pending.enqueue_time,
                                          QueryControl::Clock::now());
    return response;
  }

  // Deadline → budget: the EWMA-calibrated pop budget is the primary stop
  // (deterministic, no clock in the hot loop); the polled deadline backstops
  // it when the calibration was optimistic.
  core::ExplorationOptions exploration = engine_->options().exploration;
  exploration.control = &control;
  exploration.control_poll_interval = options_.control_poll_interval;
  if (control.has_deadline() && std::isfinite(remaining)) {
    const std::size_t budget =
        calibrator_.BudgetForDeadline(remaining, options_.budget_safety);
    if (exploration.max_cursor_pops == 0 ||
        budget < exploration.max_cursor_pops) {
      exploration.max_cursor_pops = budget;
    }
  }
  const std::size_t k = pending.request.query.k > 0
                            ? pending.request.query.k
                            : engine_->options().exploration.k;
  response.result = engine_->Search(pending.request.query.keywords, k,
                                    exploration,
                                    pending.request.query.predicate_scope);
  response.status = response.result.status;
  response.degraded = response.result.degraded;
  response.total_millis =
      MillisBetween(pending.enqueue_time, QueryControl::Clock::now());

  calibrator_.Observe(response.result.exploration_stats.cursors_popped,
                      response.result.exploration_millis);
  m_.pops_per_ms->Set(calibrator_.pops_per_ms());
  {
    std::lock_guard<std::mutex> lock(service_mutex_);
    ewma_service_millis_ = options_.ewma_alpha * response.result.total_millis +
                           (1.0 - options_.ewma_alpha) * ewma_service_millis_;
  }

  const double service_millis = response.total_millis - response.queue_millis;
  (fast ? m_.service_fast : m_.service_deep)
      ->RecordMicros(service_millis * 1e3);
  if (pending.request.deadline_millis > 0.0) {
    // Slack left on the wall-clock deadline; 0 means the query finished at
    // or past it (a large spike at 0 is the "deadlines too tight or budgets
    // too optimistic" signal).
    const double slack =
        pending.request.deadline_millis - response.total_millis;
    m_.deadline_slack->RecordMicros(std::max(0.0, slack) * 1e3);
  }

  stats_.completed.fetch_add(1, std::memory_order_relaxed);
  m_.completed->Increment();
  if (response.degraded) {
    stats_.degraded.fetch_add(1, std::memory_order_relaxed);
    m_.degraded->Increment();
  }
  if (pending.request.deadline_millis > 0.0 &&
      response.total_millis <= pending.request.deadline_millis) {
    stats_.deadline_hit.fetch_add(1, std::memory_order_relaxed);
    m_.deadline_hit->Increment();
  }

  SlowQueryLog::Entry slow;
  slow.sequence = pending.sequence;
  slow.keywords = JoinKeywords(pending.request.query.keywords);
  slow.lane = pending.lane_name;
  slow.cursor_pops = response.result.exploration_stats.cursors_popped;
  slow.cursors_pruned = response.result.exploration_stats.cursors_pruned;
  slow.stop_reason = StopReason(response.result.exploration_stats);
  slow.degraded = response.degraded;
  slow.queue_millis = response.queue_millis;
  slow.keyword_millis = response.result.keyword_millis;
  slow.augmentation_millis = response.result.augmentation_millis;
  slow.exploration_millis = response.result.exploration_millis;
  slow.mapping_millis = response.result.mapping_millis;
  slow.total_millis = service_millis;
  slow_log_.Record(std::move(slow));

  return response;
}

void QueryServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  stopping_.store(true, std::memory_order_relaxed);
  for (Lane* lane : {&fast_lane_, &deep_lane_}) {
    {
      std::lock_guard<std::mutex> lock(lane->mutex);
      lane->ready.notify_all();
    }
    for (std::thread& t : lane->workers) t.join();
    // Workers are gone; whatever is still queued (0-worker lanes, a burst
    // that outpaced the join) fails explicitly instead of dropping its
    // promise (which would surface as broken_promise exceptions far away).
    std::deque<Pending> rest;
    {
      std::lock_guard<std::mutex> lock(lane->mutex);
      rest.swap(lane->queue);
    }
    for (Pending& p : rest) {
      stats_.cancelled.fetch_add(1, std::memory_order_relaxed);
      m_.cancelled->Increment();
      Response response;
      response.status = Status::Cancelled("server shut down before the query ran");
      response.queue_millis = MillisBetween(p.enqueue_time,
                                            QueryControl::Clock::now());
      response.total_millis = response.queue_millis;
      p.done(std::move(response));
    }
  }
}

QueryServer::Stats QueryServer::stats() const {
  Stats s;
  s.submitted = stats_.submitted.load(std::memory_order_relaxed);
  s.admitted = stats_.admitted.load(std::memory_order_relaxed);
  s.shed = stats_.shed.load(std::memory_order_relaxed);
  s.completed = stats_.completed.load(std::memory_order_relaxed);
  s.degraded = stats_.degraded.load(std::memory_order_relaxed);
  s.deadline_hit = stats_.deadline_hit.load(std::memory_order_relaxed);
  s.expired_in_queue = stats_.expired_in_queue.load(std::memory_order_relaxed);
  s.cancelled = stats_.cancelled.load(std::memory_order_relaxed);
  return s;
}

}  // namespace grasp::serve
