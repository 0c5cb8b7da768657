#ifndef GRASP_SERVE_ADMISSION_H_
#define GRASP_SERVE_ADMISSION_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "core/engine.h"
#include "serve/query_control.h"
#include "serve/slow_query_log.h"

namespace grasp::serve {

/// Converts millisecond deadlines into concrete cursor-pop budgets from an
/// EWMA of the measured exploration rate (pops per millisecond). The rate
/// is workload- and machine-dependent, so it is learned online: every
/// completed query feeds its (pops, millis) back via Observe(). Thread-safe
/// (one mutex; touched once per query, not per pop).
class DeadlineCalibrator {
 public:
  /// `initial_pops_per_ms` seeds the estimate before any observation —
  /// deliberately conservative defaults keep the first budgets small rather
  /// than blowing the first deadlines. `alpha` is the EWMA weight of the
  /// newest observation.
  DeadlineCalibrator(double alpha, double initial_pops_per_ms)
      : alpha_(alpha), pops_per_ms_(initial_pops_per_ms) {}

  /// Feeds back one completed exploration. Queries too fast to time
  /// reliably (sub-10µs) are skipped — their rate quotient is noise.
  void Observe(std::size_t pops, double millis);

  /// Current rate estimate.
  double pops_per_ms() const;

  /// Pop budget for a `deadline_millis` deadline, scaled by `safety` (< 1
  /// spends only part of the deadline on exploration, leaving headroom for
  /// the keyword/augmentation/mapping steps around it). Never returns 0 —
  /// a positive budget keeps "deadline granted" distinct from "no work
  /// allowed", so even an almost-expired query gets one pop batch and can
  /// return a non-empty verified prefix when one exists that early.
  std::size_t BudgetForDeadline(double deadline_millis, double safety) const;

 private:
  const double alpha_;
  mutable std::mutex mutex_;
  double pops_per_ms_;
};

/// Admission-controlled, deadline-aware serving front end over a
/// KeywordSearchEngine.
class QueryServer {
 public:
  struct Options {
    /// Workers of the fast lane (scoped queries: a non-empty
    /// predicate_scope bounds the explorable graph, making them cheap) and
    /// the deep lane (unscoped, potentially exhaustive). Either may be 0 —
    /// that lane then never drains, which the shed tests use to fill a
    /// queue deterministically.
    std::size_t fast_workers = 1;
    std::size_t deep_workers = 2;
    /// Bounded queue capacity per lane; a submit beyond it is shed with
    /// kOverloaded + a retry-after hint instead of growing the queue
    /// without bound (shed, don't collapse).
    std::size_t queue_capacity = 64;
    /// DeadlineCalibrator parameters (see there).
    double ewma_alpha = 0.2;
    double initial_pops_per_ms = 50.0;
    /// Fraction of the remaining deadline the exploration budget may spend.
    double budget_safety = 0.5;
    /// Forwarded to ExplorationOptions::control_poll_interval.
    std::uint32_t control_poll_interval = 32;
    /// Metrics registry for the `grasp_serve_*` instruments (not owned;
    /// must outlive the server). Fallback order: this pointer, then the
    /// engine's `Options::metrics`, then a registry the server owns — so
    /// per-lane queue-wait/service-time/deadline-slack histograms always
    /// exist, and one shared registry is used when the tiers are wired
    /// together (see tools/grasp_serve).
    metrics::Registry* metrics = nullptr;
    /// Keep this many slowest queries for /debug/slowz; 0 disables.
    std::size_t slow_query_log_capacity = 32;
  };

  struct Request {
    core::KeywordSearchEngine::KeywordQuery query;
    /// Wall-clock deadline measured from Submit() — queue time counts
    /// against it. <= 0 = no deadline.
    double deadline_millis = 0.0;
    /// Optional caller-held control for mid-flight cancellation; the
    /// server creates one when absent (it needs somewhere to set the
    /// deadline). The server also sets the deadline on a caller-provided
    /// control.
    std::shared_ptr<QueryControl> control;
  };

  struct Response {
    /// kOverloaded (shed at submit), kDeadlineExceeded (expired while
    /// queued, never ran), kCancelled (cancelled — queued or mid-run), or
    /// the engine's status: OK for complete and degraded runs alike.
    Status status;
    /// Mirrors SearchResult::degraded for runs; false for non-runs.
    bool degraded = false;
    /// Suggested wait before retrying, set on kOverloaded: the backlog's
    /// estimated drain time for the lane that shed the request.
    double retry_after_millis = 0.0;
    double queue_millis = 0.0;
    double total_millis = 0.0;
    core::KeywordSearchEngine::SearchResult result;
  };

  /// Monotonic counters (relaxed atomics — safe to read any time).
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;           ///< kOverloaded at submit
    std::uint64_t completed = 0;      ///< ran to a result (incl. degraded)
    std::uint64_t degraded = 0;       ///< completed with degraded=true
    std::uint64_t deadline_hit = 0;   ///< completed within their deadline
    std::uint64_t expired_in_queue = 0;  ///< deadline passed before running
    std::uint64_t cancelled = 0;      ///< cancelled in queue or at shutdown
  };

  /// `engine` must outlive the server.
  QueryServer(const core::KeywordSearchEngine& engine, Options options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Admission point: enqueues into the request's lane or sheds. Always
  /// returns a valid future; shed requests resolve immediately.
  std::future<Response> Submit(Request request);

  /// Callback-completion admission point for event-driven front-ends (the
  /// HTTP server's epoll loop cannot block on a future). `done` is invoked
  /// exactly once, with the same Response a future would carry, from
  /// whichever thread finishes the request: the submitting thread for shed
  /// requests, a lane worker for served ones, and the Shutdown() caller for
  /// work still queued at shutdown. It must not block and must not call
  /// back into the QueryServer.
  void SubmitAsync(Request request, std::function<void(Response)> done);

  /// Submit + wait. Intended for tools and tests.
  Response ServeSync(Request request);

  /// Stops accepting work, joins the workers, and fails everything still
  /// queued with kCancelled. Idempotent; also run by the destructor.
  void Shutdown();

  Stats stats() const;

  const DeadlineCalibrator& calibrator() const { return calibrator_; }

  /// The registry this server records into (after fallback resolution);
  /// never nullptr. Front-ends expose it at /metrics.
  metrics::Registry* metrics_registry() const { return metrics_; }

  /// The N slowest queries served so far (the /debug/slowz source).
  const SlowQueryLog& slow_queries() const { return slow_log_; }

 private:
  struct Pending {
    Request request;
    std::function<void(Response)> done;
    QueryControl::Clock::time_point enqueue_time;
    std::uint64_t sequence = 0;     ///< admission order
    const char* lane_name = "deep";  ///< "fast" | "deep"
  };

  /// One bounded priority lane: mutex + condvar queue and its workers.
  struct Lane {
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<Pending> queue;
    std::vector<std::thread> workers;
  };

  void WorkerLoop(Lane* lane);
  Response RunQuery(Pending pending);
  /// Registers the `grasp_serve_*` instruments on metrics_; called once
  /// from the constructor.
  void InitMetrics();
  /// Estimated millis until `queue_len` queued requests drain (retry-after
  /// hint); infinite backlog (0 workers) reports the full queue's worth at
  /// the current service estimate rather than infinity.
  double RetryAfterMillis(std::size_t queue_len, std::size_t workers) const;

  const core::KeywordSearchEngine* engine_;
  Options options_;
  DeadlineCalibrator calibrator_;

  /// EWMA of per-query service time (total engine millis), feeding the
  /// retry-after hint. Guarded by service_mutex_ (touched once per query).
  mutable std::mutex service_mutex_;
  double ewma_service_millis_ = 1.0;

  Lane fast_lane_;
  Lane deep_lane_;
  std::atomic<bool> stopping_{false};
  bool shut_down_ = false;  ///< guarded by shutdown_mutex_
  std::mutex shutdown_mutex_;

  struct AtomicStats {
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> degraded{0};
    std::atomic<std::uint64_t> deadline_hit{0};
    std::atomic<std::uint64_t> expired_in_queue{0};
    std::atomic<std::uint64_t> cancelled{0};
  };
  mutable AtomicStats stats_;

  /// Cached instrument handles on metrics_; populated by InitMetrics().
  struct ServeMetrics {
    metrics::Histogram* queue_wait_fast = nullptr;
    metrics::Histogram* queue_wait_deep = nullptr;
    metrics::Histogram* service_fast = nullptr;
    metrics::Histogram* service_deep = nullptr;
    metrics::Histogram* deadline_slack = nullptr;
    metrics::Gauge* pops_per_ms = nullptr;
    metrics::Counter* submitted = nullptr;
    metrics::Counter* admitted = nullptr;
    metrics::Counter* shed_backlog = nullptr;
    metrics::Counter* shed_shutdown = nullptr;
    metrics::Counter* completed = nullptr;
    metrics::Counter* degraded = nullptr;
    metrics::Counter* deadline_hit = nullptr;
    metrics::Counter* expired_in_queue = nullptr;
    metrics::Counter* cancelled = nullptr;
  };
  std::unique_ptr<metrics::Registry> owned_metrics_;
  metrics::Registry* metrics_ = nullptr;  ///< never nullptr post-construction
  ServeMetrics m_;
  SlowQueryLog slow_log_;
};

}  // namespace grasp::serve

#endif  // GRASP_SERVE_ADMISSION_H_
