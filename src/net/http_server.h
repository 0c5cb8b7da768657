#ifndef GRASP_NET_HTTP_SERVER_H_
#define GRASP_NET_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "net/connection.h"
#include "net/http.h"
#include "net/socket.h"
#include "serve/admission.h"

namespace grasp::net {

/// Dependency-free epoll HTTP/1.1 front-end over a serve::QueryServer.
///
/// Wire protocol:
///   GET  /healthz                          -> 200 "ok"
///   GET  /metrics                          -> 200 Prometheus text format
///   GET  /debug/slowz                      -> 200 JSON N-slowest queries
///   GET  /search?q=kw+kw[&k=N][&scope=p,p] -> 200 JSON ranked queries
///   POST /search  (body = whitespace-separated keywords; same params)
///
/// Status mapping (every engine/serving failure mode is an explicit wire
/// outcome, never a hang):
///   engine OK (complete or degraded)  -> 200 (body carries "degraded")
///   kOverloaded (backlog shed)        -> 429 + Retry-After (EWMA drain est.)
///   kOverloaded w/o retry hint        -> 503 (shutdown shed: don't retry)
///   kOverloaded while draining        -> 503
///   kDeadlineExceeded (queue expiry)  -> 504
///   kCancelled (drain shutdown)       -> 503
///   malformed request                 -> 400 / 501 / 505
///   body over limit                   -> 413
///   head started but stalled          -> 408 (slow-loris)
///   connection cap reached            -> 503, closed immediately
///
/// A client deadline rides in on `X-Deadline-Ms` and becomes the query's
/// QueryControl deadline at admission (queue time counts). A client that
/// disconnects mid-query (EPOLLRDHUP, read EOF/error, failed write) has its
/// query cancelled via QueryControl::RequestCancel — abandoned work stops
/// consuming exploration pops at the next poll point.
///
/// One event-loop thread drives accept, IO, timeouts and completions;
/// query execution happens on the QueryServer's lane workers, which hand
/// results back through a completion queue + eventfd wakeup. Failpoints
/// `net.accept`, `net.read`, `net.write` inject faults at each syscall
/// boundary.
class HttpServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 picks an ephemeral port; port() reports the bound one.
    std::uint16_t port = 0;
    int backlog = 128;
    /// Accepted-connection cap; beyond it new clients get an immediate 503
    /// and a close (cheap, bounded) instead of an fd-exhaustion spiral.
    std::size_t max_connections = 1024;
    ParseLimits parse_limits;
    /// First request byte to complete request; trickling past it is a 408.
    double read_timeout_millis = 10'000.0;
    /// Response flush limit; a slower reader is disconnected (its query,
    /// if any, was already answered — this bounds buffer lifetime).
    double write_timeout_millis = 10'000.0;
    /// Keep-alive connections idle past this are closed quietly.
    double idle_timeout_millis = 60'000.0;
    /// Graceful-drain budget measured from RequestDrain(): in-flight work
    /// past it is force-closed so the process can exit.
    double drain_timeout_millis = 30'000.0;
    /// Deadline applied to requests without X-Deadline-Ms (0 = none). A
    /// drainable server wants this > 0: unbounded queries stall drains.
    double default_deadline_millis = 0.0;
    /// Registry for the `grasp_http_*` instruments (not owned; must
    /// outlive the server). Falls back to the QueryServer's registry, so
    /// one registry spans the tiers unless deliberately split.
    metrics::Registry* metrics = nullptr;
  };

  /// Monotonic counters (registry-backed relaxed atomics, readable any
  /// time, any thread).
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t accept_transient_errors = 0;  ///< ECONNABORTED etc.
    std::uint64_t accept_pauses = 0;            ///< EMFILE backoff episodes
    std::uint64_t rejected_at_capacity = 0;     ///< 503 at connection cap
    std::uint64_t requests = 0;                 ///< complete requests parsed
    std::uint64_t responses_2xx = 0;
    std::uint64_t responses_4xx = 0;  ///< 400/404/405/413/505 (not 408/429)
    std::uint64_t responses_408 = 0;
    std::uint64_t responses_429 = 0;
    std::uint64_t responses_5xx = 0;  ///< 500/501/503/504
    std::uint64_t disconnect_cancels = 0;  ///< mid-query client vanishings
    std::uint64_t dropped_completions = 0;  ///< answers to dead connections
    std::uint64_t slow_reader_closes = 0;
    std::uint64_t idle_closes = 0;
    std::uint64_t io_error_closes = 0;
    std::uint64_t drain_force_closed = 0;
    std::uint64_t active_connections = 0;  ///< gauge, not a counter
  };

  /// `query_server` must outlive this object.
  HttpServer(serve::QueryServer* query_server, Options options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds and starts the event-loop thread. On return the socket is
  /// listening and port() is valid.
  Status Start();

  std::uint16_t port() const { return port_; }

  /// Graceful drain (SIGTERM semantics), asynchronous: stop accepting,
  /// shed not-yet-submitted work with 503, let submitted queries finish
  /// under their deadlines, flush every response, then stop the loop.
  /// Join() blocks until that completes (or drain_timeout_millis forces it).
  void RequestDrain();

  /// Abrupt stop: cancels in-flight queries, closes every connection.
  void Stop();

  /// Waits for the event loop to exit (after RequestDrain/Stop).
  void Join();

  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  Stats stats() const;

 private:
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    serve::QueryServer::Response response;
  };

  void Run();
  void Wake();
  void HandleAccept();
  void HandleConnectionEvent(std::uint64_t id, std::uint32_t events);
  void ReadPass(Connection* conn);
  void HandleParsedRequest(Connection* conn);
  void SubmitSearch(Connection* conn, const HttpRequest& request,
                    const ParsedTarget& target);
  void DeliverCompletion(Completion completion);
  void StartWriting(Connection* conn, const HttpResponse& response,
                    bool keep_alive);
  void FlushPass(Connection* conn);
  void SweepTimeouts();
  void BeginDrain();
  void CloseConnection(std::uint64_t id, bool cancel_inflight);
  void UpdateEpoll(Connection* conn, std::uint32_t events);
  /// Counts the response under its status class and, when `conn` carries a
  /// request start stamp, records wire latency into the per-class
  /// histogram.
  void CountResponse(Connection* conn, int status);
  /// Registers every `grasp_http_*` instrument; called from the
  /// constructor.
  void InitMetrics();
  std::string BuildSearchBody(const serve::QueryServer::Response& response);
  std::string BuildMetricsBody();

  serve::QueryServer* query_server_;
  Options options_;
  std::uint16_t port_ = 0;

  OwnedFd epoll_fd_;
  OwnedFd wake_fd_;  // eventfd: completions + control commands
  OwnedFd listen_fd_;
  bool accept_paused_ = false;
  Connection::Clock::time_point accept_resume_;
  Connection::Clock::time_point drain_deadline_;

  std::thread loop_thread_;
  std::thread shutdown_thread_;  // runs QueryServer::Shutdown off-loop
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> query_server_down_{false};

  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::uint64_t next_conn_id_ = 2;  // 0 = listen, 1 = wake sentinel ids
  std::uint64_t next_seq_ = 0;

  std::mutex completion_mutex_;
  std::vector<Completion> completions_;

  /// Registry-backed instruments (the sole backing store for Stats — no
  /// parallel counter set to drift). `active_connections` is a gauge
  /// written only by the loop thread and read via its relaxed atomic, so
  /// stats() never touches `connections_` from a foreign thread.
  struct HttpMetrics {
    metrics::Counter* accepted = nullptr;
    metrics::Counter* accept_transient_errors = nullptr;
    metrics::Counter* accept_pauses = nullptr;
    metrics::Counter* rejected_at_capacity = nullptr;
    metrics::Counter* requests = nullptr;
    metrics::Counter* responses_2xx = nullptr;
    metrics::Counter* responses_4xx = nullptr;
    metrics::Counter* responses_408 = nullptr;
    metrics::Counter* responses_429 = nullptr;
    metrics::Counter* responses_5xx = nullptr;
    metrics::Counter* disconnect_cancels = nullptr;
    metrics::Counter* dropped_completions = nullptr;
    metrics::Counter* slow_reader_closes = nullptr;
    metrics::Counter* idle_closes = nullptr;
    metrics::Counter* io_error_closes = nullptr;
    metrics::Counter* drain_force_closed = nullptr;
    metrics::Gauge* active_connections = nullptr;
    metrics::Histogram* latency_2xx = nullptr;
    metrics::Histogram* latency_4xx = nullptr;
    metrics::Histogram* latency_408 = nullptr;
    metrics::Histogram* latency_429 = nullptr;
    metrics::Histogram* latency_5xx = nullptr;
  };
  metrics::Registry* metrics_ = nullptr;  ///< never nullptr post-construction
  HttpMetrics m_;
};

}  // namespace grasp::net

#endif  // GRASP_NET_HTTP_SERVER_H_
