#include "net/http_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"

namespace grasp::net {
namespace {

constexpr std::uint64_t kListenId = 0;
constexpr std::uint64_t kWakeId = 1;

using Clock = Connection::Clock;

double MillisUntil(Clock::time_point deadline, Clock::time_point now) {
  return std::chrono::duration<double, std::milli>(deadline - now).count();
}

bool Armed(Clock::time_point t) { return t != Clock::time_point(); }

Clock::time_point After(Clock::time_point now, double millis) {
  return now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(millis));
}

/// Whitespace-splits decoded keyword text.
std::vector<std::string> SplitWords(std::string_view text) {
  std::vector<std::string> words;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    std::size_t j = i;
    while (j < text.size() && !std::isspace(static_cast<unsigned char>(text[j]))) {
      ++j;
    }
    if (j > i) words.emplace_back(text.substr(i, j - i));
    i = j;
  }
  return words;
}

std::vector<std::string> SplitCommas(std::string_view text) {
  std::vector<std::string> parts;
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    std::string_view part = text.substr(0, comma);
    text.remove_prefix(comma == std::string_view::npos ? text.size()
                                                       : comma + 1);
    if (!part.empty()) parts.emplace_back(part);
  }
  return parts;
}

std::string ErrorBody(std::string_view status_name, std::string_view message,
                      double retry_after_millis = -1.0) {
  std::string body = "{\"status\":\"";
  AppendJsonEscaped(&body, status_name);
  body += "\",\"message\":\"";
  AppendJsonEscaped(&body, message);
  body += "\"";
  if (retry_after_millis >= 0.0) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), ",\"retry_after_ms\":%.1f",
                  retry_after_millis);
    body += buf;
  }
  body += "}\n";
  return body;
}

}  // namespace

HttpServer::HttpServer(serve::QueryServer* query_server, Options options)
    : query_server_(query_server), options_(std::move(options)) {
  metrics_ = options_.metrics != nullptr ? options_.metrics
                                         : query_server_->metrics_registry();
  InitMetrics();
}

void HttpServer::InitMetrics() {
  constexpr double kMicros = 1e-6;  // recorded in µs, exposed in seconds
  m_.accepted = metrics_->GetCounter("grasp_http_accepted_total",
                                     "Connections accepted");
  m_.accept_transient_errors =
      metrics_->GetCounter("grasp_http_accept_transient_errors_total",
                           "Connections dead between SYN and accept");
  m_.accept_pauses = metrics_->GetCounter(
      "grasp_http_accept_pauses_total",
      "Accept-path backoff episodes on fd/memory exhaustion");
  m_.rejected_at_capacity =
      metrics_->GetCounter("grasp_http_rejected_at_capacity_total",
                           "Connections 503ed at the connection cap");
  m_.requests = metrics_->GetCounter("grasp_http_requests_total",
                                     "Complete requests parsed");
  const char* responses_help = "Responses written, by status class";
  m_.responses_2xx = metrics_->GetCounter("grasp_http_responses_total",
                                          responses_help, {{"class", "2xx"}});
  m_.responses_4xx = metrics_->GetCounter("grasp_http_responses_total",
                                          responses_help, {{"class", "4xx"}});
  m_.responses_408 = metrics_->GetCounter("grasp_http_responses_total",
                                          responses_help, {{"class", "408"}});
  m_.responses_429 = metrics_->GetCounter("grasp_http_responses_total",
                                          responses_help, {{"class", "429"}});
  m_.responses_5xx = metrics_->GetCounter("grasp_http_responses_total",
                                          responses_help, {{"class", "5xx"}});
  m_.disconnect_cancels = metrics_->GetCounter(
      "grasp_http_disconnect_cancels_total",
      "Clients that vanished mid-query (query cancelled)");
  m_.dropped_completions = metrics_->GetCounter(
      "grasp_http_dropped_completions_total",
      "Completed queries whose connection was already gone");
  const char* closes_help = "Connections closed by the server, by reason";
  m_.slow_reader_closes = metrics_->GetCounter(
      "grasp_http_closes_total", closes_help, {{"reason", "slow_reader"}});
  m_.idle_closes = metrics_->GetCounter("grasp_http_closes_total", closes_help,
                                        {{"reason", "idle"}});
  m_.io_error_closes = metrics_->GetCounter(
      "grasp_http_closes_total", closes_help, {{"reason", "io_error"}});
  m_.drain_force_closed = metrics_->GetCounter(
      "grasp_http_closes_total", closes_help, {{"reason", "drain_forced"}});
  m_.active_connections = metrics_->GetGauge(
      "grasp_http_active_connections",
      "Open connections (updated by the event loop only)");
  const char* latency_help =
      "Wire latency from first request byte to response queued, by status "
      "class";
  m_.latency_2xx =
      metrics_->GetHistogram("grasp_http_request_duration_seconds",
                             latency_help, {{"class", "2xx"}}, kMicros);
  m_.latency_4xx =
      metrics_->GetHistogram("grasp_http_request_duration_seconds",
                             latency_help, {{"class", "4xx"}}, kMicros);
  m_.latency_408 =
      metrics_->GetHistogram("grasp_http_request_duration_seconds",
                             latency_help, {{"class", "408"}}, kMicros);
  m_.latency_429 =
      metrics_->GetHistogram("grasp_http_request_duration_seconds",
                             latency_help, {{"class", "429"}}, kMicros);
  m_.latency_5xx =
      metrics_->GetHistogram("grasp_http_request_duration_seconds",
                             latency_help, {{"class", "5xx"}}, kMicros);
}

HttpServer::~HttpServer() {
  if (loop_thread_.joinable()) {
    Stop();
    Join();
  }
}

Status HttpServer::Start() {
  epoll_fd_ = OwnedFd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) {
    return Status::IoError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  wake_fd_ = OwnedFd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd_.valid()) {
    return Status::IoError(std::string("eventfd: ") + std::strerror(errno));
  }
  GRASP_ASSIGN_OR_RETURN(
      listen_fd_, ListenTcp(options_.host, options_.port, options_.backlog,
                            &port_));

  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = kWakeId;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &event) != 0) {
    return Status::IoError(std::string("epoll_ctl wake: ") +
                           std::strerror(errno));
  }
  event.events = EPOLLIN;
  event.data.u64 = kListenId;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, listen_fd_.get(), &event) !=
      0) {
    return Status::IoError(std::string("epoll_ctl listen: ") +
                           std::strerror(errno));
  }
  loop_thread_ = std::thread([this] { Run(); });
  return Status::Ok();
}

void HttpServer::Wake() {
  const std::uint64_t one = 1;
  for (;;) {
    const ssize_t n = ::write(wake_fd_.get(), &one, sizeof(one));
    if (n >= 0 || errno != EINTR) break;  // EAGAIN: already signalled
  }
}

void HttpServer::RequestDrain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  Wake();
}

void HttpServer::Stop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  Wake();
}

void HttpServer::Join() {
  if (loop_thread_.joinable()) loop_thread_.join();
}

void HttpServer::Run() {
  std::vector<epoll_event> events(128);
  for (;;) {
    const auto now = Clock::now();
    if (stop_requested_.load(std::memory_order_relaxed)) break;
    if (drain_requested_.exchange(false, std::memory_order_relaxed)) {
      BeginDrain();
    }
    if (draining_.load(std::memory_order_relaxed)) {
      if (query_server_down_.load(std::memory_order_relaxed) &&
          connections_.empty()) {
        break;  // drained: every accepted request answered and flushed
      }
      if (Armed(drain_deadline_) && now >= drain_deadline_) {
        // Drain budget exhausted: whoever is still connected (a slow
        // reader, a stuck client) is cut off rather than holding the
        // process hostage. Counted — a nonzero figure in the exit stats
        // means the drain was not fully graceful.
        m_.drain_force_closed->Increment(connections_.size());
        while (!connections_.empty()) {
          CloseConnection(connections_.begin()->first,
                          /*cancel_inflight=*/true);
        }
        break;
      }
    }

    // Nearest timer: connection deadlines, accept-pause resume, drain cap.
    double timeout_ms = 100.0;
    auto consider = [&](Clock::time_point deadline) {
      if (!Armed(deadline)) return;
      timeout_ms = std::min(timeout_ms, std::max(0.0, MillisUntil(deadline, now)));
    };
    for (const auto& [id, conn] : connections_) {
      consider(conn->read_deadline);
      consider(conn->idle_deadline);
      consider(conn->write_deadline);
    }
    if (accept_paused_) consider(accept_resume_);
    if (draining_.load(std::memory_order_relaxed)) consider(drain_deadline_);

    int n = ::epoll_wait(epoll_fd_.get(), events.data(),
                         static_cast<int>(events.size()),
                         static_cast<int>(std::ceil(timeout_ms)));
    if (n < 0) {
      if (errno == EINTR) continue;  // signal during wait: re-evaluate flags
      GRASP_LOG(Error) << "epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == kWakeId) {
        std::uint64_t drained;
        while (::read(wake_fd_.get(), &drained, sizeof(drained)) > 0) {
        }
      } else if (id == kListenId) {
        HandleAccept();
      } else {
        HandleConnectionEvent(id, events[i].events);
      }
    }

    // Completed queries, delivered by whichever thread ran them.
    std::vector<Completion> ready;
    {
      std::lock_guard<std::mutex> lock(completion_mutex_);
      ready.swap(completions_);
    }
    for (Completion& completion : ready) {
      DeliverCompletion(std::move(completion));
    }

    SweepTimeouts();
  }

  // Epilogue. Close whatever is left (abrupt Stop path), then make sure the
  // QueryServer has finished every callback that references this server's
  // completion queue before the loop thread exits.
  while (!connections_.empty()) {
    CloseConnection(connections_.begin()->first, /*cancel_inflight=*/true);
  }
  if (shutdown_thread_.joinable()) {
    shutdown_thread_.join();
  } else {
    query_server_->Shutdown();
  }
  // Completions that raced the loop exit (pushed after the last delivery
  // pass) have no connection left to answer; account for every one of them
  // as dropped rather than discarding them silently.
  std::vector<Completion> leftover;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    leftover.swap(completions_);
  }
  for (Completion& completion : leftover) {
    DeliverCompletion(std::move(completion));
  }
}

void HttpServer::BeginDrain() {
  if (draining_.exchange(true, std::memory_order_relaxed)) return;
  const auto now = Clock::now();
  drain_deadline_ = After(now, options_.drain_timeout_millis);

  // 1. Stop accepting: close the listen socket; new connects are refused
  //    by the kernel from here on.
  listen_fd_.Reset();
  accept_paused_ = false;

  // 2. Bytes a client already sent may still sit unread in the kernel (the
  //    drain signal can outrun the EPOLLIN event). Pick them up first, so a
  //    request that raced the drain gets a definite 503 instead of looking
  //    idle and being closed silently.
  std::vector<std::uint64_t> reading;
  for (const auto& [id, conn] : connections_) {
    if (conn->state() == Connection::State::kReading) reading.push_back(id);
  }
  for (std::uint64_t id : reading) {
    auto it = connections_.find(id);
    if (it != connections_.end() &&
        it->second->state() == Connection::State::kReading) {
      ReadPass(it->second.get());
    }
  }

  // 3. Idle keep-alive connections (no request in progress, nothing owed)
  //    are closed now; connections mid-request get to finish the exchange.
  std::vector<std::uint64_t> idle;
  for (const auto& [id, conn] : connections_) {
    if (conn->state() == Connection::State::kReading &&
        !conn->parser().started() && !conn->write_pending()) {
      idle.push_back(id);
    }
  }
  for (std::uint64_t id : idle) {
    m_.idle_closes->Increment();
    CloseConnection(id, /*cancel_inflight=*/false);
  }

  // 4. The QueryServer winds down off-loop: queued-but-unstarted work fails
  //    fast with kCancelled (-> 503 here), in-flight queries finish under
  //    their deadline budgets, and the loop keeps flushing responses the
  //    whole time. query_server_down_ flips once every callback has run.
  shutdown_thread_ = std::thread([this] {
    query_server_->Shutdown();
    query_server_down_.store(true, std::memory_order_relaxed);
    Wake();
  });
}

void HttpServer::HandleAccept() {
  for (;;) {
    if (failpoint::ShouldFail("net.accept")) {
      // Injected transient accept fault: handled exactly like ECONNABORTED
      // (count it, keep serving; the client retries).
      m_.accept_transient_errors->Increment();
      return;
    }
    if (!listen_fd_.valid()) return;  // draining closed it under our feet
    const int raw = AcceptRetry(listen_fd_.get());
    if (raw < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == ECONNABORTED || errno == EPROTO || errno == ENETDOWN ||
          errno == EHOSTUNREACH || errno == ENONET || errno == ENETUNREACH) {
        // The connection died between SYN and accept; nothing to serve.
        m_.accept_transient_errors->Increment();
        continue;
      }
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Resource exhaustion: accepting harder cannot help. Pause the
        // accept path briefly so existing connections can finish and
        // release fds, instead of spinning on the same error.
        m_.accept_pauses->Increment();
        accept_paused_ = true;
        accept_resume_ = After(Clock::now(), 100.0);
        ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, listen_fd_.get(), nullptr);
        return;
      }
      GRASP_LOG(Error) << "accept: " << std::strerror(errno);
      m_.accept_transient_errors->Increment();
      return;
    }
    OwnedFd fd(raw);
    m_.accepted->Increment();

    if (connections_.size() >= options_.max_connections) {
      // Explicit, bounded rejection: one best-effort 503 and a close beats
      // letting the backlog rot or the fd table overflow.
      m_.rejected_at_capacity->Increment();
      static const char kBusy[] =
          "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n"
          "Connection: close\r\n\r\n";
      WriteRetry(fd.get(), kBusy, sizeof(kBusy) - 1);
      continue;
    }

    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(std::move(fd), id,
                                             options_.parse_limits);
    conn->idle_deadline = After(Clock::now(), options_.idle_timeout_millis);
    epoll_event event{};
    event.events = EPOLLIN | EPOLLRDHUP;
    event.data.u64 = id;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, conn->fd(), &event) != 0) {
      m_.io_error_closes->Increment();
      continue;  // conn destroyed; fd closed
    }
    connections_.emplace(id, std::move(conn));
    m_.active_connections->Set(static_cast<double>(connections_.size()));
  }
}

void HttpServer::UpdateEpoll(Connection* conn, std::uint32_t events) {
  epoll_event event{};
  event.events = events;
  event.data.u64 = conn->id();
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn->fd(), &event);
}

void HttpServer::HandleConnectionEvent(std::uint64_t id, std::uint32_t events) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;  // closed earlier this iteration
  Connection* conn = it->second.get();

  if (events & (EPOLLHUP | EPOLLERR)) {
    if (conn->state() == Connection::State::kAwaiting) {
      m_.disconnect_cancels->Increment();
    }
    m_.io_error_closes->Increment();
    CloseConnection(id, /*cancel_inflight=*/true);
    return;
  }
  if ((events & EPOLLRDHUP) &&
      conn->state() == Connection::State::kAwaiting) {
    // The client hung up while its query runs: propagate the disconnect as
    // a cancellation so the abandoned query stops consuming pops at its
    // next poll point. There is no one left to answer.
    m_.disconnect_cancels->Increment();
    CloseConnection(id, /*cancel_inflight=*/true);
    return;
  }
  if ((events & (EPOLLIN | EPOLLRDHUP)) &&
      conn->state() == Connection::State::kReading) {
    ReadPass(conn);
    // ReadPass may have closed the connection; re-resolve before writing.
    it = connections_.find(id);
    if (it == connections_.end()) return;
    conn = it->second.get();
  }
  if ((events & EPOLLOUT) && conn->write_pending()) {
    FlushPass(conn);
  }
}

void HttpServer::ReadPass(Connection* conn) {
  const Connection::IoResult result = conn->ReadIntoParser();
  if (result != Connection::IoResult::kOk) {
    if (result == Connection::IoResult::kError) {
      m_.io_error_closes->Increment();
    }
    CloseConnection(conn->id(), /*cancel_inflight=*/true);
    return;
  }
  RequestParser& parser = conn->parser();
  if (parser.started() && !Armed(conn->request_start)) {
    conn->request_start = Clock::now();
  }
  if (parser.error()) {
    // Malformed input gets a definite status and a close — the framing is
    // unknown past the error, so the connection cannot be reused.
    HttpResponse response;
    response.status = parser.error_status();
    response.body = ErrorBody(
        response.status == 413 ? "PAYLOAD_TOO_LARGE" : "BAD_REQUEST",
        parser.error_reason());
    StartWriting(conn, response, /*keep_alive=*/false);
    return;
  }
  if (parser.done()) {
    m_.requests->Increment();
    conn->read_deadline = Clock::time_point();
    HandleParsedRequest(conn);
    return;
  }
  if (parser.started() && !Armed(conn->read_deadline)) {
    // The request clock starts at its first byte and is NOT refreshed per
    // byte: a slow-loris client trickling one header per second exhausts
    // this one budget, not one budget per byte.
    conn->read_deadline = After(Clock::now(), options_.read_timeout_millis);
    conn->idle_deadline = Clock::time_point();
  }
}

void HttpServer::HandleParsedRequest(Connection* conn) {
  const HttpRequest& request = conn->parser().request();
  const bool draining = draining_.load(std::memory_order_relaxed);
  const bool keep_alive = request.keep_alive && !draining;

  if (request.method != "GET" && request.method != "POST") {
    HttpResponse response;
    response.status = 405;
    response.headers.emplace_back("Allow", "GET, POST");
    response.body = ErrorBody("METHOD_NOT_ALLOWED", request.method);
    StartWriting(conn, response, keep_alive);
    return;
  }

  const ParsedTarget target = ParseTarget(request.target);
  if (target.path == "/healthz") {
    HttpResponse response;
    response.body = draining ? "draining\n" : "ok\n";
    StartWriting(conn, response, keep_alive);
    return;
  }
  if (target.path == "/metrics") {
    HttpResponse response;
    response.headers.emplace_back("Content-Type",
                                  "text/plain; version=0.0.4");
    response.body = BuildMetricsBody();
    StartWriting(conn, response, keep_alive);
    return;
  }
  if (target.path == "/debug/slowz") {
    HttpResponse response;
    response.headers.emplace_back("Content-Type", "application/json");
    response.body = query_server_->slow_queries().RenderJson();
    response.body += "\n";
    StartWriting(conn, response, keep_alive);
    return;
  }
  if (target.path == "/search") {
    if (draining || query_server_down_.load(std::memory_order_relaxed)) {
      // Drain protocol: work arriving after the drain began is failed
      // explicitly (it was never admitted), while already-submitted work
      // finishes; the client's retry lands on the replacement process.
      HttpResponse response;
      response.status = 503;
      response.body = ErrorBody("UNAVAILABLE", "server is draining");
      StartWriting(conn, response, /*keep_alive=*/false);
      return;
    }
    SubmitSearch(conn, request, target);
    return;
  }
  HttpResponse response;
  response.status = 404;
  response.body = ErrorBody("NOT_FOUND", target.path);
  StartWriting(conn, response, keep_alive);
}

void HttpServer::SubmitSearch(Connection* conn, const HttpRequest& request,
                              const ParsedTarget& target) {
  std::vector<std::string> keywords;
  if (request.method == "POST" && !request.body.empty()) {
    keywords = SplitWords(request.body);
  } else if (const std::string* q = target.FindParam("q")) {
    keywords = SplitWords(*q);
  }
  if (keywords.empty()) {
    HttpResponse response;
    response.status = 400;
    response.body = ErrorBody("BAD_REQUEST",
                              "no keywords (use ?q=... or a POST body)");
    StartWriting(conn, response, conn->parser().request().keep_alive);
    return;
  }

  serve::QueryServer::Request query_request;
  query_request.query.keywords = std::move(keywords);
  if (const std::string* k = target.FindParam("k")) {
    const long parsed = std::atol(k->c_str());
    if (parsed > 0) {
      query_request.query.k =
          static_cast<std::size_t>(std::min<long>(parsed, 1000));
    }
  }
  if (const std::string* scope = target.FindParam("scope")) {
    query_request.query.predicate_scope = SplitCommas(*scope);
  }
  query_request.deadline_millis = options_.default_deadline_millis;
  if (const std::string* deadline = request.FindHeader("x-deadline-ms")) {
    // Client deadline propagation: the header becomes the QueryControl
    // deadline at admission. Nonsense values fall back to the default
    // rather than granting immortality.
    const double parsed = std::atof(deadline->c_str());
    if (parsed > 0.0 && parsed <= 3.6e6) {
      query_request.deadline_millis = parsed;
    }
  }
  auto control = std::make_shared<serve::QueryControl>();
  query_request.control = control;

  const std::uint64_t seq = ++next_seq_;
  conn->BeginAwait(seq, std::move(control), request.keep_alive);
  // Backpressure + abandonment watch: stop reading (a pipelining client
  // waits in its own socket buffer), keep watching for the peer vanishing.
  UpdateEpoll(conn, EPOLLRDHUP);

  const std::uint64_t conn_id = conn->id();
  // Safe `this` capture: Run()'s epilogue shuts the QueryServer down (which
  // runs or fails every outstanding callback) before the loop thread exits,
  // and the destructor joins the loop thread before members die.
  query_server_->SubmitAsync(
      std::move(query_request),
      [this, conn_id, seq](serve::QueryServer::Response response) {
        {
          std::lock_guard<std::mutex> lock(completion_mutex_);
          completions_.push_back(Completion{conn_id, seq, std::move(response)});
        }
        Wake();
      });
}

void HttpServer::DeliverCompletion(Completion completion) {
  auto it = connections_.find(completion.conn_id);
  if (it == connections_.end() ||
      it->second->state() != Connection::State::kAwaiting ||
      it->second->inflight_seq() != completion.seq) {
    // The client is gone (disconnect propagated as a cancel) or the
    // connection moved on; the computed answer has no addressee.
    m_.dropped_completions->Increment();
    return;
  }
  Connection* conn = it->second.get();
  const serve::QueryServer::Response& result = completion.response;
  const bool draining = draining_.load(std::memory_order_relaxed);
  bool keep_alive = conn->request_keep_alive() && !draining;

  HttpResponse response;
  response.headers.emplace_back("Content-Type", "application/json");
  switch (result.status.code()) {
    case StatusCode::kOk:
      response.status = 200;
      response.body = BuildSearchBody(result);
      break;
    case StatusCode::kOverloaded: {
      if (draining || result.retry_after_millis <= 0.0) {
        // No retry hint means the shed is terminal (the QueryServer is
        // shutting down), not backlog pressure: a 429 would invite retries
        // against a server that is not coming back, so this is a 503.
        response.status = 503;
        response.body = ErrorBody("UNAVAILABLE", "server is draining");
        keep_alive = false;
        break;
      }
      // Backpressure on the wire: 429 plus the EWMA drain estimate, in
      // whole seconds for the standard header and in millis for clients
      // that can use the precision.
      response.status = 429;
      const double retry_ms = std::max(1.0, result.retry_after_millis);
      response.headers.emplace_back(
          "Retry-After",
          std::to_string(static_cast<long>(std::ceil(retry_ms / 1000.0))));
      char precise[32];
      std::snprintf(precise, sizeof(precise), "%.1f", retry_ms);
      response.headers.emplace_back("X-Retry-After-Ms", precise);
      response.body = ErrorBody("OVERLOADED", result.status.message(), retry_ms);
      break;
    }
    case StatusCode::kDeadlineExceeded:
      response.status = 504;
      response.body = ErrorBody("DEADLINE_EXCEEDED", result.status.message());
      break;
    case StatusCode::kCancelled:
      // Normally unreachable (a cancelled query's client already left); the
      // drain path reaches it for queued work failed at shutdown.
      response.status = 503;
      response.body = ErrorBody("CANCELLED", result.status.message());
      keep_alive = false;
      break;
    default:
      response.status = 500;
      response.body = ErrorBody("INTERNAL", result.status.ToString());
      break;
  }
  StartWriting(conn, response, keep_alive);
}

void HttpServer::StartWriting(Connection* conn, const HttpResponse& response,
                              bool keep_alive) {
  CountResponse(conn, response.status);
  conn->QueueResponse(response, keep_alive);
  conn->write_deadline = After(Clock::now(), options_.write_timeout_millis);
  conn->read_deadline = Clock::time_point();
  conn->idle_deadline = Clock::time_point();
  FlushPass(conn);
}

void HttpServer::FlushPass(Connection* conn) {
  const Connection::IoResult result = conn->FlushWrites();
  if (result != Connection::IoResult::kOk) {
    m_.io_error_closes->Increment();
    CloseConnection(conn->id(), /*cancel_inflight=*/true);
    return;
  }
  if (conn->write_pending()) {
    // Kernel buffer full: a slow (or adversarial) reader. Wait for
    // EPOLLOUT under the write deadline; reads stay off.
    UpdateEpoll(conn, EPOLLOUT | EPOLLRDHUP);
    return;
  }
  conn->write_deadline = Clock::time_point();
  if (conn->close_after_write()) {
    CloseConnection(conn->id(), /*cancel_inflight=*/false);
    return;
  }
  conn->ResetForNextRequest();
  conn->idle_deadline = After(Clock::now(), options_.idle_timeout_millis);
  UpdateEpoll(conn, EPOLLIN | EPOLLRDHUP);
  if (conn->has_carry()) {
    // A pipelined request is already buffered user-side where epoll cannot
    // see it; run the read pass now instead of waiting forever.
    ReadPass(conn);
  }
}

void HttpServer::SweepTimeouts() {
  const auto now = Clock::now();
  if (accept_paused_ && now >= accept_resume_ && listen_fd_.valid()) {
    accept_paused_ = false;
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = kListenId;
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, listen_fd_.get(), &event);
    HandleAccept();  // catch up on whatever queued during the pause
  }

  std::vector<std::uint64_t> expired_read, expired_idle, expired_write;
  for (const auto& [id, conn] : connections_) {
    if (Armed(conn->write_deadline) && now >= conn->write_deadline &&
        conn->write_pending()) {
      expired_write.push_back(id);
    } else if (Armed(conn->read_deadline) && now >= conn->read_deadline) {
      expired_read.push_back(id);
    } else if (Armed(conn->idle_deadline) && now >= conn->idle_deadline) {
      expired_idle.push_back(id);
    }
  }
  for (std::uint64_t id : expired_write) {
    // The response exists but the client will not take it: cut the cord.
    m_.slow_reader_closes->Increment();
    CloseConnection(id, /*cancel_inflight=*/true);
  }
  for (std::uint64_t id : expired_read) {
    // Slow-loris: a request begun but never finished within the budget.
    auto it = connections_.find(id);
    if (it == connections_.end()) continue;
    HttpResponse response;
    response.status = 408;
    response.body = ErrorBody("REQUEST_TIMEOUT",
                              "request not completed in time");
    StartWriting(it->second.get(), response, /*keep_alive=*/false);
  }
  for (std::uint64_t id : expired_idle) {
    m_.idle_closes->Increment();
    CloseConnection(id, /*cancel_inflight=*/false);
  }
}

void HttpServer::CloseConnection(std::uint64_t id, bool cancel_inflight) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection* conn = it->second.get();
  if (cancel_inflight) conn->CancelInflight();
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, conn->fd(), nullptr);
  connections_.erase(it);
  m_.active_connections->Set(static_cast<double>(connections_.size()));
}

void HttpServer::CountResponse(Connection* conn, int status) {
  metrics::Counter* counter;
  metrics::Histogram* latency;
  if (status == 408) {
    counter = m_.responses_408;
    latency = m_.latency_408;
  } else if (status == 429) {
    counter = m_.responses_429;
    latency = m_.latency_429;
  } else if (status < 300) {
    counter = m_.responses_2xx;
    latency = m_.latency_2xx;
  } else if (status < 500) {
    counter = m_.responses_4xx;
    latency = m_.latency_4xx;
  } else {
    counter = m_.responses_5xx;
    latency = m_.latency_5xx;
  }
  counter->Increment();
  if (Armed(conn->request_start)) {
    // First request byte -> response queued. The stamp is consumed so a
    // later close artifact on the same connection records nothing.
    const double micros = std::chrono::duration<double, std::micro>(
                              Clock::now() - conn->request_start)
                              .count();
    latency->RecordMicros(micros);
    conn->request_start = Clock::time_point();
  }
}

std::string HttpServer::BuildSearchBody(
    const serve::QueryServer::Response& response) {
  std::string body = "{\"status\":\"OK\",\"degraded\":";
  body += response.degraded ? "true" : "false";
  char buf[96];
  std::snprintf(buf, sizeof(buf), ",\"queue_ms\":%.3f,\"total_ms\":%.3f",
                response.queue_millis, response.total_millis);
  body += buf;
  if (response.degraded) {
    // Degraded prefixes are surfaced with their provenance, never silently:
    // the client learns it got a verified prefix and why it stopped.
    std::snprintf(buf, sizeof(buf), ",\"stopped_after_pops\":%zu",
                  response.result.exploration_stats.cursors_popped);
    body += buf;
    body += ",\"stop_reason\":\"";
    body += response.result.exploration_stats.deadline_expired
                ? "deadline"
                : "pop_budget";
    body += "\"";
  }
  body += ",\"results\":[";
  for (std::size_t i = 0; i < response.result.queries.size(); ++i) {
    if (i > 0) body += ",";
    std::snprintf(buf, sizeof(buf), "{\"rank\":%zu,\"cost\":%.6f,\"query\":\"",
                  i + 1, response.result.queries[i].cost);
    body += buf;
    AppendJsonEscaped(&body,
                      response.result.queries[i].query.CanonicalString());
    body += "\"}";
  }
  body += "]}\n";
  return body;
}

std::string HttpServer::BuildMetricsBody() {
  // This server's registry and the QueryServer's, once when the tiers share
  // one (the wired-up default).
  std::string body = metrics_->RenderPrometheus();
  if (query_server_->metrics_registry() != metrics_) {
    body += query_server_->metrics_registry()->RenderPrometheus();
  }
  return body;
}

HttpServer::Stats HttpServer::stats() const {
  Stats s;
  s.accepted = m_.accepted->value();
  s.accept_transient_errors = m_.accept_transient_errors->value();
  s.accept_pauses = m_.accept_pauses->value();
  s.rejected_at_capacity = m_.rejected_at_capacity->value();
  s.requests = m_.requests->value();
  s.responses_2xx = m_.responses_2xx->value();
  s.responses_4xx = m_.responses_4xx->value();
  s.responses_408 = m_.responses_408->value();
  s.responses_429 = m_.responses_429->value();
  s.responses_5xx = m_.responses_5xx->value();
  s.disconnect_cancels = m_.disconnect_cancels->value();
  s.dropped_completions = m_.dropped_completions->value();
  s.slow_reader_closes = m_.slow_reader_closes->value();
  s.idle_closes = m_.idle_closes->value();
  s.io_error_closes = m_.io_error_closes->value();
  s.drain_force_closed = m_.drain_force_closed->value();
  // The gauge is maintained by the loop thread on every open/close; reading
  // it here is one relaxed atomic load — stats() no longer races the loop's
  // mutations of connections_ itself.
  s.active_connections =
      static_cast<std::uint64_t>(m_.active_connections->value());
  return s;
}

}  // namespace grasp::net
