// End-to-end tests for the epoll HTTP front-end, over real sockets against
// a real engine: request/response happy paths, keep-alive and pipelining,
// malformed-input rejection, slow-loris 408, overload 429 + Retry-After,
// client-disconnect -> query cancellation, X-Deadline-Ms propagation, the
// net.read failpoint, and the graceful drain (in-flight answered, new
// connections refused, loop exits). The TSan CI leg runs this suite (the
// filter matches "serve"): the event loop, the lane workers, and the
// completion queue race here under instrumentation.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/engine.h"
#include "net/http.h"
#include "net/http_server.h"
#include "net/socket.h"
#include "serve/admission.h"
#include "test_util.h"

namespace grasp::net {
namespace {

using grasp::core::KeywordSearchEngine;
using grasp::serve::QueryServer;

class NetServerTest : public ::testing::Test {
 protected:
  NetServerTest()
      : dataset_(grasp::testing::MakeFigure1Dataset()),
        engine_(dataset_.store, dataset_.dictionary,
                EngineOptions(&registry_)) {
    IgnoreSigpipe();
  }

  /// The engine carries the shared registry; the QueryServer and HttpServer
  /// fall back to it, so every tier lands in one /metrics exposition —
  /// mirroring how grasp_serve wires production.
  static KeywordSearchEngine::Options EngineOptions(
      grasp::metrics::Registry* registry) {
    KeywordSearchEngine::Options options;
    options.metrics = registry;
    return options;
  }

  ~NetServerTest() override {
    if (server_ != nullptr) {
      server_->Stop();
      server_->Join();
    }
    failpoint::DisarmAll();
  }

  void StartServer(QueryServer::Options serve_options = {},
                   HttpServer::Options http_options = {}) {
    query_server_ = std::make_unique<QueryServer>(engine_, serve_options);
    server_ = std::make_unique<HttpServer>(query_server_.get(), http_options);
    const Status status = server_->Start();
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  OwnedFd Connect() {
    auto result = ConnectTcp("127.0.0.1", server_->port());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    OwnedFd fd = std::move(result).value();
    timeval timeout{5, 0};  // no test read should ever block forever
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    return fd;
  }

  static bool SendAll(int fd, std::string_view data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const std::ptrdiff_t n =
          WriteRetry(fd, data.data() + off, data.size() - off);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads exactly one framed response off a (possibly keep-alive) socket.
  /// The server may flush pipelined responses back-to-back, so one read can
  /// slurp bytes of the NEXT response too; those go into `carry` and are
  /// consumed first on the next call instead of being dropped.
  static std::string ReadResponse(int fd, std::string* carry = nullptr) {
    std::string data = carry == nullptr ? std::string() : std::move(*carry);
    if (carry != nullptr) carry->clear();
    char buf[4096];
    std::size_t header_end = data.find("\r\n\r\n");
    while (header_end == std::string::npos) {
      const std::ptrdiff_t n = ReadRetry(fd, buf, sizeof(buf));
      if (n <= 0) return data;  // EOF or timeout: return what we have
      data.append(buf, static_cast<std::size_t>(n));
      header_end = data.find("\r\n\r\n");
    }
    std::size_t content_length = 0;
    const std::size_t cl = data.find("Content-Length: ");
    if (cl != std::string::npos && cl < header_end) {
      content_length = static_cast<std::size_t>(
          std::atol(data.c_str() + cl + sizeof("Content-Length: ") - 1));
    }
    const std::size_t want = header_end + 4 + content_length;
    while (data.size() < want) {
      const std::ptrdiff_t n = ReadRetry(fd, buf, sizeof(buf));
      if (n <= 0) break;
      data.append(buf, static_cast<std::size_t>(n));
    }
    if (carry != nullptr && data.size() > want) *carry = data.substr(want);
    return data.substr(0, want);
  }

  /// One-shot exchange on a fresh connection.
  std::string Exchange(const std::string& request) {
    OwnedFd fd = Connect();
    if (!SendAll(fd.get(), request)) return "";
    return ReadResponse(fd.get());
  }

  static int StatusOf(const std::string& response) {
    if (response.size() < 12 || response.compare(0, 5, "HTTP/") != 0) return 0;
    return std::atoi(response.c_str() + 9);
  }

  /// Spins (bounded) until `predicate` holds — for counters the loop thread
  /// updates asynchronously.
  template <typename Predicate>
  static bool WaitFor(Predicate predicate) {
    for (int i = 0; i < 200; ++i) {
      if (predicate()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return predicate();
  }

  grasp::metrics::Registry registry_;  // must outlive engine_
  grasp::testing::Dataset dataset_;
  KeywordSearchEngine engine_;
  std::unique_ptr<QueryServer> query_server_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(NetServerTest, HealthzAndSearchServeOverTheWire) {
  StartServer();
  EXPECT_EQ(StatusOf(Exchange("GET /healthz HTTP/1.1\r\n\r\n")), 200);

  const std::string response = Exchange(
      "GET /search?q=publication+aifb&k=3 HTTP/1.1\r\nConnection: close\r\n"
      "\r\n");
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_NE(response.find("\"status\":\"OK\""), std::string::npos);
  EXPECT_NE(response.find("\"results\":[{"), std::string::npos) << response;
  EXPECT_NE(response.find("\"degraded\":false"), std::string::npos);
}

TEST_F(NetServerTest, SearchResultsCarryTheEngineCanonicalForm) {
  // Each result's "query" is the JSON-escaped canonical string that a
  // direct Search with the same k ranks at that position.
  StartServer();
  const std::vector<std::vector<std::string>> keyword_sets = {
      {"publication", "aifb"}, {"thanh", "cimiano"},
      {"2006", "cimiano", "aifb"}, {"publication"}};
  for (const std::vector<std::string>& keywords : keyword_sets) {
    for (const std::size_t k : {1u, 3u, 10u}) {
      const std::string q = grasp::Join(keywords, "+");
      const std::string response = Exchange(
          "GET /search?q=" + q + "&k=" + std::to_string(k) +
          " HTTP/1.1\r\nConnection: close\r\n\r\n");
      ASSERT_EQ(StatusOf(response), 200) << response;
      const auto direct = engine_.Search(keywords, k);
      ASSERT_FALSE(direct.queries.empty()) << q;
      std::size_t pos = 0;
      for (std::size_t i = 0; i < direct.queries.size(); ++i) {
        std::string expected = "\"query\":\"";
        AppendJsonEscaped(&expected, direct.queries[i].canonical);
        expected += "\"}";
        pos = response.find("\"query\":\"", pos);
        ASSERT_NE(pos, std::string::npos) << q << " k=" << k << " #" << i;
        EXPECT_EQ(response.compare(pos, expected.size(), expected), 0)
            << q << " k=" << k << " #" << i << "\n" << response;
        pos += expected.size();
      }
      EXPECT_EQ(response.find("\"query\":\"", pos), std::string::npos)
          << q << " k=" << k << ": more results than a direct Search";
    }
  }
}

TEST_F(NetServerTest, KeepAliveServesSequentialAndPipelinedRequests) {
  StartServer();
  OwnedFd fd = Connect();
  std::string carry;

  // Sequential on one connection.
  ASSERT_TRUE(SendAll(fd.get(), "GET /healthz HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(StatusOf(ReadResponse(fd.get(), &carry)), 200);
  ASSERT_TRUE(
      SendAll(fd.get(), "GET /search?q=publication HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(StatusOf(ReadResponse(fd.get(), &carry)), 200);

  // Pipelined in one write: both must be answered, in order. The second
  // request sits in the user-space carry buffer while the first runs —
  // invisible to epoll, which is exactly the path this pins.
  ASSERT_TRUE(SendAll(fd.get(),
                      "GET /search?q=aifb HTTP/1.1\r\n\r\n"
                      "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"));
  EXPECT_EQ(StatusOf(ReadResponse(fd.get(), &carry)), 200);
  const std::string last = ReadResponse(fd.get(), &carry);
  EXPECT_EQ(StatusOf(last), 200);
  EXPECT_NE(last.find("ok"), std::string::npos);
}

TEST_F(NetServerTest, AcceptedSocketsSetTcpNodelay) {
  // Without TCP_NODELAY on the server side, a reply written while the
  // previous one is unacknowledged waits ~40 ms for the client's delayed ACK.
  std::uint16_t port = 0;
  auto listener = ListenTcp("127.0.0.1", 0, 4, &port);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  auto client = ConnectTcp("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  pollfd ready{listener->get(), POLLIN, 0};
  ASSERT_EQ(::poll(&ready, 1, 5000), 1);
  OwnedFd accepted(AcceptRetry(listener->get()));
  ASSERT_TRUE(accepted.valid());
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(accepted.get(), IPPROTO_TCP, TCP_NODELAY, &nodelay,
                         &len),
            0);
  EXPECT_EQ(nodelay, 1);
}

TEST_F(NetServerTest, MalformedInputsRejectWithDefiniteStatuses) {
  StartServer();
  EXPECT_EQ(StatusOf(Exchange("\x01garbage\r\n\r\n")), 400);
  EXPECT_EQ(StatusOf(Exchange("GET / HTTP/2.0\r\n\r\n")), 505);
  EXPECT_EQ(StatusOf(Exchange(
                "POST /search HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")),
            501);
  EXPECT_EQ(StatusOf(Exchange("POST /search HTTP/1.1\r\n"
                              "Content-Length: 99999999\r\n\r\n")),
            413);
  EXPECT_EQ(StatusOf(Exchange("GET /nope HTTP/1.1\r\n\r\n")), 404);
  const std::string put = Exchange("PUT /search HTTP/1.1\r\n\r\n");
  EXPECT_EQ(StatusOf(put), 405);
  EXPECT_NE(put.find("Allow: GET, POST"), std::string::npos);
  EXPECT_EQ(StatusOf(Exchange("GET /search HTTP/1.1\r\n\r\n")), 400)
      << "no keywords";
}

TEST_F(NetServerTest, SlowLorisTimesOutWith408) {
  HttpServer::Options http_options;
  http_options.read_timeout_millis = 150.0;
  http_options.idle_timeout_millis = 60'000.0;  // idle is NOT the clock here
  StartServer({}, http_options);

  OwnedFd fd = Connect();
  // Start a request but never finish it; trickle to prove the deadline is
  // armed at the first byte and not refreshed per byte.
  ASSERT_TRUE(SendAll(fd.get(), "GET /healthz HT"));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  ASSERT_TRUE(SendAll(fd.get(), "TP/1."));
  const std::string response = ReadResponse(fd.get());
  EXPECT_EQ(StatusOf(response), 408) << response;

  const HttpServer::Stats stats = server_->stats();
  EXPECT_EQ(stats.responses_408, 1u);
}

TEST_F(NetServerTest, OverloadSheds429WithRetryAfterHint) {
  // Zero deep workers: the first /search is admitted and parks forever,
  // every subsequent one overflows the capacity-1 queue deterministically.
  QueryServer::Options serve_options;
  serve_options.fast_workers = 0;
  serve_options.deep_workers = 0;
  serve_options.queue_capacity = 1;
  StartServer(serve_options);

  OwnedFd parked = Connect();
  ASSERT_TRUE(
      SendAll(parked.get(), "GET /search?q=publication HTTP/1.1\r\n\r\n"));
  ASSERT_TRUE(WaitFor([this] { return query_server_->stats().admitted >= 1; }));

  const std::string shed = Exchange(
      "GET /search?q=aifb HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(StatusOf(shed), 429);
  EXPECT_NE(shed.find("Retry-After: "), std::string::npos) << shed;
  EXPECT_NE(shed.find("X-Retry-After-Ms: "), std::string::npos);
  EXPECT_NE(shed.find("\"retry_after_ms\":"), std::string::npos);
  // The parked request resolves at teardown: Stop() shuts the QueryServer
  // down, which fails it with kCancelled; nothing leaks or hangs.
}

TEST_F(NetServerTest, ClientDisconnectCancelsTheInflightQuery) {
  QueryServer::Options serve_options;
  serve_options.fast_workers = 0;
  serve_options.deep_workers = 0;  // admitted queries never start running
  serve_options.queue_capacity = 4;
  StartServer(serve_options);

  {
    OwnedFd fd = Connect();
    ASSERT_TRUE(
        SendAll(fd.get(), "GET /search?q=publication HTTP/1.1\r\n\r\n"));
    ASSERT_TRUE(
        WaitFor([this] { return query_server_->stats().admitted >= 1; }));
  }  // closed with the query still queued: EPOLLRDHUP -> RequestCancel

  ASSERT_TRUE(WaitFor(
      [this] { return server_->stats().disconnect_cancels >= 1; }));
  // The cancelled query's completion (kCancelled, fired at shutdown or by a
  // worker) finds no connection and is dropped, not delivered or leaked.
  server_->RequestDrain();
  server_->Join();
  EXPECT_GE(server_->stats().dropped_completions, 1u);
}

TEST_F(NetServerTest, DeadlineHeaderPropagatesIntoQueryControl) {
  QueryServer::Options serve_options;
  serve_options.deep_workers = 1;
  StartServer(serve_options);

  // A microscopic deadline expires while queued: kDeadlineExceeded -> 504.
  const std::string response = Exchange(
      "GET /search?q=publication HTTP/1.1\r\nX-Deadline-Ms: 0.001\r\n"
      "Connection: close\r\n\r\n");
  EXPECT_EQ(StatusOf(response), 504) << response;
  EXPECT_NE(response.find("DEADLINE_EXCEEDED"), std::string::npos);
  EXPECT_EQ(query_server_->stats().expired_in_queue, 1u);

  // A sane deadline serves normally.
  EXPECT_EQ(StatusOf(Exchange(
                "GET /search?q=publication HTTP/1.1\r\nX-Deadline-Ms: 5000\r\n"
                "Connection: close\r\n\r\n")),
            200);
}

TEST_F(NetServerTest, ReadFailpointClosesTheConnectionNotTheServer) {
  StartServer();
  failpoint::Arm("net.read", 1);
  {
    OwnedFd fd = Connect();
    SendAll(fd.get(), "GET /healthz HTTP/1.1\r\n\r\n");
    // The injected read fault kills this connection without a response.
    const std::string response = ReadResponse(fd.get());
    EXPECT_TRUE(response.empty()) << response;
  }
  failpoint::DisarmAll();
  ASSERT_TRUE(WaitFor([this] { return server_->stats().io_error_closes >= 1; }));
  // The server itself is unharmed.
  EXPECT_EQ(StatusOf(Exchange("GET /healthz HTTP/1.1\r\n\r\n")), 200);
}

TEST_F(NetServerTest, GracefulDrainAnswersInflightAndRefusesNew) {
  QueryServer::Options serve_options;
  serve_options.deep_workers = 1;
  StartServer(serve_options);

  // Park a request mid-read (header incomplete) and submit a live one, then
  // drain: the live one must be answered, the mid-read one must get a
  // definite response (503: it arrived after the drain began), and new
  // connections must be refused.
  OwnedFd live = Connect();
  ASSERT_TRUE(
      SendAll(live.get(), "GET /search?q=publication HTTP/1.1\r\n\r\n"));
  OwnedFd midread = Connect();
  ASSERT_TRUE(SendAll(midread.get(), "GET /search?q=aifb HTT"));
  // Both connects can still be sitting in the kernel accept queue (closing
  // the listener would RST them); the drain scenario under test starts once
  // the server owns the connections.
  ASSERT_TRUE(WaitFor([this] { return server_->stats().accepted >= 2; }));

  server_->RequestDrain();
  // The drain begins on the loop thread; wait for it to take effect before
  // completing the parked request (BeginDrain picks up its partial bytes and
  // keeps it alive as mid-request rather than idle-closing it).
  ASSERT_TRUE(WaitFor([this] { return server_->draining(); }));

  ASSERT_TRUE(SendAll(midread.get(), "P/1.1\r\n\r\n"));
  const std::string live_response = ReadResponse(live.get());
  // Already-submitted work finishes (200) or fails explicitly at shutdown
  // (503 kCancelled) — never silence.
  EXPECT_TRUE(StatusOf(live_response) == 200 || StatusOf(live_response) == 503)
      << live_response;
  const std::string midread_response = ReadResponse(midread.get());
  EXPECT_EQ(StatusOf(midread_response), 503) << midread_response;

  server_->Join();  // drain completes on its own; no Stop() needed
  EXPECT_FALSE(ConnectTcp("127.0.0.1", server_->port()).ok());
  EXPECT_EQ(server_->stats().drain_force_closed, 0u);
  EXPECT_EQ(server_->stats().active_connections, 0u);
}

TEST_F(NetServerTest, MetricsEndpointExposesEveryTierWellFormed) {
  StartServer();
  // Generate one real search so the engine/serve/http histograms all have
  // samples, then scrape.
  ASSERT_EQ(StatusOf(Exchange(
                "GET /search?q=publication HTTP/1.1\r\nConnection: close\r\n"
                "\r\n")),
            200);

  const std::string response =
      Exchange("GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
  ASSERT_EQ(StatusOf(response), 200);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const std::string body = response.substr(response.find("\r\n\r\n") + 4);

  // One registry spans the tiers: engine, serve, and http families all
  // present, with HELP/TYPE and samples.
  for (const char* needle :
       {"# TYPE grasp_engine_search_duration_seconds histogram",
        "grasp_engine_stage_duration_seconds_bucket{stage=\"exploration\",",
        "# TYPE grasp_serve_queue_wait_seconds histogram",
        "grasp_serve_service_seconds_count{lane=\"deep\"}",
        "# TYPE grasp_http_requests_total counter",
        "grasp_http_request_duration_seconds_bucket{class=\"2xx\","}) {
    EXPECT_NE(body.find(needle), std::string::npos) << needle;
  }

  // Every line is exposition-grammar shaped: a comment or "name[{labels}]
  // SP value".
  std::size_t start = 0;
  while (start < body.size()) {
    std::size_t end = body.find('\n', start);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    ASSERT_GT(sp, 0u) << line;
    char* parse_end = nullptr;
    std::strtod(line.c_str() + sp + 1, &parse_end);
    EXPECT_EQ(*parse_end, '\0') << "unparsable value: " << line;
  }
}

TEST_F(NetServerTest, MetricsCarryDeadlineHitAndRequestCountersUntruncated) {
  StartServer();
  // An old renderer dropped `deadline_hit` (never serialized) and chopped
  // the body at 1024 bytes; the registry renderer must do neither.
  ASSERT_EQ(StatusOf(Exchange(
                "GET /search?q=publication HTTP/1.1\r\nX-Deadline-Ms: 5000\r\n"
                "Connection: close\r\n\r\n")),
            200);

  const std::string response =
      Exchange("GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
  ASSERT_EQ(StatusOf(response), 200);
  const std::string body = response.substr(response.find("\r\n\r\n") + 4);

  EXPECT_GT(body.size(), 1024u) << "registry render should dwarf the old cap";
  EXPECT_NE(body.find("grasp_serve_deadline_hit_total"), std::string::npos);
  EXPECT_NE(body.find("grasp_http_requests_total"), std::string::npos);
}

TEST_F(NetServerTest, SlowQueryLogCapturesServedQueries) {
  StartServer();
  ASSERT_EQ(StatusOf(Exchange(
                "GET /search?q=publication+aifb HTTP/1.1\r\n"
                "Connection: close\r\n\r\n")),
            200);

  const std::string response =
      Exchange("GET /debug/slowz HTTP/1.1\r\nConnection: close\r\n\r\n");
  ASSERT_EQ(StatusOf(response), 200);
  const std::string body = response.substr(response.find("\r\n\r\n") + 4);
  EXPECT_EQ(body.front(), '[');
  EXPECT_NE(body.find("\"keywords\":\"publication aifb\""), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"total_millis\":"), std::string::npos);
  EXPECT_NE(body.find("\"stop_reason\":\"completed\""), std::string::npos);
  EXPECT_NE(body.find("\"cursors_pruned\":"), std::string::npos) << body;
}

TEST_F(NetServerTest, ConcurrentScrapesUnderLiveTrafficStayRaceClean) {
  // Regression: stats() used to read connections_.size() (loop-thread-
  // owned) from the caller's thread. Scrape /metrics and
  // call stats() from several threads while searches flow; TSan runs this.
  QueryServer::Options serve_options;
  serve_options.deep_workers = 2;
  StartServer(serve_options);

  std::atomic<bool> stop{false};
  std::thread stats_poller([this, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const HttpServer::Stats stats = server_->stats();
      ASSERT_LE(stats.active_connections, 1024u);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread scraper([this, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      Exchange("GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    }
  });

  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(StatusOf(Exchange(
                  "GET /search?q=publication HTTP/1.1\r\n"
                  "Connection: close\r\n\r\n")),
              200);
  }
  stop.store(true, std::memory_order_relaxed);
  stats_poller.join();
  scraper.join();

  const HttpServer::Stats stats = server_->stats();
  EXPECT_GE(stats.responses_2xx, 20u);
}

TEST_F(NetServerTest, QueryServerShutdownMapsTo503NotRetryable429) {
  // A shed with no retry hint means "stop asking", and the wire status must
  // say so: 503 without Retry-After, not a 429 inviting a retry storm
  // against a server that is going away.
  StartServer();
  query_server_->Shutdown();

  const std::string response = Exchange(
      "GET /search?q=publication HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(StatusOf(response), 503) << response;
  EXPECT_EQ(response.find("Retry-After:"), std::string::npos) << response;
  EXPECT_NE(response.find("UNAVAILABLE"), std::string::npos);
}

TEST_F(NetServerTest, ConnectionCapRejectsWithImmediate503) {
  HttpServer::Options http_options;
  http_options.max_connections = 1;
  StartServer({}, http_options);

  OwnedFd holder = Connect();
  ASSERT_TRUE(SendAll(holder.get(), "GET /healthz HTTP/1.1\r\n\r\n"));
  ASSERT_EQ(StatusOf(ReadResponse(holder.get())), 200);  // cap really is 1

  OwnedFd overflow = Connect();
  const std::string rejected = ReadResponse(overflow.get());
  EXPECT_EQ(StatusOf(rejected), 503) << rejected;
  ASSERT_TRUE(
      WaitFor([this] { return server_->stats().rejected_at_capacity >= 1; }));

  // The held connection still works; only the overflow was turned away.
  ASSERT_TRUE(SendAll(holder.get(),
                      "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"));
  EXPECT_EQ(StatusOf(ReadResponse(holder.get())), 200);
}

}  // namespace
}  // namespace grasp::net
