// HTTP load generator for a running grasp_serve. It replays the DBLP
// performance workload at a target QPS with open-loop arrivals: requests
// fire on schedule whether or not earlier ones finished, so the arrival
// process does not secretly back off under overload, which is exactly the
// regime admission control exists for. Each request rides its own
// connection (connection churn is part of the test). Chaos flags turn it
// into a hostile client: --chaos-disconnect kills connections mid-request
// or between request and response, --chaos-slow-read drains responses a
// few bytes at a time. A correct server sheds/cancels/disconnects around
// all of it without crashing or leaking.
//
//   grasp_loadgen --server=HOST:PORT --qps=2000 --requests=200
//       --deadline-ms=20 --assert-shed-min=0.01
//   grasp_loadgen --server=HOST:PORT --qps=500 --requests=1000
//       --chaos-disconnect=0.2 --chaos-slow-read=0.1 --assert-shed-min=0.01
//   grasp_loadgen --server=HOST:PORT --ramp=100:2000:5 --requests=200
//
// It reports per-status counts and p50/p95/p99 end-to-end latency.
// "unanswered" counts requests that were fully sent, not chaos-killed, and
// got zero response bytes — after a graceful drain it must be zero, which
// the CI smoke job asserts. The --assert-* flags turn the binary into a
// nonzero-exit smoke test.

#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/string_util.h"
#include "datagen/workload.h"
#include "net/socket.h"

namespace {

/// Ceilings of the integer flags. k matches the clamp the HTTP front-end
/// applies to `k=`. Every request holds a thread until its wave ends, so
/// the request count is bounded too.
constexpr std::uint64_t kMaxK = 1000;
constexpr std::uint64_t kMaxRequests = 1'000'000;

struct Args {
  double qps = 100.0;
  std::size_t requests = 200;
  double deadline_ms = 50.0;
  std::size_t k = 5;
  double assert_shed_min = -1.0;    // < 0: no assertion
  double assert_p99_max_ms = -1.0;  // < 0: no assertion
  bool assert_no_unanswered = false;
  /// After the run, scrape the server's /metrics and require
  /// server-observed 2xx p99 <= FACTOR * client-observed p99. The server
  /// measures less than the client (no connect, no wire), so any generous
  /// factor catches a histogram wired to the wrong clock without flaking
  /// on scheduler noise. < 0: scrape still happens, no assertion.
  double assert_server_p99_factor = -1.0;

  std::string server;  // HOST:PORT
  double chaos_disconnect = 0.0;  // P(kill the connection mid-exchange)
  double chaos_slow_read = 0.0;   // P(read the response a trickle at a time)
  double slow_read_delay_ms = 20.0;
  double ramp_start = 0.0, ramp_end = 0.0;  // --ramp=START:END:STEPS
  std::size_t ramp_steps = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    // Integer flags parse strictly (see grasp::ParseUint): a sign, trailing
    // bytes or a value above `max` is a usage error, never a wrapped or
    // huge number.
    auto parse_uint = [&arg](const char* v, std::uint64_t max,
                             std::size_t* out) {
      const std::optional<std::uint64_t> parsed = grasp::ParseUint(v, max);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "bad value (want an integer in 0..%llu): %s\n",
                     static_cast<unsigned long long>(max), arg.c_str());
        return false;
      }
      *out = static_cast<std::size_t>(*parsed);
      return true;
    };
    if (const char* v = value("--qps=")) {
      args->qps = std::atof(v);
    } else if (const char* v = value("--requests=")) {
      if (!parse_uint(v, kMaxRequests, &args->requests)) return false;
    } else if (const char* v = value("--deadline-ms=")) {
      args->deadline_ms = std::atof(v);
    } else if (const char* v = value("--k=")) {
      if (!parse_uint(v, kMaxK, &args->k)) return false;
    } else if (const char* v = value("--assert-shed-min=")) {
      args->assert_shed_min = std::atof(v);
    } else if (const char* v = value("--assert-p99-max-ms=")) {
      args->assert_p99_max_ms = std::atof(v);
    } else if (arg == "--assert-no-unanswered") {
      args->assert_no_unanswered = true;
    } else if (const char* v = value("--assert-server-p99-factor=")) {
      args->assert_server_p99_factor = std::atof(v);
    } else if (const char* v = value("--server=")) {
      args->server = v;
    } else if (const char* v = value("--chaos-disconnect=")) {
      args->chaos_disconnect = std::atof(v);
    } else if (const char* v = value("--chaos-slow-read=")) {
      args->chaos_slow_read = std::atof(v);
    } else if (const char* v = value("--slow-read-delay-ms=")) {
      args->slow_read_delay_ms = std::atof(v);
    } else if (const char* v = value("--ramp=")) {
      if (std::sscanf(v, "%lf:%lf:%zu", &args->ramp_start, &args->ramp_end,
                      &args->ramp_steps) != 3 ||
          args->ramp_start <= 0.0 || args->ramp_end <= 0.0 ||
          args->ramp_steps < 2) {
        std::fprintf(stderr, "bad --ramp (want START:END:STEPS, STEPS>=2)\n");
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (args->server.empty()) {
    std::fprintf(stderr, "--server is required\n");
    return false;
  }
  return args->qps > 0.0 && args->requests > 0;
}

/// Nearest-rank percentile of a sorted sample (p in [0, 100]). The math
/// lives in metrics::PercentileOfSorted so the unit tests can pin the
/// p=0 / p=100 / single-sample edge cases once for every caller.
double Percentile(const std::vector<double>& sorted, double p) {
  return grasp::metrics::PercentileOfSorted(sorted, p);
}

// -------------------------------------------------------------- results --

/// One request's outcome.
struct Outcome {
  enum class Kind {
    kAnswered,       // got an HTTP status line (any code)
    kConnectFailed,  // connect() refused/failed (server down or draining)
    kChaosKilled,    // this client killed the connection on purpose
    kUnanswered,     // full request sent, zero response bytes — the bad one
  };
  Kind kind = Kind::kUnanswered;
  int status = 0;        // HTTP code when kAnswered
  double latency_ms = 0.0;
  bool degraded = false;
  /// Retry hint on a 429, in milliseconds (X-Retry-After-Ms preferred,
  /// whole-second Retry-After otherwise).
  /// < 0 = absent or unparsable — a protocol bug under --assert-no-unanswered,
  /// since an open-loop client shed without a usable hint can only guess.
  double retry_hint_ms = -1.0;
};

struct Summary {
  std::vector<std::pair<int, std::size_t>> status_counts;  // sorted by code
  std::size_t answered = 0, connect_failed = 0, chaos_killed = 0,
              unanswered = 0, degraded = 0;
  /// 429 retry-hint coverage and distribution (hint values in ms).
  std::size_t hint_missing = 0;  // 429s without a parsable hint
  double hint_min = 0.0, hint_p50 = 0.0, hint_max = 0.0;
  std::size_t hint_count = 0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  double rate(int status) const {
    for (const auto& [code, n] : status_counts) {
      if (code == status) {
        return answered > 0 ? static_cast<double>(n) /
                                  static_cast<double>(answered)
                            : 0.0;
      }
    }
    return 0.0;
  }
};

Summary Summarize(const std::vector<Outcome>& outcomes) {
  Summary s;
  std::vector<double> ok_latencies;
  std::vector<double> hints;
  for (const Outcome& o : outcomes) {
    switch (o.kind) {
      case Outcome::Kind::kAnswered: {
        ++s.answered;
        if (o.degraded) ++s.degraded;
        if (o.status == 429) {
          if (o.retry_hint_ms >= 0.0) {
            hints.push_back(o.retry_hint_ms);
          } else {
            ++s.hint_missing;
          }
        }
        auto it = std::find_if(
            s.status_counts.begin(), s.status_counts.end(),
            [&o](const auto& p) { return p.first == o.status; });
        if (it == s.status_counts.end()) {
          s.status_counts.emplace_back(o.status, 1);
        } else {
          ++it->second;
        }
        if (o.status >= 200 && o.status < 300) {
          ok_latencies.push_back(o.latency_ms);
        }
        break;
      }
      case Outcome::Kind::kConnectFailed: ++s.connect_failed; break;
      case Outcome::Kind::kChaosKilled: ++s.chaos_killed; break;
      case Outcome::Kind::kUnanswered: ++s.unanswered; break;
    }
  }
  std::sort(s.status_counts.begin(), s.status_counts.end());
  std::sort(ok_latencies.begin(), ok_latencies.end());
  s.p50 = Percentile(ok_latencies, 50.0);
  s.p95 = Percentile(ok_latencies, 95.0);
  s.p99 = Percentile(ok_latencies, 99.0);
  std::sort(hints.begin(), hints.end());
  s.hint_count = hints.size();
  if (!hints.empty()) {
    s.hint_min = hints.front();
    s.hint_p50 = Percentile(hints, 50.0);
    s.hint_max = hints.back();
  }
  return s;
}

void PrintSummary(const Summary& s) {
  std::printf("answered          %zu\n", s.answered);
  for (const auto& [code, n] : s.status_counts) {
    std::printf("  status %d      %zu (%.1f%%)\n", code, n,
                s.answered > 0
                    ? 100.0 * static_cast<double>(n) /
                          static_cast<double>(s.answered)
                    : 0.0);
  }
  std::printf("connect failed    %zu\n", s.connect_failed);
  std::printf("chaos killed      %zu\n", s.chaos_killed);
  std::printf("unanswered        %zu\n", s.unanswered);
  std::printf("degraded          %zu\n", s.degraded);
  if (s.hint_count > 0 || s.hint_missing > 0) {
    std::printf("429 retry hints   %zu parsed, %zu missing\n", s.hint_count,
                s.hint_missing);
    if (s.hint_count > 0) {
      std::printf("  hint ms min/p50/max  %.1f / %.1f / %.1f\n", s.hint_min,
                  s.hint_p50, s.hint_max);
    }
  }
  std::printf("latency(2xx) p50  %.2f ms\n", s.p50);
  std::printf("latency(2xx) p95  %.2f ms\n", s.p95);
  std::printf("latency(2xx) p99  %.2f ms\n", s.p99);
}

// ------------------------------------------------------------- requests --

bool SplitHostPort(const std::string& server, std::string* host,
                   std::uint16_t* port) {
  const std::size_t colon = server.rfind(':');
  if (colon == std::string::npos) return false;
  *host = server.substr(0, colon);
  // Strict, like grasp_serve's --port: 70000 is an error, not port 4464.
  const std::optional<std::uint64_t> parsed =
      grasp::ParseUint(std::string_view(server).substr(colon + 1), 65535);
  *port = static_cast<std::uint16_t>(parsed.value_or(0));
  return *port != 0;
}

/// Sends `len` bytes, looping over short writes. False on error (the chaos
/// target may have closed on us; that is its prerogative).
bool SendAll(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const std::ptrdiff_t n = grasp::net::WriteRetry(fd, data + off, len - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string BuildRequest(const Args& args,
                         const std::vector<std::string>& keywords) {
  std::string q;
  for (const std::string& kw : keywords) {
    if (!q.empty()) q += '+';
    q += kw;
  }
  std::string request = "GET /search?q=" + q +
                        "&k=" + std::to_string(args.k) + " HTTP/1.1\r\n";
  if (args.deadline_ms > 0.0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "X-Deadline-Ms: %.1f\r\n",
                  args.deadline_ms);
    request += buf;
  }
  request += "Connection: close\r\n\r\n";
  return request;
}

/// Parses the 429 retry hint from a response head: X-Retry-After-Ms
/// (fractional milliseconds) wins over the standard whole-second
/// Retry-After. Returns the hint in ms, or -1 when neither header parses —
/// an empty value, a non-numeric value, or a missing header all count as
/// "no hint".
double ParseRetryHintMs(const std::string& head) {
  std::string lower(head.size(), '\0');
  std::transform(head.begin(), head.end(), lower.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  auto header_value = [&](const char* name, double scale) -> double {
    const std::size_t len = std::strlen(name);
    std::size_t pos = 0;
    while ((pos = lower.find(name, pos)) != std::string::npos) {
      if (pos != 0 && lower[pos - 1] != '\n') {  // mid-line, e.g. body text
        pos += len;
        continue;
      }
      const char* start = head.c_str() + pos + len;
      char* end = nullptr;
      const double v = std::strtod(start, &end);
      if (end == start || v < 0.0) return -1.0;  // present but unparsable
      return v * scale;
    }
    return -1.0;
  };
  const double ms = header_value("x-retry-after-ms:", 1.0);
  if (ms >= 0.0) return ms;
  return header_value("retry-after:", 1'000.0);
}

/// One request over one fresh connection; the worker thread's whole life.
Outcome RunNetRequest(const Args& args, const std::string& host,
                      std::uint16_t port, const std::string& request,
                      std::uint64_t seed) {
  Outcome outcome;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  const auto start = std::chrono::steady_clock::now();
  auto fd_result = grasp::net::ConnectTcp(host, port);
  if (!fd_result.ok()) {
    outcome.kind = Outcome::Kind::kConnectFailed;
    return outcome;
  }
  grasp::net::OwnedFd fd = std::move(fd_result).value();

  // Chaos: mid-request disconnect (half the request, then gone) or
  // post-request disconnect (full request, never reads the answer — the
  // server must detect EPOLLRDHUP and cancel the in-flight query).
  const double roll = coin(rng);
  if (roll < args.chaos_disconnect) {
    const bool mid_request = roll < args.chaos_disconnect / 2.0;
    const std::size_t n = mid_request ? request.size() / 2 : request.size();
    SendAll(fd.get(), request.data(), n);
    outcome.kind = Outcome::Kind::kChaosKilled;
    return outcome;  // OwnedFd closes abruptly here
  }

  if (!SendAll(fd.get(), request.data(), request.size())) {
    outcome.kind = Outcome::Kind::kUnanswered;
    return outcome;
  }

  // Bound every read so a buggy server hangs the request, not the loadgen.
  timeval timeout{30, 0};
  ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  const bool slow_read = coin(rng) < args.chaos_slow_read;
  std::string response;
  char buf[4096];
  for (;;) {
    const std::size_t want = slow_read ? 16 : sizeof(buf);
    const std::ptrdiff_t n = grasp::net::ReadRetry(fd.get(), buf, want);
    if (n <= 0) break;  // EOF, reset, or receive timeout
    response.append(buf, static_cast<std::size_t>(n));
    if (slow_read) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          args.slow_read_delay_ms));
    }
  }
  if (response.size() < 12 || response.compare(0, 5, "HTTP/") != 0) {
    outcome.kind = Outcome::Kind::kUnanswered;
    return outcome;
  }
  outcome.kind = Outcome::Kind::kAnswered;
  outcome.status = std::atoi(response.c_str() + 9);
  outcome.latency_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  outcome.degraded =
      response.find("\"degraded\":true") != std::string::npos;
  if (outcome.status == 429) {
    // Hint headers only; never scan the body (its retry_after_ms echo would
    // mask a server that forgot the real headers).
    const std::size_t blank = response.find("\r\n\r\n");
    outcome.retry_hint_ms = ParseRetryHintMs(
        blank == std::string::npos ? response : response.substr(0, blank));
  }
  return outcome;
}

std::vector<Outcome> RunNetworkWave(const Args& args, const std::string& host,
                                    std::uint16_t port, double qps,
                                    std::uint64_t seed_base) {
  const auto workload = grasp::datagen::DblpPerformanceWorkload();
  std::vector<Outcome> outcomes(args.requests);
  std::vector<std::thread> workers;
  workers.reserve(args.requests);
  const auto start = std::chrono::steady_clock::now();
  const std::chrono::duration<double> interval(1.0 / qps);
  for (std::size_t i = 0; i < args.requests; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    interval * static_cast<double>(i)));
    workers.emplace_back([&args, &host, port, &outcomes, &workload, i,
                          seed_base] {
      const std::string request =
          BuildRequest(args, workload[i % workload.size()].keywords);
      outcomes[i] = RunNetRequest(args, host, port, request, seed_base + i);
    });
  }
  for (std::thread& t : workers) t.join();
  return outcomes;
}

// ----------------------------------------------------- /metrics scrape --

/// Fetches PATH over a fresh connection and returns the response body
/// (empty on any failure — the caller decides whether that is fatal).
std::string FetchBody(const std::string& host, std::uint16_t port,
                      const std::string& path) {
  auto fd_result = grasp::net::ConnectTcp(host, port);
  if (!fd_result.ok()) return "";
  grasp::net::OwnedFd fd = std::move(fd_result).value();
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nConnection: close\r\n\r\n";
  if (!SendAll(fd.get(), request.data(), request.size())) return "";
  timeval timeout{10, 0};
  ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::string response;
  char buf[4096];
  for (;;) {
    const std::ptrdiff_t n = grasp::net::ReadRetry(fd.get(), buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t blank = response.find("\r\n\r\n");
  if (response.compare(0, 5, "HTTP/") != 0 || blank == std::string::npos) {
    return "";
  }
  return response.substr(blank + 4);
}

/// Nearest-rank percentile, in milliseconds, from a Prometheus cumulative
/// histogram in `body`: walks `NAME_bucket{...le="X"}  COUNT` lines for the
/// series whose label block contains `label_match`, in exposition order
/// (our renderer emits ascending `le`). Returns the upper edge of the rank
/// bucket; < 0 when the series is absent or empty.
double ServerPercentileMs(const std::string& body, const std::string& name,
                          const std::string& label_match, double p) {
  std::vector<std::pair<double, std::uint64_t>> buckets;  // (le_sec, cum)
  const std::string prefix = name + "_bucket{";
  std::size_t pos = 0;
  while ((pos = body.find(prefix, pos)) != std::string::npos) {
    if (pos != 0 && body[pos - 1] != '\n') {  // mid-line (e.g. HELP text)
      pos += prefix.size();
      continue;
    }
    const std::size_t eol = body.find('\n', pos);
    const std::string line =
        body.substr(pos, eol == std::string::npos ? eol : eol - pos);
    pos += prefix.size();
    if (label_match.empty() || line.find(label_match) != std::string::npos) {
      const std::size_t le = line.find("le=\"");
      const std::size_t brace = line.find('}');
      if (le == std::string::npos || brace == std::string::npos) continue;
      const std::string le_text = line.substr(le + 4);
      const double edge = le_text.compare(0, 4, "+Inf") == 0
                              ? std::numeric_limits<double>::infinity()
                              : std::atof(le_text.c_str());
      buckets.emplace_back(
          edge, static_cast<std::uint64_t>(std::atoll(
                    line.c_str() + brace + 1)));
    }
  }
  if (buckets.empty() || buckets.back().second == 0) return -1.0;
  const std::uint64_t count = buckets.back().second;
  const auto rank = static_cast<std::uint64_t>(std::min(
      static_cast<double>(count),
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(count)))));
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i].second >= rank) {
      // +Inf bucket: report the widest finite edge instead of infinity.
      if (std::isinf(buckets[i].first)) {
        return i > 0 ? buckets[i - 1].first * 1'000.0 : -1.0;
      }
      return buckets[i].first * 1'000.0;
    }
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(
        stderr,
        "usage: grasp_loadgen --server=HOST:PORT [--qps=N] [--requests=N]\n"
        "    [--deadline-ms=MS] [--k=N] [--assert-shed-min=RATE]\n"
        "    [--assert-p99-max-ms=MS] [--assert-no-unanswered]\n"
        "    [--assert-server-p99-factor=F] [--chaos-disconnect=P]\n"
        "    [--chaos-slow-read=P] [--slow-read-delay-ms=MS]\n"
        "    [--ramp=START_QPS:END_QPS:STEPS]\n");
    return 2;
  }
  std::string host;
  std::uint16_t port = 0;
  if (!SplitHostPort(args.server, &host, &port)) {
    std::fprintf(stderr, "bad --server (want HOST:PORT)\n");
    return 2;
  }

  // A chaos-killed connection means the server may close first; the
  // resulting EPIPE must stay an errno, not a process-killing signal.
  grasp::net::IgnoreSigpipe();

  std::vector<Outcome> outcomes;
  if (args.ramp_steps > 0) {
    // QPS sweep: where does shedding start, and does p99 stay bounded past
    // that point? One wave per step, one summary line per wave.
    std::printf("%10s %8s %8s %8s %8s %10s %10s\n", "qps", "answered", "s200",
                "s429", "unansw", "p50_ms", "p99_ms");
    for (std::size_t step = 0; step < args.ramp_steps; ++step) {
      const double qps =
          args.ramp_start + (args.ramp_end - args.ramp_start) *
                                static_cast<double>(step) /
                                static_cast<double>(args.ramp_steps - 1);
      std::vector<Outcome> wave =
          RunNetworkWave(args, host, port, qps, step * 1'000'000);
      const Summary s = Summarize(wave);
      std::printf("%10.0f %8zu %8zu %8zu %8zu %10.2f %10.2f\n", qps,
                  s.answered,
                  static_cast<std::size_t>(s.rate(200) *
                                           static_cast<double>(s.answered)),
                  static_cast<std::size_t>(s.rate(429) *
                                           static_cast<double>(s.answered)),
                  s.unanswered, s.p50, s.p99);
      outcomes.insert(outcomes.end(), wave.begin(), wave.end());
    }
  } else {
    outcomes = RunNetworkWave(args, host, port, args.qps, 1);
  }
  const Summary summary = Summarize(outcomes);
  if (args.ramp_steps == 0) PrintSummary(summary);

  // Scrape the server's own view of the run. The histogram reports the
  // upper edge of the rank bucket (<= 25% wide), so the comparison below is
  // conservative in the server's favor.
  double server_p99_ms = -1.0;
  const std::string metrics_body = FetchBody(host, port, "/metrics");
  if (metrics_body.empty()) {
    std::fprintf(stderr, "note: /metrics scrape failed\n");
  } else {
    server_p99_ms =
        ServerPercentileMs(metrics_body, "grasp_http_request_duration_seconds",
                           "class=\"2xx\"", 99.0);
    if (server_p99_ms >= 0.0) {
      std::printf("server   2xx p99  %.2f ms (from /metrics)\n",
                  server_p99_ms);
    }
  }

  // Smoke assertions: under deliberate overload the server must shed (not
  // collapse), completed latency must stay bounded, and — the drain
  // invariant — every fully-sent request must get an answer.
  int rc = 0;
  const double shed_rate = summary.rate(429);
  if (args.assert_shed_min >= 0.0 && shed_rate < args.assert_shed_min) {
    std::fprintf(stderr, "ASSERT FAILED: shed rate %.4f < %.4f\n", shed_rate,
                 args.assert_shed_min);
    rc = 1;
  }
  if (args.assert_p99_max_ms >= 0.0 && summary.p99 > args.assert_p99_max_ms) {
    std::fprintf(stderr, "ASSERT FAILED: p99 %.2f ms > %.2f ms\n", summary.p99,
                 args.assert_p99_max_ms);
    rc = 1;
  }
  if (args.assert_no_unanswered && summary.unanswered > 0) {
    std::fprintf(stderr, "ASSERT FAILED: %zu unanswered requests\n",
                 summary.unanswered);
    rc = 1;
  }
  // A 429 without a parsable retry hint is a protocol bug under the same
  // flag: the whole point of shedding is telling the client when to come
  // back. (Draining sheds are 503s, so they never trip this.)
  if (args.assert_no_unanswered && summary.hint_missing > 0) {
    std::fprintf(stderr,
                 "ASSERT FAILED: %zu 429 responses without a parsable "
                 "Retry-After/X-Retry-After-Ms hint\n",
                 summary.hint_missing);
    rc = 1;
  }
  if (args.assert_server_p99_factor >= 0.0) {
    if (server_p99_ms < 0.0) {
      if (summary.rate(200) > 0.0) {
        std::fprintf(stderr,
                     "ASSERT FAILED: no server-side 2xx latency histogram "
                     "despite 2xx responses\n");
        rc = 1;
      }
    } else {
      // The 1 ms floor keeps sub-millisecond runs (where one histogram
      // bucket dwarfs the client-side spread) from flaking the check.
      const double bound =
          args.assert_server_p99_factor * std::max(summary.p99, 1.0);
      if (server_p99_ms > bound) {
        std::fprintf(stderr,
                     "ASSERT FAILED: server p99 %.2f ms > %.2f (= %.1f x "
                     "client p99 %.2f ms)\n",
                     server_p99_ms, bound, args.assert_server_p99_factor,
                     summary.p99);
        rc = 1;
      }
    }
  }
  return rc;
}
