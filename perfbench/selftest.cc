// Self-test of the benchmark's helpers (harness.h): percentiles with
// failures counted as +inf, HTTP reply and ranking parsing, the answer
// digest and the fingerprint. run.py runs it before every benchmark run;
// a non-zero exit stops the run.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Check(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

void TestPercentiles() {
  using perfbench::PercentileWithFailures;
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Check(PercentileWithFailures(hundred, 0, 50.0) == 50.0, "p50 of 1..100");
  Check(PercentileWithFailures(hundred, 0, 99.0) == 99.0, "p99 of 1..100");
  Check(PercentileWithFailures(hundred, 0, 100.0) == 100.0, "p100 of 1..100");
  // Two failures out of 102: p99 ranks 101st, a failure.
  Check(std::isinf(PercentileWithFailures(hundred, 2, 99.0)),
        "failures count as +inf");
  Check(PercentileWithFailures(hundred, 2, 50.0) == 51.0,
        "failures shift the median rank");
  Check(std::isinf(PercentileWithFailures({}, 3, 50.0)), "all failed");
  Check(std::isnan(PercentileWithFailures({}, 0, 50.0)), "no samples");

  Check(perfbench::SupportedPercentile(1000) == 99.0, "1000 samples: p99");
  Check(perfbench::SupportedPercentile(5000) == 99.0, "p99 is the cap");
  Check(perfbench::SupportedPercentile(700) == 98.5, "700 samples: p98.5");
  Check(perfbench::SupportedPercentile(100) == 90.0, "100 samples: p90");
  Check(perfbench::SupportedPercentile(12) == 50.0, "never below the median");
  const perfbench::Tail tail = perfbench::TailWithFailures(hundred, 0);
  Check(tail.percentile == 90.0 && tail.value == 90.0, "tail of 100 samples");
  Check(perfbench::PercentileName(99.0) == "p99", "name p99");
  Check(perfbench::PercentileName(98.5) == "p98.5", "name p98.5");

  Check(perfbench::BetterHalf({5.0, 1.0, 4.0, 2.0}) ==
            std::vector<std::size_t>({1, 3}),
        "better half of four");
  Check(perfbench::BetterHalf({3.0, 1.0, 2.0}) ==
            std::vector<std::size_t>({1, 2}),
        "better half rounds up");
  Check(perfbench::BetterHalf({perfbench::kInf, 1.0}) ==
            std::vector<std::size_t>({1}),
        "a round with failures ranks last");
}

void TestHttpReply() {
  perfbench::HttpReply reply;
  const std::string ok =
      "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
      "Content-Length: 5\r\nConnection: keep-alive\r\n\r\nhelloHTTP/1.1";
  Check(perfbench::ParseHttpReply(ok, &reply) ==
            static_cast<long>(ok.size() - 8),
        "reply length with further bytes after it");
  Check(reply.status == 200 && reply.body == "hello" && !reply.close,
        "reply fields");
  Check(perfbench::ParseHttpReply(ok.substr(0, 40), &reply) == 0,
        "incomplete head");
  Check(perfbench::ParseHttpReply(ok.substr(0, ok.size() - 10), &reply) == 0,
        "incomplete body");
  const std::string closing =
      "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\n"
      "Connection: close\r\n\r\n";
  Check(perfbench::ParseHttpReply(closing, &reply) ==
                static_cast<long>(closing.size()) &&
            reply.status == 429 && reply.close && reply.body.empty(),
        "429 with close");
  Check(perfbench::ParseHttpReply("garbage\r\n\r\n", &reply) < 0,
        "not a status line");
  Check(perfbench::ParseHttpReply("HTTP/1.1 200 OK\r\n\r\n", &reply) < 0,
        "missing Content-Length");
  Check(perfbench::ParseHttpReply(
            "HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 1\r\n"
            "\r\nx",
            &reply) < 0,
        "duplicate Content-Length");
}

void TestRanking() {
  perfbench::Ranking ranking;
  const std::string body =
      "{\"status\":\"OK\",\"degraded\":false,\"queue_ms\":0.010,"
      "\"total_ms\":1.500,\"results\":[{\"rank\":1,\"cost\":1.250000,"
      "\"query\":\"type(?x, \\\"A,B\\\")\"},{\"rank\":2,\"cost\":2.000000,"
      "\"query\":\"q2\"}]}\n";
  Check(perfbench::ParseRanking(body, &ranking), "parse ranking");
  Check(!ranking.degraded && ranking.entries.size() == 2, "ranking size");
  Check(ranking.entries.size() == 2 && ranking.entries[0].cost == "1.250000" &&
            ranking.entries[0].query == "type(?x, \\\"A,B\\\")" &&
            ranking.entries[1].query == "q2",
        "ranking entries keep escapes");
  Check(perfbench::ParseTotalMs(body) == 1.5, "server total_ms");
  Check(std::isnan(perfbench::ParseTotalMs("{\"status\":\"OK\"}")),
        "no total_ms");

  grasp::core::KeywordSearchEngine::RankedQuery q1, q2;
  q1.cost = 1.25;
  q1.canonical = "type(?x, \"A,B\")";
  q2.cost = 1.9999999;
  q2.canonical = "q2";
  Check(perfbench::ExpectedRanking({q1, q2}) == ranking,
        "expected ranking matches the wire at %.6f");

  perfbench::Ranking empty;
  Check(perfbench::ParseRanking("{\"status\":\"OK\",\"degraded\":true,"
                                "\"results\":[]}\n",
                                &empty) &&
            empty.degraded && empty.entries.empty(),
        "empty degraded ranking");
  Check(!perfbench::ParseRanking("{\"status\":\"OK\",\"results\":[]}\n",
                                 &empty),
        "missing degraded flag");
  Check(!perfbench::ParseRanking(
            "{\"status\":\"OK\",\"degraded\":false,\"results\":[{\"rank\":2,"
            "\"cost\":1.000000,\"query\":\"q\"}]}\n",
            &empty),
        "ranks must count from 1");
}

void TestDigestAndFingerprint() {
  // FNV-1a 64 reference values.
  Check(perfbench::HashBytes("") == 0xcbf29ce484222325ULL, "fnv empty");
  Check(perfbench::HashBytes("a") == 0xaf63dc4c8601ec8cULL, "fnv 'a'");
  Check(perfbench::HashBytes("bar", perfbench::HashBytes("foo")) ==
            perfbench::HashBytes("foobar"),
        "fnv continues");

  perfbench::Ranking a, b;
  a.entries = {{"1.000000", "q1"}, {"2.000000", "q2"}};
  b.entries = {{"1.000000", "q1"}, {"2.000001", "q2"}};
  const std::vector<std::string> targets = {"/search?q=x", "/search?q=y"};
  Check(perfbench::AnswerDigest(targets, {a, a}) ==
            perfbench::AnswerDigest(targets, {a, a}),
        "digest is deterministic");
  Check(perfbench::AnswerDigest(targets, {a, a}) !=
            perfbench::AnswerDigest(targets, {a, b}),
        "digest sees a cost change");
  Check(perfbench::AnswerDigest(targets, {a, b}) !=
            perfbench::AnswerDigest(targets, {b, a}),
        "digest sees order");
  Check(perfbench::RankingHash(a) != perfbench::RankingHash(b),
        "ranking hash differs");

  perfbench::RunConfig c;
  c.workload = "w";
  c.seed = 1;
  const std::string base = perfbench::Fingerprint(c);
  Check(base.size() == 16, "fingerprint is 64-bit hex");
  c.nproc = 8;
  Check(perfbench::Fingerprint(c) != base, "fingerprint sees nproc");
  c.nproc = 0;
  c.simd_tier = "avx2";
  Check(perfbench::Fingerprint(c) != base, "fingerprint sees the SIMD tier");
}

void TestWire() {
  Check(perfbench::SearchTarget({"a b", ">2000"}, 10, {}) ==
            "/search?q=a%20b+%3E2000&k=10",
        "keywords are percent-encoded");
  Check(perfbench::SearchTarget({"x"}, 5, {"worksFor"}) ==
            "/search?q=x&k=5&scope=worksFor",
        "scope parameter");
  Check(perfbench::RequestBytes("/t") ==
            "GET /t HTTP/1.1\r\nHost: perfbench\r\n\r\n",
        "request bytes");
}

}  // namespace

int main() {
  TestPercentiles();
  TestHttpReply();
  TestRanking();
  TestDigestAndFingerprint();
  TestWire();
  if (failures > 0) return 1;
  std::fprintf(stderr, "selftest passed\n");
  return 0;
}
