// Helpers of the end-to-end serving benchmark that carry its correctness
// rules: tail percentiles with failures counted as +inf, HTTP reply and
// ranking parsing, the answer digest and the run fingerprint. selftest.cc
// covers each of them; e2e.cc is the benchmark that uses them.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "net/http.h"

namespace perfbench {

// ------------------------------------------------------------ hashing --

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

/// FNV-1a 64-bit over `bytes`, continuing from `hash`.
inline std::uint64_t HashBytes(std::string_view bytes,
                               std::uint64_t hash = kFnvOffset) {
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ULL;
  }
  return hash;
}

inline std::string Hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// -------------------------------------------------------- percentiles --

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile `q` (0 < q <= 100) of `samples` plus `failures`
/// further samples at +inf: a failed or refused request misses every
/// latency limit. Returns +inf when the rank lands on a failure and NaN
/// when there is nothing to rank.
inline double PercentileWithFailures(std::vector<double> samples,
                                     std::size_t failures, double q) {
  const std::size_t n = samples.size() + failures;
  if (n == 0) return std::nan("");
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (rank > samples.size()) return kInf;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// The percentile a tail figure may claim from `n` samples: the wanted one
/// when at least ten samples lie beyond it, otherwise the highest (in
/// 0.1 steps) that still has ten beyond it, never below the median.
inline double SupportedPercentile(std::size_t n, double wanted = 99.0) {
  if (n == 0) return 50.0;
  const double limit = 100.0 * (1.0 - 10.0 / static_cast<double>(n));
  const double q = std::floor(limit * 10.0 + 1e-9) / 10.0;
  return std::clamp(std::min(q, wanted), 50.0, wanted);
}

/// A tail latency figure together with the percentile it is.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
};

inline Tail TailWithFailures(const std::vector<double>& samples,
                             std::size_t failures, double wanted = 99.0) {
  Tail tail;
  tail.percentile = SupportedPercentile(samples.size() + failures, wanted);
  tail.value = PercentileWithFailures(samples, failures, tail.percentile);
  return tail;
}

/// "p99", "p98.5": the name of a percentile as reported.
inline std::string PercentileName(double q) {
  char buf[16];
  if (std::fabs(q - std::round(q)) < 1e-9) {
    std::snprintf(buf, sizeof(buf), "p%.0f", q);
  } else {
    std::snprintf(buf, sizeof(buf), "p%.1f", q);
  }
  return buf;
}

/// Indices, ascending, of the ceil(n/2) rounds with the lowest scores: the
/// quieter half of a run on a machine whose speed drifts.
inline std::vector<std::size_t> BetterHalf(const std::vector<double>& scores) {
  std::vector<std::size_t> order(scores.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&scores](std::size_t a, std::size_t b) {
                     return scores[a] < scores[b];
                   });
  order.resize((scores.size() + 1) / 2);
  std::sort(order.begin(), order.end());
  return order;
}

// ----------------------------------------------------- wire: requests --

/// Origin-form target of one search: keywords joined with '+', every byte
/// outside [A-Za-z0-9._~-] percent-encoded.
inline std::string SearchTarget(const std::vector<std::string>& keywords,
                                std::size_t k,
                                const std::vector<std::string>& scope) {
  auto append_encoded = [](std::string* out, std::string_view text) {
    static const char kHex[] = "0123456789ABCDEF";
    for (unsigned char c : text) {
      if (std::isalnum(c) || c == '.' || c == '_' || c == '~' || c == '-') {
        out->push_back(static_cast<char>(c));
      } else {
        out->push_back('%');
        out->push_back(kHex[c >> 4]);
        out->push_back(kHex[c & 15]);
      }
    }
  };
  std::string target = "/search?q=";
  for (std::size_t i = 0; i < keywords.size(); ++i) {
    if (i > 0) target.push_back('+');
    append_encoded(&target, keywords[i]);
  }
  target += "&k=" + std::to_string(k);
  if (!scope.empty()) {
    target += "&scope=";
    for (std::size_t i = 0; i < scope.size(); ++i) {
      if (i > 0) target.push_back(',');
      append_encoded(&target, scope[i]);
    }
  }
  return target;
}

/// Full keep-alive request bytes for `target`.
inline std::string RequestBytes(std::string_view target) {
  std::string wire = "GET ";
  wire += target;
  wire += " HTTP/1.1\r\nHost: perfbench\r\n\r\n";
  return wire;
}

// ------------------------------------------------------ wire: replies --

struct HttpReply {
  int status = 0;
  bool close = false;  ///< the server announced Connection: close
  std::string body;
};

/// Parses one complete reply at the front of `buf`. Returns the bytes it
/// spans, 0 when more bytes are needed, and -1 when the bytes are not a
/// reply this server sends (status line, then headers with exactly one
/// Content-Length).
inline long ParseHttpReply(std::string_view buf, HttpReply* out) {
  const std::size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    return buf.size() > 64 * 1024 ? -1 : 0;
  }
  const std::string_view head = buf.substr(0, head_end);
  if (head.size() < 12 || head.substr(0, 7) != "HTTP/1." ||
      head[8] != ' ') {
    return -1;
  }
  int status = 0;
  for (std::size_t i = 9; i < 12; ++i) {
    if (head[i] < '0' || head[i] > '9') return -1;
    status = status * 10 + (head[i] - '0');
  }
  long content_length = -1;
  bool close = false;
  std::size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos) {
    const std::size_t start = pos + 2;
    const std::size_t next = head.find("\r\n", start);
    const std::string_view line = head.substr(
        start, next == std::string_view::npos ? std::string_view::npos
                                              : next - start);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return -1;
    std::string name(line.substr(0, colon));
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    if (name == "content-length") {
      if (content_length >= 0 || value.empty() || value.size() > 9) return -1;
      content_length = 0;
      for (char c : value) {
        if (c < '0' || c > '9') return -1;
        content_length = content_length * 10 + (c - '0');
      }
    } else if (name == "connection") {
      close = value == "close";
    }
    pos = next;
  }
  if (content_length < 0) return -1;
  const std::size_t total = head_end + 4 + static_cast<std::size_t>(content_length);
  if (buf.size() < total) return 0;
  out->status = status;
  out->close = close;
  out->body.assign(buf.substr(head_end + 4, content_length));
  return static_cast<long>(total);
}

// ----------------------------------------------------------- rankings --

/// One ranked query as the wire shows it: the cost at the response's
/// %.6f precision and the canonical query string, JSON-escaped.
struct RankEntry {
  std::string cost;
  std::string query;
  bool operator==(const RankEntry&) const = default;
};

struct Ranking {
  bool degraded = false;
  std::vector<RankEntry> entries;
  bool operator==(const Ranking&) const = default;
};

/// The ranking a correct server puts on the wire for `queries`.
inline Ranking ExpectedRanking(
    const std::vector<grasp::core::KeywordSearchEngine::RankedQuery>&
        queries) {
  Ranking ranking;
  for (const auto& q : queries) {
    RankEntry entry;
    char cost[64];
    std::snprintf(cost, sizeof(cost), "%.6f", q.cost);
    entry.cost = cost;
    grasp::net::AppendJsonEscaped(&entry.query, q.canonical);
    ranking.entries.push_back(std::move(entry));
  }
  return ranking;
}

/// Parses a 200 search body: {"status":"OK","degraded":B,...,
/// "results":[{"rank":N,"cost":C,"query":"Q"},...]}. Query strings stay
/// escaped. Returns false on anything else.
inline bool ParseRanking(std::string_view body, Ranking* out) {
  if (body.substr(0, 15) != "{\"status\":\"OK\",") return false;
  constexpr std::string_view kDegraded = "\"degraded\":";
  const std::size_t d = body.find(kDegraded);
  if (d == std::string_view::npos) return false;
  out->degraded = body.substr(d + kDegraded.size(), 4) == "true";
  constexpr std::string_view kResults = "\"results\":[";
  std::size_t pos = body.find(kResults);
  if (pos == std::string_view::npos) return false;
  pos += kResults.size();
  out->entries.clear();
  std::size_t expected_rank = 1;
  while (pos < body.size() && body[pos] != ']') {
    if (body[pos] == ',') ++pos;
    const std::string prefix =
        "{\"rank\":" + std::to_string(expected_rank) + ",\"cost\":";
    if (body.substr(pos, prefix.size()) != prefix) return false;
    pos += prefix.size();
    const std::size_t comma = body.find(',', pos);
    if (comma == std::string_view::npos) return false;
    RankEntry entry;
    entry.cost.assign(body.substr(pos, comma - pos));
    constexpr std::string_view kQuery = ",\"query\":\"";
    if (body.substr(comma, kQuery.size()) != kQuery) return false;
    pos = comma + kQuery.size();
    std::size_t end = pos;
    while (end < body.size() && body[end] != '"') {
      end += body[end] == '\\' ? 2 : 1;
    }
    if (end + 1 >= body.size() || body[end + 1] != '}') return false;
    entry.query.assign(body.substr(pos, end - pos));
    out->entries.push_back(std::move(entry));
    pos = end + 2;
    ++expected_rank;
  }
  return pos < body.size() && body.substr(pos, 3) == "]}\n";
}

/// The "total_ms" field of a 200 search body: the serving layer's own
/// time for the query, from admission to result. NaN when absent.
inline double ParseTotalMs(std::string_view body) {
  constexpr std::string_view kTotal = ",\"total_ms\":";
  const std::size_t pos = body.find(kTotal);
  if (pos == std::string_view::npos) return std::nan("");
  const std::string value(body.substr(pos + kTotal.size(), 32));
  char* end = nullptr;
  const double ms = std::strtod(value.c_str(), &end);
  return end == value.c_str() ? std::nan("") : ms;
}

/// Hash of a ranking's wire form; equal rankings hash equal.
inline std::uint64_t RankingHash(const Ranking& ranking,
                                 std::uint64_t hash = kFnvOffset) {
  hash = HashBytes(ranking.degraded ? "D" : "C", hash);
  for (const RankEntry& e : ranking.entries) {
    hash = HashBytes(e.cost, hash);
    hash = HashBytes("\t", hash);
    hash = HashBytes(e.query, hash);
    hash = HashBytes("\n", hash);
  }
  return hash;
}

/// Digest over every (request target, expected ranking) pair of a pool,
/// in pool order. A change that alters any answer changes it.
inline std::uint64_t AnswerDigest(const std::vector<std::string>& targets,
                                  const std::vector<Ranking>& rankings) {
  std::uint64_t hash = kFnvOffset;
  for (std::size_t i = 0; i < targets.size() && i < rankings.size(); ++i) {
    hash = HashBytes(targets[i], hash);
    hash = HashBytes("\n", hash);
    hash = RankingHash(rankings[i], hash);
  }
  return hash;
}

// -------------------------------------------------------- fingerprint --

/// Everything a result depends on besides the code under test. Results
/// are only comparable when their fingerprints are equal.
struct RunConfig {
  std::string workload;
  std::size_t triples = 0;
  std::size_t terms = 0;
  std::uint64_t seed = 0;
  std::size_t k = 0;
  std::size_t fast_workers = 0;
  std::size_t deep_workers = 0;
  std::size_t queue_capacity = 0;
  std::string build_type;
  std::string simd_tier;
  std::size_t nproc = 0;
};

inline std::string Fingerprint(const RunConfig& c) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "workload=%s;triples=%zu;terms=%zu;seed=%llu;k=%zu;"
                "fast=%zu;deep=%zu;queue=%zu;build=%s;simd=%s;nproc=%zu",
                c.workload.c_str(), c.triples, c.terms,
                static_cast<unsigned long long>(c.seed), c.k, c.fast_workers,
                c.deep_workers, c.queue_capacity, c.build_type.c_str(),
                c.simd_tier.c_str(), c.nproc);
  return Hex64(HashBytes(buf));
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
