// End-to-end serving benchmark of the GRASP keyword-search stack.
//
// Embeds the real serving stack in-process — KeywordSearchEngine,
// serve::QueryServer with its default lanes and net::HttpServer on a
// loopback ephemeral port — and drives it over real sockets from a
// single-threaded load generator that holds at most nproc connections.
// Every reply is checked against a serial in-process Search.
//
//   perfbench_e2e --workload dblp_mix --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics over rounds of set-up, closed
// loop and open loop at the workload's fixed arrival rate. --trace 1 replays the
// workload serially through each layer's public entry point and reports
// per-layer means, then feeds the same open-loop schedule into
// QueryServer::Submit without HTTP. The last stdout line is the result
// JSON; human-readable lines go to stderr. Exits non-zero, without a
// result, when the layer replay does not reproduce Search.

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/filter_op.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/cost_model.h"
#include "core/engine.h"
#include "core/exploration.h"
#include "core/exploration_scratch.h"
#include "core/query_mapping.h"
#include "datagen/dblp_gen.h"
#include "datagen/lubm_gen.h"
#include "datagen/tap_gen.h"
#include "datagen/workload.h"
#include "harness.h"
#include "net/http.h"
#include "net/http_server.h"
#include "net/socket.h"
#include "rdf/term.h"
#include "serve/admission.h"
#include "summary/augmented_graph.h"
#include "text/thesaurus.h"

namespace {

using Clock = std::chrono::steady_clock;
using Engine = grasp::core::KeywordSearchEngine;
using grasp::net::HttpServer;
using grasp::serve::QueryServer;
using perfbench::Ranking;

constexpr std::size_t kTopK = 10;
/// Set-up samples of a traced run; setup.*_s are medians.
constexpr int kSetupReps = 5;
/// An end-to-end run is this many rounds of set-up, closed loop and open
/// loop, so every metric samples the whole run; setup_s is the median
/// over the rounds' set-ups.
constexpr int kRounds = 32;
/// Share of --seconds in the closed loop (or the serial replay when
/// traced); the open loop gets the rest.
constexpr double kFirstPhaseShare = 0.3;
/// A run is invalid when the generator's own p99 send lag exceeds this
/// share of the p99 latency it measured: the generator, not the server,
/// would then be setting the tail. Not the tighter p99_ms bound (0.25):
/// on a busy host the lag and the server's tail share a cause (the guest
/// being preempted), and a tighter share rejected runs whose tail was
/// the server's own.
constexpr double kMaxLateShare = 0.5;
/// Ceiling on |core.unattributed_ms| as a share of core.search_ms.
constexpr double kMaxUnattributedShare = 0.15;
/// The request pools and the open-loop arrival pattern are fixed; --seed
/// picks the request order.
constexpr std::uint64_t kPoolSeed = 20090329;
constexpr std::size_t kLubmPoolSize = 1024;
constexpr std::size_t kTapClasses = 48;

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Fails the run loudly, without a result line. _Exit: server threads are
/// still running and must not race static destruction.
[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fflush(stdout);
  std::_Exit(3);
}

// ------------------------------------------------- datasets and pools --

struct Dataset {
  grasp::rdf::Dictionary dictionary;
  grasp::rdf::TripleStore store;
};

struct Request {
  std::vector<std::string> keywords;
  std::vector<std::string> scope;  ///< non-empty rides the fast lane
  std::string target;
  std::string wire;
};

void MakeDblp(Dataset* d) {
  grasp::datagen::GenerateDblp(grasp::datagen::DblpOptions{}, &d->dictionary,
                               &d->store);
}

void MakeTap(Dataset* d) {
  grasp::datagen::TapOptions options;
  options.num_classes = kTapClasses;
  grasp::datagen::GenerateTap(options, &d->dictionary, &d->store);
}

void MakeLubm(Dataset* d) {
  grasp::datagen::GenerateLubm(grasp::datagen::LubmOptions{}, &d->dictionary,
                               &d->store);
}

using PoolEntry = std::pair<std::vector<std::string>, std::vector<std::string>>;

// Fig. 5 Q1-Q10 plus the 30 Fig. 4 queries: the paper's own traffic.
std::vector<PoolEntry> DblpPool() {
  std::vector<PoolEntry> pool;
  for (const auto& q : grasp::datagen::DblpPerformanceWorkload()) {
    pool.push_back({q.keywords, {}});
  }
  for (const auto& q : grasp::datagen::DblpEffectivenessWorkload()) {
    pool.push_back({q.keywords, {}});
  }
  return pool;
}

// TAP "<domain> <concept> <instance digit>" type+name queries, the shape of
// Fig. 4's T3/T5/T7/T9. Their concepts (Award, Person, Museum) only exist
// beyond 48 classes, so the same shape runs over concepts that do.
std::vector<PoolEntry> TapPool() {
  const char* const kTemplates[][2] = {{"science", "team"},
                                       {"politics", "player"},
                                       {"art", "venue"},
                                       {"history", "event"}};
  std::vector<PoolEntry> pool;
  for (const auto& t : kTemplates) {
    for (int digit = 0; digit < 4; ++digit) {
      pool.push_back({{t[0], t[1], std::to_string(digit)}, {}});
    }
  }
  return pool;
}

// LUBM 2-keyword pairs: an entity-name token and an area or class word;
// every second pair is scoped to one predicate (fast lane). The pool is
// larger than the augmentation cache holds, so most requests miss it.
std::vector<PoolEntry> LubmPool() {
  const char* const kEntities[] = {"professor", "student", "publication",
                                   "course", "university"};
  const std::uint64_t kEntityIds[] = {1000, 1000, 600, 240, 5};
  const char* const kWords[] = {
      "databases", "networks",  "theory",         "graphics",
      "security",  "robotics",  "systems",        "compilers",
      "bioinformatics", "visualization", "department", "university",
      "course",    "professor", "student",        "publication",
      "research",  "group"};
  const char* const kPredicates[] = {
      "worksFor",  "memberOf",          "takesCourse",      "teacherOf",
      "advisor",   "publicationAuthor", "researchInterest", "name",
      "subOrganizationOf", "degreeFrom", "emailAddress",    "headOf"};
  grasp::Rng rng(kPoolSeed);
  std::vector<PoolEntry> pool;
  while (pool.size() < kLubmPoolSize) {
    const std::size_t e = rng.NextBelow(std::size(kEntities));
    std::vector<std::string> keywords = {
        kEntities[e] + std::to_string(rng.NextBelow(kEntityIds[e])),
        kWords[rng.NextBelow(std::size(kWords))]};
    std::vector<std::string> scope;
    if (pool.size() % 2 == 1) {
      scope.push_back(kPredicates[rng.NextBelow(std::size(kPredicates))]);
    }
    pool.push_back({std::move(keywords), std::move(scope)});
  }
  return pool;
}

struct Workload {
  const char* name;
  void (*make_dataset)(Dataset*);
  std::vector<PoolEntry> (*make_pool)();
  /// Open-loop arrival rate, picked once at about half the seed's sat_qps.
  /// lubm_scoped runs at about a quarter: at half, its generator lag broke
  /// validity and its tail spread past the p99_ms bound.
  double open_rate_qps;
  /// AnswerDigest of the pool's expected rankings.
  std::uint64_t answer_digest;
};

// Every workload uses keep-alive connections. A fresh connection per
// request (Connection: close) made lubm_scoped's tail follow the host's
// stolen time rather than the server: its p99 spread across seeds was
// 0.3-1.9 of the median, past any usable bound.
const Workload kWorkloads[] = {
    {"dblp_mix", MakeDblp, DblpPool, 350.0, 0xcd46b405a7790358},
    {"tap_deep", MakeTap, TapPool, 45.0, 0x749d9d845e5ceb08},
    {"lubm_scoped", MakeLubm, LubmPool, 400.0, 0xcbf929c013c7ee0f},
};

std::vector<Request> BuildRequests(const std::vector<PoolEntry>& pool) {
  std::vector<Request> requests;
  for (const auto& [keywords, scope] : pool) {
    Request r;
    r.keywords = keywords;
    r.scope = scope;
    r.target = perfbench::SearchTarget(keywords, kTopK, scope);
    r.wire = perfbench::RequestBytes(r.target);
    requests.push_back(std::move(r));
  }
  return requests;
}

/// Seeded request order: back-to-back shuffles of the pool, so every run
/// sends the same mix whatever the seed.
std::vector<std::uint32_t> Sequence(std::uint64_t seed, std::size_t pool_size,
                                    std::size_t length) {
  grasp::Rng rng(seed);
  std::vector<std::uint32_t> block(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) {
    block[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<std::uint32_t> out;
  out.reserve(length + pool_size);
  while (out.size() < length) {
    rng.Shuffle(&block);
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(length);
  return out;
}

/// `count` Poisson arrivals in [0, seconds), the first at 0: exponential
/// gaps scaled so that a further arrival would land exactly at `seconds`.
std::vector<double> Arrivals(std::uint64_t seed, std::size_t count,
                             double seconds) {
  grasp::Rng rng(seed);
  std::vector<double> offsets;
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    offsets.push_back(t);
    t += -std::log(1.0 - rng.NextDouble());
  }
  for (double& offset : offsets) offset *= seconds / t;
  return offsets;
}

// ------------------------------------------------------ load generator --

/// Single-threaded HTTP/1.1 client over at most `max_connections` sockets.
/// Connections are kept alive, and a request goes out only on one with
/// nothing in flight. Every reply is checked against the expected ranking
/// of its pool entry.
class LoadClient {
 public:
  struct Outcome {
    std::uint32_t entry = 0;
    Clock::time_point scheduled;
    Clock::time_point sent;
    Clock::time_point done;
    bool ok = false;
  };
  struct Failures {
    std::size_t status = 0;      ///< non-200
    std::size_t degraded = 0;    ///< 200 carrying a verified prefix only
    std::size_t mismatch = 0;    ///< ranking differs from the serial Search
    std::size_t connection = 0;  ///< connect/IO error or lost reply
  };

  LoadClient(std::uint16_t port, std::size_t max_connections,
             const std::vector<Request>& pool,
             const std::vector<Ranking>* expected)
      : port_(port),
        pool_(pool),
        expected_(expected),
        conns_(max_connections) {}

  /// Sends pool entry `entry`, due at `scheduled`. Returns false when no
  /// connection slot is free now.
  bool TrySend(std::uint32_t entry, Clock::time_point scheduled) {
    CheckThread();
    Conn* pick = nullptr;
    for (Conn& c : conns_) {
      if (c.pending.empty() && !c.closing) {
        pick = &c;
        break;
      }
    }
    if (pick == nullptr) return false;
    Outcome o;
    o.entry = entry;
    o.scheduled = scheduled;
    o.sent = Clock::now();
    outcomes_.push_back(o);
    const std::size_t id = outcomes_.size() - 1;
    ++outstanding_;
    if (!pick->fd.valid() && !Open(pick)) {
      Finish(id, nullptr, Clock::now());
      return true;
    }
    pick->out += pool_[entry].wire;
    pick->pending.push_back(id);
    Flush(pick);
    return true;
  }

  /// Waits for socket events until `deadline`, handling replies; returns
  /// the number of replies completed.
  std::size_t Pump(Clock::time_point deadline) {
    CheckThread();
    std::vector<pollfd> fds;
    std::vector<Conn*> owners;
    for (Conn& c : conns_) {
      if (!c.fd.valid()) continue;
      short events = POLLIN;
      if (c.out_off < c.out.size()) events |= POLLOUT;
      fds.push_back(pollfd{c.fd.get(), events, 0});
      owners.push_back(&c);
    }
    const auto now = Clock::now();
    if (fds.empty()) {
      if (deadline > now) std::this_thread::sleep_until(deadline);
      return 0;
    }
    const auto wait = std::max(Clock::duration::zero(), deadline - now);
    const auto secs = std::chrono::duration_cast<std::chrono::seconds>(wait);
    timespec ts{static_cast<time_t>(secs.count()),
                static_cast<long>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        wait - secs)
                        .count())};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) return 0;
    const std::size_t before = completed_;
    const auto at = Clock::now();
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents & POLLOUT) Flush(owners[i]);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) Read(owners[i], at);
    }
    return completed_ - before;
  }

  /// Fails whatever is still awaiting a reply and closes every socket.
  void Abandon() {
    for (Conn& c : conns_) Close(&c, Clock::now());
  }

  std::size_t outstanding() const { return outstanding_; }
  const std::vector<Outcome>& outcomes() const { return outcomes_; }
  const Failures& failures() const { return failures_; }
  std::size_t last_body_bytes() const { return last_body_bytes_; }
  /// The serving layer's own time (the body's total_ms) of the last
  /// correct reply.
  double last_server_ms() const { return last_server_ms_; }
  /// Connections ever open at once; never above the slot count.
  std::size_t peak_connections() const { return peak_connections_; }

 private:
  struct Conn {
    grasp::net::OwnedFd fd;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::deque<std::size_t> pending;
    bool closing = false;  ///< server announced close; waiting for its FIN
  };

  void CheckThread() const {
    if (std::this_thread::get_id() != owner_) {
      Die("load generator used from a second thread");
    }
  }

  bool Open(Conn* c) {
    auto fd = grasp::net::ConnectTcp("127.0.0.1", port_);
    if (!fd.ok() || !grasp::net::SetNonBlocking(fd.value().get()).ok()) {
      return false;
    }
    c->fd = std::move(fd).value();
    c->out.clear();
    c->out_off = 0;
    c->in.clear();
    c->closing = false;
    ++open_connections_;
    if (open_connections_ > conns_.size()) {
      Die("load generator exceeded its connection limit");
    }
    peak_connections_ = std::max(peak_connections_, open_connections_);
    return true;
  }

  void Close(Conn* c, Clock::time_point now) {
    while (!c->pending.empty()) {
      Finish(c->pending.front(), nullptr, now);
      c->pending.pop_front();
    }
    if (c->fd.valid()) {
      c->fd.Reset();
      --open_connections_;
    }
    c->closing = false;
  }

  void Flush(Conn* c) {
    while (c->out_off < c->out.size()) {
      const ssize_t n =
          ::send(c->fd.get(), c->out.data() + c->out_off,
                 c->out.size() - c->out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c->out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else {
        Close(c, Clock::now());
        return;
      }
    }
    c->out.clear();
    c->out_off = 0;
  }

  void Read(Conn* c, Clock::time_point now) {
    char buf[64 * 1024];
    bool eof = false;
    for (;;) {
      const ssize_t n = ::recv(c->fd.get(), buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        c->in.append(buf, static_cast<std::size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        eof = true;
        break;
      }
    }
    while (!c->pending.empty()) {
      perfbench::HttpReply reply;
      const long used = perfbench::ParseHttpReply(c->in, &reply);
      if (used == 0) break;
      if (used < 0) {
        Close(c, now);
        return;
      }
      c->in.erase(0, static_cast<std::size_t>(used));
      Finish(c->pending.front(), &reply, now);
      c->pending.pop_front();
      if (reply.close) c->closing = true;
    }
    if (eof) Close(c, now);
  }

  void Finish(std::size_t id, const perfbench::HttpReply* reply,
              Clock::time_point now) {
    Outcome& o = outcomes_[id];
    o.done = now;
    --outstanding_;
    ++completed_;
    if (reply == nullptr) {
      ++failures_.connection;
      return;
    }
    if (reply->status != 200) {
      ++failures_.status;
      return;
    }
    Ranking ranking;
    if (!perfbench::ParseRanking(reply->body, &ranking)) {
      ++failures_.mismatch;
      return;
    }
    if (ranking.degraded) {
      ++failures_.degraded;
      return;
    }
    if (expected_ != nullptr && ranking != (*expected_)[o.entry]) {
      ++failures_.mismatch;
      return;
    }
    o.ok = true;
    last_body_bytes_ = reply->body.size();
    last_server_ms_ = perfbench::ParseTotalMs(reply->body);
  }

  const std::uint16_t port_;
  const std::vector<Request>& pool_;
  const std::vector<Ranking>* expected_;
  const std::thread::id owner_ = std::this_thread::get_id();
  std::vector<Conn> conns_;
  std::vector<Outcome> outcomes_;
  Failures failures_;
  std::size_t outstanding_ = 0;
  std::size_t completed_ = 0;
  std::size_t open_connections_ = 0;
  std::size_t peak_connections_ = 0;
  std::size_t last_body_bytes_ = 0;
  double last_server_ms_ = 0.0;
};

/// Waits until `client` has no reply outstanding (failing stragglers after
/// 30 s), so the next chunk starts from an idle server.
void Drain(LoadClient* client) {
  const auto limit = Clock::now() + std::chrono::seconds(30);
  while (client->outstanding() > 0 && Clock::now() < limit) {
    client->Pump(limit);
  }
  if (client->outstanding() > 0) client->Abandon();
}

/// Sends one request alone and waits for its reply.
const LoadClient::Outcome& RoundTrip(LoadClient* client, std::uint32_t entry) {
  // A connection the server is closing frees once its FIN is read.
  while (!client->TrySend(entry, Clock::now())) {
    client->Pump(Clock::now() + std::chrono::milliseconds(1));
  }
  Drain(client);
  return client->outcomes().back();
}

// --------------------------------------------------------- the stack --

/// One embedded serving stack: engine -> QueryServer -> HttpServer, wired
/// to one metrics registry as the serving daemon wires them.
struct Stack {
  std::unique_ptr<grasp::metrics::Registry> registry;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<QueryServer> query_server;
  std::unique_ptr<HttpServer> http;  ///< declared last: stops first
  double build_s = 0.0;              ///< engine constructor
  double start_s = 0.0;              ///< HttpServer::Start -> first 200
};

QueryServer::Options ServeOptions(grasp::metrics::Registry* registry) {
  QueryServer::Options options;  // the default lanes: 1 fast + 2 deep
  options.metrics = registry;
  return options;
}

std::unique_ptr<Engine> MakeEngine(const Dataset& d,
                                   grasp::metrics::Registry* registry) {
  Engine::Options options;
  options.metrics = registry;
  return std::make_unique<Engine>(d.store, d.dictionary, options);
}

/// Builds a stack from the generated store and times it until its first
/// 200 over HTTP, for pool entry 0.
std::unique_ptr<Stack> StartStack(const Dataset& d,
                                  const std::vector<Request>& pool) {
  auto stack = std::make_unique<Stack>();
  stack->registry = std::make_unique<grasp::metrics::Registry>();
  const auto t0 = Clock::now();
  stack->engine = MakeEngine(d, stack->registry.get());
  const auto t1 = Clock::now();
  stack->query_server = std::make_unique<QueryServer>(
      *stack->engine, ServeOptions(stack->registry.get()));
  HttpServer::Options http_options;
  http_options.metrics = stack->registry.get();
  stack->http =
      std::make_unique<HttpServer>(stack->query_server.get(), http_options);
  const grasp::Status status = stack->http->Start();
  if (!status.ok()) Die("cannot start HTTP server: " + status.ToString());
  LoadClient client(stack->http->port(), 1, pool, nullptr);
  if (!RoundTrip(&client, 0).ok) Die("first request did not return 200");
  const auto t2 = Clock::now();
  stack->build_s = std::chrono::duration<double>(t1 - t0).count();
  stack->start_s = std::chrono::duration<double>(t2 - t1).count();
  return stack;
}

Ranking SearchRanking(const Engine& engine, const Request& r,
                      Engine::SearchResult* out = nullptr) {
  Engine::SearchResult result = engine.Search(
      r.keywords, kTopK, engine.options().exploration, r.scope);
  Ranking ranking = perfbench::ExpectedRanking(result.queries);
  ranking.degraded = result.degraded;
  if (out != nullptr) *out = std::move(result);
  return ranking;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::size_t ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<std::size_t>(std::atol(line.c_str() + 8));
    }
  }
  return 0;
}

/// True when the process runs exactly `expected` threads. A thread just
/// joined may linger in the count for a moment, so this rechecks briefly.
bool ThreadCountIs(std::size_t expected) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    if (ProcessThreads() == expected) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------ layer replay --

/// The engine's Search pipeline re-run step by step through each layer's
/// public entry point (KeywordIndex::Lookup, AugmentedGraph::Rebuild,
/// SubgraphExplorer::FindTopK, MapToQuery), timing each step. It must
/// reproduce Search's pop count and ranking; the caller checks.
class LayerReplay {
 public:
  struct Result {
    double lookup_ms = 0.0;
    double augment_ms = 0.0;
    double explore_ms = 0.0;
    double map_ms = 0.0;
    std::size_t matches = 0;
    grasp::core::ExplorationStats stats;
    std::vector<std::pair<double, std::string>> ranking;  ///< cost, canonical
  };

  explicit LayerReplay(const Engine& engine)
      : engine_(engine),
        thesaurus_(grasp::text::Thesaurus::BuiltIn()),
        shell_(grasp::summary::AugmentedGraph::MakeOverlayShell(
            engine.summary_graph())) {}

  Result Run(const Request& request) {
    namespace core = grasp::core;
    using grasp::keyword::KeywordMatch;
    const Scope* scope =
        request.scope.empty() ? nullptr : &ResolveScope(request.scope);
    Result out;

    // Keyword lookup, coverage boost and per-keyword truncation.
    auto t = Clock::now();
    grasp::text::InvertedIndex::SearchOptions search_options =
        engine_.options().keyword_search;
    search_options.thesaurus =
        engine_.options().use_thesaurus ? &thesaurus_ : nullptr;
    search_options.max_results = 0;
    std::vector<std::vector<KeywordMatch>> matches;
    for (const std::string& kw : request.keywords) {
      if (const auto filter = grasp::ParseFilterKeyword(kw)) {
        const auto match = engine_.keyword_index().LookupFilter(*filter);
        matches.push_back(match.has_value() ? std::vector<KeywordMatch>{*match}
                                            : std::vector<KeywordMatch>{});
      } else {
        matches.push_back(engine_.keyword_index().Lookup(kw, search_options));
      }
    }
    if (request.keywords.size() > 1) {
      std::map<std::pair<int, grasp::rdf::TermId>, int> hits;
      for (const auto& list : matches) {
        for (const KeywordMatch& m : list) {
          ++hits[{static_cast<int>(m.kind), m.term}];
        }
      }
      for (auto& list : matches) {
        for (KeywordMatch& m : list) {
          const int h = hits[{static_cast<int>(m.kind), m.term}];
          if (h > 1) {
            m.score = std::min(1.0, m.score * std::sqrt(static_cast<double>(h)));
          }
        }
        std::stable_sort(list.begin(), list.end(),
                         [&hits](const KeywordMatch& a, const KeywordMatch& b) {
                           const int ha = hits[{static_cast<int>(a.kind), a.term}];
                           const int hb = hits[{static_cast<int>(b.kind), b.term}];
                           if (ha != hb) return ha > hb;
                           return a.score > b.score;
                         });
      }
    }
    for (auto& list : matches) {
      if (list.size() > engine_.options().max_matches_per_keyword) {
        list.resize(engine_.options().max_matches_per_keyword);
      }
      out.matches += list.size();
    }
    auto t_next = Clock::now();
    out.lookup_ms = MillisBetween(t, t_next);

    // Augmentation into a reused overlay shell, plus the scope's overlay
    // bits.
    t = t_next;
    shell_.Rebuild(matches);
    std::optional<grasp::graph::OverlayEdgeFilter> view;
    if (scope != nullptr) view.emplace(shell_.ScopedFilter(&scope->mask, scope->terms));
    t_next = Clock::now();
    out.augment_ms = MillisBetween(t, t_next);

    // Top-k exploration with the engine's overfetch.
    t = t_next;
    core::ExplorationOptions explore = engine_.options().exploration;
    if (view.has_value()) explore.edge_filter = &*view;
    explore.k = std::max<std::size_t>(
        kTopK, static_cast<std::size_t>(
                   std::ceil(static_cast<double>(kTopK) *
                             engine_.options().subgraph_overfetch)));
    std::vector<core::MatchingSubgraph> subgraphs;
    {
      core::SubgraphExplorer explorer(shell_, explore, &scratch_);
      subgraphs = explorer.FindTopK();
      out.stats = explorer.stats();
    }
    t_next = Clock::now();
    out.explore_ms = MillisBetween(t, t_next);

    // Query mapping, canonical dedup and the final tie-broken sort.
    t = t_next;
    core::QueryMappingContext context;
    context.type_term = engine_.data_graph().type_term();
    const core::CostFunction popularity(core::CostModel::kPopularity, shell_);
    struct Mapped {
      double cost;
      double structure_cost;
      std::size_t constants;
      std::string canonical;
    };
    auto make = [&popularity](const grasp::query::ConjunctiveQuery& q,
                              std::string canonical,
                              const core::MatchingSubgraph& sg) {
      Mapped m{sg.cost, 0.0, 0, std::move(canonical)};
      for (auto n : sg.nodes) {
        m.structure_cost +=
            popularity.ElementCost(grasp::summary::ElementId::Node(n));
      }
      for (auto e : sg.edges) {
        m.structure_cost +=
            popularity.ElementCost(grasp::summary::ElementId::Edge(e));
      }
      for (const auto& atom : q.atoms()) {
        m.constants += !atom.subject.is_variable;
        m.constants += !atom.object.is_variable;
      }
      return m;
    };
    std::vector<Mapped> ranked;
    std::map<std::string, std::size_t> seen;
    for (const core::MatchingSubgraph& sg : subgraphs) {
      grasp::query::ConjunctiveQuery q = core::MapToQuery(shell_, sg, context);
      if (q.empty()) continue;
      std::string canonical = q.CanonicalString();
      const auto it = seen.find(canonical);
      if (it != seen.end()) {
        if (q.cost() < ranked[it->second].cost) {
          ranked[it->second] = make(q, std::move(canonical), sg);
        }
        continue;
      }
      seen.emplace(canonical, ranked.size());
      ranked.push_back(make(q, std::move(canonical), sg));
    }
    std::sort(ranked.begin(), ranked.end(), [](const Mapped& a, const Mapped& b) {
      if (a.cost != b.cost) return a.cost < b.cost;
      if (a.structure_cost != b.structure_cost) {
        return a.structure_cost < b.structure_cost;
      }
      if (a.constants != b.constants) return a.constants < b.constants;
      return a.canonical < b.canonical;
    });
    if (ranked.size() > kTopK) ranked.resize(kTopK);
    out.map_ms = MillisBetween(t, Clock::now());
    for (Mapped& m : ranked) out.ranking.emplace_back(m.cost, std::move(m.canonical));
    return out;
  }

 private:
  struct Scope {
    std::vector<grasp::rdf::TermId> terms;
    grasp::graph::EdgeFilter mask;
  };

  /// Resolves a predicate scope as the engine does (exact IRI, else IRI
  /// local name) and caches it, as the engine's scope cache does.
  const Scope& ResolveScope(const std::vector<std::string>& strings) {
    auto it = scopes_.find(strings);
    if (it != scopes_.end()) return it->second;
    const grasp::rdf::Dictionary& dict = engine_.dictionary();
    Scope scope;
    std::set<std::string_view> unresolved;
    for (const std::string& s : strings) {
      const auto id = dict.Find(grasp::rdf::TermKind::kIri, s);
      if (id != grasp::rdf::kInvalidTermId) {
        scope.terms.push_back(id);
      } else {
        unresolved.insert(s);
      }
    }
    if (!unresolved.empty()) {
      for (grasp::rdf::TermId t = 0; t < dict.size(); ++t) {
        if (dict.kind(t) == grasp::rdf::TermKind::kIri &&
            unresolved.count(grasp::rdf::IriLocalName(dict.text(t))) > 0) {
          scope.terms.push_back(t);
        }
      }
    }
    std::sort(scope.terms.begin(), scope.terms.end());
    scope.terms.erase(std::unique(scope.terms.begin(), scope.terms.end()),
                      scope.terms.end());
    scope.mask = engine_.summary_graph().PredicateScopeFilter(scope.terms);
    return scopes_.emplace(strings, std::move(scope)).first->second;
  }

  const Engine& engine_;
  grasp::text::Thesaurus thesaurus_;
  grasp::summary::AugmentedGraph shell_;
  grasp::core::ExplorationScratch scratch_;
  std::map<std::vector<std::string>, Scope> scopes_;
};

// ------------------------------------------------------------ output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultJson(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 1e9;
    std::snprintf(value, sizeof(value), "%.10g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  return json;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

// ------------------------------------------------------------ phases --

struct Schedule {
  std::vector<std::uint32_t> entries;
  std::vector<double> offsets_s;
  std::size_t per_round = 0;
};

/// The open loop: one fixed Poisson arrival pattern per round, repeated
/// back to back, the same for every seed, so any subset of rounds offers
/// the same bursts; --seed picks which request goes out at each arrival.
Schedule OpenLoopSchedule(const Workload& w, std::uint64_t seed,
                          std::size_t pool_size, double round_seconds) {
  Schedule schedule;
  schedule.per_round = static_cast<std::size_t>(
      std::max(1.0, std::round(w.open_rate_qps * round_seconds)));
  const std::vector<double> pattern =
      Arrivals(kPoolSeed, schedule.per_round, round_seconds);
  schedule.entries =
      Sequence(seed * 4 + 2, pool_size, schedule.per_round * kRounds);
  for (int round = 0; round < kRounds; ++round) {
    for (double t : pattern) {
      schedule.offsets_s.push_back(round * round_seconds + t);
    }
  }
  return schedule;
}

struct OpenLoopResult {
  std::vector<double> latency_ms;  ///< successful requests only
  std::size_t failed = 0;
  std::size_t attempted = 0;
  std::vector<double> late_ms;
};

/// Sends schedule arrivals [begin, end) on their due times, the first one
/// 5 ms from now, and appends their outcomes to `result`. When every
/// connection is busy an arrival waits for a free one; its latency, timed
/// from when it was due, includes that wait.
void HttpOpenLoop(LoadClient* client, const Schedule& schedule,
                  std::size_t begin, std::size_t end, OpenLoopResult* result) {
  if (begin >= end) return;
  const std::size_t first = client->outcomes().size();
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  auto free_at = start;  // when the previous arrival got its connection
  for (std::size_t i = begin; i < end; ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     schedule.offsets_s[i] -
                                     schedule.offsets_s[begin]));
    while (Clock::now() < due) client->Pump(due);
    // The generator's own lag, counted from when this arrival could first
    // go out: waiting for a free connection is the server's back-pressure.
    result->late_ms.push_back(
        MillisBetween(std::max(due, free_at), Clock::now()));
    while (!client->TrySend(schedule.entries[i], due)) {
      client->Pump(Clock::now() + std::chrono::milliseconds(1));
    }
    free_at = Clock::now();
  }
  Drain(client);
  for (std::size_t i = first; i < client->outcomes().size(); ++i) {
    const LoadClient::Outcome& o = client->outcomes()[i];
    ++result->attempted;
    if (o.ok) {
      result->latency_ms.push_back(MillisBetween(o.scheduled, o.done));
    } else {
      ++result->failed;
    }
  }
}

struct ClosedLoopResult {
  double seconds = 0.0;
  std::size_t completed_in_window = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t next = 0;  ///< position in the request sequence
  double qps() const {
    return seconds > 0 ? static_cast<double>(completed_in_window) / seconds
                       : 0.0;
  }
};

/// Keeps `connections` requests in flight for `seconds`, each connection
/// sending its next request when its reply arrives; appends to `result`.
void HttpClosedLoop(LoadClient* client, std::size_t connections,
                    const std::vector<std::uint32_t>& sequence, double seconds,
                    ClosedLoopResult* result) {
  const std::size_t first = client->outcomes().size();
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    while (client->outstanding() < connections &&
           client->TrySend(sequence[result->next % sequence.size()],
                           Clock::now())) {
      ++result->next;
    }
    client->Pump(end);
  }
  Drain(client);
  result->seconds += seconds;
  for (std::size_t i = first; i < client->outcomes().size(); ++i) {
    const LoadClient::Outcome& o = client->outcomes()[i];
    ++result->attempted;
    if (!o.ok) ++result->failed;
    if (o.ok && o.done <= end) ++result->completed_in_window;
  }
}

/// The open-loop schedule fed straight into QueryServer::Submit (no HTTP).
struct SubmitLoopResult {
  std::vector<double> latency_ms;
  std::size_t failed = 0;
  std::size_t shed = 0;
  std::size_t attempted = 0;
  std::vector<double> late_ms;
};

SubmitLoopResult SubmitOpenLoop(QueryServer* server,
                                const std::vector<Request>& pool,
                                const std::vector<std::uint64_t>& expected_hash,
                                const Schedule& schedule) {
  struct Slot {
    Clock::time_point done;
    bool ok = false;
    bool shed = false;
  };
  const std::size_t n = schedule.entries.size();
  std::vector<Slot> slots(n);
  std::vector<Clock::time_point> due(n), sent(n);
  std::atomic<std::size_t> finished{0};
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(schedule.offsets_s[i]));
    std::this_thread::sleep_until(due[i]);
    const Request& r = pool[schedule.entries[i]];
    QueryServer::Request request;
    request.query.keywords = r.keywords;
    request.query.k = kTopK;
    request.query.predicate_scope = r.scope;
    const std::uint64_t want = expected_hash[schedule.entries[i]];
    sent[i] = Clock::now();
    server->SubmitAsync(std::move(request), [&slots, &finished, i,
                                             want](QueryServer::Response resp) {
      Slot& slot = slots[i];
      slot.done = Clock::now();
      slot.shed = resp.status.code() == grasp::StatusCode::kOverloaded;
      if (resp.status.ok() && !resp.degraded) {
        slot.ok = perfbench::RankingHash(
                      perfbench::ExpectedRanking(resp.result.queries)) == want;
      }
      finished.fetch_add(1, std::memory_order_release);
    });
  }
  const auto limit = Clock::now() + std::chrono::seconds(60);
  while (finished.load(std::memory_order_acquire) < n) {
    if (Clock::now() > limit) Die("Submit open loop did not complete");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  SubmitLoopResult r;
  for (std::size_t i = 0; i < n; ++i) {
    ++r.attempted;
    r.late_ms.push_back(MillisBetween(due[i], sent[i]));
    r.shed += slots[i].shed;
    if (slots[i].ok) {
      r.latency_ms.push_back(MillisBetween(due[i], slots[i].done));
    } else {
      ++r.failed;
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  grasp::net::IgnoreSigpipe();
  const std::size_t nproc =
      std::max(1u, std::thread::hardware_concurrency());

  Dataset dataset;
  w.make_dataset(&dataset);
  dataset.store.Finalize();
  const std::vector<Request> pool = BuildRequests(w.make_pool());
  std::vector<std::string> targets;
  for (const Request& r : pool) targets.push_back(r.target);

  // Set-up: engine constructor -> first 200 over HTTP. More samples are
  // taken later from throw-away stacks.
  std::unique_ptr<Stack> stack = StartStack(dataset, pool);
  std::vector<double> build_s = {stack->build_s};
  std::vector<double> start_s = {stack->start_s};
  auto sample_setup = [&] {
    const std::unique_ptr<Stack> extra = StartStack(dataset, pool);
    build_s.push_back(extra->build_s);
    start_s.push_back(extra->start_s);
  };

  // Expected answers from a serial in-process Search, then the digest.
  std::vector<Ranking> expected;
  std::vector<std::uint64_t> expected_hash;
  for (const Request& r : pool) {
    expected.push_back(SearchRanking(*stack->engine, r));
    expected_hash.push_back(perfbench::RankingHash(expected.back()));
  }
  bool correct = true;
  const std::uint64_t digest = perfbench::AnswerDigest(targets, expected);
  std::fprintf(stderr, "answer digest %s (committed %s)\n",
               perfbench::Hex64(digest).c_str(),
               perfbench::Hex64(w.answer_digest).c_str());
  if (digest != w.answer_digest) {
    std::fprintf(stderr, "ANSWER DIGEST MISMATCH: the rankings changed\n");
    correct = false;
  }

  const QueryServer::Options serve_defaults = ServeOptions(nullptr);
  perfbench::RunConfig config;
  config.workload = w.name;
  config.triples = dataset.store.size();
  config.terms = dataset.dictionary.size();
  config.seed = args.seed;
  config.k = kTopK;
  config.fast_workers = serve_defaults.fast_workers;
  config.deep_workers = serve_defaults.deep_workers;
  config.queue_capacity = serve_defaults.queue_capacity;
  config.build_type = PERFBENCH_BUILD_TYPE;
  config.simd_tier = stack->engine->index_stats().simd_kernel_level;
  config.nproc = nproc;
  const std::string fingerprint = perfbench::Fingerprint(config);
  std::fprintf(stderr,
               "fingerprint %s: workload=%s triples=%zu terms=%zu seed=%llu "
               "k=%zu lanes=%zu+%zu queue=%zu build=%s simd=%s nproc=%zu\n",
               fingerprint.c_str(), config.workload.c_str(), config.triples,
               config.terms, static_cast<unsigned long long>(config.seed),
               config.k, config.fast_workers, config.deep_workers,
               config.queue_capacity, config.build_type.c_str(),
               config.simd_tier.c_str(), config.nproc);

  const double first_phase_s = args.seconds * kFirstPhaseShare;
  const Schedule schedule = OpenLoopSchedule(
      w, args.seed, pool.size(), (args.seconds - first_phase_s) / kRounds);
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  if (!args.trace) {
    const std::size_t expected_threads =
        2 + serve_defaults.fast_workers + serve_defaults.deep_workers;
    LoadClient client(stack->http->port(), nproc, pool, &expected);
    const std::vector<std::uint32_t> closed_sequence =
        Sequence(args.seed * 4 + 1, pool.size(), 1 << 16);
    const double round_s = args.seconds / kRounds;
    std::vector<ClosedLoopResult> closed(kRounds);
    std::vector<OpenLoopResult> open(kRounds);
    std::size_t thread_checks_failed = 0;
    for (int round = 0; round < kRounds; ++round) {
      sample_setup();
      if (!ThreadCountIs(expected_threads)) ++thread_checks_failed;
      if (round > 0) closed[round].next = closed[round - 1].next;
      HttpClosedLoop(&client, nproc, closed_sequence,
                     round_s * kFirstPhaseShare, &closed[round]);
      const std::size_t begin = round * schedule.per_round;
      HttpOpenLoop(&client, schedule, begin, begin + schedule.per_round,
                   &open[round]);
    }

    // Each load metric comes from the quieter half of the rounds, judged
    // by what disturbs it: sat_qps from the closed-loop chunks that ran
    // fastest, the latencies from the open-loop chunks in which the
    // generator itself was held up least (a stall of the guest shows there
    // as late sends). Failures of every round count as +inf.
    std::vector<double> round_qps, round_lag, latency, late_ms, setup_s;
    std::size_t open_failed = 0;
    for (int round = 0; round < kRounds; ++round) {
      round_qps.push_back(closed[round].qps());
      round_lag.push_back(
          perfbench::PercentileWithFailures(open[round].late_ms, 0, 100.0));
      open_failed += open[round].failed;
      attempted += closed[round].attempted + open[round].attempted;
      failed += closed[round].failed + open[round].failed;
      std::fprintf(stderr,
                   "round %2d: set-up %.4f s, closed %.1f req/s, open p50 "
                   "%.3f ms over %zu, generator late max %.3f ms\n",
                   round, build_s[round + 1] + start_s[round + 1],
                   round_qps.back(),
                   perfbench::PercentileWithFailures(
                       open[round].latency_ms, open[round].failed, 50.0),
                   open[round].attempted, round_lag.back());
    }
    for (std::size_t i = 0; i < build_s.size(); ++i) {
      setup_s.push_back(build_s[i] + start_s[i]);
    }
    std::vector<double> negated_qps;
    for (double q : round_qps) negated_qps.push_back(-q);
    double sat_qps = 0.0;
    const std::vector<std::size_t> fast_rounds =
        perfbench::BetterHalf(negated_qps);
    for (std::size_t round : fast_rounds) {
      sat_qps += round_qps[round] / static_cast<double>(fast_rounds.size());
    }
    for (std::size_t round : perfbench::BetterHalf(round_lag)) {
      latency.insert(latency.end(), open[round].latency_ms.begin(),
                     open[round].latency_ms.end());
      late_ms.insert(late_ms.end(), open[round].late_ms.begin(),
                     open[round].late_ms.end());
    }

    const double p50 =
        perfbench::PercentileWithFailures(latency, open_failed, 50.0);
    const perfbench::Tail tail =
        perfbench::TailWithFailures(latency, open_failed);
    const perfbench::Tail late = perfbench::TailWithFailures(late_ms, 0);
    const LoadClient::Failures& f = client.failures();
    std::fprintf(stderr,
                 "closed loop: %zu connections; open loop: %.1f req/s, "
                 "%zu latency samples in the quieter rounds, tail is %s\n"
                 "failures: status=%zu degraded=%zu mismatch=%zu "
                 "connection=%zu\n"
                 "generator: late %s %.4f ms, peak connections %zu of %zu, "
                 "%zu of %d thread checks off %zu threads\n",
                 nproc, w.open_rate_qps, latency.size(),
                 perfbench::PercentileName(tail.percentile).c_str(), f.status,
                 f.degraded, f.mismatch, f.connection,
                 perfbench::PercentileName(late.percentile).c_str(),
                 late.value, client.peak_connections(), nproc,
                 thread_checks_failed, kRounds, expected_threads);
    if (f.mismatch > 0) {
      std::fprintf(stderr, "RANKING MISMATCH on %zu responses\n", f.mismatch);
      correct = false;
    }
    if (late.value > kMaxLateShare * tail.value) {
      std::fprintf(stderr, "INVALID RUN: generator fell %.3f ms behind\n",
                   late.value);
      correct = false;
    }
    if (thread_checks_failed > 0) {
      std::fprintf(stderr, "INVALID RUN: unexpected thread count\n");
      correct = false;
    }
    metrics = {
        {"p50_ms", p50, "ms"},
        {"p99_ms", tail.value, "ms"},
        {"sat_qps", sat_qps, "1/s"},
        {"ok_frac",
         attempted > 0 ? 1.0 - static_cast<double>(failed) /
                                   static_cast<double>(attempted)
                       : 0.0,
         "ratio"},
        {"setup_s", Median(setup_s), "s"},
        {"rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    // Independent engines per measured entry point, so each sees the
    // request sequence once, from a cold augmentation cache, as a serving
    // engine does: E1 behind HTTP (the stack above), E2 behind its own
    // QueryServer for ServeSync, E3 for Search and the layer replay.
    for (int rep = 1; rep < kSetupReps; ++rep) sample_setup();
    grasp::metrics::Registry registry2, registry3;
    std::unique_ptr<Engine> engine2 = MakeEngine(dataset, &registry2);
    QueryServer server2(*engine2, ServeOptions(&registry2));
    std::unique_ptr<Engine> engine3 = MakeEngine(dataset, &registry3);
    LayerReplay replay(*engine3);
    LoadClient rtt_client(stack->http->port(), 1, pool, &expected);

    // The overheads are per request, on one engine: the HTTP round trip
    // minus the serving layer's own time for that request (the body's
    // total_ms), and ServeSync's wall time minus the engine's own time.
    std::vector<double> rtt, net_overhead, sync, serve_overhead, search,
        lookup, augment, explore, map, parse_us, body_bytes, matches, pops,
        paths, candidates;
    double generated = 0.0, deduplicated = 0.0;
    const auto cache_before = engine3->augmentation_cache_stats();
    const std::vector<std::uint32_t> sequence =
        Sequence(args.seed * 4 + 1, pool.size(), 1 << 16);
    const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(first_phase_s));
    std::size_t mismatches = 0;
    for (std::size_t i = 0; Clock::now() < end || i == 0; ++i) {
      const std::uint32_t entry = sequence[i % sequence.size()];
      const Request& r = pool[entry];

      const LoadClient::Outcome& o = RoundTrip(&rtt_client, entry);
      if (o.ok) {
        rtt.push_back(MillisBetween(o.sent, o.done));
        net_overhead.push_back(rtt.back() - rtt_client.last_server_ms());
        body_bytes.push_back(static_cast<double>(rtt_client.last_body_bytes()));
      } else {
        ++mismatches;
      }

      QueryServer::Request request;
      request.query.keywords = r.keywords;
      request.query.k = kTopK;
      request.query.predicate_scope = r.scope;
      auto t = Clock::now();
      const QueryServer::Response response = server2.ServeSync(std::move(request));
      sync.push_back(MillisBetween(t, Clock::now()));
      serve_overhead.push_back(sync.back() - response.result.total_millis);
      if (!response.status.ok() ||
          perfbench::ExpectedRanking(response.result.queries) != expected[entry]) {
        ++mismatches;
      }

      Engine::SearchResult result;
      t = Clock::now();
      const Ranking ranking = SearchRanking(*engine3, r, &result);
      search.push_back(MillisBetween(t, Clock::now()));
      if (ranking != expected[entry]) ++mismatches;

      const LayerReplay::Result layers = replay.Run(r);
      bool same = layers.stats.cursors_popped ==
                      result.exploration_stats.cursors_popped &&
                  layers.ranking.size() == result.queries.size();
      for (std::size_t j = 0; same && j < layers.ranking.size(); ++j) {
        same = layers.ranking[j].first == result.queries[j].cost &&
               layers.ranking[j].second == result.queries[j].canonical;
      }
      if (!same) {
        Die("layer replay diverged from Search on " + r.target + " (pops " +
            std::to_string(layers.stats.cursors_popped) + " vs " +
            std::to_string(result.exploration_stats.cursors_popped) + ")");
      }
      lookup.push_back(layers.lookup_ms);
      augment.push_back(result.augmentation_cache_hit ? 0.0 : layers.augment_ms);
      explore.push_back(layers.explore_ms);
      map.push_back(layers.map_ms);
      matches.push_back(static_cast<double>(layers.matches));
      pops.push_back(static_cast<double>(layers.stats.cursors_popped));
      paths.push_back(static_cast<double>(layers.stats.paths_recorded));
      candidates.push_back(static_cast<double>(layers.stats.subgraphs_generated));
      generated += static_cast<double>(layers.stats.subgraphs_generated);
      deduplicated += static_cast<double>(layers.stats.subgraphs_deduplicated);

      grasp::net::RequestParser parser;
      t = Clock::now();
      parser.Feed(r.wire);
      parse_us.push_back(1e3 * MillisBetween(t, Clock::now()));
      if (!parser.done()) Die("request parser rejected " + r.target);
    }
    const auto cache_after = engine3->augmentation_cache_stats();
    const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
    const double lookups =
        hits + static_cast<double>(cache_after.misses - cache_before.misses);

    const SubmitLoopResult loaded = SubmitOpenLoop(
        stack->query_server.get(), pool, expected_hash, schedule);
    const perfbench::Tail loaded_tail =
        perfbench::TailWithFailures(loaded.latency_ms, loaded.failed);
    const perfbench::Tail late = perfbench::TailWithFailures(loaded.late_ms, 0);

    const double search_ms = Mean(search);
    const double attributed =
        Mean(lookup) + Mean(augment) + Mean(explore) + Mean(map);
    const double unattributed = search_ms - attributed;
    std::fprintf(stderr,
                 "replay: %zu requests; shares of core.search_ms: lookup "
                 "%.1f%% augment %.1f%% explore %.1f%% map %.1f%% "
                 "unattributed %.1f%%\n"
                 "Submit open loop: %zu sent, %zu failed, %zu shed, tail is "
                 "%s, generator late %s\n",
                 search.size(), 100 * Mean(lookup) / search_ms,
                 100 * Mean(augment) / search_ms, 100 * Mean(explore) / search_ms,
                 100 * Mean(map) / search_ms, 100 * unattributed / search_ms,
                 loaded.attempted, loaded.failed, loaded.shed,
                 perfbench::PercentileName(loaded_tail.percentile).c_str(),
                 perfbench::PercentileName(late.percentile).c_str());
    if (mismatches > 0) {
      std::fprintf(stderr, "RANKING MISMATCH on %zu replayed requests\n",
                   mismatches);
      correct = false;
    }
    if (std::fabs(unattributed) > kMaxUnattributedShare * search_ms) {
      std::fprintf(stderr, "UNATTRIBUTED TIME %.4f ms over its ceiling\n",
                   unattributed);
      correct = false;
    }
    if (late.value > kMaxLateShare * loaded_tail.value) {
      std::fprintf(stderr, "INVALID RUN: generator fell %.3f ms behind\n",
                   late.value);
      correct = false;
    }
    attempted = 3 * search.size() + loaded.attempted;
    failed = mismatches + loaded.failed;
    metrics = {
        {"net.rtt_ms", Mean(rtt), "ms"},
        {"net.overhead_ms", Mean(net_overhead), "ms"},
        {"net.parse_us", Mean(parse_us), "us"},
        {"net.response_bytes", Mean(body_bytes), "bytes"},
        {"serve.sync_ms", Mean(sync), "ms"},
        {"serve.overhead_ms", Mean(serve_overhead), "ms"},
        {"serve.loaded_p99_ms", loaded_tail.value, "ms"},
        {"serve.shed_frac",
         static_cast<double>(loaded.shed) / static_cast<double>(loaded.attempted),
         "ratio"},
        {"keyword.lookup_ms", Mean(lookup), "ms"},
        {"keyword.matches", Mean(matches), "count"},
        {"summary.augment_ms", Mean(augment), "ms"},
        {"summary.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio"},
        {"core.explore_ms", Mean(explore), "ms"},
        {"core.pops", Mean(pops), "count"},
        {"core.paths", Mean(paths), "count"},
        {"core.candidates", Mean(candidates), "count"},
        {"core.dedup_ratio", generated > 0 ? deduplicated / generated : 0.0,
         "ratio"},
        {"core.map_ms", Mean(map), "ms"},
        {"core.search_ms", search_ms, "ms"},
        {"core.unattributed_ms", unattributed, "ms"},
        {"setup.build_s", Median(build_s), "s"},
        {"setup.start_s", Median(start_s), "s"},
        {"loadgen.late_p99_ms", late.value, "ms"},
    };
  }

  for (const Metric& m : metrics) {
    std::fprintf(stderr, "%-24s %14.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "result fingerprint=%s workload=%s seed=%llu trace=%d\n",
               fingerprint.c_str(), w.name,
               static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}
