// Standalone HTTP serving daemon: dataset -> engine -> QueryServer ->
// epoll front-end, plus the process-level plumbing a real deployment needs
// (SIGPIPE ignored, SIGTERM/SIGINT = graceful drain, second signal = abrupt
// stop). The network smoke job in CI runs this binary against grasp_loadgen
// in network mode and SIGTERMs it mid-traffic; the drain must answer every
// accepted in-flight request and the process must exit 0.
//
//   grasp_serve --dataset=dblp --port=8080 --default-deadline-ms=50
//   grasp_serve --nt=data.nt --port=0         # ephemeral; port on stdout
//
// Prints exactly one "listening on HOST:PORT" line to stdout once the
// socket is bound (scripts parse it), then serves until signalled.

#include <signal.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "net/http_server.h"
#include "net/socket.h"
#include "rdf/ntriples.h"
#include "serve/admission.h"

namespace {

using grasp::core::KeywordSearchEngine;
using grasp::net::HttpServer;
using grasp::serve::QueryServer;

/// Ceiling on each lane's worker count: every worker is an OS thread.
constexpr std::uint64_t kMaxWorkersPerLane = 256;
constexpr std::uint64_t kMaxSize = std::numeric_limits<std::size_t>::max();

struct Args {
  std::string dataset = "dblp";
  std::string nt_path;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t fast_workers = 2;
  std::size_t deep_workers = 2;
  std::size_t queue_capacity = 32;
  std::size_t max_connections = 1024;
  double read_timeout_ms = 10'000.0;
  double write_timeout_ms = 10'000.0;
  double idle_timeout_ms = 60'000.0;
  double drain_timeout_ms = 30'000.0;
  double default_deadline_ms = 0.0;
};

/// Parses an integer flag value strictly (see grasp::ParseUint): a sign,
/// trailing bytes or a value above `max` is a usage error, never a wrapped
/// or huge number.
template <typename T>
bool ParseUintFlag(const std::string& arg, const char* value,
                   std::uint64_t max, T* out) {
  const std::optional<std::uint64_t> parsed = grasp::ParseUint(value, max);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "bad value (want an integer in 0..%llu): %s\n",
                 static_cast<unsigned long long>(max), arg.c_str());
    return false;
  }
  *out = static_cast<T>(*parsed);
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--dataset=")) {
      args->dataset = v;
    } else if (const char* v = value("--nt=")) {
      args->nt_path = v;
    } else if (const char* v = value("--host=")) {
      args->host = v;
    } else if (const char* v = value("--port=")) {
      if (!ParseUintFlag(arg, v, 65535, &args->port)) return false;
    } else if (const char* v = value("--fast-workers=")) {
      if (!ParseUintFlag(arg, v, kMaxWorkersPerLane, &args->fast_workers)) {
        return false;
      }
    } else if (const char* v = value("--deep-workers=")) {
      if (!ParseUintFlag(arg, v, kMaxWorkersPerLane, &args->deep_workers)) {
        return false;
      }
    } else if (const char* v = value("--queue-capacity=")) {
      if (!ParseUintFlag(arg, v, kMaxSize, &args->queue_capacity)) {
        return false;
      }
    } else if (const char* v = value("--max-connections=")) {
      if (!ParseUintFlag(arg, v, kMaxSize, &args->max_connections)) {
        return false;
      }
    } else if (const char* v = value("--read-timeout-ms=")) {
      args->read_timeout_ms = std::atof(v);
    } else if (const char* v = value("--write-timeout-ms=")) {
      args->write_timeout_ms = std::atof(v);
    } else if (const char* v = value("--idle-timeout-ms=")) {
      args->idle_timeout_ms = std::atof(v);
    } else if (const char* v = value("--drain-timeout-ms=")) {
      args->drain_timeout_ms = std::atof(v);
    } else if (const char* v = value("--default-deadline-ms=")) {
      args->default_deadline_ms = std::atof(v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

bool LoadDataset(const Args& args, grasp::bench::Dataset* dataset) {
  if (!args.nt_path.empty()) {
    dataset->name = args.nt_path;
    const grasp::Status status = grasp::rdf::ParseNTriplesFile(
        args.nt_path, &dataset->dictionary, &dataset->store);
    if (!status.ok()) {
      std::fprintf(stderr, "cannot parse %s: %s\n", args.nt_path.c_str(),
                   status.ToString().c_str());
      return false;
    }
    dataset->store.Finalize();
    return true;
  }
  if (args.dataset == "dblp") {
    *dataset = grasp::bench::MakeDblp();
  } else if (args.dataset == "lubm") {
    *dataset = grasp::bench::MakeLubm();
  } else if (args.dataset == "tap") {
    *dataset = grasp::bench::MakeTap();
  } else {
    std::fprintf(stderr, "unknown dataset '%s' (dblp|lubm|tap)\n",
                 args.dataset.c_str());
    return false;
  }
  return true;
}

void PrintStats(const HttpServer& server, const QueryServer& query_server) {
  const HttpServer::Stats http = server.stats();
  const QueryServer::Stats qs = query_server.stats();
  std::fprintf(stderr,
               "accepted=%llu requests=%llu 2xx=%llu 4xx=%llu 408=%llu "
               "429=%llu 5xx=%llu\n"
               "disconnect_cancels=%llu dropped_completions=%llu "
               "slow_reader_closes=%llu drain_force_closed=%llu\n"
               "serve: admitted=%llu shed=%llu completed=%llu degraded=%llu "
               "expired=%llu cancelled=%llu\n",
               static_cast<unsigned long long>(http.accepted),
               static_cast<unsigned long long>(http.requests),
               static_cast<unsigned long long>(http.responses_2xx),
               static_cast<unsigned long long>(http.responses_4xx),
               static_cast<unsigned long long>(http.responses_408),
               static_cast<unsigned long long>(http.responses_429),
               static_cast<unsigned long long>(http.responses_5xx),
               static_cast<unsigned long long>(http.disconnect_cancels),
               static_cast<unsigned long long>(http.dropped_completions),
               static_cast<unsigned long long>(http.slow_reader_closes),
               static_cast<unsigned long long>(http.drain_force_closed),
               static_cast<unsigned long long>(qs.admitted),
               static_cast<unsigned long long>(qs.shed),
               static_cast<unsigned long long>(qs.completed),
               static_cast<unsigned long long>(qs.degraded),
               static_cast<unsigned long long>(qs.expired_in_queue),
               static_cast<unsigned long long>(qs.cancelled));
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(
        stderr,
        "usage: grasp_serve [--dataset=dblp|lubm|tap | --nt=FILE]\n"
        "    [--host=H] [--port=N]\n"
        "    [--fast-workers=N] [--deep-workers=N]\n"
        "    [--queue-capacity=N] [--max-connections=N]\n"
        "    [--read-timeout-ms=MS] [--write-timeout-ms=MS]\n"
        "    [--idle-timeout-ms=MS] [--drain-timeout-ms=MS]\n"
        "    [--default-deadline-ms=MS]\n"
        "\nSIGTERM/SIGINT drain gracefully (finish in-flight, then exit 0); "
        "a\nsecond signal stops abruptly.\n");
    return 2;
  }

  // A client that disconnects between our poll and our write must produce
  // EPIPE on that one socket, not SIGPIPE for the whole process.
  grasp::net::IgnoreSigpipe();

  // Block the drain signals *before* any thread exists so every thread
  // inherits the mask; the signals are then consumed synchronously with
  // sigwait instead of interrupting arbitrary syscalls in arbitrary threads.
  sigset_t drain_signals;
  sigemptyset(&drain_signals);
  sigaddset(&drain_signals, SIGTERM);
  sigaddset(&drain_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &drain_signals, nullptr);

  grasp::bench::Dataset dataset;
  if (!LoadDataset(args, &dataset)) return 1;

  // One registry spans every tier, so /metrics exposes the engine's
  // per-stage histograms, the QueryServer's queue/service/slack histograms,
  // and the HTTP front-end's wire counters side by side.
  grasp::metrics::Registry registry;

  KeywordSearchEngine::Options engine_options;
  engine_options.metrics = &registry;
  const KeywordSearchEngine engine(dataset.store, dataset.dictionary,
                                   engine_options);

  QueryServer::Options serve_options;
  serve_options.fast_workers = args.fast_workers;
  serve_options.deep_workers = args.deep_workers;
  serve_options.queue_capacity = args.queue_capacity;
  serve_options.metrics = &registry;
  QueryServer query_server(engine, serve_options);

  HttpServer::Options http_options;
  http_options.metrics = &registry;
  http_options.host = args.host;
  http_options.port = args.port;
  http_options.max_connections = args.max_connections;
  http_options.read_timeout_millis = args.read_timeout_ms;
  http_options.write_timeout_millis = args.write_timeout_ms;
  http_options.idle_timeout_millis = args.idle_timeout_ms;
  http_options.drain_timeout_millis = args.drain_timeout_ms;
  http_options.default_deadline_millis = args.default_deadline_ms;
  HttpServer server(&query_server, http_options);

  const grasp::Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "cannot start: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("listening on %s:%u\n", args.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);  // scripts wait for this line before sending traffic

  // Signal waiter: first SIGTERM/SIGINT begins the drain, a second one
  // stops abruptly. Detached — if neither arrives again it just blocks in
  // sigwait until process exit.
  std::thread([&drain_signals, &server] {
    int sig = 0;
    sigwait(&drain_signals, &sig);
    std::fprintf(stderr, "signal %d: draining\n", sig);
    server.RequestDrain();
    sigwait(&drain_signals, &sig);
    std::fprintf(stderr, "signal %d: stopping now\n", sig);
    server.Stop();
  }).detach();

  server.Join();  // returns when the drain (or stop) completes
  PrintStats(server, query_server);
  return 0;
}
