// Build-and-save / load-and-query front-end for the index-snapshot
// subsystem: the operational face of the paper's "build once, amortize over
// every query" pitch. A cold process pays full preprocessing (parse,
// DataGraph, SummaryGraph, keyword index); a warm process mmaps a snapshot
// and serves its first query immediately.
//
//   grasp_snapshot build --dataset=lubm --out=idx.snap
//   grasp_snapshot build --nt=data.nt --out=idx.snap
//   grasp_snapshot query --snapshot=idx.snap --k=5 publication professor
//   grasp_snapshot query --dataset=lubm --cold --k=5 publication professor
//   grasp_snapshot info --snapshot=idx.snap
//
// The two query modes print identical output for the same data (the
// warm-start differential suite pins this; CI diffs them across processes).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/engine.h"
#include "rdf/ntriples.h"
#include "serve/admission.h"
#include "serve/query_control.h"

namespace {

using grasp::core::KeywordSearchEngine;

/// Ceiling on --k, the same one the HTTP front end clamps ?k= to.
constexpr std::uint64_t kMaxK = 1000;

struct Args {
  std::string command;
  std::string dataset;
  std::string nt_path;
  std::string snapshot_path;
  std::string out_path;
  bool cold = false;
  std::size_t k = 5;
  double deadline_ms = 0.0;  // <= 0: no deadline
  std::vector<std::string> keywords;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--dataset=")) {
      args->dataset = v;
    } else if (const char* v = value("--nt=")) {
      args->nt_path = v;
    } else if (const char* v = value("--snapshot=")) {
      args->snapshot_path = v;
    } else if (const char* v = value("--out=")) {
      args->out_path = v;
    } else if (const char* v = value("--k=")) {
      // Strict: a sign, trailing bytes or k > kMaxK is a usage error.
      const std::optional<std::uint64_t> k = grasp::ParseUint(v, kMaxK);
      if (!k.has_value()) {
        std::fprintf(stderr, "bad value (want an integer in 0..%llu): %s\n",
                     static_cast<unsigned long long>(kMaxK), arg.c_str());
        return false;
      }
      args->k = static_cast<std::size_t>(*k);
    } else if (const char* v = value("--deadline-ms=")) {
      args->deadline_ms = std::atof(v);
    } else if (arg == "--cold") {
      args->cold = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    } else {
      args->keywords.push_back(arg);
    }
  }
  return true;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  grasp_snapshot build (--dataset=dblp|lubm|tap | --nt=FILE) "
      "--out=PATH\n"
      "  grasp_snapshot query --snapshot=PATH [--k=N] [--deadline-ms=MS] "
      "KEYWORD...\n"
      "  grasp_snapshot query (--dataset=... | --nt=FILE) --cold [--k=N] "
      "KEYWORD...\n"
      "  grasp_snapshot info --snapshot=PATH\n"
      "\n--k is at most 1000. --deadline-ms bounds the query: results may "
      "be a\ndegraded (but verified) prefix of the full ranking; the stop "
      "reason goes to\nstderr.\nGRASP_BENCH_SCALE scales the generated "
      "datasets (default 1.0).\n");
  return 2;
}

/// Builds the dataset named by --dataset/--nt. Exits on failure.
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

/// Deterministic query report, identical for cold and warm engines over the
/// same data: rank, cost, canonical conjunctive query.
void PrintResult(const KeywordSearchEngine::SearchResult& result) {
  for (std::size_t i = 0; i < result.queries.size(); ++i) {
    std::printf("%2zu %.6f %s\n", i + 1, result.queries[i].cost,
                result.queries[i].canonical.c_str());
  }
}

int RunBuild(const Args& args) {
  if (args.out_path.empty()) return Usage();
  grasp::bench::Dataset dataset;
  if (!LoadDataset(args, &dataset)) return 1;
  grasp::WallTimer timer;
  KeywordSearchEngine engine(dataset.store, dataset.dictionary);
  const double build_millis = timer.ElapsedMillis();
  const grasp::Status status = engine.SaveIndex(args.out_path);
  if (!status.ok()) {
    std::fprintf(stderr, "save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const auto stats = engine.index_stats();
  std::fprintf(stderr,
               "built %s (%zu triples, %zu summary nodes) in %.1f ms; "
               "snapshot -> %s\n",
               dataset.name.c_str(), dataset.store.size(),
               stats.summary_nodes, build_millis, args.out_path.c_str());
  return 0;
}

int RunQuery(const Args& args) {
  if (args.keywords.empty()) return Usage();
  // Declared before the engine: a cold-built engine keeps raw pointers
  // into the dataset, which therefore must be destroyed after it.
  std::unique_ptr<grasp::bench::Dataset> dataset;
  std::unique_ptr<KeywordSearchEngine> engine;
  grasp::WallTimer timer;
  if (!args.snapshot_path.empty()) {
    auto opened = KeywordSearchEngine::Open(args.snapshot_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    engine = std::move(opened).value();
    std::fprintf(stderr, "warm open: %.1f ms (%zu mapped bytes)\n",
                 timer.ElapsedMillis(),
                 engine->index_stats().mapped_snapshot_bytes);
  } else if (args.cold) {
    dataset = std::make_unique<grasp::bench::Dataset>();
    if (!LoadDataset(args, dataset.get())) return 1;
    timer.Reset();  // time the engine build, not dataset generation/parsing
    engine = std::make_unique<KeywordSearchEngine>(dataset->store,
                                                   dataset->dictionary);
    std::fprintf(stderr, "cold build: %.1f ms\n", timer.ElapsedMillis());
  } else {
    return Usage();
  }
  if (args.deadline_ms <= 0.0) {
    PrintResult(engine->Search(args.keywords, args.k));
    return 0;
  }

  // Deadline-aware single query: the serving layer's deadline→budget
  // calibration at its (conservative) defaults, plus the polled wall-clock
  // deadline as backstop. Degradation is reported, not hidden; a non-OK
  // status (cancellation cannot happen here, but the contract is shared)
  // exits nonzero with the status message.
  grasp::serve::QueryControl control;
  control.SetDeadlineAfterMillis(args.deadline_ms);
  grasp::serve::DeadlineCalibrator calibrator(0.2, 50.0);
  grasp::core::ExplorationOptions exploration = engine->options().exploration;
  exploration.control = &control;
  const std::size_t budget = calibrator.BudgetForDeadline(args.deadline_ms, 0.5);
  if (exploration.max_cursor_pops == 0 || budget < exploration.max_cursor_pops) {
    exploration.max_cursor_pops = budget;
  }
  const KeywordSearchEngine::SearchResult result =
      engine->Search(args.keywords, args.k, exploration);
  if (!result.status.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status.ToString().c_str());
    return 1;
  }
  if (result.degraded) {
    std::fprintf(stderr,
                 "degraded: stopped after %zu pops (%s); %zu verified "
                 "results in %.1f ms\n",
                 result.exploration_stats.cursors_popped,
                 result.exploration_stats.deadline_expired ? "deadline"
                                                           : "pop budget",
                 result.queries.size(), result.total_millis);
  }
  PrintResult(result);
  return 0;
}

int RunInfo(const Args& args) {
  if (args.snapshot_path.empty()) return Usage();
  grasp::WallTimer timer;
  auto opened = KeywordSearchEngine::Open(args.snapshot_path);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  const double open_millis = timer.ElapsedMillis();
  const auto& engine = **opened;
  const auto stats = engine.index_stats();
  std::printf("snapshot          %s\n", args.snapshot_path.c_str());
  std::printf("open time         %.1f ms\n", open_millis);
  std::printf("mapped bytes      %zu\n", stats.mapped_snapshot_bytes);
  std::printf("terms             %zu\n", engine.dictionary().size());
  std::printf("data vertices     %zu\n", engine.data_graph().NumVertices());
  std::printf("data edges        %zu\n", engine.data_graph().NumEdges());
  std::printf("summary nodes     %zu\n", stats.summary_nodes);
  std::printf("summary edges     %zu\n", stats.summary_edges);
  std::printf("keyword elements  %zu\n", stats.keyword_elements);
  std::printf("kw-index bytes    %zu (owned)\n", stats.keyword_index_bytes);
  std::printf("graph-index bytes %zu (owned)\n", stats.summary_graph_bytes);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (args.command == "build") return RunBuild(args);
  if (args.command == "query") return RunQuery(args);
  if (args.command == "info") return RunInfo(args);
  return Usage();
}
