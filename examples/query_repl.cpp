// Interactive keyword-search REPL — the shape of the paper's SearchWebDB
// demo: type keywords, inspect the ranked conjunctive-query interpretations,
// pick one, and see its answers from the store.
//
// Usage:
//   ./build/examples/query_repl [file.nt | index.snap]
//
// Without an argument a DBLP-shaped dataset is generated. With an N-Triples
// file the REPL runs over your own data; with a `.snap` index image (from
// `:save` or `grasp_snapshot build`) it starts without rebuilding anything.
//
// Commands at the prompt:
//   <keywords...>      compute top-k interpretations (each is also shown as
//                      a natural-language question, as in the paper's demo)
//   >2000 / <=1995     operator keywords become FILTER conditions
//   !<rank>            evaluate interpretation <rank> from the last search
//   :k <n>             set k, 1..1000             (default 5)
//   :dmax <n>          set exploration radius     (default 12)
//   :model c1|c2|c3    set the scoring function   (default c3)
//   :save <path>       write the engine's index image; pass a `.snap`
//                      path instead of .nt to reopen it instantly
//   :quit              exit

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/cost_model.h"
#include "core/engine.h"
#include "datagen/dblp_gen.h"
#include "query/verbalizer.h"
#include "rdf/dictionary.h"
#include "rdf/ntriples.h"
#include "rdf/triple_store.h"

namespace {

using grasp::core::KeywordSearchEngine;

/// Largest k, as the HTTP front-end clamps `k=`.
constexpr std::uint64_t kMaxK = 1000;

struct ReplState {
  std::size_t k = 5;
  grasp::core::ExplorationOptions exploration;
  std::vector<KeywordSearchEngine::RankedQuery> last;
};

void PrintResult(const KeywordSearchEngine::SearchResult& result,
                 const grasp::rdf::Dictionary& dictionary) {
  if (result.queries.empty()) {
    std::printf("no interpretation found (try different keywords)\n");
    return;
  }
  for (std::size_t i = 0; i < result.queries.size(); ++i) {
    std::printf("  #%zu  cost=%.3f  %s\n", i + 1, result.queries[i].cost,
                result.queries[i].query.ToString(dictionary).c_str());
    std::printf("       \"%s\"\n",
                grasp::query::Verbalize(result.queries[i].query, dictionary)
                    .c_str());
  }
  std::printf("  [%.1f ms, %zu cursor pops%s]\n", result.total_millis,
              result.exploration_stats.cursors_popped,
              result.exploration_stats.early_terminated ? ", early top-k exit"
                                                        : "");
}

void Evaluate(const KeywordSearchEngine& engine, const ReplState& state,
              std::size_t rank) {
  if (rank == 0 || rank > state.last.size()) {
    std::printf("no interpretation #%zu in the last result\n", rank);
    return;
  }
  const grasp::rdf::Dictionary& dictionary = engine.dictionary();
  const auto& chosen = state.last[rank - 1];
  std::printf("%s\n", chosen.query.ToSparql(dictionary).c_str());
  auto answers = engine.Answers(chosen.query, /*limit=*/20);
  if (!answers.ok()) {
    std::printf("evaluation error: %s\n",
                answers.status().ToString().c_str());
    return;
  }
  std::printf("%zu answer(s)%s:\n", answers->rows.size(),
              answers->truncated ? " (truncated)" : "");
  for (const auto& row : answers->rows) {
    std::printf(" ");
    for (grasp::rdf::TermId t : row) {
      std::printf(" %s",
                  std::string(grasp::rdf::IriLocalName(dictionary.text(t)))
                      .c_str());
    }
    std::printf("\n");
  }
}

std::optional<grasp::core::CostModel> ParseModel(const std::string& name) {
  if (name == "c1") return grasp::core::CostModel::kPathLength;
  if (name == "c2") return grasp::core::CostModel::kPopularity;
  if (name == "c3") return grasp::core::CostModel::kMatching;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  // Declared before the engine: a cold-built engine keeps raw pointers
  // into the dataset, which therefore must be destroyed after it.
  grasp::rdf::Dictionary dictionary;
  grasp::rdf::TripleStore store;
  std::unique_ptr<KeywordSearchEngine> engine;
  const std::string path = argc > 1 ? argv[1] : "";
  if (path.ends_with(".snap")) {
    std::printf("Opening index image %s ...\n", path.c_str());
    auto opened = KeywordSearchEngine::Open(path);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    engine = std::move(opened).value();
  } else {
    if (!path.empty()) {
      std::printf("Loading %s ...\n", path.c_str());
      const grasp::Status status =
          grasp::rdf::ParseNTriplesFile(path, &dictionary, &store);
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
    } else {
      std::printf("Generating DBLP-shaped dataset (pass an .nt file to use "
                  "your own data)...\n");
      grasp::datagen::DblpOptions options;
      grasp::datagen::GenerateDblp(options, &dictionary, &store);
    }
    store.Finalize();
    std::printf("%zu triples loaded. Building indexes...\n", store.size());
    engine = std::make_unique<KeywordSearchEngine>(store, dictionary);
  }
  std::printf("Ready (%.1f ms). Type keywords, or :quit.\n\n",
              engine->index_stats().build_millis);

  ReplState state;
  state.exploration = engine->options().exploration;
  std::string line;
  while (true) {
    std::printf("grasp> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::istringstream in(line);
    std::vector<std::string> tokens;
    for (std::string tok; in >> tok;) tokens.push_back(tok);
    if (tokens.empty()) continue;

    if (tokens[0] == ":quit" || tokens[0] == ":q") break;
    if (tokens[0] == ":k" && tokens.size() == 2) {
      const auto k = grasp::ParseUint(tokens[1], kMaxK);
      if (k.has_value() && *k > 0) {
        state.k = static_cast<std::size_t>(*k);
        std::printf("k = %zu\n", state.k);
      } else {
        std::printf("bad k %s (want 1..%llu)\n", tokens[1].c_str(),
                    static_cast<unsigned long long>(kMaxK));
      }
      continue;
    }
    if (tokens[0] == ":dmax" && tokens.size() == 2) {
      const auto dmax = grasp::ParseUint(
          tokens[1], std::numeric_limits<std::uint32_t>::max());
      if (dmax.has_value()) {
        state.exploration.dmax = static_cast<std::uint32_t>(*dmax);
        std::printf("dmax = %u\n", state.exploration.dmax);
      } else {
        std::printf("bad dmax %s (want a non-negative integer)\n",
                    tokens[1].c_str());
      }
      continue;
    }
    if (tokens[0] == ":save" && tokens.size() == 2) {
      const grasp::Status status = engine->SaveIndex(tokens[1]);
      std::printf("%s\n", status.ok() ? "saved" : status.ToString().c_str());
      continue;
    }
    if (tokens[0] == ":model" && tokens.size() == 2) {
      if (auto model = ParseModel(tokens[1])) {
        state.exploration.cost_model = *model;
        std::printf("model = %s\n", tokens[1].c_str());
      } else {
        std::printf("unknown model %s (use c1|c2|c3)\n", tokens[1].c_str());
      }
      continue;
    }
    if (tokens[0][0] == '!') {
      if (const auto rank = grasp::ParseUint(tokens[0].substr(1), kMaxK)) {
        Evaluate(*engine, state, static_cast<std::size_t>(*rank));
      } else {
        std::printf("bad rank %s (want !1..!%llu)\n", tokens[0].c_str(),
                    static_cast<unsigned long long>(kMaxK));
      }
      continue;
    }

    auto result = engine->Search(tokens, state.k, state.exploration);
    PrintResult(result, engine->dictionary());
    state.last = std::move(result.queries);
  }
  std::printf("bye\n");
  return 0;
}
