// Ablation of the design choices listed in PAPER.md ("Substitutions",
// Ablations):
//   1. per-(element, keyword) path cap (the k*|K|*|G| space bound of
//      Sec. VI-C) on vs off,
//   2. the paper's TA bound (min cursor cost) vs the tightened bound
//      (min cursor cost + cheapest completion), which serving uses,
//   3. cost models C1/C2/C3 runtime deltas.
//
// Reported per configuration: average query time and cursor pops over the
// Fig. 5 workload.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "datagen/workload.h"

namespace {

using grasp::core::CostModel;
using grasp::core::ExplorationOptions;

struct Config {
  const char* name;
  bool prune;
  bool tightened;
  CostModel model;
};

}  // namespace

int main() {
  grasp::bench::Dataset dblp = grasp::bench::MakeDblp();
  std::printf("Ablation: pruning / TA bound / cost model on DBLP (%zu triples)\n",
              dblp.store.size());
  grasp::core::KeywordSearchEngine engine(dblp.store, dblp.dictionary);
  const auto workload = grasp::datagen::DblpPerformanceWorkload();

  const Config configs[] = {
      {"C3 prune+paper-bound", true, false, CostModel::kMatching},
      {"C3 prune+tight-bound (default)", true, true, CostModel::kMatching},
      {"C3 noprune+paper-bound", false, false, CostModel::kMatching},
      {"C3 noprune+tight-bound", false, true, CostModel::kMatching},
      {"C1 prune+paper-bound", true, false, CostModel::kPathLength},
      {"C2 prune+paper-bound", true, false, CostModel::kPopularity},
  };

  std::printf("\n%-34s %12s %14s %14s %10s\n", "config", "avg ms", "avg pops",
              "avg cursors", "early-stop");
  grasp::bench::Rule(90);
  for (const Config& config : configs) {
    double total_ms = 0;
    std::size_t total_pops = 0, total_cursors = 0, early = 0, capped = 0;
    for (const auto& wq : workload) {
      ExplorationOptions explore;
      explore.cost_model = config.model;
      explore.prune_paths_per_element = config.prune;
      explore.tightened_bound = config.tightened;
      // Safety valve so the no-cap configurations terminate: without the
      // per-(element, keyword) path cap the cursor population explodes on
      // the many-keyword queries — which is the point of the ablation.
      explore.max_cursor_pops = 200000;
      auto result = engine.Search(wq.keywords, 10, explore);
      total_ms += result.total_millis;
      total_pops += result.exploration_stats.cursors_popped;
      total_cursors += result.exploration_stats.cursors_created;
      early += result.exploration_stats.early_terminated ? 1 : 0;
      capped += result.exploration_stats.budget_exceeded ? 1 : 0;
    }
    const double n = static_cast<double>(workload.size());
    std::printf("%-34s %12.2f %14.0f %14.0f %7zu/%zu %s\n", config.name,
                total_ms / n, static_cast<double>(total_pops) / n,
                static_cast<double>(total_cursors) / n, early,
                workload.size(),
                capped > 0 ? grasp::StrFormat("(%zu hit the pop cap)",
                                              capped)
                                 .c_str()
                           : "");
  }
  return 0;
}
