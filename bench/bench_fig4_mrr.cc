// Reproduces Fig. 4: Mean Reciprocal Rank of the scoring functions C1
// (path length), C2 (popularity) and C3 (keyword matching) over the 30
// DBLP effectiveness queries. A generated query is correct when it is
// isomorphic to the workload's gold-standard query; RR = 1/rank, 0 when the
// gold query is absent from the top-k.
//
// Expected shape (paper): C3 >= C2 >= C1 in MRR; C2 ~ C1 on queries with
// few alternative interpretations; C3 wins when keyword-to-element
// ambiguity is high.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "datagen/workload.h"

namespace {

using grasp::core::CostModel;
using grasp::core::ExplorationOptions;
using grasp::core::KeywordSearchEngine;

double ReciprocalRank(const KeywordSearchEngine::SearchResult& result,
                      const grasp::query::ConjunctiveQuery& gold) {
  const std::string gold_canonical = gold.CanonicalString();
  for (std::size_t i = 0; i < result.queries.size(); ++i) {
    if (result.queries[i].canonical == gold_canonical) {
      return 1.0 / static_cast<double>(i + 1);
    }
  }
  return 0.0;
}

}  // namespace

int main() {
  grasp::bench::Dataset dblp = grasp::bench::MakeDblp();
  std::printf("Fig. 4 reproduction: MRR of scoring functions on DBLP (%zu triples)\n",
              dblp.store.size());

  KeywordSearchEngine engine(dblp.store, dblp.dictionary);
  const auto workload = grasp::datagen::DblpEffectivenessWorkload();

  const CostModel models[] = {CostModel::kPathLength, CostModel::kPopularity,
                              CostModel::kMatching};
  const char* model_names[] = {"C1(path)", "C2(popularity)", "C3(matching)"};

  std::printf("\n%-5s %-38s %9s %9s %9s\n", "query", "keywords", "C1", "C2",
              "C3");
  grasp::bench::Rule(76);

  double mrr[3] = {0, 0, 0};
  for (const auto& wq : workload) {
    grasp::query::ConjunctiveQuery gold = grasp::datagen::BuildGoldQuery(
        wq, &dblp.dictionary, grasp::datagen::kDblpNs);
    double rr[3];
    for (int m = 0; m < 3; ++m) {
      ExplorationOptions explore;
      explore.cost_model = models[m];
      auto result = engine.Search(wq.keywords, 10, explore);
      rr[m] = ReciprocalRank(result, gold);
      mrr[m] += rr[m];
    }
    std::printf("%-5s %-38s %9.3f %9.3f %9.3f\n", wq.id.c_str(),
                grasp::Join(wq.keywords, " ").c_str(), rr[0], rr[1], rr[2]);
  }
  grasp::bench::Rule(76);
  std::printf("%-44s %9.3f %9.3f %9.3f   (MRR over %zu queries)\n", "MRR",
              mrr[0] / workload.size(), mrr[1] / workload.size(),
              mrr[2] / workload.size(), workload.size());
  for (int m = 0; m < 3; ++m) {
    std::printf("  %-16s MRR = %.3f\n", model_names[m],
                mrr[m] / workload.size());
  }

  // The companion TAP study (Sec. VII-A: "We get similar conclusions in the
  // evaluation with TAP"). TAP's many-class ontology exercises class-name
  // keywords far more than DBLP's value-heavy queries.
  grasp::bench::Dataset tap = grasp::bench::MakeTap();
  std::printf("\nTAP companion study (%zu triples)\n", tap.store.size());
  KeywordSearchEngine tap_engine(tap.store, tap.dictionary);
  const auto tap_workload = grasp::datagen::TapEffectivenessWorkload();
  std::printf("\n%-5s %-38s %9s %9s %9s\n", "query", "keywords", "C1", "C2",
              "C3");
  grasp::bench::Rule(76);
  double tap_mrr[3] = {0, 0, 0};
  for (const auto& wq : tap_workload) {
    grasp::query::ConjunctiveQuery gold = grasp::datagen::BuildGoldQuery(
        wq, &tap.dictionary, grasp::datagen::kTapNs);
    double rr[3];
    for (int m = 0; m < 3; ++m) {
      ExplorationOptions explore;
      explore.cost_model = models[m];
      auto result = tap_engine.Search(wq.keywords, 10, explore);
      rr[m] = ReciprocalRank(result, gold);
      tap_mrr[m] += rr[m];
    }
    std::printf("%-5s %-38s %9.3f %9.3f %9.3f\n", wq.id.c_str(),
                grasp::Join(wq.keywords, " ").c_str(), rr[0], rr[1], rr[2]);
  }
  grasp::bench::Rule(76);
  for (int m = 0; m < 3; ++m) {
    std::printf("  %-16s MRR = %.3f\n", model_names[m],
                tap_mrr[m] / tap_workload.size());
  }
  return 0;
}
