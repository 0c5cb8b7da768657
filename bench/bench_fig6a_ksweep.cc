// Reproduces Fig. 6a: average query-computation time on DBLP (scoring
// function C3) as a function of k, bucketed by keyword-query length.
//
// Expected shape (paper): time grows roughly linearly with k; the impact of
// query length is minimal at k = 10 and grows for larger k.

#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "datagen/workload.h"

int main() {
  grasp::bench::Dataset dblp = grasp::bench::MakeDblp();
  std::printf(
      "Fig. 6a reproduction: avg search time (ms) vs k on DBLP (%zu "
      "triples), scoring C3\n",
      dblp.store.size());

  // The paper's Alg. 2 stops on the plain cheapest-cursor bound; the engine
  // serves with the tightened one, so the reproduction switches it back.
  grasp::core::KeywordSearchEngine::Options options;
  options.exploration.tightened_bound = false;
  grasp::core::KeywordSearchEngine engine(dblp.store, dblp.dictionary,
                                          options);
  const auto workload = grasp::datagen::DblpEffectivenessWorkload();
  const std::size_t ks[] = {1, 5, 10, 20, 50, 100};

  std::printf("\n%-8s %12s %12s %12s %12s\n", "k", "len=2", "len=3", "len=4",
              "all");
  grasp::bench::Rule(62);
  for (std::size_t k : ks) {
    std::map<std::size_t, std::pair<double, std::size_t>> by_len;
    double total = 0.0;
    std::size_t count = 0;
    for (const auto& wq : workload) {
      auto result = engine.Search(wq.keywords, k);
      auto& slot = by_len[wq.keywords.size()];
      slot.first += result.total_millis;
      slot.second += 1;
      total += result.total_millis;
      ++count;
    }
    auto avg = [&](std::size_t len) {
      auto it = by_len.find(len);
      if (it == by_len.end() || it->second.second == 0) return 0.0;
      return it->second.first / static_cast<double>(it->second.second);
    };
    std::printf("%-8zu %12.2f %12.2f %12.2f %12.2f\n", k, avg(2), avg(3),
                avg(4), total / static_cast<double>(count));
  }
  return 0;
}
