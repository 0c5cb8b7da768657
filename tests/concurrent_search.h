#ifndef GRASP_TESTS_CONCURRENT_SEARCH_H_
#define GRASP_TESTS_CONCURRENT_SEARCH_H_

#include <cstddef>
#include <future>
#include <vector>

#include "core/engine.h"

namespace grasp::testing {

/// Runs `queries` through one engine's scope-aware Search on `num_threads`
/// threads, thread t taking entries t, t + num_threads, ...; results[i]
/// answers queries[i]. std::async joins every thread, also when one throws,
/// and get() rethrows that exception here.
inline std::vector<core::KeywordSearchEngine::SearchResult> SearchOnThreads(
    const core::KeywordSearchEngine& engine,
    const std::vector<core::KeywordSearchEngine::KeywordQuery>& queries,
    std::size_t num_threads) {
  std::vector<core::KeywordSearchEngine::SearchResult> results(queries.size());
  std::vector<std::future<void>> runs;
  for (std::size_t t = 0; t < num_threads; ++t) {
    runs.push_back(std::async(std::launch::async, [&, t] {
      for (std::size_t i = t; i < queries.size(); i += num_threads) {
        results[i] = engine.Search(queries[i]);
      }
    }));
  }
  for (std::future<void>& run : runs) run.get();
  return results;
}

}  // namespace grasp::testing

#endif  // GRASP_TESTS_CONCURRENT_SEARCH_H_
