// Concurrent-serving coverage: the lock-free free-list pool, the
// augmentation cache (hit / miss / eviction paths), and the engine's
// thread-safe Search. The stress tests pin concurrent results
// byte-identical to serial ones — the concurrency layers must never change
// what a query returns, only how much it costs to serve. Runs under the
// ASan/UBSan job and the TSan job (GRASP_SANITIZE_THREAD) in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/free_list_pool.h"
#include "concurrent_search.h"
#include "core/engine.h"
#include "summary/augmentation_cache.h"
#include "summary/augmented_graph.h"
#include "test_util.h"

namespace grasp::core {
namespace {

using KeywordQuery = KeywordSearchEngine::KeywordQuery;
using SearchResult = KeywordSearchEngine::SearchResult;

// ----------------------------------------------------------- FreeListPool --

TEST(FreeListPoolTest, ReusesLifoAndCreatesLazily) {
  FreeListPool<int> pool(4);
  auto make = [] { return std::make_unique<int>(0); };
  auto a = pool.Acquire(make);
  EXPECT_EQ(a.slot, 0u);
  EXPECT_EQ(pool.created(), 1u);
  pool.Release(a);
  // LIFO: the warm slot comes straight back.
  auto b = pool.Acquire(make);
  EXPECT_EQ(b.slot, 0u);
  EXPECT_EQ(b.object, a.object);
  auto c = pool.Acquire(make);
  EXPECT_EQ(c.slot, 1u);
  EXPECT_EQ(pool.created(), 2u);
  pool.Release(c);
  pool.Release(b);
}

TEST(FreeListPoolTest, OverflowsToTransientObjects) {
  FreeListPool<int> pool(2);
  auto make = [] { return std::make_unique<int>(7); };
  auto a = pool.Acquire(make);
  auto b = pool.Acquire(make);
  auto c = pool.Acquire(make);  // beyond capacity
  EXPECT_EQ(c.slot, FreeListPool<int>::kTransient);
  EXPECT_EQ(*c.object, 7);
  EXPECT_EQ(pool.created(), 2u);
  pool.Release(c);  // deletes the transient (ASan would catch a leak)
  pool.Release(b);
  pool.Release(a);
}

TEST(FreeListPoolTest, ConcurrentAcquireNeverSharesAnObject) {
  FreeListPool<std::atomic<int>> pool(8);
  constexpr int kThreads = 8;
  constexpr int kRounds = 3000;
  std::atomic<bool> double_checkout{false};
  auto worker = [&] {
    auto make = [] { return std::make_unique<std::atomic<int>>(0); };
    for (int r = 0; r < kRounds; ++r) {
      auto lease = pool.Acquire(make);
      // Exclusive ownership: the object's flag must have been 0.
      if (lease.object->exchange(1, std::memory_order_acq_rel) != 0) {
        double_checkout.store(true);
      }
      lease.object->store(0, std::memory_order_release);
      pool.Release(lease);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  EXPECT_FALSE(double_checkout.load());
  EXPECT_LE(pool.created(), 8u);
}

// ------------------------------------------------------ AugmentationCache --

class CacheTest : public ::testing::Test {
 protected:
  CacheTest() : dataset_(grasp::testing::MakeFigure1Dataset()) {
    grasp::rdf::DataGraph graph =
        grasp::rdf::DataGraph::Build(dataset_.store, dataset_.dictionary);
    summary_ = std::make_unique<summary::SummaryGraph>(
        summary::SummaryGraph::Build(graph));
    index_ = std::make_unique<keyword::KeywordIndex>(
        keyword::KeywordIndex::Build(graph));
  }

  std::vector<std::vector<keyword::KeywordMatch>> Matches(
      const std::vector<std::string>& keywords) {
    text::InvertedIndex::SearchOptions options;
    options.max_results = 8;
    std::vector<std::vector<keyword::KeywordMatch>> matches;
    for (const auto& kw : keywords) {
      matches.push_back(index_->Lookup(kw, options));
    }
    return matches;
  }

  summary::AugmentationCache::GraphPtr Build(
      const std::vector<std::vector<keyword::KeywordMatch>>& matches) {
    return std::make_shared<summary::AugmentedGraph>(
        summary::AugmentedGraph::Build(*summary_, matches));
  }

  grasp::testing::Dataset dataset_;
  std::unique_ptr<summary::SummaryGraph> summary_;
  std::unique_ptr<keyword::KeywordIndex> index_;
};

TEST_F(CacheTest, HitMissAndKeySensitivity) {
  summary::AugmentationCache cache(1 << 20);
  const auto m1 = Matches({"2006", "cimiano"});
  const auto m2 = Matches({"cimiano", "2006"});  // order-sensitive key
  int builds = 0;
  auto build1 = [&] { ++builds; return Build(m1); };
  auto build2 = [&] { ++builds; return Build(m2); };

  bool hit = true;
  auto a = cache.GetOrBuild(summary::AugmentationCacheKey(m1), build1, &hit);
  EXPECT_FALSE(hit);
  auto b = cache.GetOrBuild(summary::AugmentationCacheKey(m1), build1, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a.get(), b.get());  // shared, not rebuilt
  EXPECT_EQ(builds, 1);

  cache.GetOrBuild(summary::AugmentationCacheKey(m2), build2, &hit);
  EXPECT_FALSE(hit) << "permuted keywords must not alias";
  EXPECT_EQ(builds, 2);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.charged_bytes, 0u);
}

TEST_F(CacheTest, EvictsLeastRecentlyUsedWithinByteBudget) {
  const auto m1 = Matches({"2006"});
  const auto m2 = Matches({"cimiano"});
  const auto m3 = Matches({"aifb"});
  // Measure what one entry charges (graph + key + bookkeeping overhead),
  // then budget for two: the third insert must evict the LRU.
  std::size_t entry_bytes = 0;
  {
    summary::AugmentationCache scout(1u << 30);
    scout.GetOrBuild(summary::AugmentationCacheKey(m1),
                     [&] { return Build(m1); });
    entry_bytes = scout.stats().charged_bytes;
  }
  summary::AugmentationCache cache(entry_bytes * 2 + entry_bytes / 2);

  bool hit = false;
  cache.GetOrBuild(summary::AugmentationCacheKey(m1), [&] { return Build(m1); },
                   &hit);
  cache.GetOrBuild(summary::AugmentationCacheKey(m2), [&] { return Build(m2); },
                   &hit);
  cache.GetOrBuild(summary::AugmentationCacheKey(m3), [&] { return Build(m3); },
                   &hit);
  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.charged_bytes, stats.max_bytes);
  // The most recent key survived; the least recent was evicted and rebuilds.
  std::size_t rebuilds = 0;
  cache.GetOrBuild(summary::AugmentationCacheKey(m3),
                   [&] { ++rebuilds; return Build(m3); }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(rebuilds, 0u);
  cache.GetOrBuild(summary::AugmentationCacheKey(m1),
                   [&] { ++rebuilds; return Build(m1); }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(rebuilds, 1u);
}

TEST_F(CacheTest, EntryCountBoundEvictsIndependentlyOfBytes) {
  // A huge byte budget with max_entries=2: the third distinct key must
  // still evict the LRU. This is the bound that keeps cache residency from
  // pinning every overlay-pool slot in the engine.
  summary::AugmentationCache cache(1u << 30, /*max_entries=*/2);
  const auto m1 = Matches({"2006"});
  const auto m2 = Matches({"cimiano"});
  const auto m3 = Matches({"aifb"});
  bool hit = false;
  cache.GetOrBuild(summary::AugmentationCacheKey(m1), [&] { return Build(m1); });
  cache.GetOrBuild(summary::AugmentationCacheKey(m2), [&] { return Build(m2); });
  cache.GetOrBuild(summary::AugmentationCacheKey(m3), [&] { return Build(m3); });
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.GetOrBuild(summary::AugmentationCacheKey(m3), [&] { return Build(m3); },
                   &hit);
  EXPECT_TRUE(hit);
  cache.GetOrBuild(summary::AugmentationCacheKey(m1), [&] { return Build(m1); },
                   &hit);
  EXPECT_FALSE(hit) << "LRU entry must have been evicted by the count bound";
}

TEST_F(CacheTest, OversizedEntryEvictsItselfButStillServes) {
  summary::AugmentationCache cache(1);  // nothing fits
  const auto m = Matches({"2006", "cimiano"});
  bool hit = true;
  auto g = cache.GetOrBuild(summary::AugmentationCacheKey(m),
                            [&] { return Build(m); }, &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(g, nullptr);
  EXPECT_GT(g->NumNodes(), 0u);  // the caller's graph outlives the eviction
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().charged_bytes, 0u);
}

// ----------------------------------------------- engine-level concurrency --

/// The mixed workload the stress tests serve: repeated keys (cache-hit
/// path), distinct keys (miss path), fuzzy and unmatched keywords.
std::vector<KeywordQuery> MixedWorkload() {
  return {
      {{"2006", "cimiano", "aifb"}, 5},
      {{"name", "publication"}, 8},
      {{"2006", "cimiano", "aifb"}, 5},  // repeat: exercises cache sharing
      {{"author", "2006"}, 5},
      {{"cimano"}, 3},                   // fuzzy match
      {{"name", "institute"}, 5},
      {{"qqqqqqq"}, 3},                  // unmatchable: empty result
      {{"2006", "cimiano"}, 4},
  };
}

void ExpectSameResults(const SearchResult& a, const SearchResult& b,
                       const std::string& context) {
  ASSERT_EQ(a.queries.size(), b.queries.size()) << context;
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].cost, b.queries[i].cost) << context << " rank " << i;
    EXPECT_EQ(a.queries[i].query.CanonicalString(),
              b.queries[i].query.CanonicalString())
        << context << " rank " << i;
    EXPECT_EQ(a.queries[i].subgraph.StructureKey(),
              b.queries[i].subgraph.StructureKey())
        << context << " rank " << i;
  }
  EXPECT_EQ(a.matches_per_keyword, b.matches_per_keyword) << context;
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  ConcurrencyTest() : dataset_(grasp::testing::MakeFigure1Dataset()) {}

  KeywordSearchEngine::Options WithCacheBytes(std::size_t bytes) {
    KeywordSearchEngine::Options options;
    options.augmentation_cache_bytes = bytes;
    return options;
  }

  grasp::testing::Dataset dataset_;
};

TEST_F(ConcurrencyTest, ConcurrentSearchMatchesSerialSearch) {
  KeywordSearchEngine engine(dataset_.store, dataset_.dictionary);
  const auto workload = MixedWorkload();

  std::vector<SearchResult> serial;
  for (const auto& q : workload) serial.push_back(engine.Search(q.keywords, q.k));

  const auto concurrent = grasp::testing::SearchOnThreads(engine, workload, 4);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    ExpectSameResults(concurrent[i], serial[i],
                      "concurrent query " + std::to_string(i));
  }
}

TEST_F(ConcurrencyTest, ScopedConcurrentSearchMatchesSerialSearch) {
  // Scoped and unscoped queries mixed on one engine: concurrent threads
  // share the scope-mask cache (first resolution races are benign — equal
  // keys build equal masks) and every result must equal its serial run.
  KeywordSearchEngine engine(dataset_.store, dataset_.dictionary);
  std::vector<KeywordQuery> workload = MixedWorkload();
  workload[0].predicate_scope = {"name", "author", "year", "worksAt"};
  workload[1].predicate_scope = {"name"};
  workload[2].predicate_scope = {"name", "author", "year", "worksAt"};  // repeat
  workload[4].predicate_scope = {"author", "hasProject"};
  workload[6].predicate_scope = {"no-such-predicate"};

  std::vector<SearchResult> serial;
  for (const auto& q : workload) serial.push_back(engine.Search(q));

  for (int round = 0; round < 3; ++round) {
    const auto concurrent =
        grasp::testing::SearchOnThreads(engine, workload, 4);
    for (std::size_t i = 0; i < workload.size(); ++i) {
      ExpectSameResults(concurrent[i], serial[i],
                        "scoped concurrent round " + std::to_string(round) +
                            " query " + std::to_string(i));
    }
  }
  EXPECT_GT(engine.index_stats().scope_cache_bytes, 0u);
}

/// N threads hammer one engine with the mixed workload; every result must
/// equal the serial expectation. Runs with the cache enabled (concurrent
/// hits share one graph) and disabled (every query rebuilds from the
/// overlay pool).
void RunStress(const grasp::testing::Dataset& dataset,
               KeywordSearchEngine::Options options) {
  KeywordSearchEngine engine(dataset.store, dataset.dictionary, options);
  const auto workload = MixedWorkload();
  std::vector<SearchResult> expected;
  for (const auto& q : workload) {
    expected.push_back(engine.Search(q.keywords, q.k));
  }

  constexpr int kThreads = 6;
  constexpr int kRounds = 8;
  std::atomic<int> mismatches{0};
  auto worker = [&](int seed) {
    for (int r = 0; r < kRounds; ++r) {
      // Start each thread at a different workload offset so distinct keys
      // race against each other, not just against their own repeats.
      for (std::size_t i = 0; i < workload.size(); ++i) {
        const std::size_t q =
            (i + static_cast<std::size_t>(seed)) % workload.size();
        const auto result = engine.Search(workload[q].keywords, workload[q].k);
        if (result.queries.size() != expected[q].queries.size()) {
          ++mismatches;
          continue;
        }
        for (std::size_t j = 0; j < result.queries.size(); ++j) {
          if (result.queries[j].cost != expected[q].queries[j].cost ||
              result.queries[j].query.CanonicalString() !=
                  expected[q].queries[j].query.CanonicalString()) {
            ++mismatches;
          }
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ConcurrencyTest, StressConcurrentSearchWithCache) {
  RunStress(dataset_, WithCacheBytes(8u << 20));
}

TEST_F(ConcurrencyTest, StressConcurrentSearchWithoutCache) {
  RunStress(dataset_, WithCacheBytes(0));
}

TEST_F(ConcurrencyTest, StressConcurrentSearchWithThrashingCache) {
  // A budget near one entry forces continuous eviction while queries are
  // in flight: in-flight graphs must survive their entry being evicted.
  RunStress(dataset_, WithCacheBytes(8u << 10));
}

TEST_F(ConcurrencyTest, CacheSettingNeverChangesResults) {
  KeywordSearchEngine cached(dataset_.store, dataset_.dictionary,
                             WithCacheBytes(8u << 20));
  KeywordSearchEngine uncached(dataset_.store, dataset_.dictionary,
                               WithCacheBytes(0));
  std::set<std::vector<std::string>> seen;
  for (const auto& q : MixedWorkload()) {
    // Twice per engine: the second cached run serves from the cache.
    const bool first_occurrence = seen.insert(q.keywords).second;
    const auto cold = cached.Search(q.keywords, q.k);
    const auto warm = cached.Search(q.keywords, q.k);
    const auto baseline = uncached.Search(q.keywords, q.k);
    ExpectSameResults(cold, baseline, "cold vs uncached");
    ExpectSameResults(warm, baseline, "warm vs uncached");
    EXPECT_FALSE(baseline.augmentation_cache_hit);
    if (first_occurrence) EXPECT_FALSE(cold.augmentation_cache_hit);
    EXPECT_TRUE(warm.augmentation_cache_hit);
  }
  const auto stats = cached.augmentation_cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_EQ(uncached.augmentation_cache_stats().hits, 0u);
}

TEST_F(ConcurrencyTest, ServingStatsAccountPoolsAndCache) {
  KeywordSearchEngine engine(dataset_.store, dataset_.dictionary);
  engine.Search({"2006", "cimiano", "aifb"}, 5);
  const auto stats = engine.index_stats();
  EXPECT_GT(stats.scratch_pool_bytes, 0u);
  // The query's overlay shell is resident in the cache, so it is charged
  // there and not to the pool — the two fields must not double-count.
  EXPECT_EQ(stats.overlay_pool_bytes, 0u);
  EXPECT_GT(stats.augmentation_cache_bytes, 0u);
  EXPECT_GT(engine.augmentation_cache_stats().graph_bytes, 0u);

  KeywordSearchEngine uncached(dataset_.store, dataset_.dictionary,
                               WithCacheBytes(0));
  uncached.Search({"2006", "cimiano", "aifb"}, 5);
  EXPECT_EQ(uncached.index_stats().augmentation_cache_bytes, 0u);
  EXPECT_GT(uncached.index_stats().overlay_pool_bytes, 0u);
}

}  // namespace
}  // namespace grasp::core
