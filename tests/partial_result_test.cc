// Graceful-degradation tests: a deadline-, budget-, or cancel-stopped
// exploration must return a *verified prefix* of the unbounded ranking —
// every entry exactly what the complete run would have returned in that
// position — with the stop reason reported in ExplorationStats, never a
// silent hole. Flat and reference explorers must agree byte for byte on
// every stopped run (pre-cancelled/pre-expired controls make the stop pop
// deterministic), and the engine must propagate the degradation per query,
// also when several threads search it at once.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "concurrent_search.h"
#include "core/engine.h"
#include "core/exploration.h"
#include "core/exploration_reference.h"
#include "keyword/keyword_index.h"
#include "rdf/data_graph.h"
#include "serve/query_control.h"
#include "summary/augmented_graph.h"
#include "summary/summary_graph.h"
#include "test_util.h"

namespace grasp::core {
namespace {

using summary::AugmentedGraph;
using summary::SummaryGraph;

struct Pipeline {
  rdf::Dictionary dictionary;
  rdf::TripleStore store;
  std::unique_ptr<rdf::DataGraph> graph;
  std::unique_ptr<SummaryGraph> summary;
  std::unique_ptr<keyword::KeywordIndex> index;
};

Pipeline FromDataset(grasp::testing::Dataset dataset) {
  Pipeline p;
  p.dictionary = std::move(dataset.dictionary);
  p.store = std::move(dataset.store);
  p.graph = std::make_unique<rdf::DataGraph>(
      rdf::DataGraph::Build(p.store, p.dictionary));
  p.summary = std::make_unique<SummaryGraph>(SummaryGraph::Build(*p.graph));
  p.index = std::make_unique<keyword::KeywordIndex>(
      keyword::KeywordIndex::Build(*p.graph));
  return p;
}

AugmentedGraph Augment(const Pipeline& p,
                       const std::vector<std::string>& keywords) {
  text::InvertedIndex::SearchOptions options;
  options.max_results = 8;
  std::vector<std::vector<keyword::KeywordMatch>> matches;
  for (const auto& kw : keywords) {
    matches.push_back(p.index->Lookup(kw, options));
  }
  return AugmentedGraph::Build(*p.summary, matches);
}

/// Asserts `partial` is exactly the leading slice of `full`. With the
/// partial run's `stats`, also checks its completeness certificate: every
/// entry of the full ranking cheaper than stats->complete_below must be
/// inside the partial prefix.
void ExpectExactPrefix(const std::vector<MatchingSubgraph>& partial,
                       const std::vector<MatchingSubgraph>& full,
                       const std::string& context,
                       const ExplorationStats* stats = nullptr) {
  ASSERT_LE(partial.size(), full.size()) << context;
  for (std::size_t i = 0; i < partial.size(); ++i) {
    EXPECT_EQ(partial[i].cost, full[i].cost) << context << " rank " << i;
    EXPECT_EQ(partial[i].StructureKey(), full[i].StructureKey())
        << context << " rank " << i;
  }
  if (stats == nullptr) return;
  for (std::size_t i = partial.size(); i < full.size(); ++i) {
    EXPECT_GE(full[i].cost, stats->complete_below)
        << context << " rank " << i << " is below the certificate but "
        << "missing from the prefix";
  }
}

/// Runs flat + reference under `options`, asserts byte-identical output and
/// identical stop flags, and returns the flat results.
std::vector<MatchingSubgraph> RunBoth(const AugmentedGraph& augmented,
                                      const ExplorationOptions& options,
                                      ExplorationStats* stats_out,
                                      const std::string& context) {
  SubgraphExplorer flat(augmented, options);
  const auto actual = flat.FindTopK();
  ReferenceExplorer reference(augmented, options);
  const auto expected = reference.FindTopK();

  EXPECT_EQ(flat.stats().cursors_popped, reference.stats().cursors_popped)
      << context;
  EXPECT_EQ(flat.stats().cancelled, reference.stats().cancelled) << context;
  EXPECT_EQ(flat.stats().deadline_expired, reference.stats().deadline_expired)
      << context;
  EXPECT_EQ(flat.stats().budget_exceeded, reference.stats().budget_exceeded)
      << context;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(flat.stats().complete_below),
            std::bit_cast<std::uint64_t>(reference.stats().complete_below))
      << context << " complete_below " << flat.stats().complete_below
      << " vs " << reference.stats().complete_below;
  EXPECT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t i = 0; i < actual.size() && i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].cost, expected[i].cost) << context << " rank " << i;
    EXPECT_EQ(actual[i].StructureKey(), expected[i].StructureKey())
        << context << " rank " << i;
  }
  if (stats_out != nullptr) *stats_out = flat.stats();
  return actual;
}

serve::QueryControl::Clock::time_point LongAgo() {
  return serve::QueryControl::Clock::now() - std::chrono::hours(1);
}

TEST(PartialResultTest, BudgetStopIsExactPrefixOfUnboundedRanking) {
  Pipeline p = FromDataset(grasp::testing::MakeFigure1Dataset());
  const AugmentedGraph augmented = Augment(p, {"publication", "aifb"});

  ExplorationOptions unbounded;
  unbounded.k = 10;
  const auto full = RunBoth(augmented, unbounded, nullptr, "unbounded");
  ASSERT_FALSE(full.empty());

  for (std::size_t budget : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u}) {
    ExplorationOptions capped = unbounded;
    capped.max_cursor_pops = budget;
    ExplorationStats stats;
    const std::string context = "budget=" + std::to_string(budget);
    const auto partial = RunBoth(augmented, capped, &stats, context);
    ExpectExactPrefix(partial, full, context, &stats);
    if (stats.budget_exceeded) {
      EXPECT_TRUE(stats.stopped_early()) << context;
    } else {
      // The run finished under budget; it must be the complete answer.
      EXPECT_EQ(partial.size(), full.size()) << context;
    }
  }
}

TEST(PartialResultTest, PreExpiredDeadlineStopsAtThePollInterval) {
  Pipeline p = FromDataset(grasp::testing::MakeFigure1Dataset());
  const AugmentedGraph augmented = Augment(p, {"publication", "aifb"});

  ExplorationOptions unbounded;
  unbounded.k = 10;
  const auto full = RunBoth(augmented, unbounded, nullptr, "unbounded");
  SubgraphExplorer probe(augmented, unbounded);
  probe.FindTopK();
  const std::size_t natural_pops = probe.stats().cursors_popped;

  serve::QueryControl control;
  control.SetDeadline(LongAgo());
  for (std::uint32_t interval : {1u, 2u, 4u, 8u, 16u, 64u}) {
    ExplorationOptions timed = unbounded;
    timed.control = &control;
    timed.control_poll_interval = interval;
    ExplorationStats stats;
    const std::string context = "poll_interval=" + std::to_string(interval);
    const auto partial = RunBoth(augmented, timed, &stats, context);
    ExpectExactPrefix(partial, full, context, &stats);
    if (natural_pops >= interval) {
      // The first poll lands on pop `interval` exactly: a pre-expired
      // control makes the stop pop a pure function of the poll interval.
      EXPECT_TRUE(stats.deadline_expired) << context;
      EXPECT_TRUE(stats.stopped_early()) << context;
      EXPECT_EQ(stats.cursors_popped, interval) << context;
    } else {
      EXPECT_EQ(partial.size(), full.size()) << context;
    }
  }
}

TEST(PartialResultTest, PreCancelledControlStopsBothExplorersIdentically) {
  Pipeline p = FromDataset(grasp::testing::MakeFigure1Dataset());
  const AugmentedGraph augmented = Augment(p, {"thanh", "cimiano"});

  ExplorationOptions unbounded;
  unbounded.k = 10;
  const auto full = RunBoth(augmented, unbounded, nullptr, "unbounded");

  serve::QueryControl control;
  control.RequestCancel();
  for (std::uint32_t interval : {1u, 4u, 32u}) {
    ExplorationOptions cancelled = unbounded;
    cancelled.control = &control;
    cancelled.control_poll_interval = interval;
    ExplorationStats stats;
    const std::string context = "cancel interval=" + std::to_string(interval);
    const auto partial = RunBoth(augmented, cancelled, &stats, context);
    ExpectExactPrefix(partial, full, context, &stats);
    EXPECT_TRUE(stats.cancelled || partial.size() == full.size()) << context;
  }
}

TEST(PartialResultTest, RandomGraphsPrefixPropertyHoldsAcrossOptionSweep) {
  for (std::uint64_t seed : {7u, 21u, 99u}) {
    Pipeline p = FromDataset(
        grasp::testing::MakeRandomDataset(seed, 4, 60, 120, 6, 60, 12));
    const AugmentedGraph augmented = Augment(p, {"value1", "class1"});

    // Index 0 = the paper's plain bound, 1 = the tightened default. Both
    // complete rankings must be the same; at an equal stop point the
    // tightened verified prefix can only be longer, because its stop bound
    // adds the completion floor to the same pending cursor cost.
    ExplorationOptions unbounded[2];
    std::vector<MatchingSubgraph> full[2];
    std::string base[2];
    for (const bool tightened : {false, true}) {
      unbounded[tightened].k = 5;
      unbounded[tightened].tightened_bound = tightened;
      base[tightened] = "seed=" + std::to_string(seed) +
                        " tightened=" + std::to_string(tightened);
      full[tightened] =
          RunBoth(augmented, unbounded[tightened], nullptr, base[tightened]);
    }
    ExpectExactPrefix(full[1], full[0], base[1] + " vs plain");
    EXPECT_EQ(full[1].size(), full[0].size()) << base[1];

    serve::QueryControl expired;
    expired.SetDeadline(LongAgo());
    for (std::uint32_t interval : {1u, 3u, 9u, 27u, 81u}) {
      std::size_t prefix_size[2];
      for (const bool tightened : {false, true}) {
        ExplorationOptions timed = unbounded[tightened];
        timed.control = &expired;
        timed.control_poll_interval = interval;
        const std::string context =
            base[tightened] + " interval=" + std::to_string(interval);
        ExplorationStats stats;
        const auto partial = RunBoth(augmented, timed, &stats, context);
        ExpectExactPrefix(partial, full[tightened], context, &stats);
        prefix_size[tightened] = partial.size();
      }
      EXPECT_GE(prefix_size[1], prefix_size[0])
          << "seed=" << seed << " interval=" << interval;
    }
    for (std::size_t budget : {1u, 4u, 16u, 64u, 256u}) {
      std::size_t prefix_size[2];
      for (const bool tightened : {false, true}) {
        ExplorationOptions capped = unbounded[tightened];
        capped.max_cursor_pops = budget;
        const std::string context =
            base[tightened] + " budget=" + std::to_string(budget);
        ExplorationStats stats;
        const auto partial = RunBoth(augmented, capped, &stats, context);
        ExpectExactPrefix(partial, full[tightened], context, &stats);
        prefix_size[tightened] = partial.size();
      }
      EXPECT_GE(prefix_size[1], prefix_size[0])
          << "seed=" << seed << " budget=" << budget;
    }
  }
}

TEST(PartialResultTest, EngineReportsDegradedPrefixWithOkStatus) {
  grasp::testing::Dataset dataset = grasp::testing::MakeFigure1Dataset();
  KeywordSearchEngine engine(dataset.store, dataset.dictionary);

  const std::vector<std::string> keywords = {"publication", "aifb"};
  const KeywordSearchEngine::SearchResult full = engine.Search(keywords, 10);
  ASSERT_FALSE(full.queries.empty());
  EXPECT_TRUE(full.status.ok());
  EXPECT_FALSE(full.degraded);

  // A pre-expired deadline: the engine must come back degraded-but-OK with
  // an exact prefix of the unbounded query ranking (the exploration prefix
  // is exact, and the mapping/sort pipeline is deterministic on it).
  serve::QueryControl control;
  control.SetDeadline(LongAgo());
  ExplorationOptions exploration = engine.options().exploration;
  exploration.control = &control;
  exploration.control_poll_interval = 16;
  const KeywordSearchEngine::SearchResult partial =
      engine.Search(keywords, 10, exploration);
  EXPECT_TRUE(partial.status.ok());
  EXPECT_TRUE(partial.degraded);
  EXPECT_TRUE(partial.exploration_stats.deadline_expired);
  ASSERT_LE(partial.queries.size(), full.queries.size());
  for (std::size_t i = 0; i < partial.queries.size(); ++i) {
    EXPECT_EQ(partial.queries[i].cost, full.queries[i].cost) << "rank " << i;
    EXPECT_EQ(partial.queries[i].query.CanonicalString(),
              full.queries[i].query.CanonicalString())
        << "rank " << i;
  }

  // Cancellation is not a degraded success — it is reported as such.
  serve::QueryControl cancelled;
  cancelled.RequestCancel();
  ExplorationOptions cancel_opts = engine.options().exploration;
  cancel_opts.control = &cancelled;
  const KeywordSearchEngine::SearchResult stopped =
      engine.Search(keywords, 10, cancel_opts);
  EXPECT_EQ(stopped.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(stopped.degraded);
  EXPECT_TRUE(stopped.exploration_stats.cancelled);
}

TEST(PartialResultTest, ConcurrentSearchPropagatesDegradationPerEntry) {
  grasp::testing::Dataset dataset = grasp::testing::MakeFigure1Dataset();
  KeywordSearchEngine engine(dataset.store, dataset.dictionary);

  serve::QueryControl cancelled;
  cancelled.RequestCancel();

  // Entries 0/2 run uncontrolled, entry 1 is pre-cancelled: statuses must
  // stay per-entry, not leak across threads.
  std::vector<KeywordSearchEngine::KeywordQuery> workload(3);
  workload[0].keywords = {"publication", "aifb"};
  workload[1].keywords = {"publication", "aifb"};
  workload[1].control = &cancelled;
  workload[2].keywords = {"thanh", "cimiano"};

  const auto results = grasp::testing::SearchOnThreads(engine, workload, 2);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_FALSE(results[0].degraded);
  EXPECT_EQ(results[1].status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(results[1].degraded);
  EXPECT_TRUE(results[1].exploration_stats.cancelled);
  EXPECT_TRUE(results[2].status.ok());

  // And the cancelled entry's output is the (possibly empty) verified
  // prefix of its own unbounded run.
  const auto full = engine.Search(workload[1].keywords, 10);
  ASSERT_LE(results[1].queries.size(), full.queries.size());
  for (std::size_t i = 0; i < results[1].queries.size(); ++i) {
    EXPECT_EQ(results[1].queries[i].query.CanonicalString(),
              full.queries[i].query.CanonicalString());
  }
}

TEST(PartialResultTest, CancelMidConcurrentSearchTerminatesWithoutHanging) {
  grasp::testing::Dataset dataset = grasp::testing::MakeRandomDataset(
      5, 6, 200, 500, 8, 200, 20);
  KeywordSearchEngine engine(dataset.store, dataset.dictionary);

  serve::QueryControl control;
  std::vector<KeywordSearchEngine::KeywordQuery> workload(24);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    workload[i].keywords = {"value" + std::to_string(i % 10),
                            "class" + std::to_string(i % 4)};
    workload[i].control = &control;
    workload[i].k = 5;
  }

  // Cancel from another thread while the searches run: every entry must
  // terminate (possibly complete, possibly cancelled — timing decides), and
  // every cancelled entry must say so. The real assertion is that this
  // returns at all and stays race-clean under TSan.
  std::thread canceller([&control] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    control.RequestCancel();
  });
  const auto results = grasp::testing::SearchOnThreads(engine, workload, 4);
  canceller.join();

  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].exploration_stats.cancelled) {
      EXPECT_EQ(results[i].status.code(), StatusCode::kCancelled) << i;
      EXPECT_TRUE(results[i].degraded) << i;
    } else {
      EXPECT_TRUE(results[i].status.ok()) << i;
    }
    // Ranked output stays sorted whatever the stop reason.
    for (std::size_t r = 1; r < results[i].queries.size(); ++r) {
      EXPECT_LE(results[i].queries[r - 1].cost, results[i].queries[r].cost);
    }
  }
}

}  // namespace
}  // namespace grasp::core
