// Differential warm-start suite: an engine loaded from an index snapshot
// must be byte-identical to the cold-built engine it was saved from — same
// top-k queries (canonical strings), same costs, same subgraph structure
// keys, same exploration counters — over the paper's running example
// (Fig. 1), a LUBM slice, TAP-style generated data, seeded random datasets
// and randomized keyword sets, serially and from several threads at once.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "concurrent_search.h"
#include "core/engine.h"
#include "datagen/lubm_gen.h"
#include "datagen/tap_gen.h"
#include "test_util.h"

namespace grasp::core {
namespace {

using grasp::testing::Dataset;

std::string TempSnapshotPath(const std::string& tag) {
  return ::testing::TempDir() + "grasp_warm_" + tag + ".snap";
}

/// Saves `cold`'s index and reopens it warm; the caller owns the result.
std::unique_ptr<KeywordSearchEngine> Reopen(const KeywordSearchEngine& cold,
                                            const std::string& tag) {
  const std::string path = TempSnapshotPath(tag);
  const Status saved = cold.SaveIndex(path);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  auto opened = KeywordSearchEngine::Open(path);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  std::remove(path.c_str());
  return std::move(opened).value();
}

/// Byte-identity of two search results: ranked queries, costs, structure.
void ExpectSameResult(const KeywordSearchEngine::SearchResult& cold,
                      const KeywordSearchEngine::SearchResult& warm,
                      const std::string& context) {
  ASSERT_EQ(cold.queries.size(), warm.queries.size()) << context;
  for (std::size_t i = 0; i < cold.queries.size(); ++i) {
    EXPECT_EQ(cold.queries[i].query.CanonicalString(),
              warm.queries[i].query.CanonicalString())
        << context << " rank " << i;
    EXPECT_EQ(cold.queries[i].cost, warm.queries[i].cost)
        << context << " rank " << i;
    EXPECT_EQ(cold.queries[i].subgraph.StructureKey(),
              warm.queries[i].subgraph.StructureKey())
        << context << " rank " << i;
  }
  EXPECT_EQ(cold.matches_per_keyword, warm.matches_per_keyword) << context;
  EXPECT_EQ(cold.exploration_stats.cursors_created,
            warm.exploration_stats.cursors_created)
      << context;
  EXPECT_EQ(cold.exploration_stats.cursors_popped,
            warm.exploration_stats.cursors_popped)
      << context;
  EXPECT_EQ(cold.exploration_stats.subgraphs_generated,
            warm.exploration_stats.subgraphs_generated)
      << context;
  EXPECT_EQ(cold.exploration_stats.subgraphs_deduplicated,
            warm.exploration_stats.subgraphs_deduplicated)
      << context;
}

void ExpectWarmMatchesCold(
    const Dataset& dataset, const std::string& tag,
    const std::vector<std::vector<std::string>>& keyword_sets,
    std::size_t k = 5) {
  KeywordSearchEngine cold(dataset.store, dataset.dictionary);
  std::unique_ptr<KeywordSearchEngine> warm = Reopen(cold, tag);
  ASSERT_NE(warm, nullptr);
  // Queries run twice so the second round exercises both engines'
  // augmentation caches the same way.
  for (int round = 0; round < 2; ++round) {
    for (const auto& keywords : keyword_sets) {
      const auto cold_result = cold.Search(keywords, k);
      const auto warm_result = warm->Search(keywords, k);
      ExpectSameResult(cold_result, warm_result,
                       StrFormat("%s round %d %s", tag.c_str(), round,
                                 Join(keywords, "+").c_str()));
    }
  }
}

TEST(SnapshotWarmStartTest, Figure1RunningExample) {
  ExpectWarmMatchesCold(grasp::testing::MakeFigure1Dataset(), "fig1",
                        {{"2006", "cimiano", "aifb"},
                         {"name"},
                         {"publication", "project"},
                         {"researcher", "institute"},
                         {">2000", "publication"}});
}

TEST(SnapshotWarmStartTest, LubmSlice) {
  Dataset dataset;
  datagen::LubmOptions options;
  options.num_universities = 1;
  options.departments_per_university = 2;
  datagen::GenerateLubm(options, &dataset.dictionary, &dataset.store);
  dataset.store.Finalize();
  ExpectWarmMatchesCold(dataset, "lubm",
                        {{"publication", "professor"},
                         {"course", "student", "name"},
                         {"department"}});
}

TEST(SnapshotWarmStartTest, TapStyle) {
  Dataset dataset;
  datagen::TapOptions options;
  options.num_classes = 32;
  datagen::GenerateTap(options, &dataset.dictionary, &dataset.store);
  dataset.store.Finalize();
  ExpectWarmMatchesCold(dataset, "tap",
                        {{"album", "team"}, {"city", "player", "name"}});
}

/// Seeded random datasets with randomized keyword sets drawn from the
/// generator vocabulary.
class RandomizedWarmStartTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomizedWarmStartTest, RandomDatasetAndKeywords) {
  Rng rng(GetParam() * 6151 + 7);
  Dataset dataset = grasp::testing::MakeRandomDataset(
      GetParam(), /*num_classes=*/4, /*num_entities=*/16,
      /*num_relations=*/20, /*num_predicates=*/3, /*num_attributes=*/12,
      /*value_pool=*/5);
  std::vector<std::string> vocabulary = {"class0", "class1", "class2",
                                         "class3", "rel0",   "rel1",
                                         "value0", "value1", "attr0"};
  std::vector<std::vector<std::string>> keyword_sets;
  for (int round = 0; round < 4; ++round) {
    rng.Shuffle(&vocabulary);
    const std::size_t m = 1 + rng.NextBelow(3);
    keyword_sets.emplace_back(vocabulary.begin(), vocabulary.begin() + m);
  }
  ExpectWarmMatchesCold(
      dataset, StrFormat("random%llu",
                         static_cast<unsigned long long>(GetParam())),
      keyword_sets, /*k=*/1 + rng.NextBelow(8));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedWarmStartTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// Predicate-scoped queries against a warm-started engine: the scope masks
// are rebuilt lazily over the mapped summary (zero index rebuild) and the
// filtered results must be byte-identical to the cold-built engine's, on
// the first scoped query and on cache-hit repeats.
TEST(SnapshotWarmStartTest, ScopedQueriesMatchColdByteIdentical) {
  Dataset dataset = grasp::testing::MakeFigure1Dataset();
  KeywordSearchEngine cold(dataset.store, dataset.dictionary);
  std::unique_ptr<KeywordSearchEngine> warm = Reopen(cold, "fig1_scoped");
  ASSERT_NE(warm, nullptr);

  std::vector<KeywordSearchEngine::KeywordQuery> queries;
  for (const auto& [keywords, scope] :
       std::vector<std::pair<std::vector<std::string>,
                             std::vector<std::string>>>{
           {{"2006", "cimiano", "aifb"}, {"name", "author", "year", "worksAt"}},
           {{"2006", "cimiano", "aifb"}, {"name", "author", "year"}},
           {{"publication", "project"}, {"hasProject", "name"}},
           {{"cimiano", "aifb"}, {"name"}},
           {{"2006", "cimiano"}, {"no-such-predicate"}}}) {
    KeywordSearchEngine::KeywordQuery q;
    q.keywords = keywords;
    q.k = 5;
    q.predicate_scope = scope;
    queries.push_back(std::move(q));
  }
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ExpectSameResult(cold.Search(queries[i]), warm->Search(queries[i]),
                       StrFormat("scoped round %d query %zu", round, i));
    }
  }
}

TEST(SnapshotWarmStartTest, ConcurrentSearchMatchesColdSerial) {
  Dataset dataset;
  datagen::LubmOptions options;
  options.num_universities = 1;
  datagen::GenerateLubm(options, &dataset.dictionary, &dataset.store);
  dataset.store.Finalize();
  KeywordSearchEngine cold(dataset.store, dataset.dictionary);
  std::unique_ptr<KeywordSearchEngine> warm = Reopen(cold, "concurrent");
  ASSERT_NE(warm, nullptr);

  std::vector<KeywordSearchEngine::KeywordQuery> queries;
  const std::vector<std::vector<std::string>> sets = {
      {"publication", "professor"}, {"course", "student"},
      {"department"},               {"name", "university"},
      {"publication", "professor"},  // repeats exercise the cache
      {"student"},                  {"course", "name"},
  };
  for (int round = 0; round < 3; ++round) {
    for (const auto& s : sets) queries.push_back({s, 4});
  }
  const auto warm_results = grasp::testing::SearchOnThreads(*warm, queries, 4);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto cold_result = cold.Search(queries[i].keywords, queries[i].k);
    ExpectSameResult(cold_result, warm_results[i],
                     StrFormat("concurrent query %zu", i));
  }
}

TEST(SnapshotWarmStartTest, IndexStatsAccountMappedBytesSeparately) {
  Dataset dataset = grasp::testing::MakeFigure1Dataset();
  KeywordSearchEngine cold(dataset.store, dataset.dictionary);
  EXPECT_EQ(cold.index_stats().mapped_snapshot_bytes, 0u);

  std::unique_ptr<KeywordSearchEngine> warm = Reopen(cold, "stats");
  ASSERT_NE(warm, nullptr);
  const auto cold_stats = cold.index_stats();
  const auto warm_stats = warm->index_stats();
  // The mapping carries the flat arrays, so the warm engine's owned index
  // bytes must be strictly smaller than the cold engine's while the mapped
  // figure covers the difference.
  EXPECT_GT(warm_stats.mapped_snapshot_bytes, 0u);
  EXPECT_LT(warm_stats.keyword_index_bytes, cold_stats.keyword_index_bytes);
  EXPECT_LT(warm_stats.summary_graph_bytes, cold_stats.summary_graph_bytes);
  // Static index figures survive the round trip.
  EXPECT_EQ(warm_stats.summary_nodes, cold_stats.summary_nodes);
  EXPECT_EQ(warm_stats.summary_edges, cold_stats.summary_edges);
  EXPECT_EQ(warm_stats.keyword_elements, cold_stats.keyword_elements);
}

TEST(SnapshotWarmStartTest, AnswersWorkOnWarmEngine) {
  // The warm store supports full query evaluation (Find, scans, FILTER).
  Dataset dataset = grasp::testing::MakeFigure1Dataset();
  KeywordSearchEngine cold(dataset.store, dataset.dictionary);
  std::unique_ptr<KeywordSearchEngine> warm = Reopen(cold, "answers");
  ASSERT_NE(warm, nullptr);
  const auto cold_result = cold.Search({"2006", "cimiano"}, 1);
  const auto warm_result = warm->Search({"2006", "cimiano"}, 1);
  ASSERT_FALSE(cold_result.queries.empty());
  ASSERT_FALSE(warm_result.queries.empty());
  const auto cold_answers = cold.Answers(cold_result.queries[0].query);
  const auto warm_answers = warm->Answers(warm_result.queries[0].query);
  ASSERT_TRUE(cold_answers.ok());
  ASSERT_TRUE(warm_answers.ok());
  ASSERT_EQ(cold_answers->rows.size(), warm_answers->rows.size());
  for (std::size_t i = 0; i < cold_answers->rows.size(); ++i) {
    EXPECT_EQ(cold_answers->rows[i], warm_answers->rows[i]);
  }
}

}  // namespace
}  // namespace grasp::core
