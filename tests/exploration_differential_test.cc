// Differential tests: the flat SubgraphExplorer against the retained
// straightforward ReferenceExplorer. The two must agree byte for byte —
// same top-k costs (no tolerance: both sum path costs in the same order)
// and same structure keys — on the paper's running example (Fig. 1), a
// LUBM slice, TAP-style generated graphs, and seeded random graphs with
// random keyword sets and options. This also discharges the ROADMAP
// follow-up on randomized overlay/equivalence coverage: the randomized
// cases sweep keyword sets instead of pinning one.
//
// The same loops also pin the stop bound out of the ranking: the paper's
// plain TA bound and the tightened default must return one ranking, both
// from the explorers and from the engine's Search.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/filter_op.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/exploration.h"
#include "core/exploration_reference.h"
#include "datagen/dblp_gen.h"
#include "datagen/lubm_gen.h"
#include "datagen/tap_gen.h"
#include "datagen/workload.h"
#include "keyword/keyword_index.h"
#include "rdf/data_graph.h"
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

void FinishPipeline(Pipeline* p) {
  p->store.Finalize();
  p->graph = std::make_unique<rdf::DataGraph>(
      rdf::DataGraph::Build(p->store, p->dictionary));
  p->summary = std::make_unique<SummaryGraph>(SummaryGraph::Build(*p->graph));
  p->index = std::make_unique<keyword::KeywordIndex>(
      keyword::KeywordIndex::Build(*p->graph));
}

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

/// Corpus replay resolves operator keywords (">2000") through the filter
/// extension, exactly like the engine's keyword step.
AugmentedGraph AugmentCorpus(const Pipeline& p,
                             const std::vector<std::string>& keywords) {
  return AugmentedGraph::Build(
      *p.summary, grasp::testing::CorpusLookup(*p.index, keywords, 8));
}

/// Runs both explorers and asserts byte-identical top-k results. The flat
/// explorer runs through a shared scratch to also exercise cross-query
/// reuse the way the engine drives it.
void ExpectIdenticalTopK(const AugmentedGraph& augmented,
                         const ExplorationOptions& options,
                         ExplorationScratch* scratch,
                         const std::string& context) {
  SubgraphExplorer flat(augmented, options, scratch);
  const auto actual = flat.FindTopK();
  ReferenceExplorer reference(augmented, options);
  const auto expected = reference.FindTopK();

  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].cost, expected[i].cost) << context << " rank " << i;
    EXPECT_EQ(actual[i].StructureKey(), expected[i].StructureKey())
        << context << " rank " << i;
    EXPECT_EQ(actual[i].StructureHash(), expected[i].StructureHash())
        << context << " rank " << i;
  }
  // The exploration counters must agree too: both engines walk the same
  // cursor sequence.
  EXPECT_EQ(flat.stats().cursors_created, reference.stats().cursors_created)
      << context;
  EXPECT_EQ(flat.stats().cursors_popped, reference.stats().cursors_popped)
      << context;
  EXPECT_EQ(flat.stats().subgraphs_generated,
            reference.stats().subgraphs_generated)
      << context;
  EXPECT_EQ(flat.stats().subgraphs_deduplicated,
            reference.stats().subgraphs_deduplicated)
      << context;
  EXPECT_EQ(flat.stats().cursors_pruned, reference.stats().cursors_pruned)
      << context;
  EXPECT_EQ(flat.stats().complete_below, reference.stats().complete_below)
      << context;
}

/// Runs `options` under the plain and the tightened stop mode through both
/// explorers and asserts one complete ranking for all four runs: same
/// costs and structures, in the same order. The stop test is strict, so
/// anything the longer plain run adds costs more than the k-th candidate,
/// and goal-directed pruning drops only cursors whose every candidate does
/// too; the tightened run may only pop less. Discovery stamps count pops,
/// so they agree between flat and reference within each mode, not across
/// modes.
void ExpectStopBoundsAgree(const AugmentedGraph& augmented,
                           ExplorationOptions options,
                           ExplorationScratch* scratch,
                           const std::string& context) {
  options.tightened_bound = false;
  SubgraphExplorer plain(augmented, options, scratch);
  const auto expected = plain.FindTopK();
  const std::size_t plain_pops = plain.stats().cursors_popped;
  ReferenceExplorer plain_reference(augmented, options);
  const auto plain_reference_results = plain_reference.FindTopK();
  options.tightened_bound = true;
  ReferenceExplorer tight_reference(augmented, options);
  const auto tight_reference_results = tight_reference.FindTopK();
  SubgraphExplorer tight(augmented, options, scratch);
  const auto tight_results = tight.FindTopK();
  EXPECT_LE(tight.stats().cursors_popped, plain_pops) << context;

  auto expect_same = [&](const std::vector<MatchingSubgraph>& actual,
                         const std::vector<MatchingSubgraph>& want,
                         bool same_stamps, const char* pair) {
    ASSERT_EQ(actual.size(), want.size()) << context << " " << pair;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(actual[i].cost, want[i].cost)
          << context << " " << pair << " rank " << i;
      EXPECT_EQ(actual[i].StructureKey(), want[i].StructureKey())
          << context << " " << pair << " rank " << i;
      if (same_stamps) {
        EXPECT_EQ(actual[i].discovery, want[i].discovery)
            << context << " " << pair << " rank " << i;
      }
    }
  };
  expect_same(plain_reference_results, expected, true, "plain ref/flat");
  expect_same(tight_reference_results, tight_results, true, "tight ref/flat");
  expect_same(tight_results, expected, false, "tight/plain");
}

/// Option matrix shared by the fixture tests.
std::vector<ExplorationOptions> OptionMatrix() {
  std::vector<ExplorationOptions> all;
  for (CostModel model : {CostModel::kPathLength, CostModel::kPopularity,
                          CostModel::kMatching}) {
    for (std::size_t k : {1u, 5u, 20u}) {
      for (bool prune : {true, false}) {
        ExplorationOptions options;
        options.k = k;
        options.cost_model = model;
        options.prune_paths_per_element = prune;
        for (bool tightened : {false, true}) {
          options.tightened_bound = tightened;
          all.push_back(options);
        }
      }
    }
  }
  return all;
}

TEST(ExplorationDifferentialTest, Figure1Fixture) {
  Pipeline p = FromDataset(grasp::testing::MakeFigure1Dataset());
  const AugmentedGraph augmented = Augment(p, {"2006", "cimiano", "aifb"});
  ExplorationScratch scratch;
  for (const ExplorationOptions& options : OptionMatrix()) {
    const std::string context =
        StrFormat("fig1 k=%zu model=%d prune=%d", options.k,
                  static_cast<int>(options.cost_model),
                  options.prune_paths_per_element ? 1 : 0);
    ExpectIdenticalTopK(augmented, options, &scratch, context);
    ExpectStopBoundsAgree(augmented, options, &scratch, context);
  }
}

TEST(ExplorationDifferentialTest, LubmFixture) {
  Pipeline p;
  datagen::LubmOptions options;
  options.num_universities = 1;
  options.departments_per_university = 2;
  datagen::GenerateLubm(options, &p.dictionary, &p.store);
  FinishPipeline(&p);
  ExplorationScratch scratch;
  for (const auto& keywords :
       std::vector<std::vector<std::string>>{{"publication", "professor"},
                                             {"course", "student", "name"},
                                             {"department"}}) {
    const AugmentedGraph augmented = Augment(p, keywords);
    for (const ExplorationOptions& explore : OptionMatrix()) {
      const std::string context =
          StrFormat("lubm %s k=%zu model=%d", Join(keywords, "+").c_str(),
                    explore.k, static_cast<int>(explore.cost_model));
      ExpectIdenticalTopK(augmented, explore, &scratch, context);
      ExpectStopBoundsAgree(augmented, explore, &scratch, context);
    }
  }
}

// Checked-in fuzzing seed corpus (tests/corpus/): keyword-set shapes that
// randomized runs surfaced, replayed forever through both explorers.
TEST(ExplorationDifferentialTest, CorpusReplayFigure1) {
  Pipeline p = FromDataset(grasp::testing::MakeFigure1Dataset());
  ExplorationScratch scratch;
  for (const auto& keywords :
       grasp::testing::LoadKeywordCorpus("fig1_keyword_sets.txt")) {
    const AugmentedGraph augmented = AugmentCorpus(p, keywords);
    for (bool prune : {true, false}) {
      ExplorationOptions options;
      options.k = prune ? 5 : 20;
      options.prune_paths_per_element = prune;
      ExpectIdenticalTopK(
          augmented, options, &scratch,
          StrFormat("fig1 corpus %s prune=%d", Join(keywords, "+").c_str(),
                    prune ? 1 : 0));
    }
  }
}

TEST(ExplorationDifferentialTest, CorpusReplayRandomGraphs) {
  for (std::uint64_t seed : {std::uint64_t{101}, std::uint64_t{202}}) {
    auto dataset = grasp::testing::MakeRandomDataset(
        seed, /*num_classes=*/4, /*num_entities=*/14, /*num_relations=*/18,
        /*num_predicates=*/3, /*num_attributes=*/10, /*value_pool=*/4);
    Pipeline p = FromDataset(std::move(dataset));
    ExplorationScratch scratch;
    for (const auto& keywords :
         grasp::testing::LoadKeywordCorpus("generic_keyword_sets.txt")) {
      const AugmentedGraph augmented = AugmentCorpus(p, keywords);
      for (CostModel model : {CostModel::kPathLength, CostModel::kMatching}) {
        ExplorationOptions options;
        options.k = 8;
        options.cost_model = model;
        ExpectIdenticalTopK(
            augmented, options, &scratch,
            StrFormat("random seed=%llu corpus %s model=%d",
                      static_cast<unsigned long long>(seed),
                      Join(keywords, "+").c_str(),
                      static_cast<int>(model)));
      }
    }
  }
}

/// Ties at the k-th cost: four classes hang off one hub, each with a "beta"
/// value, so the four alpha-hub-C_i-beta structures cost the same under
/// every cost model. Whichever bound stops the run, the cut through the tie
/// and the order inside it must not move.
TEST(ExplorationDifferentialTest, TiesAtKthCostIndependentOfStopBound) {
  Pipeline p = FromDataset(grasp::testing::MakeDataset({
      R"(h a Hub)",        R"(h name "alpha")",
      R"(x1 a C1)",        R"(x1 link h)",      R"(x1 tag "beta")",
      R"(x2 a C2)",        R"(x2 link h)",      R"(x2 tag "beta")",
      R"(x3 a C3)",        R"(x3 link h)",      R"(x3 tag "beta")",
      R"(x4 a C4)",        R"(x4 link h)",      R"(x4 tag "beta")",
  }));
  const AugmentedGraph augmented = Augment(p, {"alpha", "beta"});
  ExplorationScratch scratch;
  for (CostModel model : {CostModel::kPathLength, CostModel::kPopularity,
                          CostModel::kMatching}) {
    ExplorationOptions options;
    options.cost_model = model;
    options.k = 20;
    const auto full = SubgraphExplorer(augmented, options, &scratch).FindTopK();
    ASSERT_GE(full.size(), 4u);
    // The fixture's point: at least three structures share the 2nd cost.
    std::size_t tied = 0;
    for (const auto& sg : full) tied += sg.cost == full[1].cost ? 1 : 0;
    ASSERT_GE(tied, 3u) << "model=" << static_cast<int>(model);

    for (std::size_t k = 1; k <= 6; ++k) {
      for (bool prune : {true, false}) {
        options.k = k;
        options.prune_paths_per_element = prune;
        const std::string context =
            StrFormat("ties k=%zu model=%d prune=%d", k,
                      static_cast<int>(model), prune ? 1 : 0);
        ExpectIdenticalTopK(augmented, options, &scratch, context);
        ExpectStopBoundsAgree(augmented, options, &scratch, context);
      }
    }
  }
}

/// Engine level: Search under either stop bound returns the same ranked
/// queries — cost, tie-break keys and canonical form — for the paper's DBLP
/// workloads (Fig. 5 Q1-Q10 and the Fig. 4 queries), so the tightened
/// serving default cannot change an answer.
TEST(ExplorationDifferentialTest, EngineRankingIndependentOfStopBound) {
  grasp::testing::Dataset dblp;
  datagen::GenerateDblp(datagen::DblpOptions{}, &dblp.dictionary, &dblp.store);
  dblp.store.Finalize();
  KeywordSearchEngine engine(dblp.store, dblp.dictionary);
  std::vector<datagen::WorkloadQuery> workload =
      datagen::DblpPerformanceWorkload();
  for (auto& q : datagen::DblpEffectivenessWorkload()) {
    workload.push_back(std::move(q));
  }
  ExplorationOptions plain = engine.options().exploration;
  plain.tightened_bound = false;
  ExplorationOptions tight = plain;
  tight.tightened_bound = true;
  for (const auto& q : workload) {
    for (std::size_t k : {3u, 10u}) {
      const std::string context = StrFormat("%s k=%zu", q.id.c_str(), k);
      const auto expected = engine.Search(q.keywords, k, plain);
      const auto actual = engine.Search(q.keywords, k, tight);
      ASSERT_TRUE(expected.status.ok()) << context;
      ASSERT_TRUE(actual.status.ok()) << context;
      EXPECT_FALSE(expected.degraded) << context;
      EXPECT_FALSE(actual.degraded) << context;
      EXPECT_LE(actual.exploration_stats.cursors_popped,
                expected.exploration_stats.cursors_popped)
          << context;
      ASSERT_EQ(actual.queries.size(), expected.queries.size()) << context;
      for (std::size_t i = 0; i < expected.queries.size(); ++i) {
        const auto& a = actual.queries[i];
        const auto& e = expected.queries[i];
        EXPECT_EQ(a.cost, e.cost) << context << " rank " << i;
        EXPECT_EQ(a.structure_cost, e.structure_cost)
            << context << " rank " << i;
        EXPECT_EQ(a.constant_count, e.constant_count)
            << context << " rank " << i;
        EXPECT_EQ(a.canonical, e.canonical) << context << " rank " << i;
      }
    }
  }
}

/// Seeded random TAP-style graphs (many classes, few instances) and random
/// keyword sets drawn from the generator vocabulary, with randomized
/// exploration options.
class RandomizedDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedDifferentialTest, TapStyleGraphs) {
  Rng rng(GetParam());
  Pipeline p;
  datagen::TapOptions tap;
  tap.seed = GetParam();
  tap.num_classes = 12 + rng.NextBelow(36);
  tap.instances_per_class = 2 + rng.NextBelow(3);
  datagen::GenerateTap(tap, &p.dictionary, &p.store);
  FinishPipeline(&p);

  std::vector<std::string> vocabulary = {"item",   "album", "team", "city",
                                         "player", "name",  "event"};
  ExplorationScratch scratch;
  for (int round = 0; round < 4; ++round) {
    rng.Shuffle(&vocabulary);
    const std::size_t m = 1 + rng.NextBelow(3);
    std::vector<std::string> keywords(vocabulary.begin(),
                                      vocabulary.begin() + m);
    const AugmentedGraph augmented = Augment(p, keywords);

    ExplorationOptions explore;
    explore.k = 1 + rng.NextBelow(12);
    explore.dmax = 4 + rng.NextBelow(8);
    explore.cost_model = static_cast<CostModel>(1 + rng.NextBelow(3));
    explore.prune_paths_per_element = rng.NextBernoulli(0.7);
    explore.tightened_bound = rng.NextBernoulli(0.5);
    const std::string context =
        StrFormat("tap seed=%llu %s k=%zu dmax=%u model=%d",
                  static_cast<unsigned long long>(GetParam()),
                  Join(keywords, "+").c_str(), explore.k, explore.dmax,
                  static_cast<int>(explore.cost_model));
    ExpectIdenticalTopK(augmented, explore, &scratch, context);
    ExpectStopBoundsAgree(augmented, explore, &scratch, context);
  }
}

TEST_P(RandomizedDifferentialTest, RandomGraphs) {
  Rng rng(GetParam() * 7919 + 13);
  auto dataset = grasp::testing::MakeRandomDataset(
      GetParam(), /*num_classes=*/4, /*num_entities=*/14,
      /*num_relations=*/18, /*num_predicates=*/3, /*num_attributes=*/10,
      /*value_pool=*/4);
  Pipeline p = FromDataset(std::move(dataset));

  std::vector<std::string> vocabulary = {"class0", "class1", "class2",
                                         "class3", "rel0",   "rel1",
                                         "rel2",   "value0", "value1",
                                         "value2", "attr0",  "attr1"};
  ExplorationScratch scratch;
  for (int round = 0; round < 4; ++round) {
    rng.Shuffle(&vocabulary);
    const std::size_t m = 1 + rng.NextBelow(3);
    std::vector<std::string> keywords(vocabulary.begin(),
                                      vocabulary.begin() + m);
    const AugmentedGraph augmented = Augment(p, keywords);

    ExplorationOptions explore;
    explore.k = 1 + rng.NextBelow(8);
    explore.dmax = 3 + rng.NextBelow(8);
    explore.cost_model = static_cast<CostModel>(1 + rng.NextBelow(3));
    explore.prune_paths_per_element = rng.NextBernoulli(0.7);
    explore.tightened_bound = rng.NextBernoulli(0.5);
    const std::string context =
        StrFormat("random seed=%llu %s k=%zu dmax=%u model=%d",
                  static_cast<unsigned long long>(GetParam()),
                  Join(keywords, "+").c_str(), explore.k, explore.dmax,
                  static_cast<int>(explore.cost_model));
    ExpectIdenticalTopK(augmented, explore, &scratch, context);
    ExpectStopBoundsAgree(augmented, explore, &scratch, context);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

}  // namespace
}  // namespace grasp::core
