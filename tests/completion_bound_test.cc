// Goal-directed pruning: the cost-to-complete bound h of
// core/completion_bound.h and the prune the serving stop mode
// (tightened_bound) builds on it.
//  - Admissibility: on every returned subgraph of the paper's plain Alg. 2
//    run, every prefix of every path plus its h stays within the subgraph's
//    cost, scoped and unscoped, under all three cost models.
//  - Same answers: the pruned run ranks the same costs and structures, in
//    the same order, as plain Alg. 2, including a k-th-cost tie.
//  - Pruning happens on a TAP query, and saves pops.
//  - No carry-over: a long-lived engine answers every query exactly like a
//    fresh engine, in any order and on 4 threads, so the pooled bound
//    arrays hold nothing from an earlier query.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "concurrent_search.h"
#include "core/completion_bound.h"
#include "core/cost_model.h"
#include "core/engine.h"
#include "core/exploration.h"
#include "datagen/dblp_gen.h"
#include "datagen/lubm_gen.h"
#include "datagen/tap_gen.h"
#include "datagen/workload.h"
#include "graph/edge_filter.h"
#include "keyword/keyword_index.h"
#include "rdf/data_graph.h"
#include "summary/augmented_graph.h"
#include "summary/summary_graph.h"
#include "test_util.h"

namespace grasp::core {
namespace {

using summary::AugmentedGraph;
using summary::ElementId;
using summary::SummaryGraph;

constexpr double kInf = std::numeric_limits<double>::infinity();

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

std::unique_ptr<Pipeline> FromDataset(grasp::testing::Dataset dataset) {
  auto p = std::make_unique<Pipeline>();
  p->dictionary = std::move(dataset.dictionary);
  p->store = std::move(dataset.store);
  FinishPipeline(p.get());
  return p;
}

std::unique_ptr<Pipeline> Lubm() {
  auto p = std::make_unique<Pipeline>();
  datagen::LubmOptions options;
  options.num_universities = 1;
  options.departments_per_university = 2;
  datagen::GenerateLubm(options, &p->dictionary, &p->store);
  FinishPipeline(p.get());
  return p;
}

std::unique_ptr<Pipeline> Tap48() {
  auto p = std::make_unique<Pipeline>();
  datagen::TapOptions options;
  options.num_classes = 48;
  datagen::GenerateTap(options, &p->dictionary, &p->store);
  FinishPipeline(p.get());
  return p;
}

AugmentedGraph Augment(const Pipeline& p,
                       const std::vector<std::string>& keywords,
                       std::size_t max_results = 8) {
  text::InvertedIndex::SearchOptions options;
  options.max_results = max_results;
  std::vector<std::vector<keyword::KeywordMatch>> matches;
  for (const auto& kw : keywords) {
    matches.push_back(p.index->Lookup(kw, options));
  }
  return AugmentedGraph::Build(*p.summary, matches);
}

bool Answerable(const AugmentedGraph& augmented) {
  for (const auto& k_i : augmented.keyword_elements()) {
    if (k_i.empty()) return false;
  }
  return augmented.num_keywords() > 0;
}

/// No scope, then every relation/attribute label, every other label, and
/// one label (the scope shapes of the filtered exploration suite).
std::vector<std::vector<rdf::TermId>> Scopes(const Pipeline& p) {
  std::set<rdf::TermId> labels;
  for (const rdf::Edge& e : p.graph->edges()) {
    if (e.kind == rdf::EdgeKind::kRelation ||
        e.kind == rdf::EdgeKind::kAttribute) {
      labels.insert(e.label);
    }
  }
  const std::vector<rdf::TermId> all(labels.begin(), labels.end());
  std::vector<rdf::TermId> half;
  for (std::size_t i = 0; i < all.size(); i += 2) half.push_back(all[i]);
  std::vector<std::vector<rdf::TermId>> scopes = {all, half};
  if (!all.empty()) scopes.push_back({all.front()});
  return scopes;
}

/// Every prefix of every path of every subgraph the plain Alg. 2 run
/// returns: prefix cost (summed as a cursor sums it) plus h of the prefix's
/// last element, discounted by PruneKey, is at most the subgraph's cost.
/// Also h_i(x) is never below the other keywords' cheapest roots.
void ExpectAdmissible(const AugmentedGraph& augmented,
                      const graph::OverlayEdgeFilter* scope, CostModel model,
                      const std::string& context) {
  ExplorationOptions options;
  options.k = 20;
  options.cost_model = model;
  options.edge_filter = scope;
  options.tightened_bound = false;  // the bound must hold for Alg. 2's answers
  SubgraphExplorer explorer(augmented, options);
  const auto results = explorer.FindTopK();

  const CostFunction cost_fn(model, augmented);
  std::vector<double> element_cost;
  cost_fn.DenseCosts(&element_cost);
  CompletionBounds bounds;
  ComputeCompletionBounds(augmented, scope, element_cost, &bounds);

  std::size_t checks = 0;
  for (const MatchingSubgraph& sg : results) {
    for (std::uint32_t j = 0; j < sg.paths.size(); ++j) {
      double prefix = 0.0;
      for (ElementId el : sg.paths[j]) {
        prefix += cost_fn.ElementCost(el);
        const double h = bounds.At(augmented.DenseIndex(el), j);
        ASSERT_LT(h, kInf) << context << " keyword " << j;
        EXPECT_LE(PruneKey(prefix, h), sg.cost)
            << context << " keyword " << j << " prefix " << prefix;
        ++checks;
      }
    }
  }
  if (!results.empty()) {
    EXPECT_GT(checks, 0u) << context;
  }

  const std::size_t m = augmented.num_keywords();
  std::vector<double> min_root(m, kInf);
  for (std::size_t j = 0; j < m; ++j) {
    for (const summary::ScoredElement& se : augmented.keyword_elements()[j]) {
      if (scope != nullptr && se.element.is_edge() &&
          !scope->Contains(se.element.index())) {
        continue;
      }
      min_root[j] = std::min(min_root[j], cost_fn.ElementCost(se.element));
    }
  }
  for (std::uint32_t i = 0; i < m; ++i) {
    double others = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      if (j != i) others += min_root[j];
    }
    for (std::size_t x = 0; x < augmented.num_elements(); ++x) {
      ASSERT_GE(bounds.At(x, i), others * (1.0 - 1e-12))
          << context << " keyword " << i << " element " << x;
    }
  }
}

void ExpectAdmissibleEverywhere(const Pipeline& p,
                                const std::vector<std::string>& keywords,
                                const std::string& tag) {
  const AugmentedGraph augmented = Augment(p, keywords);
  ASSERT_TRUE(Answerable(augmented)) << tag << " " << Join(keywords, "+");
  const auto scopes = Scopes(p);
  for (CostModel model : {CostModel::kPathLength, CostModel::kPopularity,
                          CostModel::kMatching}) {
    const std::string context = StrFormat(
        "%s %s model=%d", tag.c_str(), Join(keywords, "+").c_str(),
        static_cast<int>(model));
    ExpectAdmissible(augmented, nullptr, model, context + " unscoped");
    for (std::size_t s = 0; s < scopes.size(); ++s) {
      const graph::EdgeFilter base = p.summary->PredicateScopeFilter(scopes[s]);
      const graph::OverlayEdgeFilter scoped =
          augmented.ScopedFilter(&base, scopes[s]);
      ExpectAdmissible(augmented, &scoped, model,
                       context + StrFormat(" scope=%zu", s));
    }
  }
}

TEST(CompletionBoundTest, AdmissibleOnFigure1) {
  auto p = FromDataset(grasp::testing::MakeFigure1Dataset());
  ExpectAdmissibleEverywhere(*p, {"2006", "cimiano", "aifb"}, "fig1");
  ExpectAdmissibleEverywhere(*p, {"publication", "project"}, "fig1");
}

TEST(CompletionBoundTest, AdmissibleOnLubm) {
  auto p = Lubm();
  ExpectAdmissibleEverywhere(*p, {"publication", "professor"}, "lubm");
  ExpectAdmissibleEverywhere(*p, {"course", "student", "name"}, "lubm");
}

TEST(CompletionBoundTest, AdmissibleOnTap) {
  auto p = Tap48();
  ExpectAdmissibleEverywhere(*p, {"art", "venue", "3"}, "tap");
  ExpectAdmissibleEverywhere(*p, {"science", "team"}, "tap");
}

TEST(CompletionBoundTest, AdmissibleOnRandomGraphs) {
  for (std::uint64_t seed : {3u, 17u, 29u}) {
    auto p = FromDataset(grasp::testing::MakeRandomDataset(
        seed, /*num_classes=*/4, /*num_entities=*/14, /*num_relations=*/18,
        /*num_predicates=*/3, /*num_attributes=*/10, /*value_pool=*/4));
    for (const auto& keywords : std::vector<std::vector<std::string>>{
             {"class0", "value1", "rel2"}, {"class1", "attr0"}}) {
      const AugmentedGraph augmented = Augment(*p, keywords);
      if (!Answerable(augmented)) continue;
      ExpectAdmissibleEverywhere(*p, keywords,
                                 StrFormat("random seed=%llu",
                                           static_cast<unsigned long long>(
                                               seed)));
    }
  }
}

/// The pruned (tightened) run against plain Alg. 2: same costs and
/// structures in the same order, and every returned entry below the pruned
/// run's completeness bound.
void ExpectSameAnswers(const AugmentedGraph& augmented,
                       ExplorationOptions options,
                       const std::string& context) {
  options.tightened_bound = false;
  SubgraphExplorer plain(augmented, options);
  const auto expected = plain.FindTopK();
  options.tightened_bound = true;
  SubgraphExplorer pruned(augmented, options);
  const auto actual = pruned.FindTopK();

  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].cost, expected[i].cost) << context << " rank " << i;
    EXPECT_EQ(actual[i].StructureKey(), expected[i].StructureKey())
        << context << " rank " << i;
  }
  EXPECT_LE(pruned.stats().cursors_popped, plain.stats().cursors_popped)
      << context;
  EXPECT_EQ(plain.stats().cursors_pruned, 0u) << context;
  if (!actual.empty()) {
    EXPECT_LT(actual.back().cost, pruned.stats().complete_below) << context;
  }
}

TEST(CompletionBoundTest, SameAnswersAsAlgorithm2) {
  auto fig1 = FromDataset(grasp::testing::MakeFigure1Dataset());
  auto lubm = Lubm();
  auto tap = Tap48();
  struct Case {
    const Pipeline* p;
    std::vector<std::string> keywords;
  };
  const std::vector<Case> cases = {
      {fig1.get(), {"2006", "cimiano", "aifb"}},
      {lubm.get(), {"publication", "professor"}},
      {lubm.get(), {"course", "student", "name"}},
      {tap.get(), {"art", "venue", "3"}},
      {tap.get(), {"politics", "player", "1"}},
  };
  for (const Case& c : cases) {
    const AugmentedGraph augmented = Augment(*c.p, c.keywords, 16);
    ASSERT_TRUE(Answerable(augmented)) << Join(c.keywords, "+");
    const auto scopes = Scopes(*c.p);
    for (CostModel model : {CostModel::kPathLength, CostModel::kPopularity,
                            CostModel::kMatching}) {
      for (std::size_t k : {1u, 5u, 20u}) {
        ExplorationOptions options;
        options.k = k;
        options.cost_model = model;
        const std::string context =
            StrFormat("%s k=%zu model=%d", Join(c.keywords, "+").c_str(), k,
                      static_cast<int>(model));
        ExpectSameAnswers(augmented, options, context);
        const graph::EdgeFilter base =
            c.p->summary->PredicateScopeFilter(scopes[1]);
        const graph::OverlayEdgeFilter scoped =
            augmented.ScopedFilter(&base, scopes[1]);
        options.edge_filter = &scoped;
        ExpectSameAnswers(augmented, options, context + " scoped");
      }
    }
  }
}

/// Four alpha-hub-C_i-beta structures tie in cost under every model (C1's
/// ties are exact integers, so the prune's relative margin is what keeps
/// them): the cut through the tie and the order inside it must not move.
TEST(CompletionBoundTest, SameAnswersAtKthCostTie) {
  auto p = FromDataset(grasp::testing::MakeDataset({
      R"(h a Hub)",        R"(h name "alpha")",
      R"(x1 a C1)",        R"(x1 link h)",      R"(x1 tag "beta")",
      R"(x2 a C2)",        R"(x2 link h)",      R"(x2 tag "beta")",
      R"(x3 a C3)",        R"(x3 link h)",      R"(x3 tag "beta")",
      R"(x4 a C4)",        R"(x4 link h)",      R"(x4 tag "beta")",
  }));
  const AugmentedGraph augmented = Augment(*p, {"alpha", "beta"});
  for (CostModel model : {CostModel::kPathLength, CostModel::kPopularity,
                          CostModel::kMatching}) {
    for (std::size_t k = 1; k <= 6; ++k) {
      for (bool cap : {true, false}) {
        ExplorationOptions options;
        options.k = k;
        options.cost_model = model;
        options.prune_paths_per_element = cap;
        ExpectSameAnswers(augmented, options,
                          StrFormat("tie k=%zu model=%d cap=%d", k,
                                    static_cast<int>(model), cap ? 1 : 0));
      }
    }
  }
}

TEST(CompletionBoundTest, PrunesOnTap) {
  auto p = Tap48();
  const AugmentedGraph augmented = Augment(*p, {"art", "venue", "3"}, 16);
  ASSERT_TRUE(Answerable(augmented));
  ExplorationOptions options;
  options.k = 20;  // the engine's overfetch for k = 10
  options.tightened_bound = false;
  SubgraphExplorer plain(augmented, options);
  plain.FindTopK();
  options.tightened_bound = true;
  SubgraphExplorer pruned(augmented, options);
  pruned.FindTopK();
  EXPECT_GT(pruned.stats().cursors_pruned, 0u);
  EXPECT_LT(pruned.stats().cursors_popped, plain.stats().cursors_popped);
  EXPECT_EQ(plain.stats().cursors_pruned, 0u);
}

// ------------------------------------------------------------ carry-over --

using KeywordQuery = KeywordSearchEngine::KeywordQuery;
using SearchResult = KeywordSearchEngine::SearchResult;

void ExpectSameRanking(const SearchResult& actual, const SearchResult& want,
                       const std::string& context) {
  ASSERT_TRUE(actual.status.ok()) << context;
  ASSERT_TRUE(want.status.ok()) << context;
  EXPECT_EQ(actual.exploration_stats.cursors_popped,
            want.exploration_stats.cursors_popped)
      << context;
  EXPECT_EQ(actual.exploration_stats.cursors_pruned,
            want.exploration_stats.cursors_pruned)
      << context;
  ASSERT_EQ(actual.queries.size(), want.queries.size()) << context;
  for (std::size_t i = 0; i < want.queries.size(); ++i) {
    EXPECT_EQ(actual.queries[i].cost, want.queries[i].cost)
        << context << " rank " << i;
    EXPECT_EQ(actual.queries[i].structure_cost, want.queries[i].structure_cost)
        << context << " rank " << i;
    EXPECT_EQ(actual.queries[i].canonical, want.queries[i].canonical)
        << context << " rank " << i;
  }
}

/// One long-lived engine runs `pool` forward, backward and on 4 threads;
/// each answer must equal a fresh engine's for that query alone.
void ExpectNoCarryOver(const grasp::testing::Dataset& data,
                       const std::vector<KeywordQuery>& pool,
                       const std::string& tag) {
  std::vector<SearchResult> fresh;
  for (const KeywordQuery& q : pool) {
    KeywordSearchEngine engine(data.store, data.dictionary);
    fresh.push_back(engine.Search(q));
  }
  KeywordSearchEngine shared(data.store, data.dictionary);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ExpectSameRanking(shared.Search(pool[i]), fresh[i],
                      StrFormat("%s forward #%zu", tag.c_str(), i));
  }
  for (std::size_t i = pool.size(); i-- > 0;) {
    ExpectSameRanking(shared.Search(pool[i]), fresh[i],
                      StrFormat("%s backward #%zu", tag.c_str(), i));
  }
  const auto concurrent = grasp::testing::SearchOnThreads(shared, pool, 4);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ExpectSameRanking(concurrent[i], fresh[i],
                      StrFormat("%s concurrent #%zu", tag.c_str(), i));
  }
}

TEST(CompletionBoundTest, NoCarryOverAcrossDblpQueries) {
  grasp::testing::Dataset data;
  datagen::GenerateDblp(datagen::DblpOptions{}, &data.dictionary, &data.store);
  data.store.Finalize();
  std::vector<KeywordQuery> pool;
  auto add = [&pool](const datagen::WorkloadQuery& q) {
    KeywordQuery query;
    query.keywords = q.keywords;
    query.k = 10;
    pool.push_back(std::move(query));
  };
  for (const auto& q : datagen::DblpPerformanceWorkload()) add(q);
  for (const auto& q : datagen::DblpEffectivenessWorkload()) add(q);
  ExpectNoCarryOver(data, pool, "dblp");
}

TEST(CompletionBoundTest, NoCarryOverAcrossLubmQueries) {
  grasp::testing::Dataset data;
  datagen::GenerateLubm(datagen::LubmOptions{}, &data.dictionary, &data.store);
  data.store.Finalize();
  // 2-keyword entity/word pairs, every second one scoped to a predicate.
  const char* const kEntities[] = {"professor", "student", "publication",
                                   "course"};
  const char* const kWords[] = {"databases", "networks", "department",
                                "university", "course",  "research"};
  const char* const kPredicates[] = {"worksFor", "takesCourse", "advisor",
                                     "publicationAuthor", "name"};
  Rng rng(5);
  std::vector<KeywordQuery> pool;
  while (pool.size() < 32) {
    KeywordQuery q;
    q.keywords = {kEntities[rng.NextBelow(std::size(kEntities))] +
                      std::to_string(rng.NextBelow(200)),
                  kWords[rng.NextBelow(std::size(kWords))]};
    q.k = 10;
    if (pool.size() % 2 == 1) {
      q.predicate_scope = {kPredicates[rng.NextBelow(std::size(kPredicates))]};
    }
    pool.push_back(std::move(q));
  }
  ExpectNoCarryOver(data, pool, "lubm");
}

}  // namespace
}  // namespace grasp::core
