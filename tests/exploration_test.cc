#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "core/cost_model.h"
#include "core/exploration.h"
#include "core/exploration_reference.h"
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

/// Bundle keeping every stage of the pipeline alive for a test.
struct Pipeline {
  grasp::testing::Dataset dataset;
  std::unique_ptr<rdf::DataGraph> graph;
  std::unique_ptr<SummaryGraph> summary;
  std::unique_ptr<keyword::KeywordIndex> index;
  std::unique_ptr<AugmentedGraph> augmented;
};

Pipeline MakePipeline(grasp::testing::Dataset dataset,
                      const std::vector<std::string>& keywords) {
  Pipeline p{std::move(dataset), nullptr, nullptr, nullptr, nullptr};
  p.graph = std::make_unique<rdf::DataGraph>(
      rdf::DataGraph::Build(p.dataset.store, p.dataset.dictionary));
  p.summary = std::make_unique<SummaryGraph>(SummaryGraph::Build(*p.graph));
  p.index = std::make_unique<keyword::KeywordIndex>(
      keyword::KeywordIndex::Build(*p.graph));
  text::InvertedIndex::SearchOptions options;
  options.max_results = 8;
  std::vector<std::vector<keyword::KeywordMatch>> matches;
  for (const auto& kw : keywords) {
    matches.push_back(p.index->Lookup(kw, options));
  }
  p.augmented =
      std::make_unique<AugmentedGraph>(AugmentedGraph::Build(*p.summary, matches));
  return p;
}

/// Independent brute-force oracle for Definition 6 + Sec. V costs: exhaustive
/// DFS enumeration of all simple paths from every keyword element, then all
/// per-element combinations, deduplicated by structure with minimal cost.
struct OracleResult {
  std::map<std::string, double> cost_by_structure;
  std::vector<double> sorted_costs;
};

OracleResult BruteForce(const AugmentedGraph& g, const CostFunction& cost_fn,
                        std::uint32_t dmax) {
  const std::size_t m = g.num_keywords();
  struct Path {
    std::vector<ElementId> elements;
    double cost;
  };
  // paths[element_raw][kw] -> list of paths ending at that element.
  std::map<std::uint32_t, std::vector<std::vector<Path>>> paths_ending_at;

  auto neighbors = [&g](ElementId el) {
    std::vector<ElementId> out;
    if (el.is_node()) {
      for (summary::EdgeId e : g.IncidentEdges(el.index())) {
        out.push_back(ElementId::Edge(e));
      }
    } else {
      const auto& e = g.edge(el.index());
      out.push_back(ElementId::Node(e.from));
      if (e.to != e.from) out.push_back(ElementId::Node(e.to));
    }
    return out;
  };

  std::function<void(std::uint32_t, std::vector<ElementId>&, double)> dfs =
      [&](std::uint32_t kw, std::vector<ElementId>& stack, double cost) {
        ElementId cur = stack.back();
        auto& slot = paths_ending_at[cur.raw()];
        if (slot.empty()) slot.resize(m);
        slot[kw].push_back(Path{stack, cost});
        if (stack.size() > dmax) return;  // distance = elements - 1
        for (ElementId nb : neighbors(cur)) {
          if (std::find(stack.begin(), stack.end(), nb) != stack.end()) {
            continue;  // simple paths only
          }
          stack.push_back(nb);
          dfs(kw, stack, cost + cost_fn.ElementCost(nb));
          stack.pop_back();
        }
      };

  for (std::uint32_t kw = 0; kw < m; ++kw) {
    for (const auto& se : g.keyword_elements()[kw]) {
      std::vector<ElementId> stack{se.element};
      dfs(kw, stack, cost_fn.ElementCost(se.element));
    }
  }

  OracleResult oracle;
  for (const auto& [element_raw, per_kw] : paths_ending_at) {
    (void)element_raw;
    bool connecting = true;
    for (const auto& list : per_kw) connecting = connecting && !list.empty();
    if (!connecting) continue;
    // All combinations at this element.
    std::vector<std::size_t> choice(m, 0);
    while (true) {
      MatchingSubgraph sg;
      sg.cost = 0;
      for (std::uint32_t kw = 0; kw < m; ++kw) {
        const Path& path = per_kw[kw][choice[kw]];
        sg.cost += path.cost;
        for (ElementId el : path.elements) {
          if (el.is_edge()) {
            sg.edges.push_back(el.index());
            sg.nodes.push_back(g.edge(el.index()).from);
            sg.nodes.push_back(g.edge(el.index()).to);
          } else {
            sg.nodes.push_back(el.index());
          }
        }
      }
      std::sort(sg.nodes.begin(), sg.nodes.end());
      sg.nodes.erase(std::unique(sg.nodes.begin(), sg.nodes.end()),
                     sg.nodes.end());
      std::sort(sg.edges.begin(), sg.edges.end());
      sg.edges.erase(std::unique(sg.edges.begin(), sg.edges.end()),
                     sg.edges.end());
      const std::string key = sg.StructureKey();
      auto it = oracle.cost_by_structure.find(key);
      if (it == oracle.cost_by_structure.end() || sg.cost < it->second) {
        oracle.cost_by_structure[key] = sg.cost;
      }
      // Advance the mixed-radix counter.
      std::size_t j = 0;
      for (; j < m; ++j) {
        if (++choice[j] < per_kw[j].size()) break;
        choice[j] = 0;
      }
      if (j == m) break;
    }
  }
  for (const auto& [key, cost] : oracle.cost_by_structure) {
    (void)key;
    oracle.sorted_costs.push_back(cost);
  }
  std::sort(oracle.sorted_costs.begin(), oracle.sorted_costs.end());
  return oracle;
}

// ------------------------------------------------------ Figure 1 example --

class Fig1ExplorationTest : public ::testing::Test {
 protected:
  Fig1ExplorationTest()
      : pipeline_(MakePipeline(grasp::testing::MakeFigure1Dataset(),
                               {"2006", "cimiano", "aifb"})) {}

  Pipeline pipeline_;
};

TEST(StructureHashTest, StructHashSeparatesStreamsAndCounts) {
  // {n1}|{} vs {}|{e1} with the same id must differ (per-stream salts), and
  // shifting an element across the stream boundary must change the hash.
  const std::uint32_t id[] = {42};
  EXPECT_NE(StructureHashOf(id, {}), StructureHashOf({}, id));
  const std::uint32_t two[] = {1, 2};
  EXPECT_NE(StructureHashOf(two, {}),
            StructureHashOf(std::span(two, 1), std::span(two + 1, 1)));
}

TEST_F(Fig1ExplorationTest, FindsConnectingSubgraph) {
  ExplorationOptions options;
  options.k = 3;
  SubgraphExplorer explorer(*pipeline_.augmented, options);
  auto results = explorer.FindTopK();
  ASSERT_FALSE(results.empty());
  // Every result must contain one representative per keyword (Def. 6).
  for (const auto& sg : results) {
    ASSERT_EQ(sg.paths.size(), 3u);
    for (const auto& path : sg.paths) ASSERT_FALSE(path.empty());
  }
}

TEST_F(Fig1ExplorationTest, ResultsSortedByCost) {
  ExplorationOptions options;
  options.k = 5;
  SubgraphExplorer explorer(*pipeline_.augmented, options);
  auto results = explorer.FindTopK();
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_LE(results[i - 1].cost, results[i].cost);
  }
}

TEST_F(Fig1ExplorationTest, TopSubgraphIsPaperQueryShape) {
  // The cheapest interpretation should connect Publication(year 2006),
  // Researcher(name Cimiano) and Institute(name AIFB) through author and
  // worksAt — the Fig. 3 exploration result.
  ExplorationOptions options;
  options.k = 1;
  options.cost_model = CostModel::kMatching;
  SubgraphExplorer explorer(*pipeline_.augmented, options);
  auto results = explorer.FindTopK();
  ASSERT_EQ(results.size(), 1u);
  const auto& g = *pipeline_.augmented;
  std::set<std::string> labels;
  for (summary::EdgeId e : results[0].edges) {
    labels.insert(std::string(
        rdf::IriLocalName(pipeline_.dataset.dictionary.text(g.edge(e).label))));
  }
  EXPECT_TRUE(labels.count("year") > 0);
  EXPECT_TRUE(labels.count("name") > 0);
  EXPECT_TRUE(labels.count("author") > 0);
  EXPECT_TRUE(labels.count("worksAt") > 0);
}

TEST_F(Fig1ExplorationTest, PopTraceNondecreasing) {
  ExplorationOptions options;
  options.k = 5;
  options.record_pop_trace = true;  // off by default: hot-loop cost
  SubgraphExplorer explorer(*pipeline_.augmented, options);
  explorer.FindTopK();
  const auto& trace = explorer.pop_cost_trace();
  ASSERT_FALSE(trace.empty());
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1], trace[i] + 1e-12);
  }
}

TEST_F(Fig1ExplorationTest, ScratchReuseIsAllocationStable) {
  // A shared ExplorationScratch must reach a steady state: after the first
  // run sized every pool, repeated identical queries may not grow any of
  // them (grow_events freezes), and results stay identical.
  ExplorationOptions options;
  options.k = 5;
  ExplorationScratch scratch;
  auto run = [&] {
    SubgraphExplorer explorer(*pipeline_.augmented, options, &scratch);
    return explorer.FindTopK();
  };
  const auto first = run();
  const std::size_t grow_after_first = scratch.grow_events;
  run();
  const auto third = run();
  EXPECT_EQ(scratch.queries_run, 3u);
  EXPECT_EQ(scratch.grow_events, grow_after_first);
  ASSERT_EQ(first.size(), third.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].cost, third[i].cost);
    EXPECT_EQ(first[i].StructureKey(), third[i].StructureKey());
  }
}

TEST_F(Fig1ExplorationTest, StatsPopulated) {
  ExplorationOptions options;
  options.k = 2;
  SubgraphExplorer explorer(*pipeline_.augmented, options);
  explorer.FindTopK();
  const auto& stats = explorer.stats();
  EXPECT_GT(stats.cursors_created, 0u);
  EXPECT_GT(stats.cursors_popped, 0u);
  EXPECT_GT(stats.subgraphs_generated, 0u);
  EXPECT_TRUE(stats.early_terminated || stats.exhausted);
}

// -------------------------------------------------------- special shapes --

TEST(ExplorationShapesTest, SingleKeywordClassElement) {
  Pipeline p = MakePipeline(grasp::testing::MakeFigure1Dataset(),
                            {"publication"});
  ExplorationOptions options;
  options.k = 1;
  SubgraphExplorer explorer(*p.augmented, options);
  auto results = explorer.FindTopK();
  ASSERT_EQ(results.size(), 1u);
  // Cheapest subgraph for a single keyword is the keyword element itself.
  EXPECT_EQ(results[0].nodes.size(), 1u);
  EXPECT_TRUE(results[0].edges.empty());
}

TEST(ExplorationShapesTest, KeywordOnEdgeYieldsEdgeSubgraph) {
  Pipeline p = MakePipeline(grasp::testing::MakeFigure1Dataset(), {"author"});
  ExplorationOptions options;
  options.k = 1;
  SubgraphExplorer explorer(*p.augmented, options);
  auto results = explorer.FindTopK();
  ASSERT_EQ(results.size(), 1u);
  // The keyword element is an edge; the subgraph contains it plus endpoints.
  ASSERT_EQ(results[0].edges.size(), 1u);
  EXPECT_EQ(results[0].nodes.size(), 2u);
}

TEST(ExplorationShapesTest, CyclicMatchingSubgraph) {
  // Two parallel relations between the same classes, both matched by
  // keywords: the minimal connecting structure is a cycle (C1 = C2 via two
  // distinct edges), which tree-based algorithms cannot return.
  auto dataset = grasp::testing::MakeDataset({
      R"(e1 a C1)", R"(e2 a C2)",
      R"(e1 follows e2)", R"(e1 mentors e2)",
  });
  Pipeline p = MakePipeline(std::move(dataset), {"follows", "mentors"});
  ExplorationOptions options;
  options.k = 1;
  options.cost_model = CostModel::kPathLength;
  SubgraphExplorer explorer(*p.augmented, options);
  auto results = explorer.FindTopK();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].edges.size(), 2u);  // both edges in one subgraph
  EXPECT_EQ(results[0].nodes.size(), 2u);  // over just two nodes: a cycle
}

TEST(ExplorationShapesTest, DisconnectedKeywordsYieldNothing) {
  auto dataset = grasp::testing::MakeDataset({
      R"(e1 a C1)", R"(e1 name "alpha")",
      R"(e2 a C2)", R"(e2 name "beta")",
  });
  // alpha and beta live in disconnected components (no relations at all).
  Pipeline p = MakePipeline(std::move(dataset), {"alpha", "beta"});
  ExplorationOptions options;
  options.k = 3;
  SubgraphExplorer explorer(*p.augmented, options);
  EXPECT_TRUE(explorer.FindTopK().empty());
}

TEST(ExplorationShapesTest, UnmatchedKeywordYieldsNothing) {
  Pipeline p = MakePipeline(grasp::testing::MakeFigure1Dataset(),
                            {"publication", "zzzznonexistent"});
  ExplorationOptions options;
  SubgraphExplorer explorer(*p.augmented, options);
  EXPECT_TRUE(explorer.FindTopK().empty());
  EXPECT_EQ(explorer.stats().cursors_created, 0u);
}

TEST(ExplorationShapesTest, DmaxLimitsReach) {
  // aifb -- name -- Institute -- worksAt -- Researcher -- author --
  // Publication -- year -- 2006: distance 8 elements. dmax too small on
  // both sides => no connection.
  Pipeline p = MakePipeline(grasp::testing::MakeFigure1Dataset(),
                            {"2006", "aifb"});
  ExplorationOptions options;
  options.k = 1;
  options.dmax = 2;
  SubgraphExplorer explorer(*p.augmented, options);
  EXPECT_TRUE(explorer.FindTopK().empty());

  ExplorationOptions wide = options;
  wide.dmax = 8;
  SubgraphExplorer explorer2(*p.augmented, wide);
  EXPECT_FALSE(explorer2.FindTopK().empty());
}

TEST(ExplorationShapesTest, MaxPopsBudgetStops) {
  Pipeline p = MakePipeline(grasp::testing::MakeFigure1Dataset(),
                            {"2006", "cimiano", "aifb"});
  ExplorationOptions options;
  options.max_cursor_pops = 3;
  SubgraphExplorer explorer(*p.augmented, options);
  explorer.FindTopK();
  EXPECT_TRUE(explorer.stats().budget_exceeded);
  EXPECT_LE(explorer.stats().cursors_popped, 4u);
}

// Regression pin for the max_cursor_pops safety valve: the cap must
// terminate the exploration at a deterministic point — exactly cap+1 pops
// (the (cap+1)-th pop trips the valve before being processed) — with the
// budget_exceeded partial-result status set and neither of the natural
// end states claimed, identically in the flat and reference explorers and
// across repeated runs on a shared scratch.
TEST(ExplorationShapesTest, MaxPopsBudgetIsDeterministicPartialResult) {
  Pipeline p = MakePipeline(grasp::testing::MakeFigure1Dataset(),
                            {"2006", "cimiano", "aifb"});

  // Uncapped baseline: how much work the full run does, and its result.
  ExplorationOptions unlimited;
  unlimited.k = 5;
  SubgraphExplorer full(*p.augmented, unlimited);
  const auto full_results = full.FindTopK();
  ASSERT_FALSE(full_results.empty());
  ASSERT_GT(full.stats().cursors_popped, 4u);

  ExplorationOptions capped = unlimited;
  capped.max_cursor_pops = full.stats().cursors_popped / 2;

  ExplorationScratch scratch;
  std::vector<MatchingSubgraph> first_run;
  for (int repeat = 0; repeat < 2; ++repeat) {
    SubgraphExplorer flat(*p.augmented, capped, &scratch);
    const auto flat_results = flat.FindTopK();
    EXPECT_TRUE(flat.stats().budget_exceeded);
    EXPECT_FALSE(flat.stats().early_terminated);
    EXPECT_FALSE(flat.stats().exhausted);
    EXPECT_EQ(flat.stats().cursors_popped, capped.max_cursor_pops + 1);

    ReferenceExplorer reference(*p.augmented, capped);
    const auto ref_results = reference.FindTopK();
    EXPECT_TRUE(reference.stats().budget_exceeded);
    EXPECT_EQ(reference.stats().cursors_popped, capped.max_cursor_pops + 1);

    // The partial result is still a valid (sorted) prefix answer, and the
    // two explorers agree on it byte for byte.
    ASSERT_EQ(flat_results.size(), ref_results.size());
    for (std::size_t i = 0; i < flat_results.size(); ++i) {
      EXPECT_EQ(flat_results[i].cost, ref_results[i].cost) << i;
      EXPECT_EQ(flat_results[i].StructureKey(), ref_results[i].StructureKey())
          << i;
      if (i > 0) {
        EXPECT_GE(flat_results[i].cost, flat_results[i - 1].cost) << i;
      }
    }
    if (repeat == 0) {
      first_run = flat_results;
    } else {
      // Deterministic across runs (scratch reuse included).
      ASSERT_EQ(flat_results.size(), first_run.size());
      for (std::size_t i = 0; i < flat_results.size(); ++i) {
        EXPECT_EQ(flat_results[i].cost, first_run[i].cost) << i;
        EXPECT_EQ(flat_results[i].StructureKey(), first_run[i].StructureKey())
            << i;
      }
    }
  }
}

// -------------------------------------------- top-k vs brute-force oracle --

struct TopKCase {
  std::uint64_t seed;
  std::size_t k;
  CostModel model;
  bool prune;
};

class TopKOracleTest : public ::testing::TestWithParam<TopKCase> {};

TEST_P(TopKOracleTest, MatchesBruteForceOracle) {
  const TopKCase& param = GetParam();
  Rng rng(param.seed);
  // Sizes are chosen so that the exhaustive oracle (all simple paths x all
  // per-element combinations) stays tractable: the summary graph is a dense
  // multigraph over num_classes+1 nodes, and the oracle's work grows roughly
  // with (summary edges)^dmax.
  auto dataset = grasp::testing::MakeRandomDataset(
      param.seed, /*num_classes=*/3, /*num_entities=*/8,
      /*num_relations=*/10, /*num_predicates=*/3, /*num_attributes=*/5,
      /*value_pool=*/3);

  // Choose 1-3 keywords from generated vocabulary families.
  std::vector<std::string> candidates = {"class0", "class1", "class2",
                                         "rel0",   "rel1",   "rel2",
                                         "value0", "value1", "value2",
                                         "attr0",  "attr1"};
  rng.Shuffle(&candidates);
  const std::size_t num_keywords = 1 + rng.NextBelow(3);
  std::vector<std::string> keywords(candidates.begin(),
                                    candidates.begin() + num_keywords);

  Pipeline p = MakePipeline(std::move(dataset), keywords);
  for (const auto& k_i : p.augmented->keyword_elements()) {
    if (k_i.empty()) GTEST_SKIP() << "keyword without elements";
  }

  ExplorationOptions options;
  options.k = param.k;
  options.dmax = 4;
  options.cost_model = param.model;
  options.prune_paths_per_element = param.prune;

  SubgraphExplorer explorer(*p.augmented, options);
  auto results = explorer.FindTopK();

  CostFunction cost_fn(param.model, *p.augmented);
  OracleResult oracle = BruteForce(*p.augmented, cost_fn, options.dmax);

  const std::size_t expected_n =
      std::min(param.k, oracle.sorted_costs.size());
  ASSERT_EQ(results.size(), expected_n);
  for (std::size_t i = 0; i < expected_n; ++i) {
    EXPECT_NEAR(results[i].cost, oracle.sorted_costs[i], 1e-9)
        << "rank " << i << " keywords=" << Join(keywords, ",");
    // The returned structure's cost must equal the oracle's best cost for
    // that exact structure.
    auto it = oracle.cost_by_structure.find(results[i].StructureKey());
    ASSERT_NE(it, oracle.cost_by_structure.end());
    EXPECT_NEAR(results[i].cost, it->second, 1e-9);
  }
}

std::vector<TopKCase> MakeTopKCases() {
  std::vector<TopKCase> cases;
  std::uint64_t seed = 1000;
  for (CostModel model : {CostModel::kPathLength, CostModel::kPopularity,
                          CostModel::kMatching}) {
    for (std::size_t k : {1u, 3u, 6u}) {
      for (bool prune : {true, false}) {
        for (int i = 0; i < 3; ++i) {
          cases.push_back(TopKCase{seed++, k, model, prune});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, TopKOracleTest,
                         ::testing::ValuesIn(MakeTopKCases()));

/// Theorem 1 as a property: pops happen in non-decreasing cost order on
/// random graphs under all cost models.
class Theorem1Test : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem1Test, PopsNondecreasing) {
  auto dataset = grasp::testing::MakeRandomDataset(GetParam(), 4, 12, 20, 3, 8, 4);
  Pipeline p = MakePipeline(std::move(dataset), {"class0", "value1", "rel2"});
  for (const auto& k_i : p.augmented->keyword_elements()) {
    if (k_i.empty()) GTEST_SKIP();
  }
  for (CostModel model : {CostModel::kPathLength, CostModel::kPopularity,
                          CostModel::kMatching}) {
    ExplorationOptions options;
    options.k = 4;
    options.cost_model = model;
    options.record_pop_trace = true;  // the property under test
    SubgraphExplorer explorer(*p.augmented, options);
    explorer.FindTopK();
    const auto& trace = explorer.pop_cost_trace();
    for (std::size_t i = 1; i < trace.size(); ++i) {
      ASSERT_LE(trace[i - 1], trace[i] + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1Test,
                         ::testing::Values(21, 42, 63, 84, 105, 126));

}  // namespace
}  // namespace grasp::core
