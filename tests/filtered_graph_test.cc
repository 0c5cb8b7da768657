// Filtered-edge-view coverage: EdgeFilter / FilteredGraph unit behaviour
// (word-boundary shapes, word-at-a-time enumeration, view-vs-filter-after
// adjacency), and the randomized differential suite for predicate-scoped
// exploration — the flat SubgraphExplorer traversing word-scanned filtered
// views must be byte-identical to the ReferenceExplorer, which explores the
// full incident chains and rejects masked edges with a per-edge branch
// (the explore-on-full-graph-then-reject formulation). Fixtures: Fig. 1,
// LUBM, TAP, seeded random graphs, plus the checked-in corpus seeds; scopes
// sweep predicate subsets derived from each dataset. Engine-level tests pin
// KeywordQuery::predicate_scope semantics (atoms only use in-scope
// predicates; an all-covering scope changes nothing; scope masks are
// cached).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/exploration.h"
#include "core/exploration_reference.h"
#include "datagen/lubm_gen.h"
#include "datagen/tap_gen.h"
#include "graph/edge_filter.h"
#include "graph/filtered_graph.h"
#include "keyword/keyword_index.h"
#include "rdf/data_graph.h"
#include "rdf/term.h"
#include "summary/augmented_graph.h"
#include "summary/summary_graph.h"
#include "test_util.h"

namespace grasp::core {
namespace {

using graph::EdgeFilter;
using graph::FilteredIds;
using graph::OverlayEdgeFilter;
using summary::AugmentedGraph;
using summary::SummaryGraph;

// ------------------------------------------------------ EdgeFilter units --

TEST(EdgeFilterTest, BuildContainsAndCountAcrossWordBoundaries) {
  for (std::uint32_t n : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 130u, 200u}) {
    const EdgeFilter f =
        EdgeFilter::Build(n, [](std::uint32_t e) { return e % 3 == 0; });
    EXPECT_EQ(f.num_edges(), n);
    std::size_t expected_count = 0;
    EdgeFilter::Cursor cursor(f);
    for (std::uint32_t e = 0; e < n; ++e) {
      const bool expected = e % 3 == 0;
      EXPECT_EQ(f.Contains(e), expected) << "n=" << n << " e=" << e;
      EXPECT_EQ(cursor.Contains(e), expected) << "n=" << n << " e=" << e;
      if (expected) ++expected_count;
    }
    EXPECT_EQ(f.CountSet(), expected_count) << "n=" << n;

    // Word-at-a-time enumeration yields exactly the set bits, ascending.
    std::vector<std::uint32_t> enumerated;
    f.ForEachSet([&](std::uint32_t e) { enumerated.push_back(e); });
    std::vector<std::uint32_t> expected_ids;
    for (std::uint32_t e = 0; e < n; e += 3) expected_ids.push_back(e);
    EXPECT_EQ(enumerated, expected_ids) << "n=" << n;
  }
}

TEST(EdgeFilterTest, FullAndEmptyMasks) {
  const EdgeFilter full = EdgeFilter::MakeFull(100);
  const EdgeFilter none = EdgeFilter::MakeEmpty(100);
  EXPECT_EQ(full.CountSet(), 100u);
  EXPECT_EQ(none.CountSet(), 0u);
  EXPECT_TRUE(full.Contains(99));
  EXPECT_FALSE(none.Contains(0));
}

TEST(EdgeFilterTest, FromPartsRoundTripsWords) {
  const EdgeFilter built =
      EdgeFilter::Build(70, [](std::uint32_t e) { return (e & 1) == 0; });
  AlignedVector<std::uint64_t> words(built.words().begin(), built.words().end());
  const EdgeFilter adopted = EdgeFilter::FromParts(
      FlatStorage<std::uint64_t>(std::move(words)), built.num_edges());
  ASSERT_EQ(adopted.num_edges(), built.num_edges());
  for (std::uint32_t e = 0; e < built.num_edges(); ++e) {
    EXPECT_EQ(adopted.Contains(e), built.Contains(e)) << e;
  }
}

TEST(EdgeFilterTest, ComposeOpsMatchPerBitAcrossWordBoundaries) {
  for (std::uint32_t n : {0u, 63u, 64u, 65u, 127u, 128u, 513u}) {
    const EdgeFilter a =
        EdgeFilter::Build(n, [](std::uint32_t e) { return e % 3 == 0; });
    const EdgeFilter b =
        EdgeFilter::Build(n, [](std::uint32_t e) { return e % 5 < 2; });
    const EdgeFilter both = EdgeFilter::And(a, b);
    const EdgeFilter either = EdgeFilter::Or(a, b);
    const EdgeFilter only_a = EdgeFilter::AndNot(a, b);
    std::size_t expect_and = 0, expect_or = 0, expect_andnot = 0;
    std::vector<std::uint32_t> or_ids, andnot_ids;
    for (std::uint32_t e = 0; e < n; ++e) {
      const bool in_a = e % 3 == 0;
      const bool in_b = e % 5 < 2;
      EXPECT_EQ(both.Contains(e), in_a && in_b) << "n=" << n << " e=" << e;
      EXPECT_EQ(either.Contains(e), in_a || in_b) << "n=" << n << " e=" << e;
      EXPECT_EQ(only_a.Contains(e), in_a && !in_b) << "n=" << n << " e=" << e;
      expect_and += in_a && in_b;
      expect_or += in_a || in_b;
      expect_andnot += in_a && !in_b;
      if (in_a || in_b) or_ids.push_back(e);
      if (in_a && !in_b) andnot_ids.push_back(e);
    }
    // Enumeration of a composed mask yields exactly its set bits.
    std::vector<std::uint32_t> enumerated;
    either.ForEachSet([&](std::uint32_t e) { enumerated.push_back(e); });
    EXPECT_EQ(enumerated, or_ids) << "n=" << n;
    enumerated.clear();
    only_a.ForEachSet([&](std::uint32_t e) { enumerated.push_back(e); });
    EXPECT_EQ(enumerated, andnot_ids) << "n=" << n;
    // CountSet is a whole-word popcount, so these only hold if composition
    // re-applied the tail mask (Or's padding would otherwise survive the
    // word-level op whenever both inputs were built full).
    EXPECT_EQ(both.CountSet(), expect_and) << "n=" << n;
    EXPECT_EQ(either.CountSet(), expect_or) << "n=" << n;
    EXPECT_EQ(only_a.CountSet(), expect_andnot) << "n=" << n;
    if (n % 64 != 0) {
      const EdgeFilter full_or =
          EdgeFilter::Or(EdgeFilter::MakeFull(n), EdgeFilter::MakeFull(n));
      ASSERT_FALSE(full_or.words().empty());
      EXPECT_EQ(full_or.words().back() & ~EdgeFilter::TailMask(n), 0u)
          << "n=" << n;
      EXPECT_EQ(full_or.CountSet(), n);
    }
  }
}

TEST(EdgeFilterTest, CollectSetHitsExactWordBoundaryBits) {
  // Bits at the classic off-by-one positions: 0, 63, 64, 65, 127, 128.
  const std::vector<std::uint32_t> bits = {0, 63, 64, 65, 127, 128};
  const EdgeFilter f = EdgeFilter::Build(130, [&](std::uint32_t e) {
    return std::find(bits.begin(), bits.end(), e) != bits.end();
  });
  std::vector<std::uint32_t> enumerated;
  f.ForEachSet([&](std::uint32_t e) { enumerated.push_back(e); });
  EXPECT_EQ(enumerated, bits);
  EXPECT_EQ(f.CountSet(), bits.size());
}

TEST(EdgeFilterTest, ForEachSetAcrossManyWords) {
  // Masks of more than eight words: one bit per word, plus dense words.
  for (std::uint32_t n : {511u, 512u, 513u, 1025u}) {
    const EdgeFilter sparse = EdgeFilter::Build(
        n, [](std::uint32_t e) { return e % 64 == 63 || e % 97 == 0; });
    std::vector<std::uint32_t> enumerated;
    sparse.ForEachSet([&](std::uint32_t e) { enumerated.push_back(e); });
    std::vector<std::uint32_t> expected;
    for (std::uint32_t e = 0; e < n; ++e) {
      if (e % 64 == 63 || e % 97 == 0) expected.push_back(e);
    }
    EXPECT_EQ(enumerated, expected) << "n=" << n;

    const EdgeFilter full = EdgeFilter::MakeFull(n);
    std::uint32_t next = 0;
    full.ForEachSet([&](std::uint32_t e) { EXPECT_EQ(e, next++); });
    EXPECT_EQ(next, n);
  }
}

TEST(EdgeFilterTest, FilteredIdsSkipsMaskedAndHandlesEdgeRuns) {
  const EdgeFilter f =
      EdgeFilter::Build(128, [](std::uint32_t e) { return e % 5 == 0; });
  // Non-contiguous run crossing the word boundary, unordered tail.
  const std::vector<std::uint32_t> run = {0, 3, 5, 63, 64, 65, 70, 100, 125};
  std::vector<std::uint32_t> got;
  for (std::uint32_t e : FilteredIds(run, f)) got.push_back(e);
  std::vector<std::uint32_t> expected;
  for (std::uint32_t e : run) {
    if (f.Contains(e)) expected.push_back(e);
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(FilteredIds(run, f).count(), expected.size());

  // All-masked and empty runs produce empty ranges.
  const EdgeFilter none = EdgeFilter::MakeEmpty(128);
  EXPECT_TRUE(FilteredIds(run, none).empty());
  EXPECT_TRUE(FilteredIds({}, f).empty());
}

TEST(EdgeFilterTest, OverlayCompositionSplitsIdSpace) {
  const EdgeFilter base =
      EdgeFilter::Build(10, [](std::uint32_t e) { return e < 5; });
  EdgeFilter overlay =
      EdgeFilter::Build(4, [](std::uint32_t e) { return e % 2 == 1; });
  const OverlayEdgeFilter composed(&base, std::move(overlay), 10);
  for (std::uint32_t e = 0; e < 10; ++e) {
    EXPECT_EQ(composed.Contains(e), e < 5) << e;
  }
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(composed.Contains(10 + i), i % 2 == 1) << i;
    EXPECT_EQ(composed.ContainsOverlay(10 + i), i % 2 == 1) << i;
  }
}

// ------------------------------------------- DataGraph filtered views ----

/// The filtered view of every adjacency run must equal filtering the raw
/// run after the fact.
void ExpectViewMatchesFilterAfter(const rdf::DataGraph& graph,
                                  const EdgeFilter& filter,
                                  const std::string& context) {
  const auto view = graph.Filtered(filter);
  ASSERT_EQ(view.NumEdges(), graph.NumEdges()) << context;
  EXPECT_EQ(view.NumAdmittedEdges(), filter.CountSet()) << context;
  for (rdf::VertexId v = 0; v < graph.NumVertices(); ++v) {
    for (auto accessor : {0, 1}) {
      const std::span<const rdf::EdgeId> raw =
          accessor == 0 ? graph.OutEdges(v) : graph.InEdges(v);
      std::vector<rdf::EdgeId> expected;
      for (rdf::EdgeId e : raw) {
        if (filter.Contains(e)) expected.push_back(e);
      }
      std::vector<rdf::EdgeId> got;
      const FilteredIds run = accessor == 0 ? view.OutEdges(v) : view.InEdges(v);
      for (rdf::EdgeId e : run) got.push_back(e);
      EXPECT_EQ(got, expected)
          << context << " vertex " << v << " accessor " << accessor;
    }
  }
}

TEST(DataGraphFilterTest, KindAndPredicateViewsMatchFilterAfter) {
  grasp::testing::Dataset dataset = grasp::testing::MakeFigure1Dataset();
  const rdf::DataGraph graph =
      rdf::DataGraph::Build(dataset.store, dataset.dictionary);

  const EdgeFilter relations =
      graph.KindFilter(rdf::EdgeKindBit(rdf::EdgeKind::kRelation));
  ExpectViewMatchesFilterAfter(graph, relations, "fig1 relations");
  for (rdf::EdgeId e = 0; e < graph.NumEdges(); ++e) {
    EXPECT_EQ(relations.Contains(e),
              graph.edge(e).kind == rdf::EdgeKind::kRelation);
  }

  const EdgeFilter rel_attr =
      graph.KindFilter(rdf::EdgeKindBit(rdf::EdgeKind::kRelation) |
                       rdf::EdgeKindBit(rdf::EdgeKind::kAttribute));
  ExpectViewMatchesFilterAfter(graph, rel_attr, "fig1 relations+attributes");

  // Predicate filter: only `author` edges (plus nothing structural).
  const rdf::TermId author = dataset.dictionary.Find(
      rdf::TermKind::kIri, std::string(grasp::testing::kEx) + "author");
  ASSERT_NE(author, rdf::kInvalidTermId);
  const std::vector<rdf::TermId> scope{author};
  const EdgeFilter author_only = graph.PredicateFilter(scope);
  ExpectViewMatchesFilterAfter(graph, author_only, "fig1 author");
  EXPECT_EQ(author_only.CountSet(), 2u);  // pub1 author re1 / re2
  for (rdf::EdgeId e = 0; e < graph.NumEdges(); ++e) {
    EXPECT_EQ(author_only.Contains(e), graph.edge(e).label == author);
  }

  // extra_kind_mask keeps whole kinds regardless of label.
  const EdgeFilter author_and_types = graph.PredicateFilter(
      scope, rdf::EdgeKindBit(rdf::EdgeKind::kType));
  for (rdf::EdgeId e = 0; e < graph.NumEdges(); ++e) {
    EXPECT_EQ(author_and_types.Contains(e),
              graph.edge(e).label == author ||
                  graph.edge(e).kind == rdf::EdgeKind::kType);
  }
}

TEST(DataGraphFilterTest, RandomGraphViewsMatchFilterAfter) {
  for (std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{11}}) {
    grasp::testing::Dataset dataset = grasp::testing::MakeRandomDataset(
        seed, /*num_classes=*/4, /*num_entities=*/20, /*num_relations=*/30,
        /*num_predicates=*/4, /*num_attributes=*/15, /*value_pool=*/5);
    const rdf::DataGraph graph =
        rdf::DataGraph::Build(dataset.store, dataset.dictionary);
    Rng rng(seed * 31 + 1);
    for (int round = 0; round < 3; ++round) {
      const EdgeFilter random_mask = EdgeFilter::Build(
          static_cast<std::uint32_t>(graph.NumEdges()),
          [&](std::uint32_t) { return rng.NextBernoulli(0.4); });
      ExpectViewMatchesFilterAfter(
          graph, random_mask,
          StrFormat("random seed=%llu round=%d",
                    static_cast<unsigned long long>(seed), round));
    }
  }
}

// ----------------------------------- scoped exploration differentials ----

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
  return AugmentedGraph::Build(
      *p.summary, grasp::testing::CorpusLookup(*p.index, keywords, 8));
}

/// Distinct non-structural predicate terms of the data graph (relation and
/// attribute labels), ascending — the vocabulary scopes are drawn from.
std::vector<rdf::TermId> DatasetPredicates(const rdf::DataGraph& graph) {
  std::set<rdf::TermId> labels;
  for (const rdf::Edge& e : graph.edges()) {
    if (e.kind == rdf::EdgeKind::kRelation ||
        e.kind == rdf::EdgeKind::kAttribute) {
      labels.insert(e.label);
    }
  }
  return {labels.begin(), labels.end()};
}

/// Deterministic scope subsets per dataset: everything, the even-indexed
/// half, a singleton, and the empty scope (subclass edges only).
std::vector<std::vector<rdf::TermId>> ScopeSubsets(
    const std::vector<rdf::TermId>& predicates) {
  std::vector<std::vector<rdf::TermId>> scopes;
  scopes.push_back(predicates);
  std::vector<rdf::TermId> half;
  for (std::size_t i = 0; i < predicates.size(); i += 2) {
    half.push_back(predicates[i]);
  }
  scopes.push_back(std::move(half));
  if (!predicates.empty()) scopes.push_back({predicates.front()});
  scopes.push_back({});
  return scopes;
}

/// Runs the flat explorer on the word-scanned filtered view and the
/// reference explorer on full-chain-with-inline-reject; both see the same
/// composed scope filter and must agree byte for byte.
void ExpectIdenticalScopedTopK(const AugmentedGraph& augmented,
                               const OverlayEdgeFilter* scope,
                               ExplorationOptions options,
                               ExplorationScratch* scratch,
                               const std::string& context) {
  options.edge_filter = scope;
  SubgraphExplorer flat(augmented, options, scratch);
  const auto actual = flat.FindTopK();
  ReferenceExplorer reference(augmented, options);
  const auto expected = reference.FindTopK();

  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].cost, expected[i].cost) << context << " rank " << i;
    EXPECT_EQ(actual[i].StructureKey(), expected[i].StructureKey())
        << context << " rank " << i;
  }
  EXPECT_EQ(flat.stats().cursors_created, reference.stats().cursors_created)
      << context;
  EXPECT_EQ(flat.stats().cursors_popped, reference.stats().cursors_popped)
      << context;
  EXPECT_EQ(flat.stats().subgraphs_generated,
            reference.stats().subgraphs_generated)
      << context;
  EXPECT_EQ(flat.stats().cursors_pruned, reference.stats().cursors_pruned)
      << context;

  // Scoped results must only contain in-scope edges — the semantic
  // guarantee the whole feature exists for.
  if (scope != nullptr) {
    for (const auto& sg : actual) {
      for (summary::EdgeId e : sg.edges) {
        EXPECT_TRUE(scope->Contains(e)) << context << " out-of-scope edge";
      }
    }
  }
}

/// Reduced option matrix (the full one lives in the unscoped differential
/// suite; scope multiplies the sweep here).
std::vector<ExplorationOptions> ScopedOptionMatrix() {
  std::vector<ExplorationOptions> all;
  for (CostModel model : {CostModel::kPathLength, CostModel::kMatching}) {
    for (std::size_t k : {1u, 8u}) {
      for (bool prune : {true, false}) {
        ExplorationOptions options;
        options.k = k;
        options.cost_model = model;
        options.prune_paths_per_element = prune;
        options.tightened_bound = !prune;
        all.push_back(options);
      }
    }
  }
  return all;
}

void RunScopedDifferential(const Pipeline& p,
                           const std::vector<std::vector<std::string>>& sets,
                           const std::string& tag) {
  const std::vector<rdf::TermId> predicates = DatasetPredicates(*p.graph);
  ExplorationScratch scratch;
  for (const auto& keywords : sets) {
    const AugmentedGraph augmented = Augment(p, keywords);
    std::size_t scope_idx = 0;
    for (const auto& scope_terms : ScopeSubsets(predicates)) {
      const EdgeFilter base = p.summary->PredicateScopeFilter(scope_terms);
      const OverlayEdgeFilter scoped =
          augmented.ScopedFilter(&base, scope_terms);
      for (const ExplorationOptions& options : ScopedOptionMatrix()) {
        ExpectIdenticalScopedTopK(
            augmented, &scoped, options, &scratch,
            StrFormat("%s %s scope=%zu k=%zu model=%d prune=%d", tag.c_str(),
                      Join(keywords, "+").c_str(), scope_idx, options.k,
                      static_cast<int>(options.cost_model),
                      options.prune_paths_per_element ? 1 : 0));
      }
      ++scope_idx;
    }
  }
}

TEST(FilteredExplorationTest, Figure1Fixture) {
  Pipeline p = FromDataset(grasp::testing::MakeFigure1Dataset());
  RunScopedDifferential(p,
                        {{"2006", "cimiano", "aifb"},
                         {"publication", "project"},
                         {"name", "institute"}},
                        "fig1");
}

TEST(FilteredExplorationTest, LubmFixture) {
  Pipeline p;
  datagen::LubmOptions options;
  options.num_universities = 1;
  options.departments_per_university = 2;
  datagen::GenerateLubm(options, &p.dictionary, &p.store);
  p.store.Finalize();
  p.graph = std::make_unique<rdf::DataGraph>(
      rdf::DataGraph::Build(p.store, p.dictionary));
  p.summary = std::make_unique<SummaryGraph>(SummaryGraph::Build(*p.graph));
  p.index = std::make_unique<keyword::KeywordIndex>(
      keyword::KeywordIndex::Build(*p.graph));
  RunScopedDifferential(
      p, {{"publication", "professor"}, {"course", "student", "name"}},
      "lubm");
}

TEST(FilteredExplorationTest, TapFixture) {
  Pipeline p;
  datagen::TapOptions tap;
  tap.num_classes = 24;
  datagen::GenerateTap(tap, &p.dictionary, &p.store);
  p.store.Finalize();
  p.graph = std::make_unique<rdf::DataGraph>(
      rdf::DataGraph::Build(p.store, p.dictionary));
  p.summary = std::make_unique<SummaryGraph>(SummaryGraph::Build(*p.graph));
  p.index = std::make_unique<keyword::KeywordIndex>(
      keyword::KeywordIndex::Build(*p.graph));
  RunScopedDifferential(p, {{"item", "album"}, {"team", "name"}}, "tap");
}

/// An all-covering scope must not perturb anything: byte-identical to the
/// unscoped run, including the exploration counters.
TEST(FilteredExplorationTest, FullScopeMatchesUnscoped) {
  Pipeline p = FromDataset(grasp::testing::MakeFigure1Dataset());
  const std::vector<rdf::TermId> all = DatasetPredicates(*p.graph);
  const AugmentedGraph augmented = Augment(p, {"2006", "cimiano", "aifb"});
  const EdgeFilter base = p.summary->PredicateScopeFilter(all);
  const OverlayEdgeFilter scoped = augmented.ScopedFilter(&base, all);

  for (const ExplorationOptions& options : ScopedOptionMatrix()) {
    ExplorationOptions scoped_options = options;
    scoped_options.edge_filter = &scoped;
    SubgraphExplorer with_scope(augmented, scoped_options);
    SubgraphExplorer without(augmented, options);
    const auto a = with_scope.FindTopK();
    const auto b = without.FindTopK();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].cost, b[i].cost);
      EXPECT_EQ(a[i].StructureKey(), b[i].StructureKey());
    }
    EXPECT_EQ(with_scope.stats().cursors_popped,
              without.stats().cursors_popped);
    EXPECT_EQ(with_scope.stats().cursors_created,
              without.stats().cursors_created);
  }
}

// Corpus replay (tests/corpus/): every checked-in keyword-set shape runs
// through the scoped differential too — add a seed line there whenever a
// randomized run surfaces a breaking filter shape.
TEST(FilteredExplorationTest, CorpusReplayFigure1) {
  Pipeline p = FromDataset(grasp::testing::MakeFigure1Dataset());
  const std::vector<rdf::TermId> predicates = DatasetPredicates(*p.graph);
  ExplorationScratch scratch;
  for (const auto& keywords :
       grasp::testing::LoadKeywordCorpus("fig1_keyword_sets.txt")) {
    const AugmentedGraph augmented = Augment(p, keywords);
    std::size_t scope_idx = 0;
    for (const auto& scope_terms : ScopeSubsets(predicates)) {
      const EdgeFilter base = p.summary->PredicateScopeFilter(scope_terms);
      const OverlayEdgeFilter scoped =
          augmented.ScopedFilter(&base, scope_terms);
      ExplorationOptions options;
      options.k = 8;
      ExpectIdenticalScopedTopK(
          augmented, &scoped, options, &scratch,
          StrFormat("fig1 corpus %s scope=%zu", Join(keywords, "+").c_str(),
                    scope_idx));
      ++scope_idx;
    }
  }
}

TEST(FilteredExplorationTest, CorpusReplayRandomGraphs) {
  for (std::uint64_t seed : {std::uint64_t{303}, std::uint64_t{404}}) {
    Pipeline p = FromDataset(grasp::testing::MakeRandomDataset(
        seed, /*num_classes=*/4, /*num_entities=*/14, /*num_relations=*/18,
        /*num_predicates=*/3, /*num_attributes=*/10, /*value_pool=*/4));
    const std::vector<rdf::TermId> predicates = DatasetPredicates(*p.graph);
    ExplorationScratch scratch;
    for (const auto& keywords :
         grasp::testing::LoadKeywordCorpus("generic_keyword_sets.txt")) {
      const AugmentedGraph augmented = Augment(p, keywords);
      std::size_t scope_idx = 0;
      for (const auto& scope_terms : ScopeSubsets(predicates)) {
        const EdgeFilter base = p.summary->PredicateScopeFilter(scope_terms);
        const OverlayEdgeFilter scoped =
            augmented.ScopedFilter(&base, scope_terms);
        ExplorationOptions options;
        options.k = 8;
        ExpectIdenticalScopedTopK(
            augmented, &scoped, options, &scratch,
            StrFormat("random seed=%llu corpus %s scope=%zu",
                      static_cast<unsigned long long>(seed),
                      Join(keywords, "+").c_str(), scope_idx));
        ++scope_idx;
      }
    }
  }
}

/// Seeded random graphs x random keyword sets x random scope subsets x
/// randomized options — the fuzz loop of the scoped differential.
class RandomizedScopedDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedScopedDifferentialTest, RandomGraphsAndScopes) {
  Rng rng(GetParam() * 9241 + 5);
  Pipeline p = FromDataset(grasp::testing::MakeRandomDataset(
      GetParam(), /*num_classes=*/4, /*num_entities=*/14,
      /*num_relations=*/18, /*num_predicates=*/3, /*num_attributes=*/10,
      /*value_pool=*/4));
  const std::vector<rdf::TermId> predicates = DatasetPredicates(*p.graph);

  std::vector<std::string> vocabulary = {"class0", "class1", "class2",
                                         "class3", "rel0",   "rel1",
                                         "rel2",   "value0", "value1",
                                         "attr0",  "attr1"};
  ExplorationScratch scratch;
  for (int round = 0; round < 4; ++round) {
    rng.Shuffle(&vocabulary);
    const std::size_t m = 1 + rng.NextBelow(3);
    std::vector<std::string> keywords(vocabulary.begin(),
                                      vocabulary.begin() + m);
    const AugmentedGraph augmented = Augment(p, keywords);

    // Random scope subset (possibly empty, possibly everything).
    std::vector<rdf::TermId> scope_terms;
    for (rdf::TermId t : predicates) {
      if (rng.NextBernoulli(0.5)) scope_terms.push_back(t);
    }
    const EdgeFilter base = p.summary->PredicateScopeFilter(scope_terms);
    const OverlayEdgeFilter scoped = augmented.ScopedFilter(&base, scope_terms);

    ExplorationOptions options;
    options.k = 1 + rng.NextBelow(8);
    options.dmax = 3 + rng.NextBelow(8);
    options.cost_model = static_cast<CostModel>(1 + rng.NextBelow(3));
    options.prune_paths_per_element = rng.NextBernoulli(0.7);
    options.tightened_bound = rng.NextBernoulli(0.5);
    ExpectIdenticalScopedTopK(
        augmented, &scoped, options, &scratch,
        StrFormat("random seed=%llu %s |scope|=%zu k=%zu dmax=%u model=%d",
                  static_cast<unsigned long long>(GetParam()),
                  Join(keywords, "+").c_str(), scope_terms.size(), options.k,
                  options.dmax, static_cast<int>(options.cost_model)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedScopedDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --------------------------------------------- engine predicate scopes ---

TEST(EngineScopeTest, ScopedAtomsOnlyUseInScopePredicates) {
  grasp::testing::Dataset dataset = grasp::testing::MakeFigure1Dataset();
  KeywordSearchEngine engine(dataset.store, dataset.dictionary);

  KeywordSearchEngine::KeywordQuery query;
  query.keywords = {"2006", "cimiano", "aifb"};
  query.k = 5;
  // Local-name scope strings exercise the dictionary-scan fallback.
  query.predicate_scope = {"name", "author", "year", "worksAt"};
  const auto scoped = engine.Search(query);
  EXPECT_FALSE(scoped.queries.empty());

  std::set<rdf::TermId> allowed;
  for (const std::string& s : query.predicate_scope) {
    for (rdf::TermId t = 0; t < dataset.dictionary.size(); ++t) {
      if (dataset.dictionary.kind(t) == rdf::TermKind::kIri &&
          rdf::IriLocalName(dataset.dictionary.text(t)) == s) {
        allowed.insert(t);
      }
    }
  }
  allowed.insert(engine.data_graph().type_term());
  allowed.insert(engine.data_graph().subclass_term());
  for (const auto& ranked : scoped.queries) {
    for (const query::Atom& atom : ranked.query.atoms()) {
      EXPECT_TRUE(allowed.count(atom.predicate) > 0)
          << "atom uses out-of-scope predicate "
          << dataset.dictionary.text(atom.predicate);
    }
  }

  // Excluding `worksAt` severs the researcher-institute connection the
  // top interpretation needs; results must change accordingly, and never
  // mention the predicate.
  query.predicate_scope = {"name", "author", "year"};
  const auto narrower = engine.Search(query);
  const rdf::TermId works_at = dataset.dictionary.Find(
      rdf::TermKind::kIri, std::string(grasp::testing::kEx) + "worksAt");
  ASSERT_NE(works_at, rdf::kInvalidTermId);
  for (const auto& ranked : narrower.queries) {
    for (const query::Atom& atom : ranked.query.atoms()) {
      EXPECT_NE(atom.predicate, works_at);
    }
  }
}

TEST(EngineScopeTest, AllCoveringScopeMatchesUnscopedSearch) {
  grasp::testing::Dataset dataset = grasp::testing::MakeFigure1Dataset();
  KeywordSearchEngine engine(dataset.store, dataset.dictionary);
  const rdf::DataGraph& graph = engine.data_graph();

  std::set<std::string> names;
  for (const rdf::Edge& e : graph.edges()) {
    if (e.kind == rdf::EdgeKind::kRelation ||
        e.kind == rdf::EdgeKind::kAttribute) {
      names.emplace(rdf::IriLocalName(dataset.dictionary.text(e.label)));
    }
  }
  KeywordSearchEngine::KeywordQuery query;
  query.keywords = {"2006", "cimiano", "aifb"};
  query.k = 5;
  query.predicate_scope.assign(names.begin(), names.end());

  const auto scoped = engine.Search(query);
  const auto unscoped = engine.Search(query.keywords, query.k);
  ASSERT_EQ(scoped.queries.size(), unscoped.queries.size());
  for (std::size_t i = 0; i < scoped.queries.size(); ++i) {
    EXPECT_EQ(scoped.queries[i].cost, unscoped.queries[i].cost) << i;
    EXPECT_EQ(scoped.queries[i].query.CanonicalString(),
              unscoped.queries[i].query.CanonicalString())
        << i;
  }
  EXPECT_EQ(scoped.exploration_stats.cursors_popped,
            unscoped.exploration_stats.cursors_popped);
}

TEST(EngineScopeTest, ScopeMasksAreCachedAndAccounted) {
  grasp::testing::Dataset dataset = grasp::testing::MakeFigure1Dataset();
  KeywordSearchEngine engine(dataset.store, dataset.dictionary);
  EXPECT_EQ(engine.index_stats().scope_cache_bytes, 0u);

  KeywordSearchEngine::KeywordQuery query;
  query.keywords = {"2006", "aifb"};
  query.k = 3;
  query.predicate_scope = {"name", "year", "worksAt"};
  const auto first = engine.Search(query);
  const std::size_t after_first = engine.index_stats().scope_cache_bytes;
  EXPECT_GT(after_first, 0u);

  // Same scope in any order hits the same canonical cache entry; results
  // are deterministic across repeats.
  query.predicate_scope = {"worksAt", "name", "year"};
  const auto second = engine.Search(query);
  EXPECT_EQ(engine.index_stats().scope_cache_bytes, after_first);
  ASSERT_EQ(first.queries.size(), second.queries.size());
  for (std::size_t i = 0; i < first.queries.size(); ++i) {
    EXPECT_EQ(first.queries[i].query.CanonicalString(),
              second.queries[i].query.CanonicalString());
    EXPECT_EQ(first.queries[i].cost, second.queries[i].cost);
  }

  query.predicate_scope = {"author"};
  engine.Search(query);
  EXPECT_GT(engine.index_stats().scope_cache_bytes, after_first);
}

TEST(EngineScopeTest, UnresolvableScopeYieldsNoRelationalAnswers) {
  grasp::testing::Dataset dataset = grasp::testing::MakeFigure1Dataset();
  KeywordSearchEngine engine(dataset.store, dataset.dictionary);
  KeywordSearchEngine::KeywordQuery query;
  query.keywords = {"2006", "cimiano"};
  query.k = 5;
  query.predicate_scope = {"no-such-predicate"};
  // The two keywords can only connect through attribute edges, all of
  // which are scoped out: the scoped graph admits no interpretation.
  const auto result = engine.Search(query);
  EXPECT_TRUE(result.queries.empty());
}

}  // namespace
}  // namespace grasp::core
