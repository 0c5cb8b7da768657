// Invariant and regression tests for the graph partitioner behind the
// BLINKS baseline's block index (baseline::BlinksIndex partitions the data
// graph with PartitionGraph and reports CutSize):
//
//  - structural invariants on arbitrary graphs: at most the requested
//    number of blocks, every block non-empty, every assignment in range,
//    every vertex assigned — including disconnected graphs and the
//    num_blocks > n edge case (both bit the original BfsSeed, whose
//    frontier flush could strand vertices in block 0);
//  - determinism: identical inputs yield identical partitions (the Fig. 5
//    BLINKS rows must be reproducible run to run, so any hash-order
//    dependence is a bug, not noise);
//  - refinement quality: kGreedy only ever moves a vertex toward a block
//    it has strictly more links to, so its cut is never worse than the
//    kBfs seed it refines;
//  - CutSize kind-awareness: the all-kinds overload also counts
//    attribute/type edges to literal and class vertices; the kind-masked
//    overload restricted to relation edges counts only entity-entity
//    links.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "baseline/partition.h"
#include "rdf/data_graph.h"
#include "test_util.h"

namespace grasp::baseline {
namespace {

using grasp::testing::Dataset;
using grasp::testing::MakeDataset;
using grasp::testing::MakeRandomDataset;

/// Asserts every structural invariant the block index assumes.
void CheckInvariants(const Partition& p, const rdf::DataGraph& graph,
                     std::size_t requested) {
  ASSERT_EQ(p.block_of.size(), graph.NumVertices());
  ASSERT_GE(p.num_blocks, 1u);
  EXPECT_LE(p.num_blocks, requested);
  if (graph.NumVertices() > 0) {
    EXPECT_LE(p.num_blocks, graph.NumVertices());
  }
  std::vector<std::size_t> size(p.num_blocks, 0);
  for (BlockId b : p.block_of) {
    ASSERT_LT(b, p.num_blocks);
    ++size[b];
  }
  for (std::size_t b = 0; b < p.num_blocks; ++b) {
    EXPECT_GT(size[b], 0u) << "block " << b << " is empty";
  }
}

TEST(PartitionTest, InvariantsOnRandomGraphs) {
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    const Dataset d = MakeRandomDataset(seed, /*num_classes=*/4,
                                        /*num_entities=*/60,
                                        /*num_relations=*/120,
                                        /*num_predicates=*/5,
                                        /*num_attributes=*/40,
                                        /*value_pool=*/10);
    const rdf::DataGraph graph = rdf::DataGraph::Build(d.store, d.dictionary);
    for (std::size_t blocks : {1u, 2u, 5u, 16u}) {
      for (PartitionMethod method :
           {PartitionMethod::kBfs, PartitionMethod::kGreedy}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed=" << seed << " blocks=" << blocks << " method="
                     << (method == PartitionMethod::kBfs ? "bfs" : "greedy"));
        CheckInvariants(PartitionGraph(graph, blocks, method), graph, blocks);
      }
    }
  }
}

TEST(PartitionTest, Deterministic) {
  // Two independently parsed copies of the same dataset must partition
  // identically — block ids included, not just cut sizes.
  for (PartitionMethod method :
       {PartitionMethod::kBfs, PartitionMethod::kGreedy}) {
    const Dataset d1 = MakeRandomDataset(42, 3, 50, 100, 4, 30, 8);
    const Dataset d2 = MakeRandomDataset(42, 3, 50, 100, 4, 30, 8);
    const rdf::DataGraph g1 = rdf::DataGraph::Build(d1.store, d1.dictionary);
    const rdf::DataGraph g2 = rdf::DataGraph::Build(d2.store, d2.dictionary);
    const Partition p1 = PartitionGraph(g1, 6, method);
    const Partition p2 = PartitionGraph(g2, 6, method);
    EXPECT_EQ(p1.num_blocks, p2.num_blocks);
    EXPECT_EQ(p1.block_of, p2.block_of);
  }
}

TEST(PartitionTest, DisconnectedGraph) {
  // Three disjoint relation clusters plus isolated typed entities. The BFS
  // seeding must hop components without stranding anything, and the
  // frontier flush at a block boundary must not skip vertices the linear
  // scan already passed.
  std::vector<std::string> lines;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 5; ++i) {
      lines.push_back(grasp::StrFormat("c%de%d a Cluster%d", c, i, c));
      if (i > 0) {
        lines.push_back(grasp::StrFormat("c%de0 linksTo c%de%d", c, c, i));
      }
    }
  }
  lines.push_back("lonely1 a Loner");
  lines.push_back("lonely2 a Loner");
  const Dataset d = MakeDataset(lines);
  const rdf::DataGraph graph = rdf::DataGraph::Build(d.store, d.dictionary);
  for (std::size_t blocks : {2u, 3u, 7u}) {
    for (PartitionMethod method :
         {PartitionMethod::kBfs, PartitionMethod::kGreedy}) {
      SCOPED_TRACE(::testing::Message() << "blocks=" << blocks);
      CheckInvariants(PartitionGraph(graph, blocks, method), graph, blocks);
    }
  }
}

TEST(PartitionTest, MoreBlocksThanVertices) {
  const Dataset d = MakeDataset({
      "e1 a T",
      "e2 a T",
      "e1 rel e2",
  });
  const rdf::DataGraph graph = rdf::DataGraph::Build(d.store, d.dictionary);
  for (PartitionMethod method :
       {PartitionMethod::kBfs, PartitionMethod::kGreedy}) {
    const Partition p =
        PartitionGraph(graph, graph.NumVertices() + 10, method);
    CheckInvariants(p, graph, graph.NumVertices() + 10);
    // With more blocks than vertices every block is a singleton.
    EXPECT_EQ(p.num_blocks, graph.NumVertices());
  }
}

TEST(PartitionTest, GreedyCutNeverWorseThanBfs) {
  // Every refinement move strictly reduces the cut (it requires more links
  // to the destination than to the home block), so the refined partition's
  // cut is bounded by the seed's on any graph.
  for (std::uint64_t seed : {3u, 11u, 19u, 31u}) {
    const Dataset d = MakeRandomDataset(seed, 4, 80, 200, 6, 50, 12);
    const rdf::DataGraph graph = rdf::DataGraph::Build(d.store, d.dictionary);
    for (std::size_t blocks : {2u, 4u, 8u}) {
      const Partition bfs =
          PartitionGraph(graph, blocks, PartitionMethod::kBfs);
      const Partition greedy =
          PartitionGraph(graph, blocks, PartitionMethod::kGreedy);
      EXPECT_LE(greedy.CutSize(graph), bfs.CutSize(graph))
          << "seed=" << seed << " blocks=" << blocks;
    }
  }
}

TEST(PartitionTest, KindAwareCutSizeExcludesNonRelationEdges) {
  // One relation edge, several attribute/type edges. With every vertex in
  // its own block all edges cross, so the all-kinds count equals the edge
  // count, while the relation-only cut is exactly the relation-edge count.
  const Dataset d = MakeDataset({
      "e1 a T",
      "e2 a T",
      "e1 rel e2",
      R"(e1 name "alpha")",
      R"(e2 name "beta")",
      R"(e2 note "gamma")",
  });
  const rdf::DataGraph graph = rdf::DataGraph::Build(d.store, d.dictionary);
  Partition scattered;
  scattered.num_blocks = graph.NumVertices();
  scattered.block_of.resize(graph.NumVertices());
  for (std::size_t v = 0; v < graph.NumVertices(); ++v) {
    scattered.block_of[v] = static_cast<BlockId>(v);
  }
  std::size_t relation_edges = 0;
  for (const rdf::Edge& e : graph.edges()) {
    if (e.kind == rdf::EdgeKind::kRelation) ++relation_edges;
  }
  ASSERT_GT(graph.NumEdges(), relation_edges);  // literals/types present
  EXPECT_EQ(scattered.CutSize(graph), graph.NumEdges());
  EXPECT_EQ(scattered.CutSize(graph,
                              rdf::EdgeKindBit(rdf::EdgeKind::kRelation)),
            relation_edges);
  EXPECT_LT(scattered.CutSize(graph,
                              rdf::EdgeKindBit(rdf::EdgeKind::kRelation)),
            scattered.CutSize(graph));
}

TEST(PartitionTest, KindAwareCutMatchesAllKindsOnPartitionerOutput) {
  // Sanity on real partitioner output: the relation-only cut is a subset
  // of the all-kinds cut, for both methods.
  const Dataset d = MakeRandomDataset(5, 3, 40, 80, 4, 60, 6);
  const rdf::DataGraph graph = rdf::DataGraph::Build(d.store, d.dictionary);
  for (PartitionMethod method :
       {PartitionMethod::kBfs, PartitionMethod::kGreedy}) {
    const Partition p = PartitionGraph(graph, 4, method);
    EXPECT_LE(p.CutSize(graph, rdf::EdgeKindBit(rdf::EdgeKind::kRelation)),
              p.CutSize(graph));
  }
}

}  // namespace
}  // namespace grasp::baseline
