#ifndef GRASP_BASELINE_PARTITION_H_
#define GRASP_BASELINE_PARTITION_H_

#include <cstdint>
#include <vector>

#include "rdf/data_graph.h"

namespace grasp::baseline {

using BlockId = std::uint32_t;

/// Partitioning strategies for the BLINKS-style block index (Fig. 5 compares
/// "BFS" and "METIS" partitionings at 300 and 1000 blocks). METIS itself is
/// closed off to this reproduction, so `kGreedy` implements a multilevel-
/// flavoured substitute: BFS seeding followed by local-move refinement that
/// reduces the edge cut under a balance constraint (see PAPER.md,
/// "Substitutions").
enum class PartitionMethod { kBfs, kGreedy };

struct Partition {
  std::vector<BlockId> block_of;  ///< per vertex
  std::size_t num_blocks = 0;

  /// Number of edges whose endpoints lie in different blocks, all edge
  /// kinds counted.
  std::size_t CutSize(const rdf::DataGraph& graph) const;

  /// Cut restricted to the edge kinds whose EdgeKindBit is set in
  /// `kind_mask`. The all-kinds overload also counts attribute/type/subclass
  /// edges, which end at value or class vertices; masking to
  /// EdgeKindBit(EdgeKind::kRelation) counts only entity-entity links.
  std::size_t CutSize(const rdf::DataGraph& graph, unsigned kind_mask) const;
};

/// Splits the vertices of `graph` (viewed as undirected) into at most
/// `num_blocks` connected-ish blocks of roughly equal size.
Partition PartitionGraph(const rdf::DataGraph& graph, std::size_t num_blocks,
                         PartitionMethod method);

}  // namespace grasp::baseline

#endif  // GRASP_BASELINE_PARTITION_H_
