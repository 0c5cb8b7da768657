#ifndef GRASP_CORE_SUBGRAPH_H_
#define GRASP_CORE_SUBGRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "summary/augmented_graph.h"

namespace grasp::core {

/// 64-bit canonical hash of a structure given its sorted, deduplicated
/// element sets. The exploration hot path deduplicates candidates on this
/// hash instead of materializing per-candidate key strings; a collision
/// between distinct structures within one query is a ~n^2/2^64 event.
std::uint64_t StructureHashOf(std::span<const summary::NodeId> nodes,
                              std::span<const summary::EdgeId> edges);

/// A K-matching subgraph (Definition 6) of the augmented summary graph: the
/// merge of one path per keyword, all ending at a common connecting element.
/// The structure may be a general graph — keyword elements can be edges and
/// paths may close cycles.
struct MatchingSubgraph {
  /// Sorted, deduplicated node/edge sets of the merged paths.
  std::vector<summary::NodeId> nodes;
  std::vector<summary::EdgeId> edges;

  /// Aggregated cost C_G = sum of path costs. Elements shared by several
  /// paths are counted once per path (Sec. V: tighter connections win).
  double cost = 0.0;

  /// The element where the merged paths meet.
  summary::ElementId connecting_element;

  /// Per keyword, the path from its keyword element to the connecting
  /// element, as the visited element sequence (origin first).
  std::vector<std::vector<summary::ElementId>> paths;

  /// Discovery coordinate of the decomposition that achieved `cost`:
  /// (cursors_popped << 20) | combination-index at the generating event.
  /// Both explorers enumerate combinations identically, so the coordinate
  /// is a total order on generation events that is stable across runs;
  /// the explorer differential suite compares it entry by entry within one
  /// stop mode. It counts pops, so it differs between the plain and the
  /// tightened mode, which pops fewer cursors for the same ranking.
  std::uint64_t discovery = 0;

  /// Identity of the subgraph as a structure (independent of path
  /// decomposition and cost): the sorted element sets. Used by tests and
  /// differential harnesses; the hot path dedups on StructureHash().
  std::string StructureKey() const;

  /// StructureHashOf() over this subgraph's element sets.
  std::uint64_t StructureHash() const;
};

}  // namespace grasp::core

#endif  // GRASP_CORE_SUBGRAPH_H_
