#ifndef GRASP_BASELINE_BLINKS_H_
#define GRASP_BASELINE_BLINKS_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "baseline/answer_tree.h"
#include "baseline/keyword_map.h"
#include "baseline/partition.h"
#include "rdf/data_graph.h"

namespace grasp::baseline {

/// BLINKS-style partition-indexed search (He et al., SIGMOD 2007), the
/// third baseline of Sec. VI-A ("1000 BFS / 1000 METIS / 300 BFS /
/// 300 METIS" in Fig. 5). The graph is split into blocks; an offline index
/// stores, per block, its portal vertices and exact intra-block distances
/// from every portal. At query time the search runs on the much smaller
/// portal graph, expanding whole blocks at once.
///
/// Faithfulness note (see PAPER.md, "Substitutions"): full BLINKS additionally indexes
/// node-to-keyword distance lists; this reproduction restricts answer roots
/// to portal/origin vertices instead, which preserves the runtime shape the
/// figure compares (indexed search beats raw expansion; index size and
/// build time grow as blocks shrink).
class BlinksIndex {
 public:
  struct BuildOptions {
    std::size_t num_blocks = 300;
    PartitionMethod method = PartitionMethod::kBfs;
    /// Restrict the indexed graph to edges whose mask bit is set. The scope
    /// is fixed at *build* time — portal sets and intra-block distances are
    /// precomputed over the filtered view, and Search() traverses the same
    /// view, so a search-time BaselineOptions::edge_filter is ignored here
    /// (a mismatched one would contradict the precomputed distances). The
    /// block partition itself stays a full-graph layout heuristic; only
    /// reachability honors the filter. Must outlive the index.
    const graph::EdgeFilter* edge_filter = nullptr;
    EdgeFilterMode filter_mode = EdgeFilterMode::kFilteredView;
  };

  /// Builds the block index. `graph` and `keyword_map` must outlive it.
  BlinksIndex(const rdf::DataGraph& graph, const VertexKeywordMap& keyword_map,
              const BuildOptions& options);

  BaselineResult Search(const std::vector<std::string>& keywords,
                        const BaselineOptions& options) const;

  std::size_t num_blocks() const { return partition_.num_blocks; }
  std::size_t num_portals() const { return portal_ids_.size(); }
  std::size_t cut_size() const { return cut_size_; }
  double build_millis() const { return build_millis_; }
  std::size_t MemoryUsageBytes() const;

 private:
  /// Exact undirected distances from `source` to all vertices of its block;
  /// keyed only for vertices actually reached.
  std::unordered_map<rdf::VertexId, double> IntraBlockDistances(
      rdf::VertexId source) const;

  const rdf::DataGraph* graph_;
  const VertexKeywordMap* keyword_map_;
  const graph::EdgeFilter* edge_filter_ = nullptr;  ///< build-time scope
  EdgeFilterMode filter_mode_ = EdgeFilterMode::kFilteredView;
  Partition partition_;
  std::vector<rdf::VertexId> portal_ids_;         // all portal vertices
  std::vector<bool> is_portal_;                   // per vertex
  std::vector<std::vector<rdf::VertexId>> block_portals_;  // per block
  /// portal -> (portal or same-block vertex distances), precomputed.
  std::unordered_map<rdf::VertexId,
                     std::vector<std::pair<rdf::VertexId, double>>>
      portal_edges_;
  std::size_t cut_size_ = 0;
  double build_millis_ = 0.0;
};

}  // namespace grasp::baseline

#endif  // GRASP_BASELINE_BLINKS_H_
