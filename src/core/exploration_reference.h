#ifndef GRASP_CORE_EXPLORATION_REFERENCE_H_
#define GRASP_CORE_EXPLORATION_REFERENCE_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.h"
#include "core/exploration.h"
#include "core/exploration_scratch.h"
#include "core/subgraph.h"
#include "summary/augmented_graph.h"

namespace grasp::core {

/// The straightforward pre-optimization top-k explorer: per-keyword binary
/// heaps with a linear min-scan across queues, a dense per-(element,
/// keyword) path matrix, string structure keys with a std::map dedup table,
/// and a sorted-vector candidate list. Behaviorally identical to
/// SubgraphExplorer (same pop order, tie-breaks, and results, byte for
/// byte); retained as the oracle for the randomized differential tests and
/// as the baseline the exploration microbenchmark compares against.
class ReferenceExplorer {
 public:
  ReferenceExplorer(const summary::AugmentedGraph& graph,
                    const ExplorationOptions& options);

  ReferenceExplorer(const ReferenceExplorer&) = delete;
  ReferenceExplorer& operator=(const ReferenceExplorer&) = delete;

  std::vector<MatchingSubgraph> FindTopK();

  const ExplorationStats& stats() const { return stats_; }
  const std::vector<double>& pop_cost_trace() const { return pop_cost_trace_; }

 private:
  struct Cursor {
    summary::ElementId element;
    std::int32_t parent = -1;
    std::uint32_t keyword = 0;
    std::uint32_t distance = 0;
    double cost = 0.0;
  };

  std::vector<std::uint32_t>& PathsAt(summary::ElementId element,
                                      std::uint32_t keyword);
  bool InAncestors(std::uint32_t cursor, summary::ElementId element) const;
  void CollectNeighbors(summary::ElementId element,
                        std::vector<summary::ElementId>* out) const;
  std::vector<summary::ElementId> ReconstructPath(std::uint32_t cursor) const;
  void GenerateCandidates(summary::ElementId n, std::uint32_t new_cursor);
  void InsertCandidate(MatchingSubgraph subgraph);
  std::size_t CandidateCap() const;
  double CandidatePruneCost() const;
  double RemainingLowerBound() const;
  double KthCandidateCost() const;
  /// Goal-directed prune test; same rule as SubgraphExplorer::Prune.
  bool Prune(double cost, summary::ElementId element, std::uint32_t keyword,
             double threshold);
  /// Verified-prefix bound for early stops; same formula, same semantics as
  /// SubgraphExplorer::StopBound — the differential suite pins both.
  double StopBound(double pending_cost) const;

  const summary::AugmentedGraph* graph_;
  ExplorationOptions options_;
  CostFunction cost_fn_;
  ExplorationStats stats_;
  double stop_bound_ = std::numeric_limits<double>::infinity();

  std::vector<Cursor> cursors_;
  std::vector<std::vector<std::pair<double, std::uint32_t>>> queues_;
  std::vector<std::vector<std::uint32_t>> paths_at_;
  std::size_t num_keywords_ = 0;

  std::vector<MatchingSubgraph> candidates_;
  std::vector<std::string> candidate_keys_;
  std::map<std::string, double> best_cost_by_key_;

  /// Completion floor; see SubgraphExplorer::completion_floor_.
  double completion_floor_ = 0.0;
  /// Cost-to-complete bounds (tightened_bound only) and the pruned floor;
  /// see SubgraphExplorer::Prune and pruned_floor_.
  std::vector<double> element_cost_;  ///< the bound's input, DenseIndex order
  CompletionBounds bounds_;
  double pruned_floor_ = std::numeric_limits<double>::infinity();
  std::vector<double> pop_cost_trace_;
};

}  // namespace grasp::core

#endif  // GRASP_CORE_EXPLORATION_REFERENCE_H_
