#ifndef GRASP_CORE_COMPLETION_BOUND_H_
#define GRASP_CORE_COMPLETION_BOUND_H_

#include <algorithm>
#include <limits>
#include <span>

#include "core/exploration_scratch.h"
#include "graph/edge_filter.h"
#include "summary/augmented_graph.h"

namespace grasp::core {

/// Admissible cost-to-complete bound for goal-directed pruning (the A*
/// heuristic of Hart, Nilsson & Raphael, used as a prune, not a pop order).
///
/// With c(x) the query's element cost:
///  - D_j(x) is the cheapest walk cost from an in-scope root of keyword j
///    to x, counting both ends (a multi-source Dijkstra seeded with
///    D_j(r) = c(r)).
///  - h_i(x) = min over elements n of [walk cost x -> n, excluding x, plus
///    sum_{j != i} D_j(n)] (a second Dijkstra per keyword, seeded with that
///    sum and relaxed by h(x) <= c(y) + h(y) over neighbours y). It is +inf
///    where no element reachable from x is reached by every other keyword.
///
/// A candidate through a keyword-i cursor of cost c at x extends the
/// cursor's path to some connecting element n and adds one path per other
/// keyword ending at n, so it costs at least c + h_i(x): the walks ignore
/// dmax, the simple-path rule and the per-element path cap, which can only
/// make them cheaper. Both walks respect the edge scope. h_i(x) is never
/// below the completion floor (every D_j is at least keyword j's cheapest
/// root).
///
/// Both explorers fill `bounds` through this one function before seeding
/// their roots, so they read bit-identical doubles.
/// `element_cost` holds c(x) of every element in DenseIndex order
/// (CostFunction::DenseCosts).
void ComputeCompletionBounds(const summary::AugmentedGraph& graph,
                             const graph::OverlayEdgeFilter* scope,
                             std::span<const double> element_cost,
                             CompletionBounds* bounds);

/// Lower bound on any candidate through a cursor of cost `cost` whose
/// element and keyword have bound `h`. The relative discount absorbs the
/// rounding of the differently ordered sums behind h and behind a
/// candidate's cost, so the key never exceeds a candidate it bounds.
inline double PruneKey(double cost, double h) {
  return (cost + h) * (1.0 - 1e-12);
}

/// A cursor whose PruneKey exceeds this cannot reach the top k: `kth_cost`
/// is the current k-th candidate cost. While fewer than k candidates exist
/// (+inf), only cursors with h = +inf exceed it.
inline double PruneThreshold(double kth_cost) {
  return std::min(kth_cost, std::numeric_limits<double>::max());
}

}  // namespace grasp::core

#endif  // GRASP_CORE_COMPLETION_BOUND_H_
