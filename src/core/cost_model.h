#ifndef GRASP_CORE_COST_MODEL_H_
#define GRASP_CORE_COST_MODEL_H_

#include <vector>

#include "summary/augmented_graph.h"

namespace grasp::core {

/// The three scoring schemes of Sec. V. Graph cost = sum of path costs;
/// path cost = sum of element costs; lower is better.
enum class CostModel {
  /// C1: c(n) = 1 — path length.
  kPathLength = 1,
  /// C2: c(v) = 1 - |v_agg|/|V_E|, c(e) = 1 - |e_agg|/|E_R| — popularity.
  /// (The paper's text says |V| is "the total number of vertices in the
  /// summary graph", which would make the ratio exceed 1 for any aggregated
  /// class; we read it as the number of aggregated data elements, the only
  /// interpretation under which the formula yields a cost in [0, 1].)
  kPopularity = 2,
  /// C3: C2's element cost divided by the matching score sm(n).
  kMatching = 3,
};

/// Evaluates element costs c(n) (resp. c(n)/sm(n)) against one augmented
/// summary graph. All costs are clamped to [kMinElementCost, +inf) so that
/// every cost model is strictly monotone under path extension — the
/// precondition for the TA-style termination proof (Theorem 1).
class CostFunction {
 public:
  CostFunction(CostModel model, const summary::AugmentedGraph& graph)
      : model_(model), graph_(&graph) {}

  /// Cost contribution of one graph element to a path through it.
  double ElementCost(summary::ElementId element) const;

  /// ElementCost of every element, indexed by AugmentedGraph::DenseIndex
  /// (nodes first, then edges) into `out`, which keeps its capacity.
  void DenseCosts(std::vector<double>* out) const;

  CostModel model() const { return model_; }

  /// Lower bound of any element cost; keeps costs strictly positive.
  static constexpr double kMinElementCost = 0.01;

 private:
  double PopularityCost(summary::ElementId element) const;

  CostModel model_;
  const summary::AugmentedGraph* graph_;
};

}  // namespace grasp::core

#endif  // GRASP_CORE_COST_MODEL_H_
