#include "core/cost_model.h"

#include <algorithm>

namespace grasp::core {

double CostFunction::PopularityCost(summary::ElementId element) const {
  double popularity = 0.0;
  if (element.is_node()) {
    const summary::SummaryNode& n = graph_->node(element.index());
    const double total =
        static_cast<double>(std::max<std::uint64_t>(1, graph_->total_entities()));
    popularity = static_cast<double>(n.agg_count) / total;
  } else {
    const summary::SummaryEdge& e = graph_->edge(element.index());
    const double total = static_cast<double>(
        std::max<std::uint64_t>(1, graph_->total_relation_edges()));
    popularity = static_cast<double>(e.agg_count) / total;
  }
  return std::max(kMinElementCost, 1.0 - std::min(1.0, popularity));
}

double CostFunction::ElementCost(summary::ElementId element) const {
  switch (model_) {
    case CostModel::kPathLength:
      return 1.0;
    case CostModel::kPopularity:
      return PopularityCost(element);
    case CostModel::kMatching: {
      // sm(n) is in (0, 1]; non-keyword elements have sm = 1, so C3
      // coincides with C2 on them and discounts well-matched keyword
      // elements relative to poorly-matched ones.
      const double sm = std::max(1e-6, graph_->MatchScore(element));
      return PopularityCost(element) / sm;
    }
  }
  return 1.0;
}

void CostFunction::DenseCosts(std::vector<double>* out) const {
  const std::uint32_t nodes = static_cast<std::uint32_t>(graph_->NumNodes());
  const std::uint32_t edges = static_cast<std::uint32_t>(graph_->NumEdges());
  out->resize(graph_->num_elements());
  for (summary::NodeId v = 0; v < nodes; ++v) {
    (*out)[v] = ElementCost(summary::ElementId::Node(v));
  }
  for (summary::EdgeId e = 0; e < edges; ++e) {
    (*out)[nodes + e] = ElementCost(summary::ElementId::Edge(e));
  }
}

}  // namespace grasp::core
