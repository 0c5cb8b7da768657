#include "core/completion_bound.h"

#include <cstdint>
#include <span>

namespace grasp::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Multi-source Dijkstra over nodes only, in place on `dist` (node seeds on
/// entry, +inf elsewhere). An edge's only neighbours are its endpoints, so
/// every walk alternates node, edge, node: a hop from a settled node u over
/// edge e to node w costs c(e) + c(w) on the forward D_j walk (which counts
/// every element it enters) and c(u) + c(e) on the backward h_i walk (which
/// counts every element it leaves). Edge values follow from their
/// endpoints in one linear pass afterwards, so the heap holds nodes only.
void RelaxNodes(const CompletionBounds& b, std::span<const double> cost,
                bool forward, double* dist, CursorHeap* heap) {
  heap->Clear();
  for (std::uint32_t u = 0; u < b.num_nodes; ++u) {
    if (dist[u] < kInf) heap->Push(dist[u], u);
  }
  while (!heap->empty()) {
    const CursorHeap::Entry top = heap->Pop();
    const std::uint32_t u = top.cursor;
    if (top.cost > dist[u]) continue;  // superseded entry
    const double from = forward ? top.cost : top.cost + cost[u];
    for (std::uint32_t a = b.hops_begin[u]; a < b.hops_begin[u + 1]; ++a) {
      const CompletionBounds::Hop hop = b.hops[a];
      const double d = forward ? from + cost[hop.edge] + cost[hop.node]
                               : from + cost[hop.edge];
      if (d < dist[hop.node]) {
        dist[hop.node] = d;
        heap->Push(d, hop.node);
      }
    }
  }
}

}  // namespace

void ComputeCompletionBounds(const summary::AugmentedGraph& graph,
                             const graph::OverlayEdgeFilter* scope,
                             std::span<const double> cost,
                             CompletionBounds* bounds) {
  CompletionBounds& b = *bounds;
  const std::uint32_t nodes = static_cast<std::uint32_t>(graph.NumNodes());
  const std::size_t n = graph.num_elements();
  const std::size_t m = graph.num_keywords();
  b.num_nodes = nodes;
  b.num_elements = n;

  // The scoped node adjacency, once per query. Masked edges appear in no
  // hop and root nothing, so no walk enters them.
  b.hops_begin.resize(nodes + 1);
  b.hops.clear();
  auto add_hops = [&](summary::NodeId v, std::span<const summary::EdgeId> run) {
    for (summary::EdgeId e : run) {
      if (scope != nullptr && !scope->Contains(e)) continue;
      const summary::SummaryEdge& edge = graph.edge(e);
      b.hops.push_back(
          CompletionBounds::Hop{nodes + e, edge.from == v ? edge.to : edge.from});
    }
  };
  for (summary::NodeId v = 0; v < nodes; ++v) {
    b.hops_begin[v] = static_cast<std::uint32_t>(b.hops.size());
    const graph::ChainedIds incident = graph.IncidentEdges(v);
    add_hops(v, incident.first());
    add_hops(v, incident.second());
  }
  b.hops_begin[nodes] = static_cast<std::uint32_t>(b.hops.size());

  b.h.resize(m * n);
  if (m == 1) {
    // No other keyword to connect: every element completes for free.
    std::fill(b.h.begin(), b.h.end(), 0.0);
    return;
  }

  // D_j: forward from keyword j's in-scope roots (the explorers' root
  // rule). A root edge seeds its endpoints; every edge is then entered
  // from its cheaper endpoint unless it is a cheaper root itself.
  b.reach.assign(m * n, kInf);
  const auto& keyword_elements = graph.keyword_elements();
  for (std::size_t j = 0; j < m; ++j) {
    double* reach = b.reach.data() + j * n;
    for (const summary::ScoredElement& se : keyword_elements[j]) {
      if (se.element.is_edge() && scope != nullptr &&
          !scope->Contains(se.element.index())) {
        continue;
      }
      const std::size_t x = graph.DenseIndex(se.element);
      reach[x] = cost[x];
    }
    for (std::uint32_t u = 0; u < nodes; ++u) {
      for (std::uint32_t a = b.hops_begin[u]; a < b.hops_begin[u + 1]; ++a) {
        reach[u] = std::min(reach[u], reach[b.hops[a].edge] + cost[u]);
      }
    }
    RelaxNodes(b, cost, /*forward=*/true, reach, &b.heap);
    for (std::uint32_t u = 0; u < nodes; ++u) {
      for (std::uint32_t a = b.hops_begin[u]; a < b.hops_begin[u + 1]; ++a) {
        const std::uint32_t e = b.hops[a].edge;
        reach[e] = std::min(reach[e], reach[u] + cost[e]);
      }
    }
  }

  // h_i: backward from every element, seeded with the other keywords' D.
  // A node may stop at an incident edge; an edge steps to an endpoint.
  for (std::size_t i = 0; i < m; ++i) {
    double* h = b.h.data() + i * n;
    for (std::size_t x = 0; x < n; ++x) {
      double seed = 0.0;
      for (std::size_t j = 0; j < m; ++j) {
        if (j != i) seed += b.reach[j * n + x];
      }
      h[x] = seed;
    }
    for (std::uint32_t u = 0; u < nodes; ++u) {
      for (std::uint32_t a = b.hops_begin[u]; a < b.hops_begin[u + 1]; ++a) {
        const std::uint32_t e = b.hops[a].edge;
        h[u] = std::min(h[u], cost[e] + h[e]);
      }
    }
    RelaxNodes(b, cost, /*forward=*/false, h, &b.heap);
    for (std::uint32_t u = 0; u < nodes; ++u) {
      for (std::uint32_t a = b.hops_begin[u]; a < b.hops_begin[u + 1]; ++a) {
        const std::uint32_t e = b.hops[a].edge;
        h[e] = std::min(h[e], cost[u] + h[u]);
      }
    }
  }
}

}  // namespace grasp::core
