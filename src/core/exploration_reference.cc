#include "core/exploration_reference.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "core/completion_bound.h"

namespace grasp::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Min-heap helpers over (cost, cursor index) pairs; ties break on the
/// cursor index so runs are deterministic.
struct HeapGreater {
  bool operator()(const std::pair<double, std::uint32_t>& a,
                  const std::pair<double, std::uint32_t>& b) const {
    if (a.first != b.first) return a.first > b.first;
    return a.second > b.second;
  }
};

}  // namespace

ReferenceExplorer::ReferenceExplorer(const summary::AugmentedGraph& graph,
                                   const ExplorationOptions& options)
    : graph_(&graph),
      options_(options),
      cost_fn_(options.cost_model, graph),
      num_keywords_(graph.num_keywords()) {
  GRASP_CHECK_GT(options_.k, 0u);
  queues_.resize(num_keywords_);
  paths_at_.resize(graph_->num_elements() * std::max<std::size_t>(1, num_keywords_));
}

std::vector<std::uint32_t>& ReferenceExplorer::PathsAt(
    summary::ElementId element, std::uint32_t keyword) {
  return paths_at_[graph_->DenseIndex(element) * num_keywords_ + keyword];
}

bool ReferenceExplorer::InAncestors(std::uint32_t cursor,
                                   summary::ElementId element) const {
  std::int32_t i = static_cast<std::int32_t>(cursor);
  while (i >= 0) {
    const Cursor& c = cursors_[static_cast<std::size_t>(i)];
    if (c.element == element) return true;
    i = c.parent;
  }
  return false;
}

void ReferenceExplorer::CollectNeighbors(
    summary::ElementId element, std::vector<summary::ElementId>* out) const {
  out->clear();
  if (element.is_node()) {
    for (summary::EdgeId e : graph_->IncidentEdges(element.index())) {
      // Edge-scope reference semantics: explore the full incident chain
      // and reject masked edges with a plain per-edge branch — the
      // formulation the flat explorer's word-scanned path is pinned
      // against by the filtered differential suite.
      if (options_.edge_filter != nullptr &&
          !options_.edge_filter->Contains(e)) {
        continue;
      }
      out->push_back(summary::ElementId::Edge(e));
    }
  } else {
    const summary::SummaryEdge& e = graph_->edge(element.index());
    out->push_back(summary::ElementId::Node(e.from));
    if (e.to != e.from) out->push_back(summary::ElementId::Node(e.to));
  }
}

std::vector<summary::ElementId> ReferenceExplorer::ReconstructPath(
    std::uint32_t cursor) const {
  std::vector<summary::ElementId> path;
  std::int32_t i = static_cast<std::int32_t>(cursor);
  while (i >= 0) {
    const Cursor& c = cursors_[static_cast<std::size_t>(i)];
    path.push_back(c.element);
    i = c.parent;
  }
  std::reverse(path.begin(), path.end());  // origin (keyword element) first
  return path;
}

double ReferenceExplorer::KthCandidateCost() const {
  if (candidates_.size() < options_.k) return kInf;
  return candidates_[options_.k - 1].cost;
}

double ReferenceExplorer::RemainingLowerBound() const {
  // A future candidate consists of one path that is still on some queue
  // (cost >= min_cursor) plus, for every other keyword, some path that costs
  // at least that keyword's cheapest root — the completion floor.
  double min_cursor = kInf;
  for (const auto& q : queues_) {
    if (!q.empty()) min_cursor = std::min(min_cursor, q.front().first);
  }
  if (min_cursor == kInf) return pruned_floor_;
  return std::min(min_cursor + completion_floor_, pruned_floor_);
}

double ReferenceExplorer::StopBound(double pending_cost) const {
  // Same reasoning as RemainingLowerBound, anchored on the popped-but-
  // unprocessed cursor (at least as cheap as every queued one): any
  // candidate the continued run could still produce costs at least this
  // much, so ranked candidates strictly below it are final.
  return std::min(pending_cost + completion_floor_, pruned_floor_);
}

bool ReferenceExplorer::Prune(double cost, summary::ElementId element,
                              std::uint32_t keyword, double threshold) {
  const double key =
      PruneKey(cost, bounds_.At(graph_->DenseIndex(element), keyword));
  if (key <= threshold) return false;
  ++stats_.cursors_pruned;
  pruned_floor_ = std::min(pruned_floor_, key);
  return true;
}

std::size_t ReferenceExplorer::CandidateCap() const {
  // k-best(LG') of Alg. 2, line 8, with a slack factor so that structures
  // evicted here can still reappear with a cheaper decomposition.
  return options_.k * 4 + 16;
}

double ReferenceExplorer::CandidatePruneCost() const {
  if (candidates_.size() < CandidateCap()) return kInf;
  return candidates_.back().cost;
}

void ReferenceExplorer::InsertCandidate(MatchingSubgraph subgraph) {
  ++stats_.subgraphs_generated;
  std::string key = subgraph.StructureKey();
  auto it = best_cost_by_key_.find(key);
  if (it != best_cost_by_key_.end()) {
    ++stats_.subgraphs_deduplicated;
    if (subgraph.cost >= it->second) return;
    // A cheaper decomposition of a known structure: replace it. The key
    // cache avoids rebuilding every candidate's key during the scan.
    it->second = subgraph.cost;
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
      if (candidate_keys_[i] == key) {
        candidates_.erase(candidates_.begin() + static_cast<std::ptrdiff_t>(i));
        candidate_keys_.erase(candidate_keys_.begin() +
                              static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  } else {
    best_cost_by_key_.emplace(key, subgraph.cost);
  }
  auto pos = std::upper_bound(
      candidates_.begin(), candidates_.end(), subgraph,
      [](const MatchingSubgraph& a, const MatchingSubgraph& b) {
        return a.cost < b.cost;
      });
  const std::size_t index =
      static_cast<std::size_t>(pos - candidates_.begin());
  candidates_.insert(pos, std::move(subgraph));
  candidate_keys_.insert(candidate_keys_.begin() +
                             static_cast<std::ptrdiff_t>(index),
                         std::move(key));
  const std::size_t cap = CandidateCap();
  if (candidates_.size() > cap) {
    candidates_.resize(cap);
    candidate_keys_.resize(cap);
  }
}

void ReferenceExplorer::GenerateCandidates(summary::ElementId n,
                                          std::uint32_t new_cursor) {
  const std::uint32_t kw = cursors_[new_cursor].keyword;
  // n is a connecting element iff every keyword has at least one recorded
  // path ending here (Alg. 2, line 1).
  for (std::uint32_t j = 0; j < num_keywords_; ++j) {
    if (j == kw) continue;
    if (PathsAt(n, j).empty()) return;
  }

  // Reconstruct every recorded path at n once up front; combinations below
  // reuse these instead of re-walking parent chains per combination.
  std::vector<std::vector<std::vector<summary::ElementId>>> prebuilt(
      num_keywords_);
  for (std::uint32_t j = 0; j < num_keywords_; ++j) {
    if (j == kw) continue;
    for (std::uint32_t cursor : PathsAt(n, j)) {
      prebuilt[j].push_back(ReconstructPath(cursor));
    }
  }
  const std::vector<summary::ElementId> new_path = ReconstructPath(new_cursor);

  // Enumerate cursorCombinations(n) incrementally: every new combination
  // must include the cursor that was just recorded; combinations of older
  // cursors were produced when their last member arrived.
  //
  // The enumeration is best-first over the combination lattice. Each
  // per-keyword path list is in ascending cost order, so the successors of a
  // combination (one index advanced) only cost more; a frontier heap
  // therefore yields combinations in ascending total cost, and the whole
  // event stops as soon as the cheapest remaining combination exceeds the
  // candidate-cap threshold — anything beyond it can never reach the top k
  // distinct structures. With m keywords and per-element path lists capped
  // at k, this materializes O(cap) combinations instead of k^(m-1).
  std::vector<const std::vector<std::uint32_t>*> path_lists(num_keywords_,
                                                            nullptr);
  std::vector<std::uint32_t> dims;  // keyword dimensions other than kw
  for (std::uint32_t j = 0; j < num_keywords_; ++j) {
    if (j == kw) continue;
    dims.push_back(j);
    path_lists[j] = &PathsAt(n, j);
  }

  struct Combo {
    double cost;
    std::vector<std::uint32_t> choice;  // indexed by dims position
  };
  auto combo_greater = [](const Combo& a, const Combo& b) {
    return a.cost > b.cost;
  };
  auto combo_cost = [&](const std::vector<std::uint32_t>& choice) {
    double cost = cursors_[new_cursor].cost;
    for (std::size_t d = 0; d < dims.size(); ++d) {
      cost += cursors_[(*path_lists[dims[d]])[choice[d]]].cost;
    }
    return cost;
  };

  std::vector<Combo> frontier;
  frontier.push_back(
      Combo{combo_cost(std::vector<std::uint32_t>(dims.size(), 0)),
            std::vector<std::uint32_t>(dims.size(), 0)});
  std::size_t combinations = 0;
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), combo_greater);
    Combo combo = std::move(frontier.back());
    frontier.pop_back();
    if (combo.cost > CandidatePruneCost()) break;  // nothing cheaper remains
    if (++combinations > options_.max_combinations_per_event) {
      stats_.budget_exceeded = true;
      break;
    }

    MatchingSubgraph subgraph;
    subgraph.connecting_element = n;
    subgraph.paths.resize(num_keywords_);
    subgraph.cost = combo.cost;
    // Same discovery coordinate as SubgraphExplorer: pop ordinal + 1-based
    // combination index (the enumeration order is identical). Stored only
    // when the candidate is accepted, so a structure's stamp is always the
    // event that achieved its current best cost.
    subgraph.discovery =
        (static_cast<std::uint64_t>(stats_.cursors_popped) << 20) |
        static_cast<std::uint64_t>(
            std::min<std::size_t>(combinations, 0xFFFFF));
    for (std::uint32_t j = 0; j < num_keywords_; ++j) {
      if (j == kw) {
        subgraph.paths[j] = new_path;
      } else {
        const std::size_t d = static_cast<std::size_t>(
            std::find(dims.begin(), dims.end(), j) - dims.begin());
        subgraph.paths[j] = prebuilt[j][combo.choice[d]];
      }
      for (summary::ElementId el : subgraph.paths[j]) {
        if (el.is_edge()) {
          subgraph.edges.push_back(el.index());
          // Close the structure: an edge brings both endpoints.
          const summary::SummaryEdge& e = graph_->edge(el.index());
          subgraph.nodes.push_back(e.from);
          subgraph.nodes.push_back(e.to);
        } else {
          subgraph.nodes.push_back(el.index());
        }
      }
    }
    std::sort(subgraph.nodes.begin(), subgraph.nodes.end());
    subgraph.nodes.erase(
        std::unique(subgraph.nodes.begin(), subgraph.nodes.end()),
        subgraph.nodes.end());
    std::sort(subgraph.edges.begin(), subgraph.edges.end());
    subgraph.edges.erase(
        std::unique(subgraph.edges.begin(), subgraph.edges.end()),
        subgraph.edges.end());
    InsertCandidate(std::move(subgraph));

    // Successors: advance one dimension each. Advancing only dimensions at
    // or after the last non-zero one visits every combination exactly once
    // (the lexicographic successor rule), so no visited-set is needed.
    std::size_t first = 0;
    for (std::size_t d = dims.size(); d-- > 0;) {
      if (combo.choice[d] != 0) {
        first = d;
        break;
      }
    }
    for (std::size_t d = first; d < dims.size(); ++d) {
      if (combo.choice[d] + 1 < path_lists[dims[d]]->size()) {
        Combo next = combo;
        ++next.choice[d];
        next.cost = combo_cost(next.choice);
        frontier.push_back(std::move(next));
        std::push_heap(frontier.begin(), frontier.end(), combo_greater);
      }
    }
  }
}

std::vector<MatchingSubgraph> ReferenceExplorer::FindTopK() {
  const auto& keyword_elements = graph_->keyword_elements();
  if (keyword_elements.empty()) return {};
  for (const auto& k_i : keyword_elements) {
    if (k_i.empty()) return {};  // some keyword cannot be interpreted
  }

  const bool goal_directed = options_.tightened_bound;
  if (goal_directed) {
    cost_fn_.DenseCosts(&element_cost_);
    ComputeCompletionBounds(*graph_, options_.edge_filter, element_cost_,
                            &bounds_);
  }
  // Alg. 1, lines 1-6: one root cursor per keyword element. Keyword
  // elements that are scope-masked edges are not part of the scoped graph
  // (same rule as SubgraphExplorer, which the differential suite pins).
  double min_root_sum = 0.0, min_root_max = 0.0;
  for (std::uint32_t i = 0; i < num_keywords_; ++i) {
    double min_root = kInf;
    for (const summary::ScoredElement& se : keyword_elements[i]) {
      if (options_.edge_filter != nullptr && se.element.is_edge() &&
          !options_.edge_filter->Contains(se.element.index())) {
        continue;
      }
      const double w = cost_fn_.ElementCost(se.element);
      min_root = std::min(min_root, w);
      if (goal_directed && Prune(w, se.element, i, PruneThreshold(kInf))) {
        continue;
      }
      const std::uint32_t idx = static_cast<std::uint32_t>(cursors_.size());
      cursors_.push_back(Cursor{se.element, -1, i, 0, w});
      queues_[i].emplace_back(w, idx);
      std::push_heap(queues_[i].begin(), queues_[i].end(), HeapGreater{});
      ++stats_.cursors_created;
    }
    if (min_root == kInf) return {};
    min_root_sum += min_root;
    min_root_max = std::max(min_root_max, min_root);
  }
  // Same completion floor as SubgraphExplorer, summed in the same order.
  completion_floor_ =
      options_.tightened_bound ? min_root_sum - min_root_max : 0.0;

  std::vector<summary::ElementId> neighbors;
  while (true) {
    // Alg. 1, line 8: cheapest cursor across all queues.
    std::size_t best_queue = queues_.size();
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      if (queues_[i].empty()) continue;
      if (best_queue == queues_.size() ||
          HeapGreater{}(queues_[best_queue].front(), queues_[i].front())) {
        best_queue = i;
      }
    }
    if (best_queue == queues_.size()) {
      stats_.exhausted = true;
      break;
    }
    auto& q = queues_[best_queue];
    std::pop_heap(q.begin(), q.end(), HeapGreater{});
    const std::uint32_t cursor_idx = q.back().second;
    q.pop_back();
    const Cursor cursor = cursors_[cursor_idx];
    ++stats_.cursors_popped;
    if (options_.record_pop_trace) pop_cost_trace_.push_back(cursor.cost);
    if (options_.max_cursor_pops > 0 &&
        stats_.cursors_popped > options_.max_cursor_pops) {
      stats_.budget_exceeded = true;
      stop_bound_ = StopBound(cursor.cost);
      break;
    }
    // Cooperative cancel/deadline poll — identical placement, order, and
    // interval arithmetic to SubgraphExplorer so controlled stops land on
    // the same pop in both explorers.
    if (options_.control != nullptr && options_.control_poll_interval != 0 &&
        stats_.cursors_popped % options_.control_poll_interval == 0) {
      if (options_.control->cancel_requested()) {
        stats_.cancelled = true;
        stop_bound_ = StopBound(cursor.cost);
        break;
      }
      if (options_.control->Expired()) {
        stats_.deadline_expired = true;
        stop_bound_ = StopBound(cursor.cost);
        break;
      }
    }

    const summary::ElementId n = cursor.element;
    // Goal-directed prune at pop, as in SubgraphExplorer.
    const bool pruned =
        goal_directed && Prune(cursor.cost, n, cursor.keyword,
                                PruneThreshold(KthCandidateCost()));
    auto& paths = PathsAt(n, cursor.keyword);
    const bool record = !pruned && (!options_.prune_paths_per_element ||
                                    paths.size() < options_.k);
    if (record) {
      paths.push_back(cursor_idx);  // Alg. 1, line 11: n.addCursor(c)
      ++stats_.paths_recorded;
      GenerateCandidates(n, cursor_idx);  // Alg. 2 body

      // Alg. 1, lines 13-22: expand to all neighbors except the parent,
      // refusing cyclic paths.
      if (cursor.distance < options_.dmax) {
        CollectNeighbors(n, &neighbors);
        const summary::ElementId parent_element =
            cursor.parent >= 0
                ? cursors_[static_cast<std::size_t>(cursor.parent)].element
                : summary::ElementId();
        const double threshold = PruneThreshold(KthCandidateCost());
        for (summary::ElementId nb : neighbors) {
          if (nb == parent_element) continue;
          if (InAncestors(cursor_idx, nb)) continue;
          const double w = cursor.cost + cost_fn_.ElementCost(nb);
          if (goal_directed && Prune(w, nb, cursor.keyword, threshold)) {
            continue;
          }
          const std::uint32_t child = static_cast<std::uint32_t>(cursors_.size());
          cursors_.push_back(
              Cursor{nb, static_cast<std::int32_t>(cursor_idx),
                     cursor.keyword, cursor.distance + 1, w});
          queues_[cursor.keyword].emplace_back(w, child);
          std::push_heap(queues_[cursor.keyword].begin(),
                         queues_[cursor.keyword].end(), HeapGreater{});
          ++stats_.cursors_created;
        }
      }
    }

    // Alg. 2, lines 9-16: stop once the k-th candidate is provably minimal.
    if (KthCandidateCost() < RemainingLowerBound()) {
      stats_.early_terminated = true;
      break;
    }
  }

  // Completeness certificate — see ExplorationStats::complete_below.
  stats_.complete_below = std::min(stop_bound_, RemainingLowerBound());

  // Early stop: keep only the verified prefix (see SubgraphExplorer).
  // Complete runs leave stop_bound_ at +inf, dropping nothing.
  while (!candidates_.empty() && candidates_.back().cost >= stop_bound_) {
    candidates_.pop_back();
  }
  if (candidates_.size() > options_.k) candidates_.resize(options_.k);
  return std::move(candidates_);
}

}  // namespace grasp::core
