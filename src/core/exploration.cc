#include "core/exploration.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "core/completion_bound.h"

namespace grasp::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Tracks whether a FindTopK run had to enlarge any pooled structure; fires
/// on every exit path so the steady-state-allocation test sees all of them.
struct GrowTracker {
  explicit GrowTracker(ExplorationScratch* scratch)
      : scratch(scratch), before(scratch->CapacityBytes()) {}
  ~GrowTracker() {
    if (scratch->CapacityBytes() > before) ++scratch->grow_events;
  }
  ExplorationScratch* scratch;
  std::size_t before;
};

}  // namespace

SubgraphExplorer::SubgraphExplorer(const summary::AugmentedGraph& graph,
                                   const ExplorationOptions& options,
                                   ExplorationScratch* scratch)
    : graph_(&graph),
      options_(options),
      cost_fn_(options.cost_model, graph),
      num_keywords_(graph.num_keywords()),
      scratch_(scratch) {
  GRASP_CHECK_GT(options_.k, 0u);
  if (scratch_ == nullptr) {
    owned_scratch_ = std::make_unique<ExplorationScratch>();
    scratch_ = owned_scratch_.get();
  }
}

bool SubgraphExplorer::InAncestors(std::uint32_t cursor,
                                   summary::ElementId element) const {
  const auto& cursors = scratch_->cursors;
  // Bloom fast path: a clear bit proves `element` is on no ancestor.
  if ((cursors[cursor].ancestor_sig & FlatCursor::SigBit(element)) == 0) {
    return false;
  }
  std::int32_t i = static_cast<std::int32_t>(cursor);
  while (i >= 0) {
    const FlatCursor& c = cursors[static_cast<std::size_t>(i)];
    if (c.element == element) return true;
    i = c.parent;
  }
  return false;
}

std::uint32_t SubgraphExplorer::ChosenCursor(std::uint32_t j, std::uint32_t kw,
                                             std::uint32_t new_cursor,
                                             const std::uint32_t* choice) const {
  if (j == kw) return new_cursor;
  return scratch_->event_cursors[scratch_->event_offsets[j] +
                                 choice[scratch_->dim_of[j]]];
}

double SubgraphExplorer::KthCandidateCost() const {
  const auto& ranked = scratch_->candidates.ranked();
  if (ranked.size() < options_.k) return kInf;
  return ranked[options_.k - 1].cost;
}

double SubgraphExplorer::RemainingLowerBound() const {
  // A future candidate consists of one path that is still on the heap
  // (cost >= heap top) plus, for every other keyword, some path that costs
  // at least that keyword's cheapest root — the completion floor.
  // Pruned cursors never reach the heap; their bound stands in for them.
  if (scratch_->heap.empty()) return pruned_floor_;
  return std::min(scratch_->heap.Top().cost + completion_floor_,
                  pruned_floor_);
}

double SubgraphExplorer::StopBound(double pending_cost) const {
  // Same reasoning as RemainingLowerBound, but anchored on the cursor whose
  // pop the stop interrupted: it is at least as cheap as everything still on
  // the heap, so any candidate the continued run could produce costs at
  // least this much. Element costs are clamped strictly positive and
  // re-ranking requires a strictly cheaper decomposition, so ranked
  // candidates strictly below the bound are already in their final order —
  // the verified prefix of the unbounded ranking.
  return std::min(pending_cost + completion_floor_, pruned_floor_);
}

bool SubgraphExplorer::Prune(double cost, summary::ElementId element,
                             std::uint32_t keyword, double threshold) {
  const double key =
      PruneKey(cost, scratch_->bounds.At(graph_->DenseIndex(element), keyword));
  if (key <= threshold) return false;
  ++stats_.cursors_pruned;
  pruned_floor_ = std::min(pruned_floor_, key);
  return true;
}

std::size_t SubgraphExplorer::CandidateCap() const {
  // k-best(LG') of Alg. 2, line 8, with a slack factor so that structures
  // evicted here can still reappear with a cheaper decomposition.
  return options_.k * 4 + 16;
}

double SubgraphExplorer::CandidatePruneCost() const {
  const auto& ranked = scratch_->candidates.ranked();
  if (ranked.size() < CandidateCap()) return kInf;
  return ranked.back().cost;
}

void SubgraphExplorer::InsertCandidate(std::uint64_t hash, double cost,
                                       summary::ElementId n, std::uint32_t kw,
                                       std::uint32_t new_cursor,
                                       const std::uint32_t* choice,
                                       std::uint64_t discovery) {
  ++stats_.subgraphs_generated;
  CandidateStore& store = scratch_->candidates;
  bool inserted = false;
  CandidateStore::TableSlot* entry = store.FindOrInsert(hash, &inserted);
  std::uint32_t slot;
  if (!inserted) {
    ++stats_.subgraphs_deduplicated;
    if (cost >= entry->best_cost) return;
    // A cheaper decomposition of a known structure: re-rank it. If the
    // structure is still live, its pool slot (and vector capacities) are
    // reused in place.
    entry->best_cost = cost;
    if (entry->candidate != CandidateStore::kEvicted) {
      store.Unrank(entry->candidate);
      slot = entry->candidate;
    } else {
      slot = store.AcquireSlot();
    }
  } else {
    entry->best_cost = cost;
    slot = store.AcquireSlot();
  }
  store.Rank(cost, slot);
  entry->candidate = slot;

  // Materialize from the scratch element sets and the chosen cursors'
  // parent chains; every container either reuses slot-pool capacity or
  // scratch capacity. Paths are reconstructed only here — candidates that
  // fail the dedup above never pay for one.
  MatchingSubgraph& sg = store.subgraph(slot);
  sg.cost = cost;
  sg.discovery = discovery;  // the event that achieved this (final) cost
  sg.connecting_element = n;
  sg.nodes.assign(scratch_->cand_nodes.begin(), scratch_->cand_nodes.end());
  sg.edges.assign(scratch_->cand_edges.begin(), scratch_->cand_edges.end());
  sg.paths.resize(num_keywords_);
  for (std::uint32_t j = 0; j < num_keywords_; ++j) {
    std::vector<summary::ElementId>& path = sg.paths[j];
    path.clear();
    std::int32_t i =
        static_cast<std::int32_t>(ChosenCursor(j, kw, new_cursor, choice));
    while (i >= 0) {
      const FlatCursor& c = scratch_->cursors[static_cast<std::size_t>(i)];
      path.push_back(c.element);
      i = c.parent;
    }
    std::reverse(path.begin(), path.end());  // origin first
  }
  store.hash_of(slot) = hash;

  auto& ranked = store.ranked();
  if (ranked.size() > CandidateCap()) {
    const CandidateStore::RankEntry worst = ranked.back();
    ranked.pop_back();
    CandidateStore::TableSlot* evicted = store.Find(store.hash_of(worst.slot));
    GRASP_CHECK(evicted != nullptr);
    evicted->candidate = CandidateStore::kEvicted;  // best_cost stays known
    store.ReleaseSlot(worst.slot);
  }
}

void SubgraphExplorer::GenerateCandidates(summary::ElementId n,
                                          std::uint32_t new_cursor) {
  const std::uint32_t kw = scratch_->cursors[new_cursor].keyword;
  // n is a connecting element iff every keyword has at least one recorded
  // path ending here (Alg. 2, line 1).
  for (std::uint32_t j = 0; j < num_keywords_; ++j) {
    if (j == kw) continue;
    if (scratch_->paths.CountOf(PathKey(n, j)) == 0) return;
  }

  // Flatten the slab lists once so combinations can index list positions in
  // O(1). Paths themselves are NOT reconstructed here: a combination that
  // is emitted walks the m chosen parent chains directly, so an event whose
  // frontier stops after one combination never touches the dozens of other
  // recorded paths at this element.
  auto& event_cursors = scratch_->event_cursors;
  auto& offsets = scratch_->event_offsets;
  event_cursors.clear();
  offsets.clear();
  for (std::uint32_t j = 0; j < num_keywords_; ++j) {
    offsets.push_back(static_cast<std::uint32_t>(event_cursors.size()));
    if (j != kw) scratch_->paths.FlattenTo(PathKey(n, j), &event_cursors);
  }
  offsets.push_back(static_cast<std::uint32_t>(event_cursors.size()));

  // Keyword dimensions other than kw, plus the inverse map (hoists the
  // per-combination dims lookup out of the loop).
  auto& dims = scratch_->dims;
  auto& dim_of = scratch_->dim_of;
  dims.clear();
  dim_of.assign(num_keywords_, 0);
  for (std::uint32_t j = 0; j < num_keywords_; ++j) {
    if (j == kw) continue;
    dim_of[j] = static_cast<std::uint32_t>(dims.size());
    dims.push_back(j);
  }
  const std::size_t stride = dims.size();

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
  // Choice tuples live in a per-event arena (immutable once pushed);
  // frontier entries carry only (cost, arena offset).
  auto& frontier = scratch_->frontier;
  auto& choices = scratch_->choice_arena;
  frontier.clear();
  choices.clear();

  const double base_cost = scratch_->cursors[new_cursor].cost;
  auto combo_cost = [&](const std::uint32_t* choice) {
    double cost = base_cost;
    for (std::size_t d = 0; d < stride; ++d) {
      cost += scratch_
                  ->cursors[event_cursors[offsets[dims[d]] + choice[d]]]
                  .cost;
    }
    return cost;
  };
  auto combo_greater = [](const ExplorationScratch::Combo& a,
                          const ExplorationScratch::Combo& b) {
    return a.cost > b.cost;
  };

  choices.assign(stride, 0);
  frontier.push_back(ExplorationScratch::Combo{combo_cost(choices.data()), 0});
  std::size_t combinations = 0;
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), combo_greater);
    const ExplorationScratch::Combo combo = frontier.back();
    frontier.pop_back();
    if (combo.cost > CandidatePruneCost()) break;  // nothing cheaper remains
    if (++combinations > options_.max_combinations_per_event) {
      stats_.budget_exceeded = true;
      break;
    }
    const std::uint32_t* choice = choices.data() + combo.choice_begin;

    // Merged element sets of the combination, in scratch: the m chosen
    // parent chains, each edge closing the structure with both endpoints
    // (chain order is irrelevant — the sets are sorted below). The
    // structure hash is computed from these before any candidate object is
    // touched, so duplicate combinations cost no allocation or copying.
    auto& nodes = scratch_->cand_nodes;
    auto& edges = scratch_->cand_edges;
    nodes.clear();
    edges.clear();
    for (std::uint32_t j = 0; j < num_keywords_; ++j) {
      std::int32_t i =
          static_cast<std::int32_t>(ChosenCursor(j, kw, new_cursor, choice));
      while (i >= 0) {
        const FlatCursor& c = scratch_->cursors[static_cast<std::size_t>(i)];
        const summary::ElementId el = c.element;
        if (el.is_edge()) {
          edges.push_back(el.index());
          const summary::SummaryEdge& e = graph_->edge(el.index());
          nodes.push_back(e.from);
          nodes.push_back(e.to);
        } else {
          nodes.push_back(el.index());
        }
        i = c.parent;
      }
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    // Discovery coordinate: pop ordinal + 1-based combination index at this
    // event. Both explorers enumerate combinations with the same best-first
    // successor rule, so the coordinate is identical across them.
    const std::uint64_t discovery =
        (static_cast<std::uint64_t>(stats_.cursors_popped) << 20) |
        static_cast<std::uint64_t>(std::min<std::size_t>(combinations,
                                                         0xFFFFF));
    InsertCandidate(StructureHashOf(nodes, edges), combo.cost, n, kw,
                    new_cursor, choice, discovery);

    // Successors: advance one dimension each. Advancing only dimensions at
    // or after the last non-zero one visits every combination exactly once
    // (the lexicographic successor rule), so no visited-set is needed.
    std::size_t first = 0;
    for (std::size_t d = stride; d-- > 0;) {
      if (choice[d] != 0) {
        first = d;
        break;
      }
    }
    for (std::size_t d = first; d < stride; ++d) {
      const std::uint32_t list_size = offsets[dims[d] + 1] - offsets[dims[d]];
      if (choice[d] + 1 < list_size) {
        const std::uint32_t next_begin =
            static_cast<std::uint32_t>(choices.size());
        choices.resize(next_begin + stride);
        for (std::size_t c = 0; c < stride; ++c) {
          choices[next_begin + c] = choices[combo.choice_begin + c];
        }
        ++choices[next_begin + d];
        // `choice` may dangle after the resize reallocates; re-derive it.
        choice = choices.data() + combo.choice_begin;
        frontier.push_back(ExplorationScratch::Combo{
            combo_cost(choices.data() + next_begin), next_begin});
        std::push_heap(frontier.begin(), frontier.end(), combo_greater);
      }
    }
  }
}

std::vector<MatchingSubgraph> SubgraphExplorer::FindTopK() {
  scratch_->Reset();
  ++scratch_->queries_run;
  stop_bound_ = kInf;
  pruned_floor_ = kInf;
  GrowTracker grow_tracker(scratch_);

  const auto& keyword_elements = graph_->keyword_elements();
  if (keyword_elements.empty()) return {};
  for (const auto& k_i : keyword_elements) {
    if (k_i.empty()) return {};  // some keyword cannot be interpreted
  }

  auto& cursors = scratch_->cursors;
  auto& heap = scratch_->heap;

  cost_fn_.DenseCosts(&scratch_->element_cost);

  // Alg. 1, lines 1-6: one root cursor per keyword element. Under an edge
  // scope, keyword elements that are masked edges are not part of the
  // scoped graph: they neither root a cursor nor contribute to the
  // completion floor, and a keyword whose every element is scoped out makes
  // the query unanswerable (mirrored exactly by ReferenceExplorer).
  const graph::OverlayEdgeFilter* scope = options_.edge_filter;
  // Goal-directed pruning (serving mode) reads the admissible
  // cost-to-complete bound of every (element, keyword), built up front.
  const bool goal_directed = options_.tightened_bound;
  if (goal_directed) {
    ComputeCompletionBounds(*graph_, scope, scratch_->element_cost,
                            &scratch_->bounds);
  }
  double min_root_sum = 0.0, min_root_max = 0.0;
  for (std::uint32_t i = 0; i < num_keywords_; ++i) {
    double min_root = kInf;
    for (const summary::ScoredElement& se : keyword_elements[i]) {
      if (scope != nullptr && se.element.is_edge() &&
          !scope->Contains(se.element.index())) {
        continue;
      }
      const double w = CachedElementCost(se.element);
      min_root = std::min(min_root, w);
      // While fewer than k candidates exist, only h = +inf prunes.
      if (goal_directed && Prune(w, se.element, i, PruneThreshold(kInf))) {
        continue;
      }
      const std::uint32_t idx = static_cast<std::uint32_t>(cursors.size());
      cursors.push_back(FlatCursor{se.element, -1, i, 0, w,
                                   FlatCursor::SigBit(se.element)});
      heap.Push(w, idx);
      ++stats_.cursors_created;
    }
    if (min_root == kInf) return {};
    min_root_sum += min_root;
    min_root_max = std::max(min_root_max, min_root);
  }
  // The heap keyword's own root is the one left out, and the bound takes
  // the choice that minimizes the rest: drop the most expensive min root.
  completion_floor_ =
      options_.tightened_bound ? min_root_sum - min_root_max : 0.0;

  // Word-caching probe over the shared base mask: CSR incident runs are
  // ascending edge ids, so each pop's scan loads one mask word per 64-id
  // window instead of branching per edge (the scan persists across pops).
  graph::EdgeFilter::Cursor base_scope_bits =
      scope != nullptr ? graph::EdgeFilter::Cursor(scope->base())
                       : graph::EdgeFilter::Cursor();

  while (true) {
    // Alg. 1, line 8: cheapest cursor overall — the global heap top.
    if (heap.empty()) {
      stats_.exhausted = true;
      break;
    }
    const CursorHeap::Entry top = heap.Pop();
    const std::uint32_t cursor_idx = top.cursor;
    const FlatCursor cursor = cursors[cursor_idx];
    ++stats_.cursors_popped;
    if (options_.record_pop_trace) scratch_->pop_trace.push_back(cursor.cost);
    if (options_.max_cursor_pops > 0 &&
        stats_.cursors_popped > options_.max_cursor_pops) {
      stats_.budget_exceeded = true;
      stop_bound_ = StopBound(cursor.cost);
      break;
    }
    // Cooperative cancel/deadline poll, before the cursor is processed: on a
    // stop the popped cursor is the cheapest unprocessed work, so its cost
    // anchors the verified-prefix bound. Checked only every N-th pop — for a
    // pre-cancelled (or pre-expired) control the stop lands at exactly pop
    // N, independent of wall-clock, which the differential suite relies on.
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
    // Goal-directed prune at pop: the k-th cost may have fallen since the
    // cursor was created. A skipped cursor is neither recorded nor expanded.
    const bool pruned =
        goal_directed && Prune(cursor.cost, n, cursor.keyword,
                                    PruneThreshold(KthCandidateCost()));
    PathListTable::Slot* path_list =
        pruned ? nullptr : &scratch_->paths.Acquire(PathKey(n, cursor.keyword));
    const bool record =
        !pruned && (!options_.prune_paths_per_element ||
                    path_list->count < options_.k);
    if (record) {
      scratch_->paths.AppendTo(*path_list, cursor_idx);  // Alg. 1: addCursor
      ++stats_.paths_recorded;
      GenerateCandidates(n, cursor_idx);  // Alg. 2 body

      // Alg. 1, lines 13-22: expand to all neighbors except the parent,
      // refusing cyclic paths. Incident CSR/overlay runs are iterated
      // directly — no per-expansion neighbor vector.
      if (cursor.distance < options_.dmax) {
        const summary::ElementId parent_element =
            cursor.parent >= 0
                ? cursors[static_cast<std::size_t>(cursor.parent)].element
                : summary::ElementId();
        const double threshold = PruneThreshold(KthCandidateCost());
        auto try_expand = [&](summary::ElementId nb) {
          if (nb == parent_element) return;
          if (InAncestors(cursor_idx, nb)) return;
          const double w = cursor.cost + CachedElementCost(nb);
          if (goal_directed && Prune(w, nb, cursor.keyword, threshold)) {
            return;
          }
          const std::uint32_t child =
              static_cast<std::uint32_t>(cursors.size());
          cursors.push_back(FlatCursor{
              nb, static_cast<std::int32_t>(cursor_idx), cursor.keyword,
              cursor.distance + 1, w,
              cursor.ancestor_sig | FlatCursor::SigBit(nb)});
          heap.Push(w, child);
          ++stats_.cursors_created;
        };
        if (n.is_node()) {
          // Iterate the base CSR run and the overlay extension back-to-back
          // instead of through the chained iterator: its end-of-first check
          // branches on every ++, which is measurable at pop frequency.
          const graph::ChainedIds incident =
              graph_->IncidentEdges(n.index());
          if (scope == nullptr) {
            for (summary::EdgeId e : incident.first()) {
              try_expand(summary::ElementId::Edge(e));
            }
            for (summary::EdgeId e : incident.second()) {
              try_expand(summary::ElementId::Edge(e));
            }
          } else {
            for (summary::EdgeId e : incident.first()) {
              if (!base_scope_bits.Contains(e)) continue;
              try_expand(summary::ElementId::Edge(e));
            }
            for (summary::EdgeId e : incident.second()) {
              if (!scope->ContainsOverlay(e)) continue;
              try_expand(summary::ElementId::Edge(e));
            }
          }
        } else {
          const summary::SummaryEdge& e = graph_->edge(n.index());
          try_expand(summary::ElementId::Node(e.from));
          if (e.to != e.from) try_expand(summary::ElementId::Node(e.to));
        }
      }
    }

    // Alg. 2, lines 9-16: stop once the k-th candidate is provably minimal.
    if (KthCandidateCost() < RemainingLowerBound()) {
      stats_.early_terminated = true;
      break;
    }
  }

  // Completeness certificate: every matching subgraph of the graph whose
  // cost is strictly below this is already represented in the candidate
  // store (possibly deduplicated). A complete run certifies up to the
  // remaining-cost lower bound (the pruned floor once the heap drained,
  // +inf if nothing was pruned); an early stop certifies up to its
  // verified stop bound.
  stats_.complete_below = std::min(stop_bound_, RemainingLowerBound());

  const auto& ranked = scratch_->candidates.ranked();
  std::size_t count = std::min(options_.k, ranked.size());
  // Early stop: keep only the verified prefix — candidates provably cheaper
  // than anything the interrupted run could still have produced. A complete
  // run leaves stop_bound_ at +inf, so nothing is dropped.
  while (count > 0 && ranked[count - 1].cost >= stop_bound_) --count;
  std::vector<MatchingSubgraph> results;
  results.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Copy, don't move: the caller owns the results (their allocation is
    // inherent to returning them), while the pool slots keep their vector
    // capacities so the next query re-materializes without allocating.
    results.push_back(scratch_->candidates.subgraph(ranked[i].slot));
  }
  return results;
}

}  // namespace grasp::core
