#ifndef GRASP_CORE_EXPLORATION_H_
#define GRASP_CORE_EXPLORATION_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/cost_model.h"
#include "core/exploration_scratch.h"
#include "core/subgraph.h"
#include "graph/edge_filter.h"
#include "serve/query_control.h"
#include "summary/augmented_graph.h"

namespace grasp::core {

/// Parameters of Algorithms 1 and 2 (Sec. VI).
struct ExplorationOptions {
  /// Number of matching subgraphs to compute (the paper's k).
  std::size_t k = 10;
  /// Maximum path length d_max, counted in visited elements (a relation hop
  /// crosses one edge and one node, i.e. distance 2).
  std::uint32_t dmax = 12;
  /// Scoring scheme (Sec. V).
  CostModel cost_model = CostModel::kMatching;
  /// Keep only the k cheapest paths per (element, keyword) pair — the space
  /// bound k*|K|*|G| of Sec. VI-C. Disable for the ablation benchmark.
  bool prune_paths_per_element = true;
  /// Serving stop mode. On (the default), two sound refinements of Alg. 2
  /// apply; off, the run is the paper's Alg. 2 unchanged, which the Fig.
  /// 5/6a harnesses reproduce.
  ///  - The lower bound on anything still undiscovered is the cheapest
  ///    cursor plus the completion floor: every other keyword's cheapest
  ///    root, i.e. sum(min roots) - max(min root).
  ///  - Goal-directed pruning (core/completion_bound.h): a cursor whose
  ///    cost plus its admissible cost-to-complete h exceeds the current
  ///    k-th candidate cost is never created, or is skipped when popped.
  ///    Cursors with h = +inf cannot reach any connecting element and are
  ///    never created.
  /// The pop order, heap keys and stop test are those of Alg. 2, the k-th
  /// cost only falls, and every candidate through a pruned cursor costs
  /// more than it; so the candidates that reach the top k are generated in
  /// the same relative order with the same costs, and the returned ranking
  /// is identical either way (discovery stamps aside: they count pops).
  /// The cheapest pruned bound joins the verified-prefix bound of a
  /// budget, cancel or deadline stop and `complete_below`; it is above the
  /// k-th cost, so such prefixes are never shorter.
  bool tightened_bound = true;
  /// Record the per-pop cost trace (pop_cost_trace()). Off by default so
  /// the hot loop does not grow a vector on every pop; the Theorem 1
  /// property tests switch it on.
  bool record_pop_trace = false;
  /// Optional edge scope over the augmented graph (predicate- or
  /// kind-restricted search): only edges whose mask bit is set are
  /// traversable, and keyword elements that are masked edges never root a
  /// cursor — they are not part of the scoped graph at all. The mask spans
  /// base summary edges (shared, cacheable) plus per-query overlay bits
  /// (see summary::AugmentedGraph::ScopedFilter) and must outlive the
  /// exploration. nullptr = full graph.
  const graph::OverlayEdgeFilter* edge_filter = nullptr;
  /// Safety valve: stop after this many cursor pops (0 = unlimited).
  std::size_t max_cursor_pops = 0;
  /// Safety valve: cap on path combinations generated per connecting-element
  /// event, relevant only when prune_paths_per_element is off.
  std::size_t max_combinations_per_event = 100000;
  /// Cooperative cancellation + deadline, polled every control_poll_interval
  /// pops (one relaxed load; the deadline adds a clock read). Must outlive
  /// the exploration. A control that is cancelled or expired stops the run
  /// at a pop count that depends only on the poll interval and the flag
  /// state at each poll — for a pre-cancelled/pre-expired control the stop
  /// point is fully deterministic, which is what the differential suite
  /// pins flat ≡ reference on. nullptr = uncontrolled.
  const serve::QueryControl* control = nullptr;
  /// Pops between control polls. Small enough that a cancel lands within
  /// microseconds of work, large enough that the poll (and its clock read)
  /// stays invisible next to a pop's graph traffic.
  std::uint32_t control_poll_interval = 32;
};

/// Counters exposed for benchmarks and tests.
struct ExplorationStats {
  std::size_t cursors_created = 0;
  std::size_t cursors_popped = 0;
  /// Cursors dropped by goal-directed pruning (tightened_bound): never
  /// created, or popped and skipped without recording or expanding.
  std::size_t cursors_pruned = 0;
  std::size_t paths_recorded = 0;
  std::size_t subgraphs_generated = 0;   ///< candidate insertions attempted
  std::size_t subgraphs_deduplicated = 0;
  bool early_terminated = false;  ///< the top-k bound fired (Alg. 2 line 11)
  bool exhausted = false;         ///< all queues drained
  bool budget_exceeded = false;   ///< a safety valve fired
  bool cancelled = false;         ///< the QueryControl cancel flag stopped it
  bool deadline_expired = false;  ///< the QueryControl deadline stopped it
  /// Completeness certificate: every matching subgraph of the *full* graph
  /// with cost strictly below this bound either is in the returned ranking
  /// or dedups against a returned structure of equal-or-lower cost. On a
  /// run-to-completion this is the final remaining-cost lower bound; on an
  /// early stop it is the verified stop bound. Both explorers compute it
  /// bit-identically (tests/partial_result_test.cc pins that, and that a
  /// stopped run's prefix holds every cheaper entry of the full ranking).
  double complete_below = std::numeric_limits<double>::infinity();
  /// True when the run stopped before either natural end state — on budget,
  /// cancel, or deadline — so the returned ranking is the verified prefix
  /// of the full one (possibly empty), not the complete top-k.
  bool stopped_early() const {
    return cancelled || deadline_expired ||
           (budget_exceeded && !early_terminated && !exhausted);
  }
};

/// Cursor-based top-k exploration of the augmented summary graph: the
/// paper's central contribution. Explores all distinct paths from every
/// keyword element in non-decreasing cost order (Theorem 1), detects
/// connecting elements, merges paths into candidate subgraphs, and stops as
/// soon as the k best candidates are provably cheaper than anything still
/// discoverable (Threshold Algorithm adaptation, Alg. 2).
///
/// The engine is flat and allocation-free in the steady state: cursors live
/// in an arena and chain parents by index, one global 4-ary heap orders all
/// cursors (the keyword lives in the cursor), recorded paths sit in a
/// sparse slab table, and candidates are deduplicated by 64-bit structure
/// hash in an open-addressing table over a slot pool. All of that state is
/// an ExplorationScratch: pass one in to reuse its allocations across
/// queries (the engine does), or omit it for a self-contained run.
/// Results — pop order, tie-breaks, costs, structures — are byte-identical
/// to ReferenceExplorer, the retained straightforward formulation.
class SubgraphExplorer {
 public:
  /// `graph` must outlive the explorer; a non-null `scratch` must too.
  SubgraphExplorer(const summary::AugmentedGraph& graph,
                   const ExplorationOptions& options,
                   ExplorationScratch* scratch);
  SubgraphExplorer(const summary::AugmentedGraph& graph,
                   const ExplorationOptions& options)
      : SubgraphExplorer(graph, options, nullptr) {}

  SubgraphExplorer(const SubgraphExplorer&) = delete;
  SubgraphExplorer& operator=(const SubgraphExplorer&) = delete;

  /// Runs the exploration to completion and returns the k minimal matching
  /// subgraphs, sorted by ascending cost. Returns an empty vector when some
  /// keyword has no elements (then no K-matching subgraph exists).
  std::vector<MatchingSubgraph> FindTopK();

  const ExplorationStats& stats() const { return stats_; }

  /// Cost-ordered pop trace recorded during FindTopK when
  /// options.record_pop_trace is set; used by the Theorem 1 property test.
  /// Valid until the owning scratch runs its next query.
  const std::vector<double>& pop_cost_trace() const {
    return scratch_->pop_trace;
  }

 private:
  /// Key of a (element, keyword) path list in the slab table.
  std::uint64_t PathKey(summary::ElementId element,
                        std::uint32_t keyword) const {
    return static_cast<std::uint64_t>(graph_->DenseIndex(element)) *
               num_keywords_ +
           keyword;
  }

  bool InAncestors(std::uint32_t cursor, summary::ElementId element) const;
  /// ElementCost read from the scratch's per-query dense cost array.
  double CachedElementCost(summary::ElementId element) const {
    return scratch_->element_cost[graph_->DenseIndex(element)];
  }
  /// The cursor a combination chose for keyword `j` (`choice` is indexed by
  /// dims position; the just-recorded cursor covers its own keyword).
  std::uint32_t ChosenCursor(std::uint32_t j, std::uint32_t kw,
                             std::uint32_t new_cursor,
                             const std::uint32_t* choice) const;
  void GenerateCandidates(summary::ElementId n, std::uint32_t new_cursor);
  /// Dedups by structure hash and, when the candidate survives, materializes
  /// it from the scratch element sets + the chosen cursors' parent chains.
  /// `discovery` stamps the generating event (see MatchingSubgraph).
  void InsertCandidate(std::uint64_t hash, double cost, summary::ElementId n,
                       std::uint32_t kw, std::uint32_t new_cursor,
                       const std::uint32_t* choice, std::uint64_t discovery);
  /// Capacity of the candidate list (k plus dedup slack).
  std::size_t CandidateCap() const;
  /// Cost above which a new combination cannot reach the top k distinct
  /// structures (+inf while the candidate list is below capacity).
  double CandidatePruneCost() const;
  /// Smallest cost any not-yet-generated candidate could have: the heap
  /// top plus the completion floor, capped by the pruned floor.
  double RemainingLowerBound() const;
  /// Cost of the current k-th best candidate (+inf while fewer than k).
  double KthCandidateCost() const;
  /// Goal-directed prune test (tightened_bound only) of a
  /// keyword-`keyword` cursor of cost `cost` at `element` against
  /// `threshold` (PruneThreshold of the k-th cost), reading the scratch's
  /// CompletionBounds. A pruned cursor is counted and its bound folded into
  /// pruned_floor_.
  bool Prune(double cost, summary::ElementId element, std::uint32_t keyword,
             double threshold);
  /// Lower bound on any candidate the continued run could still produce,
  /// given that `pending_cost` is the cheapest unprocessed cursor (the one
  /// whose pop the stop interrupted). Ranked candidates strictly below this
  /// bound are provably final — the verified prefix returned on a stop.
  double StopBound(double pending_cost) const;

  const summary::AugmentedGraph* graph_;
  ExplorationOptions options_;
  CostFunction cost_fn_;
  ExplorationStats stats_;
  std::size_t num_keywords_ = 0;
  /// +inf on a complete run; set by early-stop paths (budget / cancel /
  /// deadline) to truncate the returned ranking to its verified prefix.
  double stop_bound_ = std::numeric_limits<double>::infinity();
  /// What any candidate adds on top of one path still to be popped: the
  /// other keywords' cheapest roots, sum(min roots) - max(min root), fixed
  /// once roots are seeded. 0 under the plain bound (tightened_bound off).
  double completion_floor_ = 0.0;
  /// Smallest PruneKey of any pruned cursor: every candidate through one
  /// costs at least this, so it caps the stop and completeness bounds.
  double pruned_floor_ = std::numeric_limits<double>::infinity();

  /// Self-owned scratch for callers that did not pass one.
  std::unique_ptr<ExplorationScratch> owned_scratch_;
  ExplorationScratch* scratch_;
};

}  // namespace grasp::core

#endif  // GRASP_CORE_EXPLORATION_H_
