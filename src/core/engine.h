#ifndef GRASP_CORE_ENGINE_H_
#define GRASP_CORE_ENGINE_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/free_list_pool.h"
#include "common/metrics.h"
#include "core/exploration.h"
#include "graph/edge_filter.h"
#include "core/exploration_scratch.h"
#include "core/query_mapping.h"
#include "core/subgraph.h"
#include "keyword/keyword_index.h"
#include "query/conjunctive_query.h"
#include "query/evaluator.h"
#include "rdf/data_graph.h"
#include "rdf/triple_store.h"
#include "summary/augmentation_cache.h"
#include "summary/summary_graph.h"
#include "text/thesaurus.h"

namespace grasp::snapshot {
struct LoadedEngineParts;
}  // namespace grasp::snapshot

namespace grasp::core {

/// End-to-end facade implementing the pipeline of Fig. 2: off-line
/// preprocessing (data graph, keyword index, summary graph) at construction,
/// then per query: keyword-to-element mapping, summary-graph augmentation,
/// top-k exploration, and element-to-query mapping.
///
/// Search() is safe to call from any number of threads concurrently: the
/// per-query mutable state (exploration scratch, augmentation overlays)
/// comes from lock-free free-list pools over the shared immutable indexes,
/// and repeated keyword-element sets share one cached augmentation.
class KeywordSearchEngine {
 public:
  struct Options {
    /// Lexical analysis configuration shared by indexing and querying.
    text::AnalyzerOptions analyzer;
    /// Keyword-to-element matching configuration. The thesaurus pointer is
    /// managed by the engine (see use_thesaurus).
    text::InvertedIndex::SearchOptions keyword_search;
    /// Exploration / top-k parameters.
    ExplorationOptions exploration;
    /// Keep only the best-scoring graph elements per keyword; bounds the
    /// number of root cursors (and the augmentation size).
    std::size_t max_matches_per_keyword = 16;
    /// Enables the built-in thesaurus for semantic matching.
    bool use_thesaurus = true;
    /// Explore k * overfetch subgraphs so that query-level deduplication
    /// (distinct subgraphs can map to isomorphic queries) still leaves k
    /// queries.
    double subgraph_overfetch = 2.0;
    /// Byte budget of the augmentation cache (LRU over canonical matched
    /// keyword-element sets). Queries repeating a keyword set skip
    /// augmentation entirely on a hit; 0 disables caching, in which case
    /// every query rebuilds into a pooled overlay. Hits and misses return
    /// element-for-element identical graphs, so results never depend on
    /// this setting.
    std::size_t augmentation_cache_bytes = 8u << 20;
    /// Open() retries transient snapshot failures (kIoError — a file
    /// temporarily unavailable, an interrupted mmap) this many times in
    /// total, with exponential backoff between attempts. Corrupt images
    /// (parse/validation failures) never retry: re-reading the same bytes
    /// cannot fix them.
    int snapshot_open_attempts = 3;
    /// Backoff before the first retry; doubles per subsequent attempt.
    double snapshot_open_backoff_millis = 1.0;
    /// Optional metrics registry (not owned; must outlive the engine).
    /// When set, every Search() records its per-stage timing breakdown
    /// into `grasp_engine_*` histograms/counters. nullptr = no-op: the
    /// query path pays nothing beyond one branch.
    metrics::Registry* metrics = nullptr;
  };

  /// One computed interpretation: a conjunctive query with its subgraph.
  struct RankedQuery {
    query::ConjunctiveQuery query;
    double cost = 0.0;
    MatchingSubgraph subgraph;
    /// Final-ranking tie-break keys, precomputed once at mapping time (the
    /// sort comparator used to recompute all three per comparison):
    /// canonical query serialization, structural (constant-free) cost, and
    /// the number of constant terms.
    std::string canonical;
    double structure_cost = 0.0;
    std::size_t constant_count = 0;
  };

  /// Search output plus step timings (the quantities Figs. 5/6a measure).
  struct SearchResult {
    std::vector<RankedQuery> queries;
    /// OK for complete and deadline/budget-degraded runs alike (partial
    /// results are a successful, verified prefix — see `degraded`);
    /// kCancelled when the query's control was cancelled mid-run. The
    /// serving layer layers queue-level codes (kOverloaded,
    /// kDeadlineExceeded for queries that never ran) on top of this.
    Status status;
    /// True when exploration stopped before its natural end — deadline,
    /// cancellation, or a safety-valve budget — so `queries` is a verified
    /// prefix of the full ranking (every entry is exactly what the
    /// unbounded run would have returned in that position), possibly
    /// shorter than k and possibly empty. Never silently dropped: the
    /// serving layer and the HTTP front-end propagate it per request.
    bool degraded = false;
    ExplorationStats exploration_stats;
    std::vector<std::size_t> matches_per_keyword;
    bool augmentation_cache_hit = false;
    double keyword_millis = 0.0;
    double augmentation_millis = 0.0;
    double exploration_millis = 0.0;
    double mapping_millis = 0.0;
    double total_millis = 0.0;
  };

  /// One keyword query with its own k, scope and control.
  struct KeywordQuery {
    std::vector<std::string> keywords;
    /// 0 falls back to the engine's options.exploration.k.
    std::size_t k = 0;
    /// Optional predicate scope: interpretations may only traverse edges
    /// whose predicate resolves from these strings (exact IRI first, then
    /// IRI local name), plus subclass edges (schema structure). Empty =
    /// unscoped. The resolved scope mask is cached across queries, so a
    /// repeated scope costs one hash lookup.
    std::vector<std::string> predicate_scope;
    /// Optional cooperative control (deadline + cancel) polled by the
    /// exploration; must outlive the query. Shared by serving: the
    /// admission layer sets the deadline, the caller may cancel. nullptr =
    /// uncontrolled.
    const serve::QueryControl* control = nullptr;
  };

  /// Index footprints and preprocessing time (Fig. 6b). The serving-state
  /// fields (pools, cache) track memory the engine accretes while running;
  /// index_stats() refreshes them on access.
  struct IndexStats {
    std::size_t keyword_index_bytes = 0;
    std::size_t summary_graph_bytes = 0;
    std::size_t summary_nodes = 0;
    std::size_t summary_edges = 0;
    std::size_t keyword_elements = 0;
    double build_millis = 0.0;
    /// ExplorationScratch capacity parked in the pool (as recorded at each
    /// scratch's last release; scratches held by in-flight queries count
    /// zero until released).
    std::size_t scratch_pool_bytes = 0;
    /// Augmentation-overlay shells parked in the pool. Shells checked out
    /// or resident in the augmentation cache count zero here until
    /// released; their marginal query content shows up in
    /// augmentation_cache_bytes meanwhile, so the fields sum without
    /// double-counting.
    std::size_t overlay_pool_bytes = 0;
    /// Bytes charged to the augmentation cache (resident entries' query
    /// content + keys + LRU/index overhead).
    std::size_t augmentation_cache_bytes = 0;
    /// Resolved predicate-scope masks cached for reuse (summary-edge mask
    /// words + resolved term lists + keys).
    std::size_t scope_cache_bytes = 0;
    /// Size of the mmap-ed snapshot a warm-started engine serves from
    /// (0 for cold-built engines). Kept separate from the owned-heap
    /// counters above: mapped pages are file-backed and evictable, so
    /// folding them into the index byte counts would overstate resident
    /// memory. In warm mode the flat arrays live here and the owned
    /// counters shrink to the rebuilt hash maps and string tables.
    std::size_t mapped_snapshot_bytes = 0;
    /// Always "scalar": the engine has one set of plain C++ hot loops. The
    /// field stays because the end-to-end benchmark writes it into its run
    /// fingerprint (`simd=`); it goes when that fingerprint drops it.
    const char* simd_kernel_level = "scalar";
    /// Acquire() calls the per-query pools served by a transient heap
    /// allocation because every pooled slot was live and checked out.
    /// Monotonic since construction; a steadily climbing figure means
    /// concurrency has outgrown kPoolCapacity and each overflow pays an
    /// allocation instead of reuse — the serving layer's early-warning
    /// overload signal.
    std::uint64_t scratch_pool_overflows = 0;
    std::uint64_t overlay_pool_overflows = 0;
  };

  /// Preprocesses `store` (must be finalized and must outlive the engine).
  KeywordSearchEngine(const rdf::TripleStore& store,
                      const rdf::Dictionary& dictionary, Options options);
  KeywordSearchEngine(const rdf::TripleStore& store,
                      const rdf::Dictionary& dictionary)
      : KeywordSearchEngine(store, dictionary, Options()) {}

  KeywordSearchEngine(const KeywordSearchEngine&) = delete;
  KeywordSearchEngine& operator=(const KeywordSearchEngine&) = delete;
  ~KeywordSearchEngine();  // out-of-line: snapshot state is incomplete here

  /// Serializes the engine's full immutable index state (dictionary, triple
  /// table, data graph, summary graph, keyword index) into one mmap-able
  /// snapshot image at `path`. A later Open() serves its first query
  /// without re-parsing or rebuilding anything.
  Status SaveIndex(const std::string& path) const;

  /// Warm start: maps a SaveIndex() image and constructs an engine whose
  /// flat index arrays point zero-copy into the mapping. The returned
  /// engine owns the mapping and the loaded dictionary/store; its results
  /// are byte-identical to a cold-built engine over the same data. The
  /// analyzer options baked into the snapshot override `options.analyzer`
  /// (querying with different lexical rules than the index was built with
  /// would mis-tokenize keywords). Corrupt or truncated images are
  /// rejected with a Status, never partial state.
  static Result<std::unique_ptr<KeywordSearchEngine>> Open(
      const std::string& path, Options options);
  static Result<std::unique_ptr<KeywordSearchEngine>> Open(
      const std::string& path) {
    return Open(path, Options());
  }

  /// Computes the top-k conjunctive queries for a keyword query. `k`
  /// overrides options.exploration.k. Queries are sorted by ascending cost
  /// and deduplicated up to isomorphism. Thread-safe.
  SearchResult Search(const std::vector<std::string>& keywords,
                      std::size_t k) const {
    return Search(keywords, k, options_.exploration);
  }
  SearchResult Search(const std::vector<std::string>& keywords) const {
    return Search(keywords, options_.exploration.k);
  }
  /// Full-control variant: per-call exploration parameters (cost model,
  /// dmax, pruning, ...) without rebuilding the engine's indexes. Used by
  /// the benchmark harness to sweep configurations. A non-empty
  /// `predicate_scope` restricts the exploration to a filtered view of the
  /// (augmented) summary — see KeywordQuery::predicate_scope.
  SearchResult Search(const std::vector<std::string>& keywords, std::size_t k,
                      const ExplorationOptions& exploration,
                      std::span<const std::string> predicate_scope = {}) const {
    return SearchImpl(keywords, k, exploration, predicate_scope);
  }

  /// Scope-aware entry point: runs `query` with its predicate scope (and
  /// its per-query k). Scoped and unscoped queries mix freely on one
  /// engine, from any number of threads.
  SearchResult Search(const KeywordQuery& query) const {
    const std::size_t k = query.k > 0 ? query.k : options_.exploration.k;
    ExplorationOptions exploration = options_.exploration;
    exploration.control = query.control;
    return SearchImpl(query.keywords, k, exploration, query.predicate_scope);
  }

  /// Evaluates a computed query against the store ("query processing" in
  /// Fig. 5): the step delegated to the underlying database engine.
  Result<query::EvalResult> Answers(const query::ConjunctiveQuery& query,
                                    std::size_t limit = 0) const;

  const rdf::DataGraph& data_graph() const { return data_graph_; }
  const summary::SummaryGraph& summary_graph() const { return summary_; }
  const keyword::KeywordIndex& keyword_index() const { return keyword_index_; }
  const rdf::Dictionary& dictionary() const { return *dictionary_; }
  const Options& options() const { return options_; }
  /// The construction-time index figures plus a snapshot of the
  /// serving-state byte counters (pools, cache). Safe to call from any
  /// thread while Search() calls are in flight (atomic release-time hints
  /// + the cache mutex); the serving figures lag work still checked out
  /// of the pools.
  IndexStats index_stats() const;

  /// The warmest pooled exploration scratch (slot 0 — the one serial
  /// Search() calls keep reusing, LIFO). Repeated queries clear it instead
  /// of reallocating: scratch.grow_events stops advancing once the engine
  /// has seen the query shape. Unsynchronized: only read it when no
  /// Search() is in flight (tests and single-threaded stats reporting).
  const ExplorationScratch& exploration_scratch() const {
    return *scratch_pool_.PeekSlot(0);
  }

  /// Augmentation-cache observability (hit/miss/eviction counters); zeros
  /// when the cache is disabled.
  summary::AugmentationCache::Stats augmentation_cache_stats() const {
    return augmentation_cache_ != nullptr ? augmentation_cache_->stats()
                                          : summary::AugmentationCache::Stats{};
  }

 private:
  /// Result of the timed off-line preprocessing pass.
  struct Prebuilt {
    rdf::DataGraph graph;
    summary::SummaryGraph summary;
    keyword::KeywordIndex index;
    double millis;
  };
  static Prebuilt Preprocess(const rdf::TripleStore& store,
                             const rdf::Dictionary& dictionary,
                             const Options& options);
  KeywordSearchEngine(const rdf::TripleStore& store,
                      const rdf::Dictionary& dictionary, Options options,
                      Prebuilt prebuilt);

  /// The whole search pipeline.
  SearchResult SearchImpl(const std::vector<std::string>& keywords,
                          std::size_t k, const ExplorationOptions& exploration,
                          std::span<const std::string> predicate_scope) const;

  /// Registers the `grasp_engine_*` instruments when options_.metrics is
  /// set; called once at construction so Search() only loads cached
  /// pointers.
  void InitMetrics();
  /// Folds one finished search into the histograms/counters; no-op
  /// without a registry.
  void RecordSearchMetrics(const SearchResult& result) const;

  /// Cached instrument handles (stable for the registry's lifetime); all
  /// nullptr when no registry is configured.
  struct EngineMetrics {
    metrics::Histogram* stage_keyword = nullptr;
    metrics::Histogram* stage_augmentation = nullptr;
    metrics::Histogram* stage_exploration = nullptr;
    metrics::Histogram* stage_mapping = nullptr;
    metrics::Histogram* search_duration = nullptr;
    metrics::Counter* searches = nullptr;
    metrics::Counter* degraded = nullptr;
    metrics::Counter* cache_hits = nullptr;
    metrics::Counter* cache_misses = nullptr;
  };

  /// The augmented graph for `matches`: a cache hit when enabled and seen
  /// before, otherwise a build into a pooled overlay shell. The shared_ptr
  /// keeps the graph alive across concurrent users; its deleter returns the
  /// shell to the pool once the last user (query or cache entry) lets go.
  std::shared_ptr<const summary::AugmentedGraph> AcquireAugmentation(
      const std::vector<std::vector<keyword::KeywordMatch>>& matches,
      bool* cache_hit) const;

  /// A resolved predicate scope: the terms the scope strings name and the
  /// base mask over the summary's edges. Immutable once built; shared by
  /// every query repeating the scope (the shared_ptr also pins the base
  /// mask while a scoped exploration is in flight).
  struct ScopeFilter {
    std::vector<rdf::TermId> terms;  ///< sorted ascending, deduplicated
    graph::EdgeFilter summary_mask;
    std::size_t MemoryUsageBytes() const {
      return terms.capacity() * sizeof(rdf::TermId) +
             summary_mask.MemoryUsageBytes();
    }
  };

  /// Resolves `scope` (cached per canonical scope-string set). Scope
  /// strings resolve by exact IRI, falling back to a one-time dictionary
  /// scan for IRI local names; unresolvable strings contribute no terms,
  /// which scopes their predicate out entirely.
  std::shared_ptr<const ScopeFilter> AcquireScopeFilter(
      std::span<const std::string> scope) const;

  /// Warm-start state: the snapshot mapping plus the loaded dictionary and
  /// store the engine's borrowed spans point into. Null for cold-built
  /// engines. Declared first so it is destroyed last — every other member
  /// may hold views into the mapping.
  std::unique_ptr<snapshot::LoadedEngineParts> loaded_;
  const rdf::TripleStore* store_;
  const rdf::Dictionary* dictionary_;
  Options options_;
  text::Thesaurus thesaurus_;
  rdf::DataGraph data_graph_;
  summary::SummaryGraph summary_;
  keyword::KeywordIndex keyword_index_;
  IndexStats index_stats_;  ///< static fields only; set once at construction

  /// Capacity of the per-query object pools. The cache's residency bound
  /// is half of this (see the constructor): a resident cache entry pins
  /// its overlay shell's pool slot until eviction, and the bound keeps a
  /// byte budget worth thousands of tiny augmentations from exhausting the
  /// pool and degrading every miss to a transient allocation.
  static constexpr std::size_t kPoolCapacity = 256;

  /// Per-query reusable state, checked out lock-free per Search() call.
  /// Declaration order doubles as destruction order: the cache holds
  /// shared_ptrs whose deleters return overlays to overlay_pool_, so the
  /// pools must outlive (be declared before) the cache.
  EngineMetrics metrics_;
  mutable FreeListPool<ExplorationScratch> scratch_pool_{kPoolCapacity};
  mutable FreeListPool<summary::AugmentedGraph> overlay_pool_{kPoolCapacity};
  std::unique_ptr<summary::AugmentationCache> augmentation_cache_;

  /// Resolved scope masks, keyed by the canonical (sorted, deduplicated)
  /// scope-string set — the mask-per-scope cache that keeps repeated
  /// scoped queries from re-resolving predicates or re-sweeping the
  /// summary's edges. Real workloads use a handful of scopes; if churn
  /// ever exceeds kScopeCacheCap distinct scopes the cache resets
  /// wholesale (in-flight queries keep their entries via shared_ptr).
  static constexpr std::size_t kScopeCacheCap = 64;
  mutable std::mutex scope_mutex_;
  mutable std::unordered_map<std::string, std::shared_ptr<const ScopeFilter>>
      scope_cache_;
};

}  // namespace grasp::core

#endif  // GRASP_CORE_ENGINE_H_
