#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include <optional>
#include <set>
#include <string_view>

#include "common/filter_op.h"
#include "common/timer.h"
#include "rdf/term.h"
#include "snapshot/engine_snapshot.h"
#include "summary/augmented_graph.h"

namespace grasp::core {

KeywordSearchEngine::~KeywordSearchEngine() = default;

KeywordSearchEngine::Prebuilt KeywordSearchEngine::Preprocess(
    const rdf::TripleStore& store, const rdf::Dictionary& dictionary,
    const Options& options) {
  WallTimer timer;
  rdf::DataGraph graph = rdf::DataGraph::Build(store, dictionary);
  summary::SummaryGraph summary = summary::SummaryGraph::Build(graph);
  keyword::KeywordIndex index =
      keyword::KeywordIndex::Build(graph, options.analyzer);
  return Prebuilt{std::move(graph), std::move(summary), std::move(index),
                  timer.ElapsedMillis()};
}

KeywordSearchEngine::KeywordSearchEngine(const rdf::TripleStore& store,
                                         const rdf::Dictionary& dictionary,
                                         Options options)
    : KeywordSearchEngine(store, dictionary, options,
                          Preprocess(store, dictionary, options)) {}

KeywordSearchEngine::KeywordSearchEngine(const rdf::TripleStore& store,
                                         const rdf::Dictionary& dictionary,
                                         Options options, Prebuilt prebuilt)
    : store_(&store),
      dictionary_(&dictionary),
      options_(options),
      thesaurus_(text::Thesaurus::BuiltIn()),
      data_graph_(std::move(prebuilt.graph)),
      summary_(std::move(prebuilt.summary)),
      keyword_index_(std::move(prebuilt.index)),
      augmentation_cache_(
          options.augmentation_cache_bytes > 0
              ? std::make_unique<summary::AugmentationCache>(
                    options.augmentation_cache_bytes, kPoolCapacity / 2)
              : nullptr) {
  index_stats_.keyword_index_bytes = keyword_index_.MemoryUsageBytes();
  index_stats_.summary_graph_bytes = summary_.MemoryUsageBytes();
  index_stats_.summary_nodes = summary_.NumNodes();
  index_stats_.summary_edges = summary_.NumEdges();
  index_stats_.keyword_elements = keyword_index_.num_elements();
  index_stats_.build_millis = prebuilt.millis;
  // Pre-warm slot 0 so exploration_scratch() is valid before the first
  // query and serial searches land on a created slot immediately.
  scratch_pool_.Release(
      scratch_pool_.Acquire([] { return std::make_unique<ExplorationScratch>(); }));
  InitMetrics();
}

void KeywordSearchEngine::InitMetrics() {
  metrics::Registry* reg = options_.metrics;
  if (reg == nullptr) return;
  constexpr double kMicros = 1e-6;  // recorded in µs, exposed in seconds
  const char* stage_help =
      "Search pipeline stage latency (keyword lookup, summary "
      "augmentation, top-k exploration, query mapping/ranking)";
  metrics_.stage_keyword = reg->GetHistogram(
      "grasp_engine_stage_duration_seconds", stage_help,
      {{"stage", "keyword"}}, kMicros);
  metrics_.stage_augmentation = reg->GetHistogram(
      "grasp_engine_stage_duration_seconds", stage_help,
      {{"stage", "augmentation"}}, kMicros);
  metrics_.stage_exploration = reg->GetHistogram(
      "grasp_engine_stage_duration_seconds", stage_help,
      {{"stage", "exploration"}}, kMicros);
  metrics_.stage_mapping = reg->GetHistogram(
      "grasp_engine_stage_duration_seconds", stage_help,
      {{"stage", "mapping"}}, kMicros);
  metrics_.search_duration = reg->GetHistogram(
      "grasp_engine_search_duration_seconds",
      "End-to-end Search() latency, all stages included", {}, kMicros);
  metrics_.searches = reg->GetCounter("grasp_engine_searches_total",
                                      "Search() calls completed");
  metrics_.degraded = reg->GetCounter(
      "grasp_engine_degraded_total",
      "Searches that stopped early (deadline, budget, or cancellation) and "
      "returned a verified prefix");
  metrics_.cache_hits = reg->GetCounter(
      "grasp_engine_augmentation_cache_hits_total",
      "Searches that reused a cached augmented graph");
  metrics_.cache_misses = reg->GetCounter(
      "grasp_engine_augmentation_cache_misses_total",
      "Searches that built their augmented graph");
}

void KeywordSearchEngine::RecordSearchMetrics(const SearchResult& result) const {
  if (metrics_.searches == nullptr) return;
  metrics_.stage_keyword->RecordMicros(result.keyword_millis * 1e3);
  metrics_.stage_augmentation->RecordMicros(result.augmentation_millis * 1e3);
  metrics_.stage_exploration->RecordMicros(result.exploration_millis * 1e3);
  metrics_.stage_mapping->RecordMicros(result.mapping_millis * 1e3);
  metrics_.search_duration->RecordMicros(result.total_millis * 1e3);
  metrics_.searches->Increment();
  if (result.degraded) metrics_.degraded->Increment();
  (result.augmentation_cache_hit ? metrics_.cache_hits : metrics_.cache_misses)
      ->Increment();
}

Status KeywordSearchEngine::SaveIndex(const std::string& path) const {
  snapshot::EngineParts parts;
  parts.dictionary = dictionary_;
  parts.store = store_;
  parts.data_graph = &data_graph_;
  parts.summary = &summary_;
  parts.keyword_index = &keyword_index_;
  return snapshot::WriteEngineSnapshot(parts, path);
}

Result<std::unique_ptr<KeywordSearchEngine>> KeywordSearchEngine::Open(
    const std::string& path, Options options) {
  // Transient I/O failures (a file momentarily unavailable, an interrupted
  // mmap) retry with exponential backoff; anything else — above all a
  // corrupt or truncated image — fails immediately, since re-reading the
  // same bytes cannot change the outcome.
  const int attempts = std::max(1, options.snapshot_open_attempts);
  Result<snapshot::LoadedEngineParts> loaded_result =
      snapshot::ReadEngineSnapshot(path);
  for (int attempt = 1;
       attempt < attempts && !loaded_result.ok() &&
       loaded_result.status().code() == StatusCode::kIoError;
       ++attempt) {
    const double backoff_ms =
        options.snapshot_open_backoff_millis *
        static_cast<double>(1 << (attempt - 1));
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        std::max(0.0, backoff_ms)));
    loaded_result = snapshot::ReadEngineSnapshot(path);
  }
  if (!loaded_result.ok()) return loaded_result.status();
  snapshot::LoadedEngineParts loaded = std::move(loaded_result).value();
  options.analyzer = loaded.analyzer_options;
  Prebuilt prebuilt{std::move(*loaded.data_graph), std::move(*loaded.summary),
                    std::move(*loaded.keyword_index), loaded.load_millis};
  // Heap-pin the loaded state first: the engine keeps raw pointers to the
  // store and dictionary and borrowed spans into the mapping, so their
  // addresses must survive the move into the engine.
  auto owned = std::make_unique<snapshot::LoadedEngineParts>(std::move(loaded));
  std::unique_ptr<KeywordSearchEngine> engine(new KeywordSearchEngine(
      *owned->store, *owned->dictionary, options, std::move(prebuilt)));
  engine->index_stats_.mapped_snapshot_bytes = owned->mapping.size();
  engine->loaded_ = std::move(owned);
  return engine;
}

KeywordSearchEngine::IndexStats KeywordSearchEngine::index_stats() const {
  // Race-free against in-flight Search() calls: the pools sum atomic byte
  // hints recorded at release time and the cache counts under its mutex —
  // no pooled object is ever inspected while another thread may mutate it.
  IndexStats stats = index_stats_;
  stats.scratch_pool_bytes = scratch_pool_.PooledBytes();
  stats.overlay_pool_bytes = overlay_pool_.PooledBytes();
  stats.scratch_pool_overflows = scratch_pool_.overflow_count();
  stats.overlay_pool_overflows = overlay_pool_.overflow_count();
  stats.augmentation_cache_bytes =
      augmentation_cache_ != nullptr ? augmentation_cache_->MemoryUsageBytes()
                                     : 0;
  {
    std::lock_guard<std::mutex> lock(scope_mutex_);
    for (const auto& [key, filter] : scope_cache_) {
      stats.scope_cache_bytes += key.capacity() + filter->MemoryUsageBytes();
    }
  }
  return stats;
}

std::shared_ptr<const KeywordSearchEngine::ScopeFilter>
KeywordSearchEngine::AcquireScopeFilter(
    std::span<const std::string> scope) const {
  // Canonical key: sorted, deduplicated scope strings, length-prefixed so
  // no concatenation of components can collide with a different set.
  // Views into the caller's strings, not copies — a repeated scope's
  // cache hit costs the key build plus one hash lookup, no per-string
  // allocations. Resolution depends only on the immutable
  // dictionary/summary, so equal keys always produce equal masks.
  std::vector<std::string_view> canonical(scope.begin(), scope.end());
  std::sort(canonical.begin(), canonical.end());
  canonical.erase(std::unique(canonical.begin(), canonical.end()),
                  canonical.end());
  std::string key;
  for (std::string_view s : canonical) {
    key += std::to_string(s.size());
    key += ':';
    key += s;
  }
  {
    std::lock_guard<std::mutex> lock(scope_mutex_);
    auto it = scope_cache_.find(key);
    if (it != scope_cache_.end()) return it->second;
  }

  // Miss: resolve outside the lock (a racing same-scope build produces an
  // identical filter; the loser's copy is simply dropped). Exact-IRI
  // lookups are O(1); all local-name fallbacks of the scope share one
  // dictionary sweep, paid once per cached scope.
  auto filter = std::make_shared<ScopeFilter>();
  std::set<std::string_view> unresolved;
  for (std::string_view s : canonical) {
    const rdf::TermId exact = dictionary_->Find(rdf::TermKind::kIri, s);
    if (exact != rdf::kInvalidTermId) {
      filter->terms.push_back(exact);
    } else {
      unresolved.insert(s);
    }
  }
  if (!unresolved.empty()) {
    for (rdf::TermId t = 0; t < dictionary_->size(); ++t) {
      if (dictionary_->kind(t) == rdf::TermKind::kIri &&
          unresolved.count(rdf::IriLocalName(dictionary_->text(t))) > 0) {
        filter->terms.push_back(t);
      }
    }
  }
  std::sort(filter->terms.begin(), filter->terms.end());
  filter->terms.erase(
      std::unique(filter->terms.begin(), filter->terms.end()),
      filter->terms.end());
  filter->summary_mask = summary_.PredicateScopeFilter(filter->terms);

  std::lock_guard<std::mutex> lock(scope_mutex_);
  if (scope_cache_.size() >= kScopeCacheCap) scope_cache_.clear();
  auto [it, inserted] = scope_cache_.emplace(std::move(key), std::move(filter));
  return it->second;
}

std::shared_ptr<const summary::AugmentedGraph>
KeywordSearchEngine::AcquireAugmentation(
    const std::vector<std::vector<keyword::KeywordMatch>>& matches,
    bool* cache_hit) const {
  auto build_pooled = [this,
                       &matches]() -> std::shared_ptr<const summary::AugmentedGraph> {
    // RAII over the lease until ownership transfers to the shared_ptr:
    // a throwing Rebuild (bad_alloc) must hand the slot back, not leak it
    // out of the 256-slot pool forever.
    struct LeaseGuard {
      FreeListPool<summary::AugmentedGraph>& pool;
      FreeListPool<summary::AugmentedGraph>::Lease lease;
      bool armed = true;
      ~LeaseGuard() {
        if (armed) pool.Release(lease);
      }
    };
    LeaseGuard guard{overlay_pool_, overlay_pool_.Acquire([this] {
                       return std::make_unique<summary::AugmentedGraph>(
                           summary::AugmentedGraph::MakeOverlayShell(summary_));
                     })};
    guard.lease.object->Rebuild(matches);
    // The deleter runs when the last user is done: the query itself on the
    // uncached path, or the final pin of an evicted cache entry. Either way
    // the shell (with all its warmed capacity) goes back to the pool. If
    // the shared_ptr constructor itself throws, it invokes the deleter —
    // hence the guard is disarmed first, so the slot is released exactly
    // once on every path.
    guard.armed = false;
    return std::shared_ptr<const summary::AugmentedGraph>(
        guard.lease.object,
        [this, slot = guard.lease.slot](const summary::AugmentedGraph* g) {
          overlay_pool_.Release(
              {const_cast<summary::AugmentedGraph*>(g), slot},
              g->OverlayMemoryUsageBytes());
        });
  };
  if (augmentation_cache_ == nullptr) {
    *cache_hit = false;
    return build_pooled();
  }
  return augmentation_cache_->GetOrBuild(
      summary::AugmentationCacheKey(matches), build_pooled, cache_hit);
}

KeywordSearchEngine::SearchResult KeywordSearchEngine::SearchImpl(
    const std::vector<std::string>& keywords, std::size_t k,
    const ExplorationOptions& exploration,
    std::span<const std::string> predicate_scope) const {
  SearchResult result;
  WallTimer total;

  // Step 1: keyword-to-element mapping (keyword index lookup). Lookups run
  // with headroom above max_matches_per_keyword; the final per-keyword
  // truncation then prefers elements that several of the query's keywords
  // hit. This keeps e.g. a long title matched by two keywords available to
  // both, so the exploration can merge them into one element — truncating
  // each keyword's list by score alone would drop the shared label in
  // favour of shorter single-keyword labels.
  WallTimer step;
  text::InvertedIndex::SearchOptions search_options = options_.keyword_search;
  search_options.thesaurus = options_.use_thesaurus ? &thesaurus_ : nullptr;
  // Unbounded during lookup; the coverage-aware truncation below applies
  // max_matches_per_keyword afterwards.
  search_options.max_results = 0;
  std::vector<std::vector<keyword::KeywordMatch>> matches;
  matches.reserve(keywords.size());
  for (const std::string& kw : keywords) {
    // Operator keywords (">2000", "<=1995", ...) resolve through the
    // filter extension instead of the inverted index (Sec. IX).
    if (const auto filter = ParseFilterKeyword(kw)) {
      auto match = keyword_index_.LookupFilter(*filter);
      matches.push_back(match.has_value()
                            ? std::vector<keyword::KeywordMatch>{*match}
                            : std::vector<keyword::KeywordMatch>{});
    } else {
      matches.push_back(keyword_index_.Lookup(kw, search_options));
    }
  }
  if (keywords.size() > 1) {
    std::map<std::pair<int, rdf::TermId>, int> keyword_hits;
    for (const auto& list : matches) {
      for (const keyword::KeywordMatch& m : list) {
        ++keyword_hits[{static_cast<int>(m.kind), m.term}];
      }
    }
    // Query-coverage boost (the TF/IDF adoption Sec. V suggests for
    // multi-term labels): an element hit by h of the query's keywords gets
    // each of those match scores scaled by sqrt(h), so a title covering two
    // keywords outranks two separate titles covering one keyword each.
    for (auto& list : matches) {
      for (keyword::KeywordMatch& m : list) {
        const int hits = keyword_hits[{static_cast<int>(m.kind), m.term}];
        if (hits > 1) {
          m.score = std::min(
              1.0, m.score * std::sqrt(static_cast<double>(hits)));
        }
      }
      std::stable_sort(list.begin(), list.end(),
                       [&keyword_hits](const keyword::KeywordMatch& a,
                                       const keyword::KeywordMatch& b) {
                         const int ha =
                             keyword_hits[{static_cast<int>(a.kind), a.term}];
                         const int hb =
                             keyword_hits[{static_cast<int>(b.kind), b.term}];
                         if (ha != hb) return ha > hb;
                         return a.score > b.score;
                       });
    }
  }
  for (auto& list : matches) {
    if (list.size() > options_.max_matches_per_keyword) {
      list.resize(options_.max_matches_per_keyword);
    }
    result.matches_per_keyword.push_back(list.size());
  }
  result.keyword_millis = step.ElapsedMillis();

  // Step 2: augmentation of the graph index (Def. 5) — a cache hit for a
  // repeated keyword-element set, otherwise a build into a pooled overlay.
  step.Reset();
  const std::shared_ptr<const summary::AugmentedGraph> augmented_ptr =
      AcquireAugmentation(matches, &result.augmentation_cache_hit);
  const summary::AugmentedGraph& augmented = *augmented_ptr;

  // Predicate scope: the base summary mask comes from the per-scope cache
  // (the shared_ptr pins it for the exploration's lifetime); only the
  // O(augmentation) overlay bits are built per query. Scope does not enter
  // the augmentation-cache key: the augmented graph itself is
  // scope-independent — the scope restricts traversal, not construction —
  // so a cached augmentation serves scoped and unscoped queries alike.
  std::shared_ptr<const ScopeFilter> scope_filter;
  std::optional<graph::OverlayEdgeFilter> scoped_view;
  if (!predicate_scope.empty()) {
    scope_filter = AcquireScopeFilter(predicate_scope);
    scoped_view.emplace(augmented.ScopedFilter(&scope_filter->summary_mask,
                                               scope_filter->terms));
  }
  result.augmentation_millis = step.ElapsedMillis();

  // Step 3: top-k graph exploration (Alg. 1 + Alg. 2), with overfetch to
  // absorb query-level deduplication. Exploration state is checked out of
  // the lock-free scratch pool: concurrent Search() calls each run on their
  // own pooled scratch, and the steady state allocates nothing.
  step.Reset();
  ExplorationOptions explore = exploration;
  if (scoped_view.has_value()) explore.edge_filter = &*scoped_view;
  explore.k = std::max<std::size_t>(
      k, static_cast<std::size_t>(
             std::ceil(static_cast<double>(k) * options_.subgraph_overfetch)));
  struct ScratchLease {  // returns the scratch to the pool on every exit path
    FreeListPool<ExplorationScratch>& pool;
    FreeListPool<ExplorationScratch>::Lease lease;
    explicit ScratchLease(FreeListPool<ExplorationScratch>& pool)
        : pool(pool), lease(pool.Acquire([] {
            return std::make_unique<ExplorationScratch>();
          })) {}
    ~ScratchLease() { pool.Release(lease, lease.object->CapacityBytes()); }
  };
  std::vector<MatchingSubgraph> subgraphs;
  {
    // The lease spans only the exploration, so a long mapping step does not
    // keep the warm scratch away from concurrent queries.
    ScratchLease scratch(scratch_pool_);
    SubgraphExplorer explorer(augmented, explore, scratch.lease.object);
    subgraphs = explorer.FindTopK();
    result.exploration_stats = explorer.stats();
  }
  result.exploration_millis = step.ElapsedMillis();

  // Graceful degradation: a stopped exploration yields a verified prefix of
  // the full ranking, never a silent hole. Deadline and budget stops stay
  // OK — the partial result is a successful answer to a bounded question —
  // while a caller-cancelled query is marked as such. The flag also covers
  // the combination safety valve, whose clamped events may or may not have
  // altered the ranking (no prefix guarantee there; the status message says
  // which valve fired via exploration_stats).
  {
    const ExplorationStats& es = result.exploration_stats;
    result.degraded = es.cancelled || es.deadline_expired || es.budget_exceeded;
    if (es.cancelled) {
      result.status = Status::Cancelled(
          "query cancelled during exploration; results are the verified "
          "prefix computed before the stop");
    }
  }

  // Step 4: element-to-query mapping + isomorphism-level deduplication.
  step.Reset();
  QueryMappingContext context;
  context.type_term = data_graph_.type_term();
  // Tie-break keys (structural popularity cost, constant count, canonical
  // serialization) are computed once per kept candidate here — the final
  // sort used to recompute all three inside its comparator, paying
  // O(n log n) canonical-string rebuilds on tie-heavy rankings.
  const CostFunction popularity(CostModel::kPopularity, augmented);
  auto structure_cost = [&popularity](const MatchingSubgraph& sg) {
    double cost = 0.0;
    for (summary::NodeId n : sg.nodes) {
      cost += popularity.ElementCost(summary::ElementId::Node(n));
    }
    for (summary::EdgeId e : sg.edges) {
      cost += popularity.ElementCost(summary::ElementId::Edge(e));
    }
    return cost;
  };
  // On remaining exact ties, prefer the less committed interpretation (the
  // one pinning fewer constants): name(x, ?v) should precede the otherwise
  // identically-priced name(x, 'some value') guesses.
  auto constant_count = [](const query::ConjunctiveQuery& q) {
    std::size_t constants = 0;
    for (const query::Atom& atom : q.atoms()) {
      if (!atom.subject.is_variable) ++constants;
      if (!atom.object.is_variable) ++constants;
    }
    return constants;
  };
  auto make_ranked = [&](query::ConjunctiveQuery q, std::string canonical,
                         MatchingSubgraph subgraph) {
    RankedQuery rq;
    rq.cost = subgraph.cost;
    rq.structure_cost = structure_cost(subgraph);
    rq.constant_count = constant_count(q);
    rq.canonical = std::move(canonical);
    rq.query = std::move(q);
    rq.subgraph = std::move(subgraph);
    return rq;
  };
  std::map<std::string, std::size_t> seen;  // canonical form -> queries index
  for (MatchingSubgraph& subgraph : subgraphs) {
    query::ConjunctiveQuery q = MapToQuery(augmented, subgraph, context);
    if (q.empty()) continue;
    std::string canonical = q.CanonicalString();
    auto it = seen.find(canonical);
    if (it != seen.end()) {
      // Keep the cheaper representative.
      if (q.cost() < result.queries[it->second].cost) {
        result.queries[it->second] = make_ranked(
            std::move(q), std::move(canonical), std::move(subgraph));
      }
      continue;
    }
    seen.emplace(canonical, result.queries.size());
    result.queries.push_back(
        make_ranked(std::move(q), std::move(canonical), std::move(subgraph)));
  }
  // Primary order: subgraph cost. Path costs ignore structure elements that
  // no path visits (e.g. the class endpoint of a matched attribute edge), so
  // interpretations differing only in such elements tie; the popularity of
  // the whole structure breaks those ties in favour of the more common
  // classes. The tie-break chain is part of the engine and identical for
  // all cost models — the models differ only in the path costs themselves.
  std::sort(result.queries.begin(), result.queries.end(),
            [](const RankedQuery& a, const RankedQuery& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              if (a.structure_cost != b.structure_cost) {
                return a.structure_cost < b.structure_cost;
              }
              if (a.constant_count != b.constant_count) {
                return a.constant_count < b.constant_count;
              }
              return a.canonical < b.canonical;
            });
  if (result.queries.size() > k) result.queries.resize(k);
  result.mapping_millis = step.ElapsedMillis();
  result.total_millis = total.ElapsedMillis();
  RecordSearchMetrics(result);
  return result;
}

Result<query::EvalResult> KeywordSearchEngine::Answers(
    const query::ConjunctiveQuery& query, std::size_t limit) const {
  query::EvalOptions options;
  options.limit = limit;
  options.dictionary = dictionary_;  // FILTER conditions compare literal text
  return query::Evaluate(*store_, query, options);
}

}  // namespace grasp::core
