#ifndef GRASP_CORE_EXPLORATION_SCRATCH_H_
#define GRASP_CORE_EXPLORATION_SCRATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "common/hash.h"
#include "common/logging.h"
#include "core/subgraph.h"
#include "summary/augmented_graph.h"

namespace grasp::core {

/// Flat containers backing SubgraphExplorer's hot loop. Everything here is
/// poolable: Reset() clears logical contents but keeps every allocation, so
/// an engine that runs many queries through one scratch reaches a steady
/// state with no per-query heap traffic (tracked by `grow_events`).

/// One exploration cursor (Alg. 1). Cursors live in a flat arena and refer
/// to their parent by index, so a path is a parent chain, never a vector.
struct FlatCursor {
  summary::ElementId element;
  std::int32_t parent = -1;  ///< arena index of the parent cursor, -1 = root
  std::uint32_t keyword = 0;
  std::uint32_t distance = 0;
  double cost = 0.0;
  /// Bloom signature of the elements on the root path (self included): one
  /// bit per element hash. A miss proves the element is NOT an ancestor, so
  /// the exact parent-chain walk runs only on (rare) signature hits.
  std::uint64_t ancestor_sig = 0;

  static std::uint64_t SigBit(summary::ElementId element) {
    return 1ull << ((element.raw() * 0x9e3779b97f4a7c15ULL) >> 58);
  }
};

/// Implicit d-ary (d=4) min-heap of (cost, cursor) over all keywords; the
/// keyword lives in the cursor record, so one global heap replaces the
/// per-keyword heaps plus the per-pop linear min-scan across them. 4-ary
/// trades slightly more comparisons per level for half the depth and much
/// better locality than binary — the classic layout for decrease-key-free
/// Dijkstra-style loops. Ties break on the cursor index, preserving the
/// deterministic pop order of the per-keyword formulation.
class CursorHeap {
 public:
  struct Entry {
    double cost;
    std::uint32_t cursor;
  };

  bool empty() const { return slots_.empty(); }
  std::size_t size() const { return slots_.size(); }
  void Clear() { slots_.clear(); }
  const Entry& Top() const { return slots_.front(); }

  void Push(double cost, std::uint32_t cursor) {
    slots_.push_back(Entry{cost, cursor});
    SiftUp(slots_.size() - 1);
  }

  Entry Pop() {
    Entry top = slots_.front();
    slots_.front() = slots_.back();
    slots_.pop_back();
    if (!slots_.empty()) SiftDown(0);
    return top;
  }

  std::size_t CapacityBytes() const {
    return slots_.capacity() * sizeof(Entry);
  }

 private:
  static constexpr std::size_t kArity = 4;

  static bool Less(const Entry& a, const Entry& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.cursor < b.cursor;
  }

  void SiftUp(std::size_t i) {
    Entry moved = slots_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!Less(moved, slots_[parent])) break;
      slots_[i] = slots_[parent];
      i = parent;
    }
    slots_[i] = moved;
  }

  void SiftDown(std::size_t i) {
    Entry moved = slots_[i];
    const std::size_t n = slots_.size();
    while (true) {
      const std::size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      const std::size_t last_child = std::min(first_child + kArity, n);
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (Less(slots_[c], slots_[best])) best = c;
      }
      if (!Less(slots_[best], moved)) break;
      slots_[i] = slots_[best];
      i = best;
    }
    slots_[i] = moved;
  }

  std::vector<Entry> slots_;
};

/// Pooled per-query arrays of the cost-to-complete bound, filled by
/// ComputeCompletionBounds (core/completion_bound.h). Elements are addressed
/// by AugmentedGraph::DenseIndex; per-keyword arrays are keyword-major.
struct CompletionBounds {
  /// One step of a node's scoped adjacency: an in-scope incident edge and
  /// the node on its far side (the node itself for a self-loop).
  struct Hop {
    std::uint32_t edge;  ///< dense index of the edge
    std::uint32_t node;
  };

  std::size_t num_nodes = 0;
  std::size_t num_elements = 0;
  std::vector<std::uint32_t> hops_begin;  ///< per node, into `hops`
  std::vector<Hop> hops;
  std::vector<double> reach;  ///< D_j(x) at [j * num_elements + x]
  std::vector<double> h;      ///< h_i(x) at [i * num_elements + x]
  CursorHeap heap;            ///< Dijkstra frontier of (distance, node)

  double At(std::size_t dense, std::uint32_t keyword) const {
    return h[keyword * num_elements + dense];
  }

  std::size_t CapacityBytes() const {
    return (reach.capacity() + h.capacity()) * sizeof(double) +
           hops_begin.capacity() * sizeof(std::uint32_t) +
           hops.capacity() * sizeof(Hop) + heap.CapacityBytes();
  }
};

/// Sparse replacement for the seed's dense `paths_at_` (a num_elements x
/// num_keywords vector-of-vectors, almost entirely empty): an open-addressing
/// table keyed by (dense element, keyword), each entry holding a small
/// inline-capacity cursor list that spills into a pooled chunk arena. Only
/// (element, keyword) pairs that actually record a path cost memory, and the
/// chunk pool is one flat vector reused across queries.
class PathListTable {
 public:
  static constexpr std::uint32_t kInlineCap = 4;
  static constexpr std::uint32_t kChunkCap = 6;
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint64_t kEmptyKey = ~0ull;

  void Reset() {
    if (used_ > 0) {
      for (Slot& s : slots_) s.key = kEmptyKey;
    }
    used_ = 0;
    chunks_.clear();
  }

  struct Slot {
    std::uint64_t key = kEmptyKey;
    std::uint32_t count = 0;
    std::uint32_t head = kNil;  ///< first overflow chunk (count > kInlineCap)
    std::uint32_t tail = kNil;
    std::uint32_t inline_items[kInlineCap];
  };

  /// Number of cursors recorded under `key` (0 when absent).
  std::uint32_t CountOf(std::uint64_t key) const {
    const Slot* s = Find(key);
    return s == nullptr ? 0 : s->count;
  }

  /// Finds or creates the list of `key`. The reference is valid until the
  /// next Acquire (which may rehash); pair with AppendTo so the hot path
  /// pays one probe per pop, not one per inspect-then-append.
  Slot& Acquire(std::uint64_t key) {
    if (slots_.empty() || (used_ + 1) * 4 >= slots_.size() * 3) Grow();
    return FindOrInsert(key);
  }

  void AppendTo(Slot& s, std::uint32_t cursor) {
    if (s.count < kInlineCap) {
      s.inline_items[s.count] = cursor;
    } else {
      if (s.count == kInlineCap) {
        s.head = s.tail = NewChunk();
      } else if (chunks_[s.tail].count == kChunkCap) {
        const std::uint32_t fresh = NewChunk();
        chunks_[s.tail].next = fresh;
        s.tail = fresh;
      }
      Chunk& t = chunks_[s.tail];
      t.items[t.count++] = cursor;
    }
    ++s.count;
  }

  /// Appends the list of `key` to `out`, oldest first (insertion order).
  void FlattenTo(std::uint64_t key, std::vector<std::uint32_t>* out) const {
    const Slot* s = Find(key);
    if (s == nullptr) return;
    const std::uint32_t inline_n = std::min(s->count, kInlineCap);
    for (std::uint32_t i = 0; i < inline_n; ++i) {
      out->push_back(s->inline_items[i]);
    }
    for (std::uint32_t c = s->count > kInlineCap ? s->head : kNil; c != kNil;
         c = chunks_[c].next) {
      const Chunk& chunk = chunks_[c];
      for (std::uint32_t i = 0; i < chunk.count; ++i) {
        out->push_back(chunk.items[i]);
      }
    }
  }

  std::size_t CapacityBytes() const {
    return slots_.capacity() * sizeof(Slot) + chunks_.capacity() * sizeof(Chunk);
  }

 private:
  struct Chunk {
    std::uint32_t items[kChunkCap];
    std::uint32_t count = 0;
    std::uint32_t next = kNil;
  };

  const Slot* Find(std::uint64_t key) const {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = Mix64(key) & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.key == key) return &s;
      if (s.key == kEmptyKey) return nullptr;
    }
  }

  Slot& FindOrInsert(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = Mix64(key) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.key == key) return s;
      if (s.key == kEmptyKey) {
        s.key = key;
        s.count = 0;
        s.head = s.tail = kNil;
        ++used_;
        return s;
      }
    }
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 256 : old.size() * 2, Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.key == kEmptyKey) continue;
      std::size_t i = Mix64(s.key) & mask;
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::uint32_t NewChunk() {
    chunks_.emplace_back();
    return static_cast<std::uint32_t>(chunks_.size() - 1);
  }

  std::vector<Slot> slots_;
  std::vector<Chunk> chunks_;
  std::size_t used_ = 0;
};

/// Candidate bookkeeping (Alg. 2's k-best list): subgraphs live in a slot
/// pool, a sorted POD ranking (cost, slot) provides O(1) k-th/worst cost and
/// bounded eviction, and an open-addressing table keyed by the 64-bit
/// canonical structure hash replaces the seed's string-keyed std::map. Like
/// the seed's map, table entries survive eviction from the ranking (with
/// `candidate` = kEvicted), so an evicted structure re-enters only with a
/// strictly cheaper decomposition.
class CandidateStore {
 public:
  static constexpr std::uint32_t kEvicted = 0xffffffffu;

  struct TableSlot {
    std::uint64_t key = 0;
    double best_cost = 0.0;
    std::uint32_t candidate = kEvicted;  ///< pool slot, kEvicted when absent
    bool used = false;
  };
  struct RankEntry {
    double cost;
    std::uint32_t slot;
  };

  void Reset() {
    if (used_ > 0) {
      for (TableSlot& s : table_) s.used = false;
    }
    used_ = 0;
    ranked_.clear();
    free_slots_.clear();
    for (std::size_t i = pool_.size(); i-- > 0;) {
      free_slots_.push_back(static_cast<std::uint32_t>(i));
    }
  }

  /// Looks up the structure hash, inserting an unused entry when absent
  /// (*inserted reports which). The pointer is valid until the next call.
  TableSlot* FindOrInsert(std::uint64_t key, bool* inserted) {
    if (table_.empty() || (used_ + 1) * 4 >= table_.size() * 3) Grow();
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = Mix64(key) & mask;; i = (i + 1) & mask) {
      TableSlot& s = table_[i];
      if (s.used && s.key == key) {
        *inserted = false;
        return &s;
      }
      if (!s.used) {
        s.key = key;
        s.candidate = kEvicted;
        s.used = true;
        ++used_;
        *inserted = true;
        return &s;
      }
    }
  }

  TableSlot* Find(std::uint64_t key) {
    if (table_.empty()) return nullptr;
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = Mix64(key) & mask;; i = (i + 1) & mask) {
      TableSlot& s = table_[i];
      if (s.used && s.key == key) return &s;
      if (!s.used) return nullptr;
    }
  }

  /// Acquires a pool slot (reusing capacity of a previously freed subgraph).
  std::uint32_t AcquireSlot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    pool_.emplace_back();
    pool_hash_.resize(pool_.size());
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  void ReleaseSlot(std::uint32_t slot) { free_slots_.push_back(slot); }

  /// Inserts (cost, slot) into the ranking after all equal costs — the same
  /// stable position std::upper_bound gave the seed's sorted vector, so
  /// tie-breaks are byte-identical. The ranking is small (4k + 16 entries)
  /// and POD, so the shifting insert beats a heap that would need an extra
  /// sequence number to preserve tie order.
  void Rank(double cost, std::uint32_t slot) {
    std::size_t i = ranked_.size();
    ranked_.emplace_back();
    while (i > 0 && cost < ranked_[i - 1].cost) {
      ranked_[i] = ranked_[i - 1];
      --i;
    }
    ranked_[i] = RankEntry{cost, slot};
  }

  /// Removes the ranking entry of `slot` (linear over <= 4k+16 PODs).
  void Unrank(std::uint32_t slot) {
    for (std::size_t i = 0; i < ranked_.size(); ++i) {
      if (ranked_[i].slot == slot) {
        ranked_.erase(ranked_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
    GRASP_CHECK(false);  // every live candidate is ranked
  }

  std::vector<RankEntry>& ranked() { return ranked_; }
  const std::vector<RankEntry>& ranked() const { return ranked_; }
  MatchingSubgraph& subgraph(std::uint32_t slot) { return pool_[slot]; }
  std::uint64_t& hash_of(std::uint32_t slot) { return pool_hash_[slot]; }

  std::size_t CapacityBytes() const {
    std::size_t bytes = table_.capacity() * sizeof(TableSlot) +
                        ranked_.capacity() * sizeof(RankEntry) +
                        free_slots_.capacity() * sizeof(std::uint32_t) +
                        pool_.capacity() * sizeof(MatchingSubgraph) +
                        pool_hash_.capacity() * sizeof(std::uint64_t);
    // Inner vectors of pooled subgraphs count too: the steady-state
    // assertion must see re-materialization growth, not just shell growth.
    for (const MatchingSubgraph& sg : pool_) {
      bytes += sg.nodes.capacity() * sizeof(summary::NodeId) +
               sg.edges.capacity() * sizeof(summary::EdgeId) +
               sg.paths.capacity() * sizeof(std::vector<summary::ElementId>);
      for (const auto& path : sg.paths) {
        bytes += path.capacity() * sizeof(summary::ElementId);
      }
    }
    return bytes;
  }

 private:
  void Grow() {
    std::vector<TableSlot> old = std::move(table_);
    table_.assign(old.empty() ? 256 : old.size() * 2, TableSlot{});
    const std::size_t mask = table_.size() - 1;
    for (const TableSlot& s : old) {
      if (!s.used) continue;
      std::size_t i = Mix64(s.key) & mask;
      while (table_[i].used) i = (i + 1) & mask;
      table_[i] = s;
    }
  }

  std::vector<TableSlot> table_;
  std::size_t used_ = 0;
  std::vector<RankEntry> ranked_;
  /// Slot pool: subgraphs are materialized in place and keep their vector
  /// capacities when freed, so steady-state candidate churn is copy-only.
  std::vector<MatchingSubgraph> pool_;
  std::vector<std::uint64_t> pool_hash_;  ///< structure hash per pool slot
  std::vector<std::uint32_t> free_slots_;
};

/// All reusable exploration state, owned by the engine (one per
/// KeywordSearchEngine) and lent to each SubgraphExplorer run. Repeated
/// queries clear logical contents but keep allocations; `grow_events`
/// counts the queries that had to enlarge any pooled structure, so tests
/// can assert the steady state allocates nothing.
struct ExplorationScratch {
  std::vector<FlatCursor> cursors;
  CursorHeap heap;
  PathListTable paths;
  CandidateStore candidates;

  // Per-connecting-element event scratch (GenerateCandidates).
  std::vector<std::uint32_t> event_cursors;  ///< flattened per-keyword lists
  std::vector<std::uint32_t> event_offsets;  ///< per keyword into event_cursors
  std::vector<std::uint32_t> dims;    ///< keyword dimensions other than kw
  std::vector<std::uint32_t> dim_of;  ///< keyword -> position in dims
  struct Combo {
    double cost;
    std::uint32_t choice_begin;  ///< offset into choice_arena, dims-strided
  };
  std::vector<Combo> frontier;
  std::vector<std::uint32_t> choice_arena;
  AlignedVector<summary::NodeId> cand_nodes;  ///< 64-byte aligned: struct_hash input
  AlignedVector<summary::EdgeId> cand_edges;

  std::vector<double> pop_trace;  ///< recorded only when record_pop_trace

  CompletionBounds bounds;  ///< filled only under tightened_bound

  /// The query's element costs, indexed by AugmentedGraph::DenseIndex and
  /// filled once per query (CostFunction::DenseCosts): costs are
  /// query-constant, cursors revisit elements constantly, and the C3
  /// model's score lookup is a hash probe. The completion bound reads the
  /// same array.
  std::vector<double> element_cost;

  /// Number of FindTopK runs through this scratch, and how many of them had
  /// to grow a pooled allocation. In the steady state (same-shaped queries)
  /// only the first run grows.
  std::size_t queries_run = 0;
  std::size_t grow_events = 0;

  void Reset() {
    cursors.clear();
    heap.Clear();
    paths.Reset();
    candidates.Reset();
    event_cursors.clear();
    event_offsets.clear();
    dims.clear();
    dim_of.clear();
    frontier.clear();
    choice_arena.clear();
    cand_nodes.clear();
    cand_edges.clear();
    pop_trace.clear();
  }

  /// Total bytes currently reserved by the pooled structures (capacities,
  /// not sizes). Stable across same-shaped queries once warmed up.
  std::size_t CapacityBytes() const {
    return cursors.capacity() * sizeof(FlatCursor) + heap.CapacityBytes() +
           paths.CapacityBytes() + candidates.CapacityBytes() +
           event_cursors.capacity() * sizeof(std::uint32_t) +
           event_offsets.capacity() * sizeof(std::uint32_t) +
           dims.capacity() * sizeof(std::uint32_t) +
           dim_of.capacity() * sizeof(std::uint32_t) +
           frontier.capacity() * sizeof(Combo) +
           choice_arena.capacity() * sizeof(std::uint32_t) +
           cand_nodes.capacity() * sizeof(summary::NodeId) +
           cand_edges.capacity() * sizeof(summary::EdgeId) +
           pop_trace.capacity() * sizeof(double) + bounds.CapacityBytes() +
           element_cost.capacity() * sizeof(double);
  }
};

}  // namespace grasp::core

#endif  // GRASP_CORE_EXPLORATION_SCRATCH_H_
