#ifndef GRASP_GRAPH_EDGE_FILTER_H_
#define GRASP_GRAPH_EDGE_FILTER_H_

#include <bit>
#include <cstdint>
#include <span>
#include <utility>

#include "common/flat_storage.h"
#include "common/logging.h"

namespace grasp::graph {

/// One bit per edge id: the membership mask of a restricted graph view
/// (predicate scopes, A- vs R-edge partitions, direction experiments).
/// Built once per filter shape and shared read-only by any number of
/// concurrent traversals; a FilteredGraph pairs it with a CsrGraph into a
/// copy-free scoped adjacency (osrm FilteredGraph-style).
///
/// The words live in FlatStorage<uint64_t>, the same storage every index
/// array uses, so a mask is snapshot-compatible: it can be serialized as-is
/// and adopted zero-copy from a mapping (FromParts).
class EdgeFilter {
 public:
  EdgeFilter() = default;

  /// Builds the mask by evaluating `admit` once per edge id in order. The
  /// final word is explicitly tail-masked, so padding bits past num_edges
  /// are zero regardless of the predicate — the invariant every word-wise
  /// sweep (CountSet, ForEachSet, the compose ops) relies on.
  template <typename Pred>
  static EdgeFilter Build(std::uint32_t num_edges, Pred&& admit) {
    AlignedVector<std::uint64_t> words(NumWords(num_edges), 0);
    for (std::uint32_t e = 0; e < num_edges; ++e) {
      if (admit(e)) words[e >> 6] |= std::uint64_t{1} << (e & 63);
    }
    if (!words.empty()) words.back() &= TailMask(num_edges);
    return EdgeFilter(FlatStorage<std::uint64_t>(std::move(words)), num_edges);
  }

  static EdgeFilter MakeFull(std::uint32_t num_edges) {
    return Build(num_edges, [](std::uint32_t) { return true; });
  }
  static EdgeFilter MakeEmpty(std::uint32_t num_edges) {
    return Build(num_edges, [](std::uint32_t) { return false; });
  }

  /// Adopts prebuilt words (owned or borrowed from a snapshot mapping).
  /// The caller guarantees words.size() == NumWords(num_edges) and zero
  /// padding bits past num_edges.
  static EdgeFilter FromParts(FlatStorage<std::uint64_t> words,
                              std::uint32_t num_edges) {
    return EdgeFilter(std::move(words), num_edges);
  }

  /// Word-wise mask composition over two filters of the same edge-id space.
  /// The result owns its words and is tail-masked explicitly, so composed
  /// masks uphold the zero-padding invariant even if an input violated it.
  static EdgeFilter And(const EdgeFilter& a, const EdgeFilter& b) {
    return Compose(a, b, [](std::uint64_t x, std::uint64_t y) { return x & y; });
  }
  static EdgeFilter Or(const EdgeFilter& a, const EdgeFilter& b) {
    return Compose(a, b, [](std::uint64_t x, std::uint64_t y) { return x | y; });
  }
  /// Edges admitted by `a` but not `b`.
  static EdgeFilter AndNot(const EdgeFilter& a, const EdgeFilter& b) {
    return Compose(a, b,
                   [](std::uint64_t x, std::uint64_t y) { return x & ~y; });
  }

  std::uint32_t num_edges() const { return num_edges_; }
  bool empty() const { return num_edges_ == 0; }

  bool Contains(std::uint32_t e) const {
    return (words_[e >> 6] >> (e & 63)) & 1u;
  }

  /// Number of admitted edges; one popcount per word.
  std::size_t CountSet() const {
    std::size_t count = 0;
    for (const std::uint64_t w : words_.view()) {
      count += static_cast<std::size_t>(std::popcount(w));
    }
    return count;
  }

  /// Enumeration of every admitted edge id, ascending: each word's set bits
  /// are peeled off with countr_zero, so zero words cost one test. This is
  /// the sweep the mask builders and the view-mode baseline index
  /// construction use instead of a per-edge branch over the full edge array.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    const std::span<const std::uint64_t> words = words_.view();
    for (std::size_t w = 0; w < words.size(); ++w) {
      const std::uint32_t base = static_cast<std::uint32_t>(w << 6);
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        fn(base + static_cast<std::uint32_t>(std::countr_zero(bits)));
      }
    }
  }

  /// Membership probe for ascending id scans (CSR adjacency runs are built
  /// in ascending edge-id order): the current 64-id window's word is cached,
  /// so a run probes one load per window instead of one per edge. State is
  /// scan-local — make one cursor per traversal, not per probe.
  class Cursor {
   public:
    Cursor() = default;
    explicit Cursor(const EdgeFilter& filter) : words_(filter.words_.data()) {}

    bool Contains(std::uint32_t e) {
      const std::uint32_t w = e >> 6;
      if (w != word_index_) {
        word_index_ = w;
        word_ = words_[w];
      }
      return (word_ >> (e & 63)) & 1u;
    }

   private:
    const std::uint64_t* words_ = nullptr;
    std::uint32_t word_index_ = 0xffffffffu;
    std::uint64_t word_ = 0;
  };

  /// The raw mask words, for snapshot serialization.
  std::span<const std::uint64_t> words() const { return words_.view(); }

  static std::size_t NumWords(std::uint32_t num_edges) {
    return (static_cast<std::size_t>(num_edges) + 63) / 64;
  }

  /// Mask of the valid bits in the final word: all-ones when num_edges is a
  /// multiple of 64, otherwise just the low num_edges % 64 bits.
  static std::uint64_t TailMask(std::uint32_t num_edges) {
    const std::uint32_t rem = num_edges & 63;
    return rem == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << rem) - 1;
  }

  /// Heap bytes owned by this mask; borrowed (mapped) words count zero.
  std::size_t MemoryUsageBytes() const { return words_.OwnedBytes(); }

 private:
  EdgeFilter(FlatStorage<std::uint64_t> words, std::uint32_t num_edges)
      : words_(std::move(words)), num_edges_(num_edges) {}

  template <typename WordOp>
  static EdgeFilter Compose(const EdgeFilter& a, const EdgeFilter& b,
                            WordOp op) {
    GRASP_CHECK_EQ(a.num_edges_, b.num_edges_)
        << "EdgeFilter compose over mismatched edge-id spaces";
    AlignedVector<std::uint64_t> out(NumWords(a.num_edges_));
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = op(a.words_[i], b.words_[i]);
    }
    if (!out.empty()) out.back() &= TailMask(a.num_edges_);
    return EdgeFilter(FlatStorage<std::uint64_t>(std::move(out)),
                      a.num_edges_);
  }

  FlatStorage<std::uint64_t> words_;
  std::uint32_t num_edges_ = 0;
};

/// A filtered view of one adjacency run: iterates the ids of `ids` whose
/// filter bit is set, skipping the rest inside the iterator (no copy, no
/// per-call allocation). Ids are probed through a word-caching cursor, so
/// an ascending CSR run loads each 64-id mask window once.
class FilteredIds {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::uint32_t*;
    using reference = std::uint32_t;

    iterator(const std::uint32_t* cur, const std::uint32_t* end,
             const EdgeFilter* filter)
        : cur_(cur), end_(end), bits_(*filter) {
      SkipMasked();
    }
    /// End sentinel.
    explicit iterator(const std::uint32_t* end) : cur_(end), end_(end) {}

    std::uint32_t operator*() const { return *cur_; }
    iterator& operator++() {
      ++cur_;
      SkipMasked();
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++*this;
      return copy;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.cur_ == b.cur_;
    }
    friend bool operator!=(const iterator& a, const iterator& b) {
      return !(a == b);
    }

   private:
    void SkipMasked() {
      while (cur_ != end_ && !bits_.Contains(*cur_)) ++cur_;
    }

    const std::uint32_t* cur_;
    const std::uint32_t* end_;
    EdgeFilter::Cursor bits_;
  };

  FilteredIds(std::span<const std::uint32_t> ids, const EdgeFilter& filter)
      : ids_(ids), filter_(&filter) {}

  iterator begin() const {
    return iterator(ids_.data(), ids_.data() + ids_.size(), filter_);
  }
  iterator end() const { return iterator(ids_.data() + ids_.size()); }
  bool empty() const { return begin() == end(); }

  /// Admitted ids in the run; O(run length).
  std::size_t count() const {
    std::size_t n = 0;
    for (auto it = begin(); it != end(); ++it) ++n;
    return n;
  }

 private:
  std::span<const std::uint32_t> ids_;
  const EdgeFilter* filter_;
};

/// Mask over an overlaid graph's edge-id space (graph::OverlayGraph /
/// summary::AugmentedGraph): ids below `base_count` test against a borrowed
/// long-lived base mask, overlay ids against a per-query local mask whose
/// bit i covers overlay edge base_count + i. This is how a predicate scope
/// composes with per-query augmentation without copying the base mask: the
/// base half is shared across queries (and cacheable), the overlay half is
/// O(augmentation) to build.
class OverlayEdgeFilter {
 public:
  /// `base` must outlive this object (it is typically owned by a scope
  /// cache entry); `overlay` is adopted.
  OverlayEdgeFilter(const EdgeFilter* base, EdgeFilter overlay,
                    std::uint32_t base_count)
      : base_(base), overlay_(std::move(overlay)), base_count_(base_count) {}

  bool Contains(std::uint32_t id) const {
    return id < base_count_ ? base_->Contains(id)
                            : overlay_.Contains(id - base_count_);
  }
  /// Overlay-id probe for callers that already know id >= base_count.
  bool ContainsOverlay(std::uint32_t id) const {
    return overlay_.Contains(id - base_count_);
  }

  const EdgeFilter& base() const { return *base_; }
  const EdgeFilter& overlay() const { return overlay_; }
  std::uint32_t base_count() const { return base_count_; }

 private:
  const EdgeFilter* base_;
  EdgeFilter overlay_;
  std::uint32_t base_count_;
};

}  // namespace grasp::graph

#endif  // GRASP_GRAPH_EDGE_FILTER_H_
