#ifndef GRASP_KEYWORD_KEYWORD_INDEX_H_
#define GRASP_KEYWORD_KEYWORD_INDEX_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/filter_op.h"
#include "common/flat_storage.h"
#include "rdf/data_graph.h"
#include "text/inverted_index.h"

namespace grasp::keyword {

/// Neighborhood context attached to V-vertex and A-edge matches: the paper's
/// data structures `[V-vertex, A-edge, (C-vertex_1..n)]` and
/// `[A-edge, (C-vertex_1..n)]` (Sec. IV-A). `classes` holds the class terms
/// of the subjects reachable through `attribute`; untyped subjects appear as
/// rdf::kThingTerm.
struct AttrContext {
  rdf::TermId attribute = rdf::kInvalidTermId;
  std::vector<rdf::TermId> classes;
  /// Parallel to `classes`: the number of data-graph A-edges the context
  /// aggregates per class — for a kValue match, the edges carrying exactly
  /// this value; for a kAttributeLabel match, all edges with this label.
  /// Feeds |e_agg| of the augmented edges (popularity cost C2).
  std::vector<std::uint64_t> counts;
};

/// One graph element a keyword maps to, with its matching score sm(n).
struct KeywordMatch {
  enum class Kind : std::uint8_t {
    kClass,           ///< C-vertex (matched by class-name terms)
    kValue,           ///< V-vertex (matched by literal text)
    kRelationLabel,   ///< R-edge label (predicate between entities)
    kAttributeLabel,  ///< A-edge label (predicate from entity to value)
  };

  Kind kind;
  /// Class IRI, literal value, or predicate IRI, respectively. Invalid for
  /// filter matches, which stand for a set of values rather than one.
  rdf::TermId term = rdf::kInvalidTermId;
  /// Matching score in (0, 1], combining syntactic and semantic similarity.
  double score = 1.0;
  /// For kValue: one entry per A-edge label under which the value occurs.
  /// For kAttributeLabel: a single entry (attribute == term).
  /// Empty for kClass and kRelationLabel.
  std::vector<AttrContext> contexts;
  /// Filter-operator extension (Sec. IX): true when this match stands for
  /// the set of numeric values satisfying `filter` (e.g. keyword ">2000").
  /// The query mapping then emits a free variable plus a FILTER condition
  /// instead of a constant.
  bool is_filter = false;
  FilterSpec filter{FilterOp::kGreater, 0.0};
};

/// The keyword index of Sec. IV-A: an IR engine over the labels of
/// C-vertices, V-vertices and edge labels (E-vertices are deliberately not
/// indexed — users refer to entities via attribute values, not URIs).
///
/// The element/context tables are flat POD arrays (CSR-style ranges instead
/// of nested vectors), so the whole index can be serialized as-is into an
/// index snapshot and mapped back zero-copy on warm start. These records
/// are part of the snapshot format — never reorder their fields.
class KeywordIndex {
 public:
  /// One indexed element, parallel to InvertedIndex document ids;
  /// [ctx_begin, ctx_end) indexes the context table.
  struct ElementRecord {
    std::uint32_t kind;  ///< KeywordMatch::Kind
    rdf::TermId term;
    std::uint32_t ctx_begin;
    std::uint32_t ctx_end;
  };
  static_assert(sizeof(ElementRecord) == 16);

  /// One attribute context; [entry_begin, entry_end) indexes the parallel
  /// class/count arrays.
  struct ContextRecord {
    rdf::TermId attribute;
    std::uint32_t entry_begin;
    std::uint32_t entry_end;
    std::uint32_t pad;
  };
  static_assert(sizeof(ContextRecord) == 16);

  /// One numeric V-vertex value, sorted by (value, element): the range-scan
  /// table behind the filter-operator extension.
  struct NumericValueRecord {
    double value;
    std::uint32_t element;
    std::uint32_t pad;
  };
  static_assert(sizeof(NumericValueRecord) == 16);

  /// Builds the index over a data graph. The graph must outlive the index.
  static KeywordIndex Build(const rdf::DataGraph& graph,
                            text::AnalyzerOptions analyzer_options = {});

  /// Rebuilds an index from snapshot parts (the flat tables are typically
  /// borrowed straight from the mapping; see InvertedIndex
  /// ::FromSnapshotParts for the IR-engine half).
  static KeywordIndex FromSnapshotParts(
      text::InvertedIndex index, FlatStorage<ElementRecord> elements,
      FlatStorage<ContextRecord> contexts,
      FlatStorage<rdf::TermId> context_classes,
      FlatStorage<std::uint64_t> context_counts,
      FlatStorage<NumericValueRecord> numeric_values);

  KeywordIndex(const KeywordIndex&) = delete;
  KeywordIndex& operator=(const KeywordIndex&) = delete;
  KeywordIndex(KeywordIndex&&) = default;
  KeywordIndex& operator=(KeywordIndex&&) = default;

  /// Evaluates the keyword-to-element function f: keyword -> 2^(V_C u V_V u E)
  /// with imprecise matching. Results are sorted by descending score.
  std::vector<KeywordMatch> Lookup(
      std::string_view keyword,
      const text::InvertedIndex::SearchOptions& options) const;

  /// Filter-operator extension (Sec. IX): resolves an operator keyword such
  /// as ">2000" to a single filter match whose contexts merge every numeric
  /// V-vertex satisfying the comparison (counts summed per attribute and
  /// class). Returns nullopt when no indexed value satisfies the filter,
  /// and for a filter value that is not finite.
  std::optional<KeywordMatch> LookupFilter(const FilterSpec& filter) const;

  std::size_t num_elements() const { return elements_.size(); }
  std::size_t vocabulary_size() const { return index_.vocabulary_size(); }

  /// Raw index contents, for snapshot serialization.
  const text::InvertedIndex& inverted_index() const { return index_; }
  std::span<const ElementRecord> elements() const { return elements_.view(); }
  std::span<const ContextRecord> contexts() const { return contexts_.view(); }
  std::span<const rdf::TermId> context_classes() const {
    return context_classes_.view();
  }
  std::span<const std::uint64_t> context_counts() const {
    return context_counts_.view();
  }
  std::span<const NumericValueRecord> numeric_values() const {
    return numeric_values_.view();
  }

  /// Approximate owned heap footprint in bytes (Fig. 6b keyword-index
  /// size); mmap-backed snapshot storage counts zero here.
  std::size_t MemoryUsageBytes() const;

 private:
  KeywordIndex() : index_(text::AnalyzerOptions{}) {}

  /// Materializes the AttrContext list of one element from the flat tables
  /// (the per-match copy Lookup always made; the flat layout just changes
  /// where the data is copied from).
  std::vector<AttrContext> ContextsOf(const ElementRecord& element) const;

  text::InvertedIndex index_;
  FlatStorage<ElementRecord> elements_;
  FlatStorage<ContextRecord> contexts_;
  FlatStorage<rdf::TermId> context_classes_;
  FlatStorage<std::uint64_t> context_counts_;
  FlatStorage<NumericValueRecord> numeric_values_;
};

}  // namespace grasp::keyword

#endif  // GRASP_KEYWORD_KEYWORD_INDEX_H_
