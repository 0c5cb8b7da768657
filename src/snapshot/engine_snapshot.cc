#include "snapshot/engine_snapshot.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/flat_storage.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "graph/csr.h"
#include "graph/csr_graph.h"
#include "snapshot/format.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "text/inverted_index.h"

namespace grasp::snapshot {
namespace {

using rdf::TermId;

/// Scalar engine state pinned in the kSectionMeta section. Field order is
/// part of the format (fixed-width fields, no implicit padding).
struct EngineMeta {
  std::uint64_t num_entities;
  std::uint64_t num_classes;
  std::uint64_t num_values;
  std::uint64_t total_entities;
  std::uint64_t total_relation_edges;
  std::uint64_t analyzer_min_token_length;
  std::uint32_t type_term;
  std::uint32_t subclass_term;
  std::uint32_t thing_node;
  std::uint32_t analyzer_flags;
};
static_assert(sizeof(EngineMeta) == 64);

// Analyzer flag bits.
constexpr std::uint32_t kFlagLowercase = 1u << 0;
constexpr std::uint32_t kFlagSplitCamelCase = 1u << 1;
constexpr std::uint32_t kFlagDropStopwords = 1u << 2;
constexpr std::uint32_t kFlagStem = 1u << 3;
constexpr std::uint32_t kFlagEmitCompound = 1u << 4;

/// Fixed-layout counterpart of the predicate-statistics map entries (the
/// one structure whose natural form is not already a flat POD array).
struct PredicateStatEntry {
  std::uint32_t predicate;
  std::uint32_t pad;
  double per_subject;
  double per_object;
};
static_assert(sizeof(PredicateStatEntry) == 24);

static_assert(std::is_trivially_copyable_v<rdf::Triple>);
static_assert(std::is_trivially_copyable_v<rdf::Vertex>);
static_assert(std::is_trivially_copyable_v<rdf::Edge>);
static_assert(std::is_trivially_copyable_v<summary::SummaryNode>);
static_assert(std::is_trivially_copyable_v<summary::SummaryEdge>);
static_assert(std::is_trivially_copyable_v<text::InvertedIndex::Posting>);
static_assert(std::is_trivially_copyable_v<keyword::KeywordIndex::ElementRecord>);
static_assert(std::is_trivially_copyable_v<keyword::KeywordIndex::ContextRecord>);
static_assert(
    std::is_trivially_copyable_v<keyword::KeywordIndex::NumericValueRecord>);

template <typename T>
std::span<const T> AsSpan(const std::vector<T>& v) {
  return std::span<const T>(v);
}

/// True when `term` can index the dictionary or is the synthetic `Thing`
/// class aggregating untyped entities.
bool TermInRange(TermId term, std::size_t num_terms, bool allow_thing,
                 bool allow_invalid) {
  if (term < num_terms) return true;
  if (allow_thing && term == rdf::kThingTerm) return true;
  if (allow_invalid && term == rdf::kInvalidTermId) return true;
  return false;
}

Status ValidateCsr(std::span<const std::uint32_t> offsets,
                   std::span<const std::uint32_t> values,
                   std::size_t num_buckets, std::size_t value_bound,
                   const char* what) {
  if (offsets.size() != num_buckets + 1) {
    return Status::InvalidArgument(
        StrFormat("snapshot: %s offsets have %zu entries, expected %zu", what,
                  offsets.size(), num_buckets + 1));
  }
  if (offsets[0] != 0) {
    return Status::InvalidArgument(
        StrFormat("snapshot: %s offsets do not start at 0", what));
  }
  for (std::size_t b = 1; b < offsets.size(); ++b) {
    if (offsets[b] < offsets[b - 1]) {
      return Status::InvalidArgument(
          StrFormat("snapshot: %s offsets not monotone", what));
    }
  }
  if (offsets[num_buckets] != values.size()) {
    return Status::InvalidArgument(
        StrFormat("snapshot: %s offsets end at %u, values have %zu", what,
                  offsets[num_buckets], values.size()));
  }
  for (std::uint32_t v : values) {
    if (v >= value_bound) {
      return Status::InvalidArgument(
          StrFormat("snapshot: %s value %u out of range (bound %zu)", what, v,
                    value_bound));
    }
  }
  return Status::Ok();
}

graph::CsrArray BorrowCsr(std::span<const std::uint32_t> offsets,
                          std::span<const std::uint32_t> values) {
  return graph::CsrArray::FromParts(FlatStorage<std::uint32_t>::Borrow(offsets),
                                    FlatStorage<std::uint32_t>::Borrow(values));
}

}  // namespace

Status WriteEngineSnapshot(const EngineParts& parts, const std::string& path) {
  const rdf::Dictionary& dict = *parts.dictionary;
  const rdf::TripleStore& store = *parts.store;
  const rdf::DataGraph& graph = *parts.data_graph;
  const summary::SummaryGraph& summary = *parts.summary;
  const keyword::KeywordIndex& kw = *parts.keyword_index;
  const text::InvertedIndex& ii = kw.inverted_index();
  GRASP_CHECK(store.finalized()) << "snapshot of an unfinalized store";

  // Meta scalars.
  const rdf::DataGraph::SnapshotScalars dscal = graph.snapshot_scalars();
  const summary::SummaryGraph::SnapshotScalars sscal =
      summary.snapshot_scalars();
  const text::AnalyzerOptions& analyzer = ii.analyzer_options();
  EngineMeta meta{};
  meta.num_entities = dscal.num_entities;
  meta.num_classes = dscal.num_classes;
  meta.num_values = dscal.num_values;
  meta.total_entities = sscal.total_entities;
  meta.total_relation_edges = sscal.total_relation_edges;
  meta.analyzer_min_token_length = analyzer.min_token_length;
  meta.type_term = dscal.type_term;
  meta.subclass_term = dscal.subclass_term;
  meta.thing_node = sscal.thing_node;
  meta.analyzer_flags = (analyzer.lowercase ? kFlagLowercase : 0) |
                        (analyzer.split_camel_case ? kFlagSplitCamelCase : 0) |
                        (analyzer.drop_stopwords ? kFlagDropStopwords : 0) |
                        (analyzer.stem ? kFlagStem : 0) |
                        (analyzer.emit_compound ? kFlagEmitCompound : 0);

  // Predicate statistics, sorted by predicate so images are deterministic.
  std::vector<PredicateStatEntry> pred_stats;
  pred_stats.reserve(store.predicate_stats().size());
  for (const auto& [predicate, stats] : store.predicate_stats()) {
    pred_stats.push_back(PredicateStatEntry{predicate, 0, stats.per_subject,
                                            stats.per_object});
  }
  std::sort(pred_stats.begin(), pred_stats.end(),
            [](const PredicateStatEntry& a, const PredicateStatEntry& b) {
              return a.predicate < b.predicate;
            });

  // Every index structure below is already flat (the whole point of the
  // FlatStorage refactor): the writer serializes the live arrays as-is.
  SnapshotWriter writer;
  writer.AddSection(kSectionMeta, std::span<const EngineMeta>(&meta, 1));
  writer.AddSection(kSectionDictKinds, dict.kinds_span());
  writer.AddSection(kSectionDictOffsets, dict.offsets_span());
  writer.AddSection(kSectionDictText, dict.text_span());
  writer.AddSection(kSectionTriples, store.triples());
  writer.AddSection(kSectionTriplePos, store.pos_permutation());
  writer.AddSection(kSectionTripleOsp, store.osp_permutation());
  writer.AddSection(kSectionPredicateStats, AsSpan(pred_stats));
  const auto& dcsr = graph.csr();
  writer.AddSection(kSectionDataNodes, dcsr.nodes());
  writer.AddSection(kSectionDataEdges, dcsr.edges());
  writer.AddSection(kSectionDataOutOffsets, dcsr.out_csr().offsets());
  writer.AddSection(kSectionDataOutValues, dcsr.out_csr().values());
  writer.AddSection(kSectionDataInOffsets, dcsr.in_csr().offsets());
  writer.AddSection(kSectionDataInValues, dcsr.in_csr().values());
  writer.AddSection(kSectionDataClassOffsets, graph.classes_csr().offsets());
  writer.AddSection(kSectionDataClassValues, graph.classes_csr().values());
  writer.AddSection(kSectionDataTermVertex, graph.vertex_of_term());
  const auto& scsr = summary.csr();
  writer.AddSection(kSectionSummaryNodes, scsr.nodes());
  writer.AddSection(kSectionSummaryEdges, scsr.edges());
  writer.AddSection(kSectionSummaryIncOffsets, scsr.incident_csr().offsets());
  writer.AddSection(kSectionSummaryIncValues, scsr.incident_csr().values());
  writer.AddSection(kSectionKwElements, kw.elements());
  writer.AddSection(kSectionKwContexts, kw.contexts());
  writer.AddSection(kSectionKwCtxClasses, kw.context_classes());
  writer.AddSection(kSectionKwCtxCounts, kw.context_counts());
  writer.AddSection(kSectionKwNumeric, kw.numeric_values());
  writer.AddSection(kSectionIiTermOffsets, ii.term_offsets());
  writer.AddSection(kSectionIiTermText, ii.term_blob());
  writer.AddSection(kSectionIiSortedTerms, ii.sorted_terms());
  writer.AddSection(kSectionIiPostingOffsets, ii.posting_offsets());
  writer.AddSection(kSectionIiPostings, ii.postings());
  writer.AddSection(kSectionIiDocTermCounts, ii.doc_term_counts());
  writer.AddSection(kSectionIiBucketOffsets, ii.bucket_offsets());
  writer.AddSection(kSectionIiBucketTerms, ii.bucket_terms());
  return writer.WriteFile(path);
}

namespace {

/// Validates a monotone length-delimiting offsets array over a blob.
template <typename OffsetT>
Status ValidateBlobOffsets(std::span<const OffsetT> offsets,
                           std::size_t blob_size, const char* what) {
  if (offsets.empty()) {
    return Status::InvalidArgument(
        StrFormat("snapshot: %s offsets empty", what));
  }
  if (offsets[0] != 0 || offsets[offsets.size() - 1] != blob_size) {
    return Status::InvalidArgument(
        StrFormat("snapshot: %s offsets do not delimit the blob", what));
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return Status::InvalidArgument(
          StrFormat("snapshot: %s offsets not monotone", what));
    }
  }
  return Status::Ok();
}

}  // namespace

Result<LoadedEngineParts> ReadEngineSnapshot(const std::string& path) {
  WallTimer timer;
  // The checksum pass below touches every payload byte front-to-back;
  // MADV_WILLNEED lets the kernel run readahead ahead of it instead of
  // faulting one page at a time (the PR 4 cold-start measurement).
  GRASP_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      SnapshotReader::Open(path, MappedFile::Options{.willneed = true}));
  GRASP_ASSIGN_OR_RETURN(std::span<const EngineMeta> meta_span,
                         reader.Section<EngineMeta>(kSectionMeta));
  if (meta_span.size() != 1) {
    return Status::InvalidArgument("snapshot: meta section malformed");
  }
  const EngineMeta meta = meta_span[0];

  // --- Dictionary ---------------------------------------------------------
  GRASP_ASSIGN_OR_RETURN(std::span<const std::uint8_t> dict_kinds,
                         reader.Section<std::uint8_t>(kSectionDictKinds));
  GRASP_ASSIGN_OR_RETURN(std::span<const std::uint64_t> dict_offsets,
                         reader.Section<std::uint64_t>(kSectionDictOffsets));
  GRASP_ASSIGN_OR_RETURN(std::span<const char> dict_text,
                         reader.Section<char>(kSectionDictText));
  const std::size_t num_terms = dict_kinds.size();
  if (num_terms >= rdf::kThingTerm) {  // keep sentinel ids unreachable
    return Status::InvalidArgument("snapshot: term count out of range");
  }
  if (dict_offsets.size() != num_terms + 1) {
    return Status::InvalidArgument(
        "snapshot: dictionary offsets/kinds mismatch");
  }
  GRASP_RETURN_IF_ERROR(
      ValidateBlobOffsets(dict_offsets, dict_text.size(), "dictionary"));
  for (std::uint8_t kind : dict_kinds) {
    if (kind > static_cast<std::uint8_t>(rdf::TermKind::kLiteral)) {
      return Status::InvalidArgument("snapshot: bad term kind");
    }
  }

  // --- Triple store -------------------------------------------------------
  GRASP_ASSIGN_OR_RETURN(std::span<const rdf::Triple> triples,
                         reader.Section<rdf::Triple>(kSectionTriples));
  GRASP_ASSIGN_OR_RETURN(std::span<const std::uint32_t> pos,
                         reader.Section<std::uint32_t>(kSectionTriplePos));
  GRASP_ASSIGN_OR_RETURN(std::span<const std::uint32_t> osp,
                         reader.Section<std::uint32_t>(kSectionTripleOsp));
  GRASP_ASSIGN_OR_RETURN(
      std::span<const PredicateStatEntry> pred_stats,
      reader.Section<PredicateStatEntry>(kSectionPredicateStats));
  if (pos.size() != triples.size() || osp.size() != triples.size()) {
    return Status::InvalidArgument("snapshot: permutation size mismatch");
  }
  for (const rdf::Triple& t : triples) {
    if (t.subject >= num_terms || t.predicate >= num_terms ||
        t.object >= num_terms) {
      return Status::InvalidArgument("snapshot: triple term out of range");
    }
  }
  for (std::size_t i = 0; i < pos.size(); ++i) {
    if (pos[i] >= triples.size() || osp[i] >= triples.size()) {
      return Status::InvalidArgument(
          "snapshot: permutation entry out of range");
    }
  }
  std::vector<std::pair<TermId, rdf::TripleStore::PredicateStats>> stats;
  stats.reserve(pred_stats.size());
  for (const PredicateStatEntry& e : pred_stats) {
    if (e.predicate >= num_terms) {
      return Status::InvalidArgument(
          "snapshot: predicate statistic out of range");
    }
    stats.emplace_back(
        e.predicate,
        rdf::TripleStore::PredicateStats{e.per_subject, e.per_object});
  }

  // --- Data graph ---------------------------------------------------------
  GRASP_ASSIGN_OR_RETURN(std::span<const rdf::Vertex> data_nodes,
                         reader.Section<rdf::Vertex>(kSectionDataNodes));
  GRASP_ASSIGN_OR_RETURN(std::span<const rdf::Edge> data_edges,
                         reader.Section<rdf::Edge>(kSectionDataEdges));
  GRASP_ASSIGN_OR_RETURN(std::span<const std::uint32_t> out_offsets,
                         reader.Section<std::uint32_t>(kSectionDataOutOffsets));
  GRASP_ASSIGN_OR_RETURN(std::span<const std::uint32_t> out_values,
                         reader.Section<std::uint32_t>(kSectionDataOutValues));
  GRASP_ASSIGN_OR_RETURN(std::span<const std::uint32_t> in_offsets,
                         reader.Section<std::uint32_t>(kSectionDataInOffsets));
  GRASP_ASSIGN_OR_RETURN(std::span<const std::uint32_t> in_values,
                         reader.Section<std::uint32_t>(kSectionDataInValues));
  GRASP_ASSIGN_OR_RETURN(
      std::span<const std::uint32_t> class_offsets,
      reader.Section<std::uint32_t>(kSectionDataClassOffsets));
  GRASP_ASSIGN_OR_RETURN(
      std::span<const std::uint32_t> class_values,
      reader.Section<std::uint32_t>(kSectionDataClassValues));
  GRASP_ASSIGN_OR_RETURN(
      std::span<const rdf::VertexId> term_vertex,
      reader.Section<rdf::VertexId>(kSectionDataTermVertex));
  for (const rdf::Vertex& v : data_nodes) {
    if (v.term >= num_terms ||
        static_cast<std::uint8_t>(v.kind) >
            static_cast<std::uint8_t>(rdf::VertexKind::kValue)) {
      return Status::InvalidArgument("snapshot: data vertex malformed");
    }
  }
  for (const rdf::Edge& e : data_edges) {
    if (e.label >= num_terms || e.from >= data_nodes.size() ||
        e.to >= data_nodes.size() ||
        static_cast<std::uint8_t>(e.kind) >
            static_cast<std::uint8_t>(rdf::EdgeKind::kSubclass)) {
      return Status::InvalidArgument("snapshot: data edge malformed");
    }
  }
  GRASP_RETURN_IF_ERROR(ValidateCsr(out_offsets, out_values, data_nodes.size(),
                                    data_edges.size(), "data out-adjacency"));
  GRASP_RETURN_IF_ERROR(ValidateCsr(in_offsets, in_values, data_nodes.size(),
                                    data_edges.size(), "data in-adjacency"));
  GRASP_RETURN_IF_ERROR(ValidateCsr(class_offsets, class_values,
                                    data_nodes.size(), data_nodes.size(),
                                    "entity-class"));
  if (meta.num_entities + meta.num_classes + meta.num_values !=
      data_nodes.size()) {
    return Status::InvalidArgument(
        "snapshot: vertex partition counts inconsistent");
  }
  if (term_vertex.size() != num_terms) {
    return Status::InvalidArgument(
        "snapshot: term-vertex table does not match dictionary");
  }
  for (rdf::VertexId v : term_vertex) {
    if (v != rdf::kInvalidVertexId && v >= data_nodes.size()) {
      return Status::InvalidArgument(
          "snapshot: term-vertex entry out of range");
    }
  }
  if (!TermInRange(meta.type_term, num_terms, false, true) ||
      !TermInRange(meta.subclass_term, num_terms, false, true)) {
    return Status::InvalidArgument("snapshot: vocabulary terms out of range");
  }

  // --- Summary graph ------------------------------------------------------
  GRASP_ASSIGN_OR_RETURN(
      std::span<const summary::SummaryNode> summary_nodes,
      reader.Section<summary::SummaryNode>(kSectionSummaryNodes));
  GRASP_ASSIGN_OR_RETURN(
      std::span<const summary::SummaryEdge> summary_edges,
      reader.Section<summary::SummaryEdge>(kSectionSummaryEdges));
  GRASP_ASSIGN_OR_RETURN(
      std::span<const std::uint32_t> inc_offsets,
      reader.Section<std::uint32_t>(kSectionSummaryIncOffsets));
  GRASP_ASSIGN_OR_RETURN(
      std::span<const std::uint32_t> inc_values,
      reader.Section<std::uint32_t>(kSectionSummaryIncValues));
  for (const summary::SummaryNode& n : summary_nodes) {
    // Only class and Thing nodes exist in the base summary (value and
    // artificial nodes are per-query augmentations).
    if (!TermInRange(n.term, num_terms, true, false) ||
        static_cast<std::uint8_t>(n.kind) >
            static_cast<std::uint8_t>(summary::NodeKind::kThing)) {
      return Status::InvalidArgument("snapshot: summary node malformed");
    }
  }
  for (const summary::SummaryEdge& e : summary_edges) {
    if (e.label >= num_terms || e.from >= summary_nodes.size() ||
        e.to >= summary_nodes.size() ||
        static_cast<std::uint8_t>(e.kind) >
            static_cast<std::uint8_t>(summary::SummaryEdgeKind::kSubclass)) {
      return Status::InvalidArgument("snapshot: summary edge malformed");
    }
  }
  GRASP_RETURN_IF_ERROR(ValidateCsr(inc_offsets, inc_values,
                                    summary_nodes.size(), summary_edges.size(),
                                    "summary incidence"));
  if (meta.thing_node != summary::kInvalidNodeId &&
      meta.thing_node >= summary_nodes.size()) {
    return Status::InvalidArgument("snapshot: thing node out of range");
  }

  // --- Keyword index ------------------------------------------------------
  using ElementRecord = keyword::KeywordIndex::ElementRecord;
  using ContextRecord = keyword::KeywordIndex::ContextRecord;
  using NumericValueRecord = keyword::KeywordIndex::NumericValueRecord;
  GRASP_ASSIGN_OR_RETURN(std::span<const ElementRecord> kw_elements,
                         reader.Section<ElementRecord>(kSectionKwElements));
  GRASP_ASSIGN_OR_RETURN(std::span<const ContextRecord> kw_contexts,
                         reader.Section<ContextRecord>(kSectionKwContexts));
  GRASP_ASSIGN_OR_RETURN(std::span<const std::uint32_t> kw_ctx_classes,
                         reader.Section<std::uint32_t>(kSectionKwCtxClasses));
  GRASP_ASSIGN_OR_RETURN(std::span<const std::uint64_t> kw_ctx_counts,
                         reader.Section<std::uint64_t>(kSectionKwCtxCounts));
  GRASP_ASSIGN_OR_RETURN(std::span<const NumericValueRecord> kw_numeric,
                         reader.Section<NumericValueRecord>(kSectionKwNumeric));
  if (kw_ctx_counts.size() != kw_ctx_classes.size()) {
    return Status::InvalidArgument(
        "snapshot: context class/count arrays diverge");
  }
  for (std::uint32_t cls : kw_ctx_classes) {
    if (!TermInRange(cls, num_terms, true, false)) {
      return Status::InvalidArgument("snapshot: context class out of range");
    }
  }
  for (const ContextRecord& c : kw_contexts) {
    if (c.attribute >= num_terms || c.entry_begin > c.entry_end ||
        c.entry_end > kw_ctx_classes.size()) {
      return Status::InvalidArgument("snapshot: keyword context malformed");
    }
  }
  for (const ElementRecord& e : kw_elements) {
    if (e.term >= num_terms ||
        e.kind > static_cast<std::uint32_t>(
                     keyword::KeywordMatch::Kind::kAttributeLabel) ||
        e.ctx_begin > e.ctx_end || e.ctx_end > kw_contexts.size()) {
      return Status::InvalidArgument("snapshot: keyword element malformed");
    }
  }
  for (const NumericValueRecord& n : kw_numeric) {
    if (n.element >= kw_elements.size()) {
      return Status::InvalidArgument(
          "snapshot: numeric value element out of range");
    }
  }

  // --- Inverted index -----------------------------------------------------
  GRASP_ASSIGN_OR_RETURN(std::span<const std::uint32_t> ii_term_offsets,
                         reader.Section<std::uint32_t>(kSectionIiTermOffsets));
  GRASP_ASSIGN_OR_RETURN(std::span<const char> ii_term_text,
                         reader.Section<char>(kSectionIiTermText));
  GRASP_ASSIGN_OR_RETURN(std::span<const std::uint32_t> ii_sorted_terms,
                         reader.Section<std::uint32_t>(kSectionIiSortedTerms));
  GRASP_ASSIGN_OR_RETURN(
      std::span<const std::uint32_t> ii_posting_offsets,
      reader.Section<std::uint32_t>(kSectionIiPostingOffsets));
  GRASP_ASSIGN_OR_RETURN(
      std::span<const text::InvertedIndex::Posting> ii_postings,
      reader.Section<text::InvertedIndex::Posting>(kSectionIiPostings));
  GRASP_ASSIGN_OR_RETURN(
      std::span<const std::uint32_t> ii_doc_term_counts,
      reader.Section<std::uint32_t>(kSectionIiDocTermCounts));
  GRASP_RETURN_IF_ERROR(
      ValidateBlobOffsets(ii_term_offsets, ii_term_text.size(), "vocabulary"));
  if (ii_posting_offsets.size() != ii_term_offsets.size()) {
    return Status::InvalidArgument(
        "snapshot: postings offsets/vocabulary mismatch");
  }
  GRASP_RETURN_IF_ERROR(ValidateBlobOffsets(ii_posting_offsets,
                                            ii_postings.size(), "postings"));
  const std::size_t vocab = ii_term_offsets.size() - 1;
  if (ii_sorted_terms.size() != vocab) {
    return Status::InvalidArgument(
        "snapshot: sorted-term permutation does not match vocabulary");
  }
  for (std::uint32_t t : ii_sorted_terms) {
    if (t >= vocab) {
      return Status::InvalidArgument(
          "snapshot: sorted-term entry out of range");
    }
  }
  if (ii_doc_term_counts.size() != kw_elements.size()) {
    return Status::InvalidArgument(
        "snapshot: document count does not match keyword elements");
  }
  for (const text::InvertedIndex::Posting& p : ii_postings) {
    if (p.doc >= ii_doc_term_counts.size()) {
      return Status::InvalidArgument("snapshot: posting document out of range");
    }
  }
  GRASP_ASSIGN_OR_RETURN(
      std::span<const std::uint32_t> ii_bucket_offsets,
      reader.Section<std::uint32_t>(kSectionIiBucketOffsets));
  GRASP_ASSIGN_OR_RETURN(std::span<const std::uint32_t> ii_bucket_terms,
                         reader.Section<std::uint32_t>(kSectionIiBucketTerms));
  GRASP_RETURN_IF_ERROR(ValidateBlobOffsets(
      ii_bucket_offsets, ii_bucket_terms.size(), "length-bucket"));
  if (ii_bucket_terms.size() != vocab) {
    return Status::InvalidArgument(
        "snapshot: length-bucket terms do not match vocabulary");
  }
  {
    // Each term index must appear exactly once, inside the bucket of its
    // own text length — the fuzzy prefilter derives boundary bytes and
    // signatures assuming exactly that placement.
    std::vector<bool> seen(vocab, false);
    std::size_t bucket = 0;
    for (std::size_t i = 0; i < ii_bucket_terms.size(); ++i) {
      const std::uint32_t t = ii_bucket_terms[i];
      if (t >= vocab || seen[t]) {
        return Status::InvalidArgument(
            "snapshot: length-bucket terms are not a permutation");
      }
      seen[t] = true;
      while (bucket + 2 < ii_bucket_offsets.size() &&
             i >= ii_bucket_offsets[bucket + 1]) {
        ++bucket;
      }
      const std::size_t term_len = ii_term_offsets[t + 1] - ii_term_offsets[t];
      if (term_len != bucket) {
        return Status::InvalidArgument(
            "snapshot: term bucketed under the wrong length");
      }
    }
  }

  // --- Materialize --------------------------------------------------------
  // Everything below is linear assembly of already-validated data; no
  // further reads can go out of bounds.
  LoadedEngineParts parts;
  parts.analyzer_options.lowercase = (meta.analyzer_flags & kFlagLowercase);
  parts.analyzer_options.split_camel_case =
      (meta.analyzer_flags & kFlagSplitCamelCase);
  parts.analyzer_options.drop_stopwords =
      (meta.analyzer_flags & kFlagDropStopwords);
  parts.analyzer_options.stem = (meta.analyzer_flags & kFlagStem);
  parts.analyzer_options.emit_compound =
      (meta.analyzer_flags & kFlagEmitCompound);
  parts.analyzer_options.min_token_length =
      static_cast<std::size_t>(meta.analyzer_min_token_length);

  parts.dictionary =
      std::make_unique<rdf::Dictionary>(rdf::Dictionary::FromSnapshotParts(
          FlatStorage<std::uint8_t>::Borrow(dict_kinds),
          FlatStorage<std::uint64_t>::Borrow(dict_offsets),
          FlatStorage<char>::Borrow(dict_text)));
  parts.store =
      std::make_unique<rdf::TripleStore>(rdf::TripleStore::FromSnapshotParts(
          FlatStorage<rdf::Triple>::Borrow(triples),
          FlatStorage<std::uint32_t>::Borrow(pos),
          FlatStorage<std::uint32_t>::Borrow(osp), std::move(stats)));

  rdf::DataGraph::SnapshotScalars dscal;
  dscal.num_entities = static_cast<std::size_t>(meta.num_entities);
  dscal.num_classes = static_cast<std::size_t>(meta.num_classes);
  dscal.num_values = static_cast<std::size_t>(meta.num_values);
  dscal.type_term = meta.type_term;
  dscal.subclass_term = meta.subclass_term;
  parts.data_graph =
      std::make_unique<rdf::DataGraph>(rdf::DataGraph::FromSnapshotParts(
          *parts.dictionary,
          graph::CsrGraph<rdf::Vertex, rdf::Edge>::FromParts(
              FlatStorage<rdf::Vertex>::Borrow(data_nodes),
              FlatStorage<rdf::Edge>::Borrow(data_edges),
              BorrowCsr(out_offsets, out_values),
              BorrowCsr(in_offsets, in_values), graph::CsrArray()),
          BorrowCsr(class_offsets, class_values),
          FlatStorage<rdf::VertexId>::Borrow(term_vertex), dscal));

  summary::SummaryGraph::SnapshotScalars sscal;
  sscal.thing_node = meta.thing_node;
  sscal.total_entities = meta.total_entities;
  sscal.total_relation_edges = meta.total_relation_edges;
  parts.summary = std::make_unique<summary::SummaryGraph>(
      summary::SummaryGraph::FromSnapshotParts(
          summary::SummaryGraph::Csr::FromParts(
              FlatStorage<summary::SummaryNode>::Borrow(summary_nodes),
              FlatStorage<summary::SummaryEdge>::Borrow(summary_edges),
              graph::CsrArray(), graph::CsrArray(),
              BorrowCsr(inc_offsets, inc_values)),
          sscal));

  // The entire keyword index — vocabulary blob, sorted permutation,
  // postings CSR, element/context tables, numeric range index — is
  // borrowed zero-copy from the mapping.
  parts.keyword_index = std::make_unique<keyword::KeywordIndex>(
      keyword::KeywordIndex::FromSnapshotParts(
          text::InvertedIndex::FromSnapshotParts(
              parts.analyzer_options,
              FlatStorage<std::uint32_t>::Borrow(ii_term_offsets),
              FlatStorage<char>::Borrow(ii_term_text),
              FlatStorage<std::uint32_t>::Borrow(ii_sorted_terms),
              FlatStorage<std::uint32_t>::Borrow(ii_posting_offsets),
              FlatStorage<text::InvertedIndex::Posting>::Borrow(ii_postings),
              FlatStorage<std::uint32_t>::Borrow(ii_doc_term_counts),
              FlatStorage<std::uint32_t>::Borrow(ii_bucket_offsets),
              FlatStorage<std::uint32_t>::Borrow(ii_bucket_terms)),
          FlatStorage<ElementRecord>::Borrow(kw_elements),
          FlatStorage<ContextRecord>::Borrow(kw_contexts),
          FlatStorage<TermId>::Borrow(kw_ctx_classes),
          FlatStorage<std::uint64_t>::Borrow(kw_ctx_counts),
          FlatStorage<NumericValueRecord>::Borrow(kw_numeric)));

  parts.mapping = std::move(reader).TakeMapping();
  parts.load_millis = timer.ElapsedMillis();
  return parts;
}

}  // namespace grasp::snapshot
