#include "keyword/keyword_index.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "common/aligned.h"
#include "common/logging.h"
#include "rdf/term.h"

namespace grasp::keyword {
namespace {

using rdf::TermId;

/// Classes a subject vertex contributes to an attribute context: its `type`
/// targets, `Thing` when untyped, or the class itself for schema-level
/// attribute assertions (e.g. a label on a class).
std::vector<TermId> SubjectClasses(const rdf::DataGraph& graph,
                                   rdf::VertexId subject) {
  const rdf::Vertex& v = graph.vertex(subject);
  if (v.kind == rdf::VertexKind::kClass) return {v.term};
  std::vector<TermId> classes;
  for (rdf::VertexId c : graph.ClassesOf(subject)) {
    classes.push_back(graph.vertex(c).term);
  }
  if (classes.empty()) classes.push_back(rdf::kThingTerm);
  return classes;
}

}  // namespace

KeywordIndex KeywordIndex::Build(const rdf::DataGraph& graph,
                                 text::AnalyzerOptions analyzer_options) {
  KeywordIndex ki;
  ki.index_ = text::InvertedIndex(analyzer_options);
  const rdf::Dictionary& dict = graph.dictionary();

  // Gather contexts in ordered maps so index construction is deterministic.
  // The per-class values count how many data A-edges each context
  // aggregates; they become |e_agg| of the augmented edges.
  std::map<TermId, std::set<TermId>> relation_labels;  // label -> (unused)
  std::map<TermId, std::map<TermId, std::uint64_t>>
      attribute_classes;  // label -> class -> edge count
  // value vertex -> attribute label -> class -> edge count
  std::map<rdf::VertexId, std::map<TermId, std::map<TermId, std::uint64_t>>>
      value_contexts;

  for (const rdf::Edge& e : graph.edges()) {
    switch (e.kind) {
      case rdf::EdgeKind::kRelation: {
        relation_labels[e.label];
        break;
      }
      case rdf::EdgeKind::kAttribute: {
        std::vector<TermId> classes = SubjectClasses(graph, e.from);
        auto& label_counts = attribute_classes[e.label];
        auto& value_counts = value_contexts[e.to][e.label];
        for (TermId cls : classes) {
          ++label_counts[cls];
          ++value_counts[cls];
        }
        break;
      }
      case rdf::EdgeKind::kType:
      case rdf::EdgeKind::kSubclass:
        break;  // structural; classes are indexed from the vertex list
    }
  }

  // The flat element/context tables, built in document-id order.
  AlignedVector<ElementRecord> elements;
  AlignedVector<ContextRecord> contexts;
  AlignedVector<TermId> ctx_classes;
  AlignedVector<std::uint64_t> ctx_counts;
  AlignedVector<NumericValueRecord> numerics;

  auto add = [&](std::string_view label, KeywordMatch::Kind kind,
                 TermId term) {
    const auto doc = ki.index_.AddDocument(label);
    GRASP_CHECK_EQ(static_cast<std::size_t>(doc), elements.size());
    const std::uint32_t at = static_cast<std::uint32_t>(contexts.size());
    elements.push_back(
        ElementRecord{static_cast<std::uint32_t>(kind), term, at, at});
  };
  auto append_context =
      [&](TermId attribute,
          const std::map<TermId, std::uint64_t>& class_counts) {
        ContextRecord ctx{attribute,
                          static_cast<std::uint32_t>(ctx_classes.size()), 0,
                          0};
        for (const auto& [cls, count] : class_counts) {
          ctx_classes.push_back(cls);
          ctx_counts.push_back(count);
        }
        ctx.entry_end = static_cast<std::uint32_t>(ctx_classes.size());
        contexts.push_back(ctx);
        elements.back().ctx_end = static_cast<std::uint32_t>(contexts.size());
      };

  // C-vertices, indexed by the local name of their IRI.
  for (const rdf::Vertex& v : graph.vertices()) {
    if (v.kind != rdf::VertexKind::kClass) continue;
    add(rdf::IriLocalName(dict.text(v.term)), KeywordMatch::Kind::kClass,
        v.term);
  }

  // R-edge labels.
  for (const auto& [label, unused] : relation_labels) {
    (void)unused;
    add(rdf::IriLocalName(dict.text(label)),
        KeywordMatch::Kind::kRelationLabel, label);
  }

  // A-edge labels, with the classes of their subjects attached
  // ([A-edge, (C-vertex_1..n)]).
  for (const auto& [label, class_counts] : attribute_classes) {
    add(rdf::IriLocalName(dict.text(label)),
        KeywordMatch::Kind::kAttributeLabel, label);
    append_context(label, class_counts);
  }

  // V-vertices, indexed by literal text, with their
  // [V-vertex, A-edge, (C-vertex_1..n)] contexts. Numeric values also enter
  // the sorted range index behind the filter-operator extension.
  for (const auto& [value_vertex, per_attr] : value_contexts) {
    const TermId value_term = graph.vertex(value_vertex).term;
    const std::uint32_t element_index =
        static_cast<std::uint32_t>(elements.size());
    add(dict.text(value_term), KeywordMatch::Kind::kValue, value_term);
    for (const auto& [attr, class_counts] : per_attr) {
      append_context(attr, class_counts);
    }
    if (const auto numeric = ParseNumericLiteral(dict.text(value_term))) {
      numerics.push_back(NumericValueRecord{*numeric, element_index, 0});
    }
  }
  std::sort(numerics.begin(), numerics.end(),
            [](const NumericValueRecord& a, const NumericValueRecord& b) {
              if (a.value != b.value) return a.value < b.value;
              return a.element < b.element;
            });

  ki.elements_ = FlatStorage<ElementRecord>(std::move(elements));
  ki.contexts_ = FlatStorage<ContextRecord>(std::move(contexts));
  ki.context_classes_ = FlatStorage<TermId>(std::move(ctx_classes));
  ki.context_counts_ = FlatStorage<std::uint64_t>(std::move(ctx_counts));
  ki.numeric_values_ = FlatStorage<NumericValueRecord>(std::move(numerics));
  ki.index_.Finalize();
  return ki;
}

KeywordIndex KeywordIndex::FromSnapshotParts(
    text::InvertedIndex index, FlatStorage<ElementRecord> elements,
    FlatStorage<ContextRecord> contexts, FlatStorage<TermId> context_classes,
    FlatStorage<std::uint64_t> context_counts,
    FlatStorage<NumericValueRecord> numeric_values) {
  GRASP_CHECK_EQ(index.num_documents(), elements.size());
  KeywordIndex ki;
  ki.index_ = std::move(index);
  ki.elements_ = std::move(elements);
  ki.contexts_ = std::move(contexts);
  ki.context_classes_ = std::move(context_classes);
  ki.context_counts_ = std::move(context_counts);
  ki.numeric_values_ = std::move(numeric_values);
  return ki;
}

std::vector<AttrContext> KeywordIndex::ContextsOf(
    const ElementRecord& element) const {
  std::vector<AttrContext> result;
  result.reserve(element.ctx_end - element.ctx_begin);
  for (std::uint32_t c = element.ctx_begin; c < element.ctx_end; ++c) {
    const ContextRecord& rec = contexts_[c];
    AttrContext ctx;
    ctx.attribute = rec.attribute;
    ctx.classes.assign(context_classes_.begin() + rec.entry_begin,
                       context_classes_.begin() + rec.entry_end);
    ctx.counts.assign(context_counts_.begin() + rec.entry_begin,
                      context_counts_.begin() + rec.entry_end);
    result.push_back(std::move(ctx));
  }
  return result;
}

std::optional<KeywordMatch> KeywordIndex::LookupFilter(
    const FilterSpec& filter) const {
  // strtod reads ">inf", ">nan" and ">1e999"; a comparison with a value
  // that is not finite selects nothing meaningful.
  if (!std::isfinite(filter.value)) return std::nullopt;
  // Merge the contexts of every satisfying numeric value: count per
  // (attribute, class) pair.
  std::map<TermId, std::map<TermId, std::uint64_t>> merged;
  bool any = false;
  for (const NumericValueRecord& numeric : numeric_values_) {
    if (!EvalFilterOp(filter.op, numeric.value, filter.value)) continue;
    any = true;
    const ElementRecord& element = elements_[numeric.element];
    for (std::uint32_t c = element.ctx_begin; c < element.ctx_end; ++c) {
      const ContextRecord& rec = contexts_[c];
      auto& class_counts = merged[rec.attribute];
      for (std::uint32_t i = rec.entry_begin; i < rec.entry_end; ++i) {
        class_counts[context_classes_[i]] += context_counts_[i];
      }
    }
  }
  if (!any) return std::nullopt;

  KeywordMatch match;
  match.kind = KeywordMatch::Kind::kValue;
  match.term = rdf::kInvalidTermId;
  match.score = 1.0;  // the operator is an exact, unambiguous specification
  match.is_filter = true;
  match.filter = filter;
  for (const auto& [attr, class_counts] : merged) {
    AttrContext ctx;
    ctx.attribute = attr;
    for (const auto& [cls, count] : class_counts) {
      ctx.classes.push_back(cls);
      ctx.counts.push_back(count);
    }
    match.contexts.push_back(std::move(ctx));
  }
  return match;
}

std::vector<KeywordMatch> KeywordIndex::Lookup(
    std::string_view keyword,
    const text::InvertedIndex::SearchOptions& options) const {
  std::vector<KeywordMatch> matches;
  for (const text::InvertedIndex::Hit& hit : index_.Search(keyword, options)) {
    const ElementRecord& element = elements_[hit.doc];
    KeywordMatch match;
    match.kind = static_cast<KeywordMatch::Kind>(element.kind);
    match.term = element.term;
    match.score = hit.score;
    match.contexts = ContextsOf(element);
    matches.push_back(std::move(match));
  }
  return matches;
}

std::size_t KeywordIndex::MemoryUsageBytes() const {
  return index_.MemoryUsageBytes() + elements_.OwnedBytes() +
         contexts_.OwnedBytes() + context_classes_.OwnedBytes() +
         context_counts_.OwnedBytes() + numeric_values_.OwnedBytes();
}

}  // namespace grasp::keyword
