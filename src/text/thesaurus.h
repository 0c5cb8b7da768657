#ifndef GRASP_TEXT_THESAURUS_H_
#define GRASP_TEXT_THESAURUS_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace grasp::text {

/// Semantic relatedness table standing in for WordNet (see PAPER.md,
/// "Substitutions").
/// The engine only needs `related(term) -> {term, weight}` where the weight
/// discounts the matching score sm(n); this class provides exactly that,
/// pre-populated with a curated table for the bibliographic / university /
/// encyclopedic domains of the evaluation datasets, and extensible at
/// runtime.
///
/// All terms are normalized (lower-cased, Porter-stemmed) on insertion and
/// lookup so entries align with the inverted index vocabulary.
class Thesaurus {
 public:
  enum class Relation { kSynonym, kHypernym, kHyponym };

  struct Entry {
    std::string term;    ///< normalized related term
    Relation relation;
    double weight;       ///< semantic similarity in (0, 1)
  };

  Thesaurus() = default;

  /// Registers a symmetric synonym pair.
  void AddSynonym(std::string_view a, std::string_view b,
                  double weight = kSynonymWeight);

  /// Registers `broad` as a hypernym of `narrow` (and the hyponym edge back).
  void AddHypernym(std::string_view narrow, std::string_view broad,
                   double weight = kTaxonomyWeight);

  /// Related entries for a (raw, un-normalized) term. Deduplicated, best
  /// weight wins; never contains the term itself.
  std::vector<Entry> Lookup(std::string_view term) const;

  std::size_t size() const { return related_.size(); }

  /// The curated built-in table used by the evaluation.
  static Thesaurus BuiltIn();

  static constexpr double kSynonymWeight = 0.9;
  static constexpr double kTaxonomyWeight = 0.7;

 private:
  void AddDirected(std::string normalized_from, std::string normalized_to,
                   Relation relation, double weight);
  static std::string Normalize(std::string_view term);

  std::unordered_map<std::string, std::vector<Entry>> related_;
};

}  // namespace grasp::text

#endif  // GRASP_TEXT_THESAURUS_H_
