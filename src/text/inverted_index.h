#ifndef GRASP_TEXT_INVERTED_INDEX_H_
#define GRASP_TEXT_INVERTED_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/aligned.h"
#include "common/flat_storage.h"
#include "common/free_list_pool.h"
#include "text/thesaurus.h"
#include "text/tokenizer.h"

namespace grasp::text {

/// A small IR engine over short labels: the functional replacement for the
/// paper's use of Lucene (Sec. IV-A). Documents are element labels; search
/// combines exact term matching, thesaurus expansion (semantic similarity)
/// and Levenshtein-based fuzzy matching (syntactic similarity) into one
/// score per document in (0, 1].
///
/// After Finalize the whole index is flat: the vocabulary is one text blob
/// with offsets plus a lexicographically sorted permutation (exact lookups
/// binary-search it — no string hash to rebuild), and postings are one CSR
/// array. Every one of these arrays can be serialized as-is and mapped back
/// zero-copy from an index snapshot.
class InvertedIndex {
 public:
  using DocId = std::uint32_t;

  explicit InvertedIndex(AnalyzerOptions options = {})
      : analyzer_options_(options),
        scratch_pool_(std::make_unique<FreeListPool<SearchScratch>>()) {}

  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;
  InvertedIndex(InvertedIndex&&) = default;
  InvertedIndex& operator=(InvertedIndex&&) = default;

  /// Adds a label; returns its document id (dense, starting at 0). Must not
  /// be called after Finalize().
  DocId AddDocument(std::string_view label);

  /// Freezes the index: flattens the vocabulary and postings into their
  /// snapshot-ready form and builds the fuzzy-scan length buckets.
  /// Idempotent.
  void Finalize();

  struct SearchOptions {
    /// Enables the Levenshtein vocabulary scan.
    bool fuzzy = true;
    /// Hard cap on edit distance; the effective cap also shrinks for short
    /// tokens (min(max_edit_distance, token_len / 3)).
    std::size_t max_edit_distance = 2;
    /// Candidate terms below this similarity are dropped.
    double min_similarity = 0.55;
    /// Optional semantic expansion table; nullptr disables it.
    const Thesaurus* thesaurus = nullptr;
    /// Weighs rarer terms higher (the paper's suggested TF/IDF adoption).
    bool use_idf = true;
    /// Discounts long labels: a single-token hit on a three-word title
    /// scores higher than the same hit on a six-word title (the coverage
    /// factor sqrt(matched tokens / label length), capped at 1).
    bool length_normalize = true;
    /// 0 = unlimited.
    std::size_t max_results = 0;
  };

  struct Hit {
    DocId doc;
    double score;  ///< in (0, 1]
  };

  /// One postings entry: the document and the term's frequency within it.
  struct Posting {
    DocId doc;
    std::uint32_t tf;
  };

  /// Rebuilds a finalized index from snapshot parts, all typically borrowed
  /// straight from the mapping: the vocabulary blob/offsets, its sorted
  /// permutation, the flat postings CSR, the per-document token counts and
  /// the fuzzy-scan length buckets (CSR over term indexes, bucket = term
  /// length). Only the small per-term prefilter arrays are re-derived (one
  /// linear sweep); no tokenization, hashing, stemming or sorting happens.
  static InvertedIndex FromSnapshotParts(
      AnalyzerOptions analyzer_options,
      FlatStorage<std::uint32_t> term_offsets, FlatStorage<char> term_blob,
      FlatStorage<std::uint32_t> sorted_terms,
      FlatStorage<std::uint32_t> posting_offsets, FlatStorage<Posting> postings,
      FlatStorage<std::uint32_t> doc_term_counts,
      FlatStorage<std::uint32_t> bucket_offsets,
      FlatStorage<std::uint32_t> bucket_terms);

  /// Scores documents against a (possibly multi-token) keyword. A document's
  /// score averages its per-token best similarity; tokens without any match
  /// contribute 0, so partial matches are penalized proportionally. Results
  /// are sorted by descending score. Requires Finalize().
  std::vector<Hit> Search(std::string_view keyword,
                          const SearchOptions& options) const;
  std::vector<Hit> Search(std::string_view keyword) const {
    return Search(keyword, SearchOptions{});
  }

  std::size_t num_documents() const {
    return finalized_ ? doc_term_counts_.size()
                      : building_doc_term_counts_.size();
  }
  std::size_t vocabulary_size() const {
    return finalized_ ? term_offsets_.size() - 1 : building_terms_.size();
  }
  const AnalyzerOptions& analyzer_options() const { return analyzer_options_; }

  /// Raw finalized contents, for snapshot serialization.
  std::span<const std::uint32_t> term_offsets() const {
    return term_offsets_.view();
  }
  std::span<const char> term_blob() const { return term_blob_.view(); }
  std::span<const std::uint32_t> sorted_terms() const {
    return sorted_terms_.view();
  }
  std::span<const std::uint32_t> posting_offsets() const {
    return posting_offsets_.view();
  }
  std::span<const Posting> postings() const { return postings_.view(); }
  std::span<const std::uint32_t> doc_term_counts() const {
    return doc_term_counts_.view();
  }
  std::span<const std::uint32_t> bucket_offsets() const {
    return bucket_offsets_.view();
  }
  std::span<const std::uint32_t> bucket_terms() const {
    return bucket_terms_.view();
  }

  /// Approximate owned heap footprint in bytes (Fig. 6b keyword-index
  /// size); mmap-backed snapshot storage counts zero here.
  std::size_t MemoryUsageBytes() const;

 private:
  using TermIdx = std::uint32_t;

  /// Candidate vocabulary term matched by one query token.
  struct Candidate {
    TermIdx term;
    double similarity;
  };

  /// Pooled per-query state. The dense per-document arrays use sentinel /
  /// zero resting values (`best` all -1.0, `sum` all 0.0, `matched` all 0)
  /// that each query restores via its touched lists before releasing the
  /// scratch, so a query costs O(docs touched), not O(num_documents), after
  /// the first acquisition sized the arrays.
  struct SearchScratch {
    AlignedVector<double> best;            ///< per-doc best this token; -1 = untouched
    AlignedVector<double> sum;             ///< per-doc summed best over tokens
    AlignedVector<std::uint32_t> matched;  ///< per-doc count of matched tokens
    AlignedVector<std::uint32_t> token_touched;  ///< docs touched by this token
    AlignedVector<std::uint32_t> all_touched;    ///< docs touched by any token
    std::vector<Candidate> candidates;

    std::size_t OwnedBytes() const {
      return best.capacity() * sizeof(double) + sum.capacity() * sizeof(double) +
             (matched.capacity() + token_touched.capacity() +
              all_touched.capacity()) *
                 sizeof(std::uint32_t) +
             candidates.capacity() * sizeof(Candidate);
    }
  };

  TermIdx InternTerm(const std::string& term);
  void BuildLengthBuckets();
  void BuildBucketPrefilter();
  std::string_view TermText(TermIdx term) const {
    return {term_blob_.data() + term_offsets_[term],
            static_cast<std::size_t>(term_offsets_[term + 1] -
                                     term_offsets_[term])};
  }
  /// Binary search over the sorted vocabulary permutation; returns
  /// vocabulary_size() when absent. Requires Finalize().
  TermIdx ExactTerm(std::string_view token) const;
  std::span<const Posting> PostingsOf(TermIdx term) const {
    return postings_.view().subspan(
        posting_offsets_[term],
        posting_offsets_[term + 1] - posting_offsets_[term]);
  }
  void CollectCandidates(const std::string& token,
                         const SearchOptions& options,
                         std::vector<Candidate>* candidates) const;
  double TermWeight(TermIdx term, const SearchOptions& options) const;

  AnalyzerOptions analyzer_options_;
  /// Build-time state, cleared by Finalize (the flat arrays replace it).
  std::unordered_map<std::string, TermIdx> term_ids_;
  std::vector<std::string> building_terms_;
  std::vector<std::vector<Posting>> building_postings_;
  AlignedVector<std::uint32_t> building_doc_term_counts_;
  /// Finalized vocabulary: blob + offsets (vocabulary_size() + 1 entries)
  /// + lexicographically sorted term permutation.
  FlatStorage<std::uint32_t> term_offsets_;
  FlatStorage<char> term_blob_;
  FlatStorage<std::uint32_t> sorted_terms_;
  /// Flat postings CSR (offsets has vocabulary_size() + 1 entries).
  FlatStorage<std::uint32_t> posting_offsets_;
  FlatStorage<Posting> postings_;
  FlatStorage<std::uint32_t> doc_term_counts_;
  /// Term indexes bucketed by term length in CSR form (bucket_offsets_ has
  /// max_term_len + 2 entries; bucket_terms_ lists every term index once,
  /// ascending within each bucket), snapshot-serialized as-is. The parallel
  /// per-term prefilter arrays — first byte, last byte, character-presence
  /// signature, in bucket_terms_ order — are derived locally on (re)build
  /// and feed the fuzzy-reject sweep.
  FlatStorage<std::uint32_t> bucket_offsets_;
  FlatStorage<std::uint32_t> bucket_terms_;
  AlignedVector<unsigned char> bucket_first_;
  AlignedVector<unsigned char> bucket_last_;
  AlignedVector<std::uint32_t> bucket_sigs_;
  /// Reusable per-query scratch; a unique_ptr because the pool itself is
  /// neither copyable nor movable while InvertedIndex must stay movable.
  mutable std::unique_ptr<FreeListPool<SearchScratch>> scratch_pool_;
  bool finalized_ = false;
};

}  // namespace grasp::text

#endif  // GRASP_TEXT_INVERTED_INDEX_H_
