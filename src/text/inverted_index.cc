#include "text/inverted_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <numeric>

#include "common/logging.h"
#include "text/levenshtein.h"

namespace grasp::text {
namespace {

// 32-bit character-presence signature for the fuzzy prefilter: bit
// 1u << (c & 31) per byte. Folding distinct characters into one class only
// weakens the derived edit-distance lower bound, never strengthens it.
std::uint32_t CharSignature(std::string_view text) {
  std::uint32_t sig = 0;
  for (const char c : text) {
    sig |= 1u << (static_cast<unsigned char>(c) & 31);
  }
  return sig;
}

// Banded-Levenshtein prefilter for one term against the query: keeps the
// term iff
//   (first != qf) + (last != ql) <= max_dist
//   && popcount(qsig & ~sig) <= max_dist
//   && popcount(sig & ~qsig) <= max_dist
// All three are lower bounds on the true edit distance (each edit fixes at
// most one boundary character / one presence-set element, and the &31
// folding only merges classes), so no true candidate is ever rejected. Both
// strings must be at least two characters long, which the first/last
// character bound needs.
bool FuzzyPrefilterKeeps(unsigned char first, unsigned char last,
                         std::uint32_t sig, unsigned char qf,
                         unsigned char ql, std::uint32_t qsig,
                         std::uint32_t max_dist) {
  const std::uint32_t boundary = static_cast<std::uint32_t>(first != qf) +
                                 static_cast<std::uint32_t>(last != ql);
  return boundary <= max_dist &&
         static_cast<std::uint32_t>(std::popcount(qsig & ~sig)) <= max_dist &&
         static_cast<std::uint32_t>(std::popcount(sig & ~qsig)) <= max_dist;
}

}  // namespace

InvertedIndex::TermIdx InvertedIndex::InternTerm(const std::string& term) {
  auto it = term_ids_.find(term);
  if (it != term_ids_.end()) return it->second;
  const TermIdx idx = static_cast<TermIdx>(building_terms_.size());
  term_ids_.emplace(term, idx);
  building_terms_.push_back(term);
  building_postings_.emplace_back();
  return idx;
}

InvertedIndex::DocId InvertedIndex::AddDocument(std::string_view label) {
  GRASP_CHECK(!finalized_) << "AddDocument after Finalize";
  const DocId doc = static_cast<DocId>(building_doc_term_counts_.size());
  std::vector<std::string> terms = Analyze(label, analyzer_options_);
  // The label length used by the coverage factor excludes the synthetic
  // compound term, which exists only as an extra way to hit the label.
  AnalyzerOptions without_compound = analyzer_options_;
  without_compound.emit_compound = false;
  building_doc_term_counts_.push_back(static_cast<std::uint32_t>(
      Analyze(label, without_compound).size()));
  // Aggregate term frequencies within the label.
  std::sort(terms.begin(), terms.end());
  for (std::size_t i = 0; i < terms.size();) {
    std::size_t j = i;
    while (j < terms.size() && terms[j] == terms[i]) ++j;
    const TermIdx idx = InternTerm(terms[i]);
    building_postings_[idx].push_back(
        Posting{doc, static_cast<std::uint32_t>(j - i)});
    i = j;
  }
  return doc;
}

InvertedIndex InvertedIndex::FromSnapshotParts(
    AnalyzerOptions analyzer_options, FlatStorage<std::uint32_t> term_offsets,
    FlatStorage<char> term_blob, FlatStorage<std::uint32_t> sorted_terms,
    FlatStorage<std::uint32_t> posting_offsets, FlatStorage<Posting> postings,
    FlatStorage<std::uint32_t> doc_term_counts,
    FlatStorage<std::uint32_t> bucket_offsets,
    FlatStorage<std::uint32_t> bucket_terms) {
  GRASP_CHECK_EQ(term_offsets.size(), posting_offsets.size());
  GRASP_CHECK_EQ(sorted_terms.size() + 1, term_offsets.size());
  GRASP_CHECK_EQ(bucket_terms.size() + 1, term_offsets.size());
  InvertedIndex index(analyzer_options);
  index.term_offsets_ = std::move(term_offsets);
  index.term_blob_ = std::move(term_blob);
  index.sorted_terms_ = std::move(sorted_terms);
  index.posting_offsets_ = std::move(posting_offsets);
  index.postings_ = std::move(postings);
  index.doc_term_counts_ = std::move(doc_term_counts);
  index.bucket_offsets_ = std::move(bucket_offsets);
  index.bucket_terms_ = std::move(bucket_terms);
  index.finalized_ = true;
  index.BuildBucketPrefilter();
  return index;
}

void InvertedIndex::BuildLengthBuckets() {
  // Counting sort of term indexes by term length into CSR form; iterating
  // term indexes in ascending order keeps each bucket's terms ascending.
  const std::size_t vocab = vocabulary_size();
  std::size_t max_len = 0;
  for (TermIdx t = 0; t < vocab; ++t) {
    max_len = std::max(max_len, TermText(t).size());
  }
  AlignedVector<std::uint32_t> offsets(max_len + 2, 0);
  for (TermIdx t = 0; t < vocab; ++t) {
    ++offsets[TermText(t).size() + 1];
  }
  for (std::size_t l = 0; l + 1 < offsets.size(); ++l) {
    offsets[l + 1] += offsets[l];
  }
  AlignedVector<std::uint32_t> terms(vocab);
  std::vector<std::uint32_t> fill(offsets.begin(), offsets.end() - 1);
  for (TermIdx t = 0; t < vocab; ++t) {
    terms[fill[TermText(t).size()]++] = t;
  }
  bucket_offsets_ = FlatStorage<std::uint32_t>(std::move(offsets));
  bucket_terms_ = FlatStorage<std::uint32_t>(std::move(terms));
  BuildBucketPrefilter();
}

void InvertedIndex::BuildBucketPrefilter() {
  // Per-term boundary bytes and character signatures, in bucket_terms_
  // order so the fuzzy sweep reads all three arrays contiguously. Cheap to
  // derive, so snapshots store only the CSR buckets.
  const std::size_t vocab = bucket_terms_.size();
  bucket_first_.assign(vocab, 0);
  bucket_last_.assign(vocab, 0);
  bucket_sigs_.assign(vocab, 0);
  for (std::size_t i = 0; i < vocab; ++i) {
    const std::string_view text = TermText(bucket_terms_[i]);
    if (text.empty()) continue;
    bucket_first_[i] = static_cast<unsigned char>(text.front());
    bucket_last_[i] = static_cast<unsigned char>(text.back());
    bucket_sigs_[i] = CharSignature(text);
  }
}

void InvertedIndex::Finalize() {
  if (finalized_) return;
  // Flatten the vocabulary into blob + offsets + sorted permutation, and
  // the per-term postings into one CSR array. Lookups then binary-search /
  // scan contiguous memory, and a snapshot can serialize (and mmap back)
  // every array without per-term indirection.
  const std::size_t vocab = building_terms_.size();
  AlignedVector<std::uint32_t> term_offsets(vocab + 1, 0);
  std::size_t blob_bytes = 0;
  for (const std::string& t : building_terms_) blob_bytes += t.size();
  GRASP_CHECK_LE(blob_bytes, static_cast<std::size_t>(UINT32_MAX));
  AlignedVector<char> blob;
  blob.reserve(blob_bytes);
  for (TermIdx t = 0; t < vocab; ++t) {
    term_offsets[t] = static_cast<std::uint32_t>(blob.size());
    blob.insert(blob.end(), building_terms_[t].begin(),
                building_terms_[t].end());
  }
  term_offsets[vocab] = static_cast<std::uint32_t>(blob.size());

  AlignedVector<std::uint32_t> sorted(vocab);
  std::iota(sorted.begin(), sorted.end(), 0u);
  std::sort(sorted.begin(), sorted.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return building_terms_[a] < building_terms_[b];
            });

  AlignedVector<std::uint32_t> posting_offsets(vocab + 1, 0);
  std::size_t total = 0;
  for (const auto& plist : building_postings_) total += plist.size();
  GRASP_CHECK_LE(total, static_cast<std::size_t>(UINT32_MAX));
  AlignedVector<Posting> flat;
  flat.reserve(total);
  for (TermIdx t = 0; t < building_postings_.size(); ++t) {
    posting_offsets[t] = static_cast<std::uint32_t>(flat.size());
    flat.insert(flat.end(), building_postings_[t].begin(),
                building_postings_[t].end());
  }
  posting_offsets[vocab] = static_cast<std::uint32_t>(flat.size());

  term_offsets_ = FlatStorage<std::uint32_t>(std::move(term_offsets));
  term_blob_ = FlatStorage<char>(std::move(blob));
  sorted_terms_ = FlatStorage<std::uint32_t>(std::move(sorted));
  posting_offsets_ = FlatStorage<std::uint32_t>(std::move(posting_offsets));
  postings_ = FlatStorage<Posting>(std::move(flat));
  doc_term_counts_ =
      FlatStorage<std::uint32_t>(std::move(building_doc_term_counts_));
  term_ids_.clear();
  building_terms_.clear();
  building_terms_.shrink_to_fit();
  building_postings_.clear();
  building_postings_.shrink_to_fit();
  building_doc_term_counts_.clear();
  building_doc_term_counts_.shrink_to_fit();
  finalized_ = true;
  BuildLengthBuckets();
}

InvertedIndex::TermIdx InvertedIndex::ExactTerm(std::string_view token) const {
  const auto begin = sorted_terms_.begin();
  const auto end = sorted_terms_.end();
  auto it = std::lower_bound(begin, end, token,
                             [this](TermIdx term, std::string_view t) {
                               return TermText(term) < t;
                             });
  if (it != end && TermText(*it) == token) return *it;
  return static_cast<TermIdx>(vocabulary_size());
}

double InvertedIndex::TermWeight(TermIdx term,
                                 const SearchOptions& options) const {
  if (!options.use_idf) return 1.0;
  const double n = static_cast<double>(std::max<std::size_t>(1, num_documents()));
  const double df = static_cast<double>(PostingsOf(term).size());
  // Mild IDF in (0.5, 1]: discriminative terms score higher without letting
  // frequency dominate the syntactic/semantic similarity.
  const double idf = std::log(1.0 + n / df) / std::log(1.0 + n);
  return 0.5 + 0.5 * idf;
}

void InvertedIndex::CollectCandidates(const std::string& token,
                                      const SearchOptions& options,
                                      std::vector<Candidate>* candidates) const {
  const TermIdx absent = static_cast<TermIdx>(vocabulary_size());
  auto add = [&](TermIdx term, double similarity) {
    if (similarity < options.min_similarity) return;
    for (Candidate& c : *candidates) {
      if (c.term == term) {
        c.similarity = std::max(c.similarity, similarity);
        return;
      }
    }
    candidates->push_back(Candidate{term, similarity});
  };

  // 1) Exact vocabulary match.
  const TermIdx exact = ExactTerm(token);
  if (exact != absent) add(exact, 1.0);

  // 2) Semantic expansion via the thesaurus (WordNet stand-in).
  if (options.thesaurus != nullptr) {
    for (const Thesaurus::Entry& entry : options.thesaurus->Lookup(token)) {
      const TermIdx term = ExactTerm(entry.term);
      if (term != absent) add(term, entry.weight);
    }
  }

  // 3) Syntactic (fuzzy) matching over the vocabulary, banded by length.
  // The length band [lo, hi] is one contiguous run of the CSR bucket array,
  // so one sweep over the per-term prefilter arrays rejects the bulk of the
  // band on conservative edit-distance lower bounds, and only the survivors
  // pay for banded-Levenshtein DP. The prefilter never drops a true
  // candidate (every bound is exact-conservative), so the resulting
  // candidate set — and with it every query result — is identical to the
  // full scan's.
  if (options.fuzzy && !token.empty()) {
    const std::size_t len = token.size();
    const std::size_t max_dist =
        std::min(options.max_edit_distance, len / 3);
    const std::size_t max_bucket =
        bucket_offsets_.size() > 1 ? bucket_offsets_.size() - 2 : 0;
    if (max_dist > 0 && bucket_offsets_.size() > 1) {
      // max_dist > 0 implies len >= 3, so lo >= len - len/3 >= 2: both the
      // query token and every banded term are at least two characters, as
      // the prefilter's first/last-character bound requires.
      const std::size_t lo = len > max_dist ? len - max_dist : 1;
      const std::size_t hi = std::min(max_bucket, len + max_dist);
      if (lo <= hi) {
        const auto qf = static_cast<unsigned char>(token.front());
        const auto ql = static_cast<unsigned char>(token.back());
        const std::uint32_t qsig = CharSignature(token);
        const auto bound = static_cast<std::uint32_t>(max_dist);
        const std::uint32_t end = bucket_offsets_[hi + 1];
        for (std::uint32_t i = bucket_offsets_[lo]; i < end; ++i) {
          if (!FuzzyPrefilterKeeps(bucket_first_[i], bucket_last_[i],
                                   bucket_sigs_[i], qf, ql, qsig, bound)) {
            continue;
          }
          const TermIdx term = bucket_terms_[i];
          const std::string_view text = TermText(term);
          const std::size_t dist =
              BoundedLevenshtein(token, text, max_dist);
          if (dist == 0 || dist > max_dist) continue;
          const double sim =
              1.0 - static_cast<double>(dist) /
                        static_cast<double>(std::max(len, text.size()));
          add(term, sim);
        }
      }
    }
  }
}

std::vector<InvertedIndex::Hit> InvertedIndex::Search(
    std::string_view keyword, const SearchOptions& options) const {
  GRASP_CHECK(finalized_) << "Search before Finalize";
  // Queries never emit the synthetic compound term: it would dilute the
  // per-token average for multi-word keywords. Compounds exist on the
  // document side only, where single-word queries can still hit them.
  AnalyzerOptions query_options = analyzer_options_;
  query_options.emit_compound = false;
  const std::vector<std::string> tokens = Analyze(keyword, query_options);
  if (tokens.empty()) return {};

  // Pooled dense scoring state: `best` holds each document's best weight
  // for the current token (-1.0 = untouched), `sum`/`matched` accumulate
  // across tokens. All three rest at their sentinel values between queries
  // and are restored via the touched lists before release, so steady-state
  // queries allocate nothing and touch O(matched docs) memory.
  const std::size_t num_docs = num_documents();
  auto lease = scratch_pool_->Acquire(
      [] { return std::make_unique<SearchScratch>(); });
  SearchScratch& s = *lease.object;
  if (s.best.size() < num_docs) {
    s.best.resize(num_docs, -1.0);
    s.sum.resize(num_docs, 0.0);
    s.matched.resize(num_docs, 0);
  }

  for (const std::string& token : tokens) {
    s.candidates.clear();
    CollectCandidates(token, options, &s.candidates);
    s.token_touched.clear();
    // Fold each candidate's postings into `best`: a first touch (sentinel
    // -1.0) records the doc, later touches keep the max weight.
    for (const Candidate& c : s.candidates) {
      const double weight = c.similarity * TermWeight(c.term, options);
      for (const Posting& p : PostingsOf(c.term)) {
        double& best = s.best[p.doc];
        if (best < 0.0) {
          s.token_touched.push_back(p.doc);
          best = weight;
        } else if (weight > best) {
          best = weight;
        }
      }
    }
    for (const std::uint32_t doc : s.token_touched) {
      if (s.matched[doc] == 0) s.all_touched.push_back(doc);
      s.sum[doc] += s.best[doc];
      ++s.matched[doc];
      s.best[doc] = -1.0;  // restore the sentinel for the next token
    }
  }

  std::vector<Hit> hits;
  hits.reserve(s.all_touched.size());
  const double denom = static_cast<double>(tokens.size());
  for (const std::uint32_t doc : s.all_touched) {
    // The relevance filter uses the raw per-token average; the coverage
    // factor then discounts hits that touch only a fraction of a long label
    // so that e.g. a three-word title outranks a six-word one for the same
    // single-keyword hit.
    const double raw = s.sum[doc] / denom;
    if (raw >= options.min_similarity || (tokens.size() > 1 && raw > 0.0)) {
      double score = raw;
      if (options.length_normalize) {
        const double label_len = static_cast<double>(
            std::max<std::uint32_t>(1, doc_term_counts_[doc]));
        score *= std::min(
            1.0,
            std::sqrt(static_cast<double>(s.matched[doc]) / label_len));
      }
      hits.push_back(Hit{doc, std::min(1.0, score)});
    }
    s.sum[doc] = 0.0;  // restore resting state for the next query
    s.matched[doc] = 0;
  }
  s.all_touched.clear();
  scratch_pool_->Release(lease, s.OwnedBytes());

  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  });
  if (options.max_results > 0 && hits.size() > options.max_results) {
    hits.resize(options.max_results);
  }
  return hits;
}

std::size_t InvertedIndex::MemoryUsageBytes() const {
  std::size_t bytes = 0;
  for (const std::string& t : building_terms_) {
    bytes += sizeof(std::string) + t.capacity();
  }
  bytes += term_ids_.size() * (sizeof(TermIdx) + 2 * sizeof(void*) + 16);
  for (const auto& plist : building_postings_) {
    bytes += sizeof(plist) + plist.capacity() * sizeof(Posting);
  }
  bytes += building_doc_term_counts_.capacity() * sizeof(std::uint32_t);
  bytes += term_offsets_.OwnedBytes() + term_blob_.OwnedBytes() +
           sorted_terms_.OwnedBytes() + posting_offsets_.OwnedBytes() +
           postings_.OwnedBytes() + doc_term_counts_.OwnedBytes();
  bytes += bucket_offsets_.OwnedBytes() + bucket_terms_.OwnedBytes();
  bytes += bucket_first_.capacity() + bucket_last_.capacity() +
           bucket_sigs_.capacity() * sizeof(std::uint32_t);
  bytes += scratch_pool_->PooledBytes();
  return bytes;
}

}  // namespace grasp::text
