#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "common/rng.h"
#include "text/inverted_index.h"
#include "text/levenshtein.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/thesaurus.h"
#include "text/tokenizer.h"

namespace grasp::text {
namespace {

// ------------------------------------------------------------ Stopwords --

TEST(StopwordsTest, CommonWordsAreStopwords) {
  for (const char* w : {"the", "a", "of", "and", "is", "to"}) {
    EXPECT_TRUE(IsStopword(w)) << w;
  }
}

TEST(StopwordsTest, ContentWordsAreNot) {
  for (const char* w : {"publication", "cimiano", "graph", "aifb", "2006"}) {
    EXPECT_FALSE(IsStopword(w)) << w;
  }
}

// ------------------------------------------------------------ Tokenizer --

TEST(TokenizerTest, SplitsOnNonAlnum) {
  EXPECT_EQ(Tokenize("X-Media: a demo", false),
            (std::vector<std::string>{"X", "Media", "a", "demo"}));
}

TEST(TokenizerTest, SplitsCamelCase) {
  EXPECT_EQ(Tokenize("worksAt", true),
            (std::vector<std::string>{"works", "At"}));
  EXPECT_EQ(Tokenize("hasProjectMember", true),
            (std::vector<std::string>{"has", "Project", "Member"}));
}

TEST(TokenizerTest, CamelCaseDisabled) {
  EXPECT_EQ(Tokenize("worksAt", false), (std::vector<std::string>{"worksAt"}));
}

TEST(TokenizerTest, SplitsLetterDigitBoundaries) {
  EXPECT_EQ(Tokenize("lubm50", false), (std::vector<std::string>{"lubm", "50"}));
  EXPECT_EQ(Tokenize("2006paper", false),
            (std::vector<std::string>{"2006", "paper"}));
}

TEST(TokenizerTest, EmptyInput) {
  EXPECT_TRUE(Tokenize("", true).empty());
  EXPECT_TRUE(Tokenize("---", true).empty());
}

TEST(AnalyzeTest, FullPipeline) {
  // lowercase + stopword removal + stemming.
  AnalyzerOptions options;
  EXPECT_EQ(Analyze("The Running of the Dogs", options),
            (std::vector<std::string>{"run", "dog"}));
}

TEST(AnalyzeTest, StemmingOff) {
  AnalyzerOptions options;
  options.stem = false;
  options.emit_compound = false;
  EXPECT_EQ(Analyze("running dogs", options),
            (std::vector<std::string>{"running", "dogs"}));
}

TEST(AnalyzeTest, CompoundTermForMultiTokenLabels) {
  // Short multi-token labels additionally index their concatenation, so a
  // user typing "worksat" as one word still hits the predicate label.
  AnalyzerOptions options;
  options.stem = false;
  EXPECT_EQ(Analyze("running dogs", options),
            (std::vector<std::string>{"running", "dogs", "runningdogs"}));
  // Single-token labels gain no compound.
  EXPECT_EQ(Analyze("running", options),
            (std::vector<std::string>{"running"}));
  // Labels longer than four tokens gain no compound.
  EXPECT_EQ(
      Analyze("one keyword per index entry here ok", options).back(), "ok");
}

TEST(AnalyzeTest, KeepsNumbers) {
  EXPECT_EQ(Analyze("2006", AnalyzerOptions{}),
            (std::vector<std::string>{"2006"}));
}

TEST(AnalyzeTest, CamelCasePredicateLabel) {
  // "at" is a stopword; the compound keeps the one-word spelling reachable.
  EXPECT_EQ(Analyze("worksAt", AnalyzerOptions{}),
            (std::vector<std::string>{"work", "worksat"}));
}

// --------------------------------------------------------------- Porter --

struct StemCase {
  const char* input;
  const char* expected;
};

class PorterStemmerTest : public ::testing::TestWithParam<StemCase> {};

TEST_P(PorterStemmerTest, MatchesReferenceVector) {
  EXPECT_EQ(PorterStem(GetParam().input), GetParam().expected);
}

// Reference outputs from Porter's published vocabulary (sample).
INSTANTIATE_TEST_SUITE_P(
    ReferenceVectors, PorterStemmerTest,
    ::testing::Values(
        StemCase{"caresses", "caress"}, StemCase{"ponies", "poni"},
        StemCase{"ties", "ti"}, StemCase{"caress", "caress"},
        StemCase{"cats", "cat"}, StemCase{"feed", "feed"},
        StemCase{"agreed", "agre"}, StemCase{"plastered", "plaster"},
        StemCase{"bled", "bled"}, StemCase{"motoring", "motor"},
        StemCase{"sing", "sing"}, StemCase{"conflated", "conflat"},
        StemCase{"troubled", "troubl"}, StemCase{"sized", "size"},
        StemCase{"hopping", "hop"}, StemCase{"tanned", "tan"},
        StemCase{"falling", "fall"}, StemCase{"hissing", "hiss"},
        StemCase{"fizzed", "fizz"}, StemCase{"failing", "fail"},
        StemCase{"filing", "file"}, StemCase{"happy", "happi"},
        StemCase{"sky", "sky"}, StemCase{"relational", "relat"},
        StemCase{"conditional", "condit"}, StemCase{"rational", "ration"},
        StemCase{"valenci", "valenc"}, StemCase{"hesitanci", "hesit"},
        StemCase{"digitizer", "digit"}, StemCase{"conformabli", "conform"},
        StemCase{"radicalli", "radic"}, StemCase{"differentli", "differ"},
        StemCase{"vileli", "vile"}, StemCase{"analogousli", "analog"},
        StemCase{"vietnamization", "vietnam"}, StemCase{"predication", "predic"},
        StemCase{"operator", "oper"}, StemCase{"feudalism", "feudal"},
        StemCase{"decisiveness", "decis"}, StemCase{"hopefulness", "hope"},
        StemCase{"callousness", "callous"}, StemCase{"formaliti", "formal"},
        StemCase{"sensitiviti", "sensit"}, StemCase{"sensibiliti", "sensibl"},
        StemCase{"triplicate", "triplic"}, StemCase{"formative", "form"},
        StemCase{"formalize", "formal"}, StemCase{"electriciti", "electr"},
        StemCase{"electrical", "electr"}, StemCase{"hopeful", "hope"},
        StemCase{"goodness", "good"}, StemCase{"revival", "reviv"},
        StemCase{"allowance", "allow"}, StemCase{"inference", "infer"},
        StemCase{"airliner", "airlin"}, StemCase{"gyroscopic", "gyroscop"},
        StemCase{"adjustable", "adjust"}, StemCase{"defensible", "defens"},
        StemCase{"irritant", "irrit"}, StemCase{"replacement", "replac"},
        StemCase{"adjustment", "adjust"}, StemCase{"dependent", "depend"},
        StemCase{"adoption", "adopt"}, StemCase{"homologou", "homolog"},
        StemCase{"communism", "commun"}, StemCase{"activate", "activ"},
        StemCase{"angulariti", "angular"}, StemCase{"homologous", "homolog"},
        StemCase{"effective", "effect"}, StemCase{"bowdlerize", "bowdler"},
        StemCase{"probate", "probat"}, StemCase{"rate", "rate"},
        StemCase{"cease", "ceas"}, StemCase{"controll", "control"},
        StemCase{"roll", "roll"}));

TEST(PorterStemmerTest, ShortWordsUnchanged) {
  EXPECT_EQ(PorterStem("a"), "a");
  EXPECT_EQ(PorterStem("is"), "is");
  EXPECT_EQ(PorterStem(""), "");
}

TEST(PorterStemmerTest, DomainWords) {
  EXPECT_EQ(PorterStem("publications"), PorterStem("publication"));
  EXPECT_EQ(PorterStem("researchers"), PorterStem("researcher"));
  EXPECT_EQ(PorterStem("universities"), PorterStem("university"));
}

// ---------------------------------------------------------- Levenshtein --

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0u);
}

TEST(LevenshteinTest, Symmetric) {
  EXPECT_EQ(LevenshteinDistance("cimiano", "cimano"),
            LevenshteinDistance("cimano", "cimiano"));
}

TEST(BoundedLevenshteinTest, ExactWithinLimit) {
  EXPECT_EQ(BoundedLevenshtein("kitten", "sitting", 3), 3u);
}

TEST(BoundedLevenshteinTest, ExceedsLimitReturnsOverLimit) {
  EXPECT_GT(BoundedLevenshtein("completely", "different", 2), 2u);
  EXPECT_GT(BoundedLevenshtein("ab", "abcdef", 2), 2u);  // length gap prune
}

TEST(LevenshteinSimilarityTest, Bounds) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(LevenshteinSimilarity("cimiano", "cimano"), 1.0 - 1.0 / 7.0,
              1e-12);
}

/// Property: bounded variant agrees with a naive full DP implementation.
class LevenshteinPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static std::size_t Naive(const std::string& a, const std::string& b) {
    std::vector<std::vector<std::size_t>> dp(a.size() + 1,
                                             std::vector<std::size_t>(b.size() + 1));
    for (std::size_t i = 0; i <= a.size(); ++i) dp[i][0] = i;
    for (std::size_t j = 0; j <= b.size(); ++j) dp[0][j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
      for (std::size_t j = 1; j <= b.size(); ++j) {
        dp[i][j] = std::min({dp[i - 1][j] + 1, dp[i][j - 1] + 1,
                             dp[i - 1][j - 1] + (a[i - 1] != b[j - 1])});
      }
    }
    return dp[a.size()][b.size()];
  }
};

TEST_P(LevenshteinPropertyTest, AgreesWithNaiveDp) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    auto random_word = [&rng]() {
      std::string w;
      const std::size_t len = rng.NextBelow(12);
      for (std::size_t i = 0; i < len; ++i) {
        w.push_back(static_cast<char>('a' + rng.NextBelow(4)));
      }
      return w;
    };
    const std::string a = random_word(), b = random_word();
    const std::size_t expected = Naive(a, b);
    EXPECT_EQ(LevenshteinDistance(a, b), expected) << a << " vs " << b;
    for (std::size_t limit : {0u, 1u, 2u, 5u}) {
      const std::size_t bounded = BoundedLevenshtein(a, b, limit);
      if (expected <= limit) {
        EXPECT_EQ(bounded, expected);
      } else {
        EXPECT_GT(bounded, limit);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LevenshteinPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

// ------------------------------------------------------------ Thesaurus --

TEST(ThesaurusTest, SynonymsAreSymmetric) {
  Thesaurus t;
  t.AddSynonym("paper", "article");
  auto from_paper = t.Lookup("paper");
  auto from_article = t.Lookup("article");
  ASSERT_EQ(from_paper.size(), 1u);
  ASSERT_EQ(from_article.size(), 1u);
  EXPECT_EQ(from_paper[0].term, PorterStem("article"));
  EXPECT_EQ(from_article[0].term, PorterStem("paper"));
}

TEST(ThesaurusTest, LookupNormalizesQuery) {
  Thesaurus t;
  t.AddSynonym("publication", "paper");
  // Plural/case variants hit the same entry after normalization.
  EXPECT_FALSE(t.Lookup("Publications").empty());
}

TEST(ThesaurusTest, HypernymIsDirectional) {
  Thesaurus t;
  t.AddHypernym("professor", "person");
  auto up = t.Lookup("professor");
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0].relation, Thesaurus::Relation::kHypernym);
  auto down = t.Lookup("person");
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0].relation, Thesaurus::Relation::kHyponym);
}

TEST(ThesaurusTest, BestWeightWins) {
  Thesaurus t;
  t.AddSynonym("a1", "b1", 0.5);
  t.AddSynonym("a1", "b1", 0.8);
  ASSERT_EQ(t.Lookup("a1").size(), 1u);
  EXPECT_DOUBLE_EQ(t.Lookup("a1")[0].weight, 0.8);
}

TEST(ThesaurusTest, SelfReferenceIgnored) {
  Thesaurus t;
  t.AddSynonym("paper", "papers");  // same stem
  EXPECT_TRUE(t.Lookup("paper").empty());
}

TEST(ThesaurusTest, BuiltInCoversEvaluationDomains) {
  Thesaurus t = Thesaurus::BuiltIn();
  EXPECT_FALSE(t.Lookup("publication").empty());
  EXPECT_FALSE(t.Lookup("professor").empty());
  EXPECT_FALSE(t.Lookup("athlete").empty());
  EXPECT_TRUE(t.Lookup("zzz-unknown").empty());
}

// ------------------------------------------------------- InvertedIndex --

class InvertedIndexTest : public ::testing::Test {
 protected:
  InvertedIndexTest() : index_(AnalyzerOptions{}) {
    publication_ = index_.AddDocument("Publication");
    researcher_ = index_.AddDocument("Researcher");
    works_at_ = index_.AddDocument("worksAt");
    cimiano_ = index_.AddDocument("P. Cimiano");
    year2006_ = index_.AddDocument("2006");
    xmedia_ = index_.AddDocument("X-Media");
    index_.Finalize();
  }

  bool Contains(const std::vector<InvertedIndex::Hit>& hits,
                InvertedIndex::DocId doc) const {
    return std::any_of(hits.begin(), hits.end(),
                       [doc](const auto& h) { return h.doc == doc; });
  }

  InvertedIndex index_;
  InvertedIndex::DocId publication_, researcher_, works_at_, cimiano_,
      year2006_, xmedia_;
};

TEST_F(InvertedIndexTest, ExactMatchScoresOne) {
  auto hits = index_.Search("2006");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].doc, year2006_);
  EXPECT_GT(hits[0].score, 0.9);
}

TEST_F(InvertedIndexTest, StemmedMatch) {
  auto hits = index_.Search("publications");
  EXPECT_TRUE(Contains(hits, publication_));
}

TEST_F(InvertedIndexTest, FuzzyMatchTypo) {
  auto hits = index_.Search("cimano");  // missing 'i'
  ASSERT_TRUE(Contains(hits, cimiano_));
  for (const auto& h : hits) {
    if (h.doc == cimiano_) {
      EXPECT_LT(h.score, 1.0);
      EXPECT_GT(h.score, 0.5);
    }
  }
}

TEST_F(InvertedIndexTest, FuzzyDisabled) {
  InvertedIndex::SearchOptions options;
  options.fuzzy = false;
  auto hits = index_.Search("cimano", options);
  EXPECT_FALSE(Contains(hits, cimiano_));
}

TEST_F(InvertedIndexTest, ThesaurusExpansion) {
  Thesaurus thesaurus;
  thesaurus.AddSynonym("paper", "publication");
  InvertedIndex::SearchOptions options;
  options.thesaurus = &thesaurus;
  auto hits = index_.Search("paper", options);
  ASSERT_TRUE(Contains(hits, publication_));
  for (const auto& h : hits) {
    if (h.doc == publication_) {
      EXPECT_LT(h.score, 1.0);
    }
  }
}

TEST_F(InvertedIndexTest, MultiTokenPartialMatchPenalized) {
  auto full = index_.Search("p cimiano");
  auto partial = index_.Search("xyzzy cimiano");
  double full_score = 0, partial_score = 0;
  for (const auto& h : full) {
    if (h.doc == cimiano_) full_score = h.score;
  }
  for (const auto& h : partial) {
    if (h.doc == cimiano_) partial_score = h.score;
  }
  EXPECT_GT(full_score, partial_score);
  EXPECT_GT(partial_score, 0.0);
}

TEST_F(InvertedIndexTest, CamelCaseLabelReachableByWord) {
  auto hits = index_.Search("works");
  EXPECT_TRUE(Contains(hits, works_at_));
}

TEST_F(InvertedIndexTest, MaxResultsCaps) {
  InvertedIndex::SearchOptions options;
  options.max_results = 1;
  EXPECT_LE(index_.Search("p", options).size(), 1u);
}

TEST_F(InvertedIndexTest, NoMatchReturnsEmpty) {
  EXPECT_TRUE(index_.Search("qqqqqqqqqq").empty());
}

TEST_F(InvertedIndexTest, EmptyKeywordReturnsEmpty) {
  EXPECT_TRUE(index_.Search("").empty());
  EXPECT_TRUE(index_.Search("   ").empty());
}

TEST_F(InvertedIndexTest, ResultsSortedByScore) {
  auto hits = index_.Search("publication");
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].score, hits[i].score);
  }
}

TEST_F(InvertedIndexTest, MemoryUsageNonZero) {
  EXPECT_GT(index_.MemoryUsageBytes(), 0u);
  EXPECT_EQ(index_.num_documents(), 6u);
  EXPECT_GT(index_.vocabulary_size(), 0u);
}

TEST(InvertedIndexEdgeTest, IdfPrefersRareTerm) {
  InvertedIndex index{AnalyzerOptions{}};
  // "alpha" occurs in many documents, "omega" in one.
  for (int i = 0; i < 9; ++i) index.AddDocument("alpha common");
  auto rare = index.AddDocument("omega");
  index.Finalize();
  auto hits_rare = index.Search("omega");
  auto hits_common = index.Search("alpha");
  ASSERT_FALSE(hits_rare.empty());
  ASSERT_FALSE(hits_common.empty());
  EXPECT_EQ(hits_rare[0].doc, rare);
  EXPECT_GT(hits_rare[0].score, hits_common[0].score);
}

TEST(InvertedIndexEdgeTest, ShortTokensNeverFuzzyMatch) {
  InvertedIndex index{AnalyzerOptions{}};
  auto ab = index.AddDocument("ab");
  index.Finalize();
  auto hits = index.Search("ac");  // distance 1 but len/3 == 0
  EXPECT_FALSE(std::any_of(hits.begin(), hits.end(),
                           [&](const auto& h) { return h.doc == ab; }));
}

TEST(InvertedIndexEdgeTest, FuzzyPrefilterNeverRejectsTrueMatch) {
  // The fuzzy prefilter's bounds must be conservative: every document whose
  // term is within the effective edit distance of the query must be hit,
  // and nothing else. One random lowercase term per document, analyzed
  // verbatim so document i holds exactly terms[i].
  AnalyzerOptions verbatim;
  verbatim.drop_stopwords = false;
  verbatim.stem = false;
  verbatim.emit_compound = false;
  InvertedIndex index{verbatim};
  std::mt19937_64 rng(0x5eed0006);
  std::vector<std::string> terms;
  for (int i = 0; i < 500; ++i) {
    std::string term(2 + rng() % 10, ' ');
    for (char& c : term) c = static_cast<char>('a' + rng() % 26);
    index.AddDocument(term);
    terms.push_back(std::move(term));
  }
  index.Finalize();

  InvertedIndex::SearchOptions options;
  options.min_similarity = 0.0;
  options.use_idf = false;
  options.length_normalize = false;
  for (int q = 0; q < 40; ++q) {
    const std::string query = terms[rng() % terms.size()];
    for (std::size_t max_dist : {1u, 2u}) {
      options.max_edit_distance = max_dist;
      const std::size_t bound = std::min(max_dist, query.size() / 3);
      std::vector<InvertedIndex::DocId> hit_docs;
      for (const InvertedIndex::Hit& h : index.Search(query, options)) {
        hit_docs.push_back(h.doc);
      }
      std::sort(hit_docs.begin(), hit_docs.end());
      std::vector<InvertedIndex::DocId> expected;
      for (std::size_t i = 0; i < terms.size(); ++i) {
        if (BoundedLevenshtein(query, terms[i], bound) <= bound) {
          expected.push_back(static_cast<InvertedIndex::DocId>(i));
        }
      }
      EXPECT_EQ(hit_docs, expected)
          << "query \"" << query << "\" max_dist " << max_dist;
    }
  }
}

}  // namespace
}  // namespace grasp::text
