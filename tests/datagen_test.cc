#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "core/engine.h"
#include "datagen/dblp_gen.h"
#include "datagen/lubm_gen.h"
#include "datagen/tap_gen.h"
#include "datagen/workload.h"
#include "query/evaluator.h"
#include "rdf/data_graph.h"
#include "rdf/ntriples.h"

namespace grasp::datagen {
namespace {

std::string Serialize(const rdf::TripleStore& store,
                      const rdf::Dictionary& dict) {
  std::ostringstream out;
  rdf::WriteNTriples(store, dict, &out);
  return out.str();
}

// ----------------------------------------------------------- determinism --

TEST(DatagenTest, DblpDeterministicInSeed) {
  DblpOptions options;
  options.num_authors = 50;
  options.num_publications = 120;
  rdf::Dictionary d1, d2;
  rdf::TripleStore s1, s2;
  GenerateDblp(options, &d1, &s1);
  GenerateDblp(options, &d2, &s2);
  s1.Finalize();
  s2.Finalize();
  EXPECT_EQ(Serialize(s1, d1), Serialize(s2, d2));
}

TEST(DatagenTest, DblpSeedChangesBulkNotAnchors) {
  DblpOptions a, b;
  a.num_authors = b.num_authors = 50;
  a.num_publications = b.num_publications = 120;
  b.seed = a.seed + 1;
  rdf::Dictionary d1, d2;
  rdf::TripleStore s1, s2;
  GenerateDblp(a, &d1, &s1);
  GenerateDblp(b, &d2, &s2);
  s1.Finalize();
  s2.Finalize();
  EXPECT_NE(Serialize(s1, d1), Serialize(s2, d2));
  // Anchor labels survive any seed.
  for (const char* anchor : {"Philipp Cimiano", "Jennifer Widom",
                             "algorithm analysis survey"}) {
    EXPECT_NE(d1.Find(rdf::TermKind::kLiteral, anchor), rdf::kInvalidTermId);
    EXPECT_NE(d2.Find(rdf::TermKind::kLiteral, anchor), rdf::kInvalidTermId);
  }
}

TEST(DatagenTest, GeneratorsScaleWithOptions) {
  rdf::Dictionary ds, dl;
  rdf::TripleStore ss, sl;
  DblpOptions small, large;
  small.num_publications = 100;
  small.num_authors = 40;
  large.num_publications = 400;
  large.num_authors = 160;
  GenerateDblp(small, &ds, &ss);
  GenerateDblp(large, &dl, &sl);
  ss.Finalize();
  sl.Finalize();
  EXPECT_GT(sl.size(), 2 * ss.size());
}

TEST(DatagenTest, LubmSchemaShape) {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  LubmOptions options;
  options.num_universities = 2;
  GenerateLubm(options, &dict, &store);
  store.Finalize();
  auto graph = rdf::DataGraph::Build(store, dict);
  std::set<std::string> classes;
  for (const auto& v : graph.vertices()) {
    if (v.kind == rdf::VertexKind::kClass) {
      classes.insert(std::string(rdf::IriLocalName(dict.text(v.term))));
    }
  }
  // The LUBM core classes must all be present.
  for (const char* cls : {"University", "Department", "FullProfessor",
                          "GraduateStudent", "Course", "Publication"}) {
    EXPECT_TRUE(classes.count(cls) > 0) << cls;
  }
}

TEST(DatagenTest, TapClassCountIsParameter) {
  rdf::Dictionary d1, d2;
  rdf::TripleStore s1, s2;
  TapOptions few, many;
  few.num_classes = 24;
  many.num_classes = 96;
  GenerateTap(few, &d1, &s1);
  GenerateTap(many, &d2, &s2);
  s1.Finalize();
  s2.Finalize();
  auto count_classes = [](const rdf::TripleStore& store,
                          const rdf::Dictionary& dict) {
    auto graph = rdf::DataGraph::Build(store, dict);
    std::size_t classes = 0;
    for (const auto& v : graph.vertices()) {
      classes += v.kind == rdf::VertexKind::kClass ? 1 : 0;
    }
    return classes;
  };
  EXPECT_GE(count_classes(s2, d2), 2 * count_classes(s1, d1));
}

// ------------------------------------------------- workload realizability --

/// Every DBLP gold query must have at least one answer on the generated
/// data — otherwise Fig. 4 would measure against impossible goals.
TEST(WorkloadTest, DblpGoldQueriesAreRealizable) {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  DblpOptions options;  // defaults = the Fig. 4 configuration
  GenerateDblp(options, &dict, &store);
  store.Finalize();
  for (const auto& wq : DblpEffectivenessWorkload()) {
    auto gold = BuildGoldQuery(wq, &dict, kDblpNs);
    ASSERT_FALSE(gold.empty()) << wq.id;
    query::EvalOptions eval_options;
    eval_options.limit = 1;
    auto result = Evaluate(store, gold, eval_options);
    ASSERT_TRUE(result.ok()) << wq.id;
    EXPECT_FALSE(result->rows.empty())
        << wq.id << ": gold query has no answers on the generated data";
  }
}

TEST(WorkloadTest, TapGoldQueriesAreRealizable) {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  TapOptions options;
  GenerateTap(options, &dict, &store);
  store.Finalize();
  for (const auto& wq : TapEffectivenessWorkload()) {
    auto gold = BuildGoldQuery(wq, &dict, kTapNs);
    query::EvalOptions eval_options;
    eval_options.limit = 1;
    auto result = Evaluate(store, gold, eval_options);
    ASSERT_TRUE(result.ok()) << wq.id;
    EXPECT_FALSE(result->rows.empty()) << wq.id;
  }
}

TEST(WorkloadTest, PerformanceWorkloadOrderedByKeywordCount) {
  const auto workload = DblpPerformanceWorkload();
  ASSERT_EQ(workload.size(), 10u);
  for (std::size_t i = 1; i < workload.size(); ++i) {
    EXPECT_GE(workload[i].keywords.size(), workload[i - 1].keywords.size());
  }
}

// ------------------------------------------------- reserved anchor words --

/// Bulk titles must not reuse the distinctive words of the anchor titles,
/// or the Fig. 4 gold queries drown in same-cost lookalikes (PAPER.md,
/// "Substitutions").
TEST(DatagenTest, BulkTitlesAvoidAnchorVocabulary) {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  DblpOptions options;
  GenerateDblp(options, &dict, &store);
  store.Finalize();

  const std::set<std::string> reserved = {
      "keyword", "search", "stream", "join", "xml",     "schema",
      "semantic", "web",   "learning", "transaction",   "integration",
      "algorithm", "sensor", "network"};
  const rdf::TermId title =
      dict.Find(rdf::TermKind::kIri, std::string(kDblpNs) + "title");
  ASSERT_NE(title, rdf::kInvalidTermId);

  // Count titles containing reserved words; only the 15 anchors may.
  std::size_t with_reserved = 0;
  store.Scan({rdf::kInvalidTermId, title, rdf::kInvalidTermId},
             [&](const rdf::Triple& t) {
               std::istringstream words{std::string(dict.text(t.object))};
               for (std::string w; words >> w;) {
                 if (reserved.count(w) > 0) {
                   ++with_reserved;
                   break;
                 }
               }
               return true;
             });
  EXPECT_LE(with_reserved, 15u);
}

}  // namespace
}  // namespace grasp::datagen
