// Tests for the filter-operator extension (Sec. IX future work): operator
// keywords such as ">2000" flow keyword parsing -> keyword index range scan
// -> augmentation -> query mapping -> FILTER evaluation -> SPARQL text.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/filter_op.h"
#include "core/engine.h"
#include "keyword/keyword_index.h"
#include "query/conjunctive_query.h"
#include "query/evaluator.h"
#include "query/sparql_parser.h"
#include "rdf/data_graph.h"
#include "test_util.h"

namespace grasp {
namespace {

// ------------------------------------------------------- keyword parsing --

TEST(ParseFilterKeywordTest, RecognizesOperators) {
  auto gt = ParseFilterKeyword(">2000");
  ASSERT_TRUE(gt.has_value());
  EXPECT_EQ(gt->op, FilterOp::kGreater);
  EXPECT_DOUBLE_EQ(gt->value, 2000.0);

  auto ge = ParseFilterKeyword(">=10");
  ASSERT_TRUE(ge.has_value());
  EXPECT_EQ(ge->op, FilterOp::kGreaterEqual);

  auto lt = ParseFilterKeyword("<1995.5");
  ASSERT_TRUE(lt.has_value());
  EXPECT_EQ(lt->op, FilterOp::kLess);
  EXPECT_DOUBLE_EQ(lt->value, 1995.5);

  auto le = ParseFilterKeyword("<= 0");
  ASSERT_TRUE(le.has_value());
  EXPECT_EQ(le->op, FilterOp::kLessEqual);

  auto ne = ParseFilterKeyword("!=3");
  ASSERT_TRUE(ne.has_value());
  EXPECT_EQ(ne->op, FilterOp::kNotEqual);
}

TEST(ParseFilterKeywordTest, RejectsPlainKeywords) {
  EXPECT_FALSE(ParseFilterKeyword("2000").has_value());
  EXPECT_FALSE(ParseFilterKeyword("cimiano").has_value());
  EXPECT_FALSE(ParseFilterKeyword(">").has_value());
  EXPECT_FALSE(ParseFilterKeyword(">abc").has_value());
  EXPECT_FALSE(ParseFilterKeyword(">2000x").has_value());
  EXPECT_FALSE(ParseFilterKeyword("").has_value());
}

TEST(FilterOpTest, EvalSemantics) {
  EXPECT_TRUE(EvalFilterOp(FilterOp::kLess, 1.0, 2.0));
  EXPECT_FALSE(EvalFilterOp(FilterOp::kLess, 2.0, 2.0));
  EXPECT_TRUE(EvalFilterOp(FilterOp::kLessEqual, 2.0, 2.0));
  EXPECT_TRUE(EvalFilterOp(FilterOp::kGreater, 3.0, 2.0));
  EXPECT_FALSE(EvalFilterOp(FilterOp::kGreater, 2.0, 2.0));
  EXPECT_TRUE(EvalFilterOp(FilterOp::kGreaterEqual, 2.0, 2.0));
  EXPECT_TRUE(EvalFilterOp(FilterOp::kNotEqual, 1.0, 2.0));
  EXPECT_FALSE(EvalFilterOp(FilterOp::kNotEqual, 2.0, 2.0));
}

// ------------------------------------------------------- index range scan --

class FilterIndexTest : public ::testing::Test {
 protected:
  FilterIndexTest()
      : dataset_(grasp::testing::MakeDataset({
            R"(p1 a Publication)", R"(p1 year "1998")",
            R"(p2 a Publication)", R"(p2 year "2002")",
            R"(p3 a Publication)", R"(p3 year "2006")",
            R"(p3 pages "12")",
            R"(r1 a Researcher)",  R"(r1 name "Ada")",
        })),
        graph_(rdf::DataGraph::Build(dataset_.store, dataset_.dictionary)),
        index_(keyword::KeywordIndex::Build(graph_)) {}

  grasp::testing::Dataset dataset_;
  rdf::DataGraph graph_;
  keyword::KeywordIndex index_;
};

TEST_F(FilterIndexTest, RangeMergesSatisfyingValues) {
  auto match = index_.LookupFilter(FilterSpec{FilterOp::kGreater, 2000.0});
  ASSERT_TRUE(match.has_value());
  EXPECT_TRUE(match->is_filter);
  EXPECT_EQ(match->score, 1.0);
  // years 2002 and 2006 satisfy; pages "12" does not. One merged context
  // for the `year` attribute with Publication, counts summed.
  ASSERT_EQ(match->contexts.size(), 1u);
  EXPECT_EQ(
      rdf::IriLocalName(dataset_.dictionary.text(match->contexts[0].attribute)),
      "year");
  ASSERT_EQ(match->contexts[0].counts.size(), 1u);
  EXPECT_EQ(match->contexts[0].counts[0], 2u);
}

TEST_F(FilterIndexTest, MultipleAttributesWhenBothMatch) {
  // > 10 catches years (1998, 2002, 2006) and pages (12).
  auto match = index_.LookupFilter(FilterSpec{FilterOp::kGreater, 10.0});
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->contexts.size(), 2u);
}

TEST_F(FilterIndexTest, NonFiniteValueGivesNoMatch) {
  // strtod reads these, so they arrive as filter keywords; `<inf` and
  // `!=nan` would otherwise select every numeric value.
  for (const char* keyword : {">inf", "<inf", "<-infinity", ">nan", "!=NAN",
                              ">1e999"}) {
    const auto filter = ParseFilterKeyword(keyword);
    ASSERT_TRUE(filter.has_value()) << keyword;
    EXPECT_FALSE(index_.LookupFilter(*filter).has_value()) << keyword;
  }
  auto large = ParseFilterKeyword("<1e20");
  ASSERT_TRUE(large.has_value());
  EXPECT_EQ(large->value, 1e20);
  EXPECT_TRUE(index_.LookupFilter(*large).has_value());
}

TEST_F(FilterIndexTest, EmptyRangeGivesNoMatch) {
  EXPECT_FALSE(
      index_.LookupFilter(FilterSpec{FilterOp::kGreater, 9999.0}).has_value());
  // Non-numeric values ("Ada") never participate.
  EXPECT_FALSE(
      index_.LookupFilter(FilterSpec{FilterOp::kLess, -1e18}).has_value());
}

// ------------------------------------------------------- query & evaluator --

class FilterQueryTest : public ::testing::Test {
 protected:
  FilterQueryTest() : dataset_(grasp::testing::MakeDataset({
                          R"(p1 a Publication)", R"(p1 year "1998")",
                          R"(p2 a Publication)", R"(p2 year "2002")",
                          R"(p3 a Publication)", R"(p3 year "2006")",
                      })) {}

  query::ConjunctiveQuery YearQuery(FilterOp op, double value) {
    query::ConjunctiveQuery q;
    const query::VarId x = q.NewVariable(), v = q.NewVariable();
    q.AddAtom({dataset_.dictionary.InternIri(std::string(grasp::testing::kEx) +
                                             "year"),
               query::QueryTerm::Variable(x), query::QueryTerm::Variable(v)});
    q.AddFilter(query::FilterCondition{v, op, value});
    return q;
  }

  grasp::testing::Dataset dataset_;
};

TEST_F(FilterQueryTest, EvaluatorAppliesFilter) {
  query::EvalOptions options;
  options.dictionary = &dataset_.dictionary;
  auto result = Evaluate(dataset_.store, YearQuery(FilterOp::kGreater, 2000),
                         options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 2u);  // 2002 and 2006

  auto le = Evaluate(dataset_.store, YearQuery(FilterOp::kLessEqual, 1998),
                     options);
  ASSERT_TRUE(le.ok());
  EXPECT_EQ(le->rows.size(), 1u);

  auto ne = Evaluate(dataset_.store, YearQuery(FilterOp::kNotEqual, 2002),
                     options);
  ASSERT_TRUE(ne.ok());
  EXPECT_EQ(ne->rows.size(), 2u);
}

TEST_F(FilterQueryTest, FilterWithoutDictionaryIsRejected) {
  auto result =
      Evaluate(dataset_.store, YearQuery(FilterOp::kGreater, 2000), {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FilterQueryTest, SparqlRendersAndReparsesFilter) {
  // Each value renders in exact fixed notation, which the SPARQL number
  // token (no exponent) reads back as the same double.
  const struct {
    double value;
    const char* text;
  } cases[] = {{2000, "2000"},
               {19.5, "19.5"},
               {1234567, "1234567"},
               {0.1234567, "0.1234567"},
               {1e20, "100000000000000000000"},
               {-3, "-3"}};
  for (const auto& c : cases) {
    query::ConjunctiveQuery q = YearQuery(FilterOp::kGreaterEqual, c.value);
    const std::string sparql = q.ToSparql(dataset_.dictionary);
    EXPECT_NE(sparql.find(std::string("FILTER(?x1 >= ") + c.text + ")"),
              std::string::npos)
        << sparql;

    auto parsed = query::ParseSparql(sparql, &dataset_.dictionary);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << sparql;
    ASSERT_EQ(parsed->query.filters().size(), 1u);
    EXPECT_EQ(parsed->query.filters()[0].op, FilterOp::kGreaterEqual);
    EXPECT_EQ(parsed->query.filters()[0].value, c.value) << sparql;
    EXPECT_TRUE(Isomorphic(parsed->query, q)) << sparql;
  }
}

TEST_F(FilterQueryTest, CanonicalDistinguishesFilters) {
  query::ConjunctiveQuery gt = YearQuery(FilterOp::kGreater, 2000);
  query::ConjunctiveQuery lt = YearQuery(FilterOp::kLess, 2000);
  query::ConjunctiveQuery gt2 = YearQuery(FilterOp::kGreater, 2001);
  EXPECT_FALSE(Isomorphic(gt, lt));
  EXPECT_FALSE(Isomorphic(gt, gt2));
  EXPECT_TRUE(Isomorphic(gt, YearQuery(FilterOp::kGreater, 2000)));
  // Values that agree in their first six significant digits stay distinct.
  EXPECT_FALSE(Isomorphic(YearQuery(FilterOp::kGreater, 1234567),
                          YearQuery(FilterOp::kGreater, 1234568)));
  EXPECT_FALSE(Isomorphic(YearQuery(FilterOp::kGreater, 0.1234567),
                          YearQuery(FilterOp::kGreater, 0.123457)));
  EXPECT_FALSE(Isomorphic(YearQuery(FilterOp::kGreater, 1e20),
                          YearQuery(FilterOp::kGreater, 1.00000001e20)));
  EXPECT_TRUE(Isomorphic(YearQuery(FilterOp::kGreater, 1e20),
                         YearQuery(FilterOp::kGreater, 1e20)));
}

// --------------------------------------------------------------- end2end --

TEST(FilterEngineTest, OperatorKeywordProducesFilterQuery) {
  auto dataset = grasp::testing::MakeDataset({
      R"(p1 a Publication)", R"(p1 year "1998")", R"(p1 title "alpha")",
      R"(p2 a Publication)", R"(p2 year "2002")", R"(p2 title "beta")",
      R"(p3 a Publication)", R"(p3 year "2006")", R"(p3 title "gamma")",
      R"(p4 a Publication)", R"(p4 year "2007")", R"(p4 title "delta")",
  });
  core::KeywordSearchEngine engine(dataset.store, dataset.dictionary);
  auto result = engine.Search({"publication", ">2005"}, 3);
  ASSERT_FALSE(result.queries.empty());
  const auto& top = result.queries[0];
  ASSERT_EQ(top.query.filters().size(), 1u);
  EXPECT_EQ(top.query.filters()[0].op, FilterOp::kGreater);
  EXPECT_DOUBLE_EQ(top.query.filters()[0].value, 2005.0);

  auto answers = engine.Answers(top.query, 10);
  ASSERT_TRUE(answers.ok());
  std::set<std::string> bound;
  for (const auto& row : answers->rows) {
    for (rdf::TermId t : row) {
      bound.insert(std::string(dataset.dictionary.text(t)));
    }
  }
  // Exactly the publications after 2005.
  EXPECT_TRUE(bound.count(std::string(grasp::testing::kEx) + "p3") > 0);
  EXPECT_TRUE(bound.count(std::string(grasp::testing::kEx) + "p4") > 0);
  EXPECT_EQ(bound.count(std::string(grasp::testing::kEx) + "p1"), 0u);
  EXPECT_EQ(bound.count(std::string(grasp::testing::kEx) + "p2"), 0u);
}

TEST(FilterEngineTest, UnsatisfiableOperatorKeywordGivesNoQueries) {
  auto dataset = grasp::testing::MakeDataset({
      R"(p1 a Publication)", R"(p1 year "1998")",
  });
  core::KeywordSearchEngine engine(dataset.store, dataset.dictionary);
  EXPECT_TRUE(engine.Search({"publication", ">2050"}, 3).queries.empty());
}

}  // namespace
}  // namespace grasp
