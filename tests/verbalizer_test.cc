#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/engine.h"
#include "query/verbalizer.h"
#include "test_util.h"

namespace grasp::query {
namespace {

class VerbalizerTest : public ::testing::Test {
 protected:
  VerbalizerTest() : dataset_(grasp::testing::MakeFigure1Dataset()) {}

  rdf::TermId Iri(const std::string& local) {
    return dataset_.dictionary.InternIri(std::string(grasp::testing::kEx) +
                                         local);
  }
  rdf::TermId Lit(const std::string& text) {
    return dataset_.dictionary.InternLiteral(text);
  }
  rdf::TermId Type() {
    return dataset_.dictionary.InternIri(
        "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  }

  grasp::testing::Dataset dataset_;
};

TEST_F(VerbalizerTest, SingleClassQuery) {
  ConjunctiveQuery q;
  q.AddAtom({Type(), QueryTerm::Variable(q.NewVariable()),
             QueryTerm::Constant(Iri("Publication"))});
  EXPECT_EQ(Verbalize(q, dataset_.dictionary), "Find every publication.");
}

TEST_F(VerbalizerTest, AttributeClause) {
  ConjunctiveQuery q;
  const VarId x = q.NewVariable();
  q.AddAtom({Type(), QueryTerm::Variable(x),
             QueryTerm::Constant(Iri("Publication"))});
  q.AddAtom({Iri("year"), QueryTerm::Variable(x),
             QueryTerm::Constant(Lit("2006"))});
  EXPECT_EQ(Verbalize(q, dataset_.dictionary),
            "Find every publication whose year is '2006'.");
}

TEST_F(VerbalizerTest, RelationChainsIntoNestedPhrase) {
  ConjunctiveQuery q;
  const VarId x = q.NewVariable(), y = q.NewVariable();
  q.AddAtom({Type(), QueryTerm::Variable(x),
             QueryTerm::Constant(Iri("Publication"))});
  q.AddAtom({Iri("author"), QueryTerm::Variable(x), QueryTerm::Variable(y)});
  q.AddAtom({Type(), QueryTerm::Variable(y),
             QueryTerm::Constant(Iri("Researcher"))});
  q.AddAtom({Iri("name"), QueryTerm::Variable(y),
             QueryTerm::Constant(Lit("P. Cimiano"))});
  EXPECT_EQ(Verbalize(q, dataset_.dictionary),
            "Find every publication with author some researcher whose name "
            "is 'P. Cimiano'.");
}

TEST_F(VerbalizerTest, CamelCasePredicateHumanized) {
  ConjunctiveQuery q;
  const VarId x = q.NewVariable(), y = q.NewVariable();
  q.AddAtom({Iri("worksAt"), QueryTerm::Variable(x), QueryTerm::Variable(y)});
  const std::string text = Verbalize(q, dataset_.dictionary);
  EXPECT_NE(text.find("works at"), std::string::npos) << text;
}

TEST_F(VerbalizerTest, FilterClause) {
  ConjunctiveQuery q;
  const VarId x = q.NewVariable(), v = q.NewVariable();
  q.AddAtom({Iri("year"), QueryTerm::Variable(x), QueryTerm::Variable(v)});
  q.AddFilter(FilterCondition{v, FilterOp::kGreater, 2000});
  const std::string text = Verbalize(q, dataset_.dictionary);
  EXPECT_NE(text.find("> 2000"), std::string::npos) << text;
}

TEST_F(VerbalizerTest, FilterValueKeepsEveryDigit) {
  auto text = [this](double value) {
    ConjunctiveQuery q;
    const VarId x = q.NewVariable(), v = q.NewVariable();
    q.AddAtom({Iri("year"), QueryTerm::Variable(x), QueryTerm::Variable(v)});
    q.AddFilter(FilterCondition{v, FilterOp::kGreater, value});
    return Verbalize(q, dataset_.dictionary);
  };
  EXPECT_NE(text(1234567).find("> 1234567"), std::string::npos)
      << text(1234567);
  EXPECT_NE(text(1234567), text(1234568));
  EXPECT_NE(text(0.1234567).find("> 0.1234567"), std::string::npos)
      << text(0.1234567);
}

TEST_F(VerbalizerTest, UntypedVariableIsThing) {
  ConjunctiveQuery q;
  q.AddAtom({Iri("name"), QueryTerm::Variable(q.NewVariable()),
             QueryTerm::Constant(Lit("AIFB"))});
  EXPECT_EQ(Verbalize(q, dataset_.dictionary),
            "Find every thing whose name is 'AIFB'.");
}

TEST_F(VerbalizerTest, GroundAtomRendered) {
  ConjunctiveQuery q;
  q.AddAtom({dataset_.dictionary.InternIri(
                 "http://www.w3.org/2000/01/rdf-schema#subClassOf"),
             QueryTerm::Constant(Iri("Researcher")),
             QueryTerm::Constant(Iri("Person"))});
  const std::string text = Verbalize(q, dataset_.dictionary);
  EXPECT_NE(text.find("Researcher"), std::string::npos) << text;
  EXPECT_NE(text.find("Person"), std::string::npos) << text;
}

TEST_F(VerbalizerTest, CyclicQueryTerminates) {
  ConjunctiveQuery q;
  const VarId x = q.NewVariable(), y = q.NewVariable();
  q.AddAtom({Iri("cites"), QueryTerm::Variable(x), QueryTerm::Variable(y)});
  q.AddAtom({Iri("cites"), QueryTerm::Variable(y), QueryTerm::Variable(x)});
  const std::string text = Verbalize(q, dataset_.dictionary);
  EXPECT_FALSE(text.empty());
  EXPECT_NE(text.find("cites"), std::string::npos) << text;
}

TEST_F(VerbalizerTest, DistinctQueriesDistinctQuestions) {
  // The verbalization must not collapse different interpretations.
  core::KeywordSearchEngine engine(dataset_.store, dataset_.dictionary);
  auto result = engine.Search({"name", "publication"}, 8);
  ASSERT_GE(result.queries.size(), 3u);
  std::set<std::string> questions;
  for (const auto& rq : result.queries) {
    questions.insert(Verbalize(rq.query, dataset_.dictionary));
  }
  EXPECT_EQ(questions.size(), result.queries.size());
}

}  // namespace
}  // namespace grasp::query
