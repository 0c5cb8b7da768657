#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "datagen/dblp_gen.h"
#include "datagen/workload.h"
#include "query/conjunctive_query.h"
#include "query/evaluator.h"
#include "test_util.h"

namespace grasp::query {
namespace {

class QueryFixture : public ::testing::Test {
 protected:
  QueryFixture() : dataset_(grasp::testing::MakeFigure1Dataset()) {}

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

// -------------------------------------------------------- Canonical form --

TEST_F(QueryFixture, IsomorphicUnderVariableRenaming) {
  ConjunctiveQuery a, b;
  const VarId a0 = a.NewVariable(), a1 = a.NewVariable();
  a.AddAtom({Iri("author"), QueryTerm::Variable(a0), QueryTerm::Variable(a1)});
  a.AddAtom({Iri("name"), QueryTerm::Variable(a1),
             QueryTerm::Constant(Lit("AIFB"))});

  const VarId b0 = b.NewVariable(), b1 = b.NewVariable();
  // Same structure, swapped variable roles and atom order.
  b.AddAtom({Iri("name"), QueryTerm::Variable(b0),
             QueryTerm::Constant(Lit("AIFB"))});
  b.AddAtom({Iri("author"), QueryTerm::Variable(b1), QueryTerm::Variable(b0)});

  EXPECT_TRUE(Isomorphic(a, b));
}

TEST_F(QueryFixture, DifferentStructureNotIsomorphic) {
  ConjunctiveQuery a, b;
  const VarId a0 = a.NewVariable(), a1 = a.NewVariable();
  a.AddAtom({Iri("author"), QueryTerm::Variable(a0), QueryTerm::Variable(a1)});

  const VarId b0 = b.NewVariable();
  b.AddAtom({Iri("author"), QueryTerm::Variable(b0), QueryTerm::Variable(b0)});
  EXPECT_FALSE(Isomorphic(a, b));
}

TEST_F(QueryFixture, DifferentConstantsNotIsomorphic) {
  ConjunctiveQuery a, b;
  a.AddAtom({Iri("name"), QueryTerm::Variable(a.NewVariable()),
             QueryTerm::Constant(Lit("AIFB"))});
  b.AddAtom({Iri("name"), QueryTerm::Variable(b.NewVariable()),
             QueryTerm::Constant(Lit("SJTU"))});
  EXPECT_FALSE(Isomorphic(a, b));
}

TEST_F(QueryFixture, CanonicalIgnoresUnusedVariables) {
  ConjunctiveQuery a, b;
  a.NewVariable();  // never used
  const VarId av = a.NewVariable();
  a.AddAtom({Iri("p"), QueryTerm::Variable(av), QueryTerm::Constant(Lit("x"))});
  const VarId bv = b.NewVariable();
  b.AddAtom({Iri("p"), QueryTerm::Variable(bv), QueryTerm::Constant(Lit("x"))});
  EXPECT_TRUE(Isomorphic(a, b));
}

TEST_F(QueryFixture, TriangleVsPathNotIsomorphic) {
  ConjunctiveQuery tri, path;
  const rdf::TermId p = Iri("p");
  {
    VarId x = tri.NewVariable(), y = tri.NewVariable(), z = tri.NewVariable();
    tri.AddAtom({p, QueryTerm::Variable(x), QueryTerm::Variable(y)});
    tri.AddAtom({p, QueryTerm::Variable(y), QueryTerm::Variable(z)});
    tri.AddAtom({p, QueryTerm::Variable(z), QueryTerm::Variable(x)});
  }
  {
    VarId x = path.NewVariable(), y = path.NewVariable(),
          z = path.NewVariable(), w = path.NewVariable();
    path.AddAtom({p, QueryTerm::Variable(x), QueryTerm::Variable(y)});
    path.AddAtom({p, QueryTerm::Variable(y), QueryTerm::Variable(z)});
    path.AddAtom({p, QueryTerm::Variable(z), QueryTerm::Variable(w)});
  }
  EXPECT_FALSE(Isomorphic(tri, path));
}

TEST_F(QueryFixture, DeduplicateAtomsRemovesRepeats) {
  ConjunctiveQuery q;
  const VarId x = q.NewVariable();
  Atom atom{Type(), QueryTerm::Variable(x),
            QueryTerm::Constant(Iri("Publication"))};
  q.AddAtom(atom);
  q.AddAtom(atom);
  q.AddAtom(atom);
  q.DeduplicateAtoms();
  EXPECT_EQ(q.atoms().size(), 1u);
}

TEST_F(QueryFixture, CanonicalStableUnderAtomShuffle) {
  Rng rng(99);
  ConjunctiveQuery base;
  std::vector<Atom> atoms;
  const VarId x = base.NewVariable(), y = base.NewVariable(),
              z = base.NewVariable();
  atoms.push_back({Type(), QueryTerm::Variable(x),
                   QueryTerm::Constant(Iri("Publication"))});
  atoms.push_back({Iri("author"), QueryTerm::Variable(x),
                   QueryTerm::Variable(y)});
  atoms.push_back({Iri("worksAt"), QueryTerm::Variable(y),
                   QueryTerm::Variable(z)});
  atoms.push_back({Iri("name"), QueryTerm::Variable(z),
                   QueryTerm::Constant(Lit("AIFB"))});
  for (const Atom& a : atoms) base.AddAtom(a);
  const std::string canonical = base.CanonicalString();
  for (int trial = 0; trial < 10; ++trial) {
    rng.Shuffle(&atoms);
    ConjunctiveQuery q;
    q.NewVariable();
    q.NewVariable();
    q.NewVariable();
    for (const Atom& a : atoms) q.AddAtom(a);
    EXPECT_EQ(q.CanonicalString(), canonical);
  }
}

// ------------------------------------------- Canonical form, differential --

/// The canonical form as first written: per labeling, render every atom
/// and filter, sort, de-duplicate and join, keeping the smallest string.
/// CanonicalString renders each fragment once and only patches the rank
/// digits per labeling; it must return these bytes exactly. Filter values use the shortest exact
/// fixed form (the first version's "%g" lost digits).
std::string ReferenceCanonicalString(const ConjunctiveQuery& q) {
  std::vector<VarId> used;
  {
    std::set<VarId> seen;
    for (const Atom& a : q.atoms()) {
      if (a.subject.is_variable) seen.insert(a.subject.var);
      if (a.object.is_variable) seen.insert(a.object.var);
    }
    for (const FilterCondition& f : q.filters()) seen.insert(f.var);
    used.assign(seen.begin(), seen.end());
  }
  std::vector<VarId> rank_of_var(q.num_variables(), 0);
  auto term = [&rank_of_var](const QueryTerm& t) {
    if (t.is_variable) return StrFormat("v%u", rank_of_var[t.var]);
    return StrFormat("c%u", t.term);
  };
  auto value = [](double v) {
    char buf[400];
    return std::string(
        buf,
        std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed).ptr);
  };
  auto serialize = [&]() {
    std::vector<std::string> rendered;
    for (const Atom& a : q.atoms()) {
      rendered.push_back(StrFormat("%u|%s|%s", a.predicate,
                                   term(a.subject).c_str(),
                                   term(a.object).c_str()));
    }
    for (const FilterCondition& f : q.filters()) {
      rendered.push_back(StrFormat("F|v%u|%s|%s", rank_of_var[f.var],
                                   std::string(FilterOpSymbol(f.op)).c_str(),
                                   value(f.value).c_str()));
    }
    std::sort(rendered.begin(), rendered.end());
    rendered.erase(std::unique(rendered.begin(), rendered.end()),
                   rendered.end());
    return Join(rendered, ";");
  };

  if (used.size() <= ConjunctiveQuery::kExactCanonicalVarLimit) {
    std::vector<VarId> perm(used.size());
    for (VarId i = 0; i < perm.size(); ++i) perm[i] = i;
    std::string best;
    do {
      for (std::size_t i = 0; i < used.size(); ++i) {
        rank_of_var[used[i]] = perm[i];
      }
      std::string candidate = serialize();
      if (best.empty() || candidate < best) best = std::move(candidate);
    } while (std::next_permutation(perm.begin(), perm.end()));
    return best;
  }

  // Greedy fallback: occurrence count desc, sorted incident predicates,
  // variable id.
  struct Signature {
    std::size_t occurrences = 0;
    std::vector<std::uint64_t> incident;
    VarId var = 0;
  };
  std::vector<Signature> signatures;
  for (VarId v : used) {
    Signature sig;
    sig.var = v;
    for (const Atom& a : q.atoms()) {
      if (a.subject.is_variable && a.subject.var == v) {
        ++sig.occurrences;
        sig.incident.push_back(static_cast<std::uint64_t>(a.predicate) << 1);
      }
      if (a.object.is_variable && a.object.var == v) {
        ++sig.occurrences;
        sig.incident.push_back((static_cast<std::uint64_t>(a.predicate) << 1) |
                               1);
      }
    }
    std::sort(sig.incident.begin(), sig.incident.end());
    signatures.push_back(std::move(sig));
  }
  std::sort(signatures.begin(), signatures.end(),
            [](const Signature& a, const Signature& b) {
              if (a.occurrences != b.occurrences) {
                return a.occurrences > b.occurrences;
              }
              if (a.incident != b.incident) return a.incident < b.incident;
              return a.var < b.var;
            });
  for (std::size_t i = 0; i < signatures.size(); ++i) {
    rank_of_var[signatures[i].var] = static_cast<VarId>(i);
  }
  return serialize();
}

/// A random query whose atoms and filters use exactly `num_used` variables,
/// drawn from a slightly larger id range so unused ids occur too. The ids
/// are prefix-prone on purpose: "12|" sorts before "1|" (a digit is below
/// '|'), "c5" is a prefix of "c55", and "c5;" sorts after "c55" once the
/// join adds the separator. Atoms and filters repeat now and then.
ConjunctiveQuery RandomCanonicalQuery(Rng& rng, std::size_t num_used) {
  static constexpr rdf::TermId kPredicates[] = {1, 12, 123, 2};
  static constexpr rdf::TermId kConstants[] = {5, 55, 555, 6};
  static constexpr double kValues[] = {2000,      19.5, 1234567, 1234568,
                                       0.1234567, 1e20, -3,      0};
  static constexpr FilterOp kOps[] = {FilterOp::kLess, FilterOp::kLessEqual,
                                      FilterOp::kGreater,
                                      FilterOp::kGreaterEqual,
                                      FilterOp::kNotEqual};
  ConjunctiveQuery q;
  std::vector<VarId> ids(num_used + rng.NextBelow(3));
  for (VarId& id : ids) id = q.NewVariable();
  rng.Shuffle(&ids);
  ids.resize(num_used);

  auto add_filter = [&](VarId var) {
    q.AddFilter({var, kOps[rng.NextBelow(5)], kValues[rng.NextBelow(8)]});
  };
  if (!ids.empty() && ids.size() <= 2 && rng.NextBernoulli(0.05)) {
    for (VarId v : ids) add_filter(v);  // zero atoms, filters only
    return q;
  }
  std::size_t next_uncovered = 0;
  auto term = [&]() {
    if (next_uncovered < ids.size()) {
      return QueryTerm::Variable(ids[next_uncovered++]);
    }
    if (!ids.empty() && rng.NextBernoulli(0.7)) {
      return QueryTerm::Variable(ids[rng.NextBelow(ids.size())]);
    }
    return QueryTerm::Constant(kConstants[rng.NextBelow(4)]);
  };
  const std::size_t num_atoms = (ids.size() + 1) / 2 + rng.NextBelow(4);
  for (std::size_t i = 0; i < num_atoms; ++i) {
    QueryTerm subject = term();
    QueryTerm object = term();
    if (rng.NextBernoulli(0.5)) std::swap(subject, object);
    q.AddAtom({kPredicates[rng.NextBelow(4)], subject, object});
    if (rng.NextBernoulli(0.15)) {
      q.AddAtom(q.atoms()[rng.NextBelow(q.atoms().size())]);
    }
  }
  if (!ids.empty()) {
    for (std::size_t i = rng.NextBelow(3); i > 0; --i) {
      add_filter(ids[rng.NextBelow(ids.size())]);
      if (rng.NextBernoulli(0.1)) q.AddFilter(q.filters().back());
    }
  }
  return q;
}

/// The same query with its variable ids permuted and its atoms and filters
/// shuffled: isomorphic by construction.
ConjunctiveQuery Relabeled(Rng& rng, const ConjunctiveQuery& q) {
  std::vector<VarId> rename(q.num_variables());
  ConjunctiveQuery out;
  for (VarId& v : rename) v = out.NewVariable();
  rng.Shuffle(&rename);
  auto map = [&rename](QueryTerm t) {
    if (t.is_variable) t.var = rename[t.var];
    return t;
  };
  std::vector<Atom> atoms = q.atoms();
  rng.Shuffle(&atoms);
  for (const Atom& a : atoms) {
    out.AddAtom({a.predicate, map(a.subject), map(a.object)});
  }
  std::vector<FilterCondition> filters = q.filters();
  rng.Shuffle(&filters);
  for (FilterCondition f : filters) {
    f.var = rename[f.var];
    out.AddFilter(f);
  }
  return out;
}

TEST(CanonicalDifferentialTest, RandomQueriesMatchReference) {
  // Most queries have 0-5 variables; the 6-8 variable tail is thinner
  // because the reference pays up to 8! string joins per call.
  constexpr std::size_t kQueries = 20000;
  Rng rng(20240611);
  std::size_t per_count[ConjunctiveQuery::kExactCanonicalVarLimit + 1] = {};
  for (std::size_t i = 0; i < kQueries; ++i) {
    const std::size_t num_used = i < 16    ? 8
                                 : i < 136 ? 7
                                 : i < 736 ? 6
                                           : i % 6;
    const ConjunctiveQuery q = RandomCanonicalQuery(rng, num_used);
    const std::string expected = ReferenceCanonicalString(q);
    ASSERT_EQ(q.CanonicalString(), expected) << "query " << i;
    ASSERT_EQ(Relabeled(rng, q).CanonicalString(), expected) << "query " << i;
    ++per_count[num_used];
  }
  for (std::size_t count : per_count) EXPECT_GT(count, 0u);
}

TEST(CanonicalDifferentialTest, GreedyFallbackMatchesReference) {
  Rng rng(7);
  for (std::size_t i = 0; i < 500; ++i) {
    const std::size_t num_used =
        ConjunctiveQuery::kExactCanonicalVarLimit + 1 + i % 4;
    const ConjunctiveQuery q = RandomCanonicalQuery(rng, num_used);
    ASSERT_EQ(q.CanonicalString(), ReferenceCanonicalString(q))
        << "query " << i;
  }
}

TEST(CanonicalDifferentialTest, DblpMappedQueriesMatchReference) {
  // Every distinct query Search maps for the Fig. 4 and Fig. 5 workloads
  // under C1-C3: with no overfetch, Search(k = 20) maps the same 20
  // subgraphs as the default Search(k = 10) and returns every distinct
  // query among them.
  grasp::testing::Dataset data;
  datagen::GenerateDblp(datagen::DblpOptions{}, &data.dictionary, &data.store);
  data.store.Finalize();
  core::KeywordSearchEngine::Options options;
  options.subgraph_overfetch = 1.0;
  const core::KeywordSearchEngine engine(data.store, data.dictionary, options);
  std::vector<datagen::WorkloadQuery> workload =
      datagen::DblpEffectivenessWorkload();
  for (auto& q : datagen::DblpPerformanceWorkload()) workload.push_back(q);
  std::size_t pinned = 0;
  std::set<std::size_t> variable_counts;
  for (const datagen::WorkloadQuery& wq : workload) {
    for (core::CostModel model :
         {core::CostModel::kPathLength, core::CostModel::kPopularity,
          core::CostModel::kMatching}) {
      core::ExplorationOptions explore;
      explore.cost_model = model;
      const auto result = engine.Search(wq.keywords, 20, explore);
      for (const auto& ranked : result.queries) {
        const std::string expected = ReferenceCanonicalString(ranked.query);
        ASSERT_EQ(ranked.canonical, expected) << wq.id;
        ASSERT_EQ(ranked.query.CanonicalString(), expected) << wq.id;
        variable_counts.insert(ranked.query.num_variables());
        ++pinned;
      }
    }
  }
  EXPECT_GT(pinned, 1000u);
  EXPECT_GE(variable_counts.size(), 3u);
}

// ------------------------------------------------------------ Rendering --

TEST_F(QueryFixture, SparqlRendering) {
  ConjunctiveQuery q;
  const VarId x = q.NewVariable(), y = q.NewVariable();
  q.AddAtom({Type(), QueryTerm::Variable(x),
             QueryTerm::Constant(Iri("Publication"))});
  q.AddAtom({Iri("year"), QueryTerm::Variable(x),
             QueryTerm::Constant(Lit("2006"))});
  q.AddAtom({Iri("author"), QueryTerm::Variable(x), QueryTerm::Variable(y)});
  const std::string sparql = q.ToSparql(dataset_.dictionary);
  EXPECT_NE(sparql.find("SELECT ?x0 ?x1 WHERE {"), std::string::npos);
  EXPECT_NE(sparql.find("?x0 <http://example.org/year> \"2006\" ."),
            std::string::npos);
  EXPECT_NE(sparql.find(
                "?x0 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
                "<http://example.org/Publication> ."),
            std::string::npos);
}

TEST_F(QueryFixture, SparqlEscapesLiterals) {
  ConjunctiveQuery q;
  q.AddAtom({Iri("name"), QueryTerm::Variable(q.NewVariable()),
             QueryTerm::Constant(Lit("say \"hi\"\n"))});
  EXPECT_NE(q.ToSparql(dataset_.dictionary).find(R"("say \"hi\"\n")"),
            std::string::npos);
}

TEST_F(QueryFixture, ToStringUsesLocalNames) {
  ConjunctiveQuery q;
  q.AddAtom({Iri("worksAt"), QueryTerm::Variable(q.NewVariable()),
             QueryTerm::Constant(Iri("AIFB_Institute"))});
  const std::string s = q.ToString(dataset_.dictionary);
  EXPECT_NE(s.find("worksAt(?x0, AIFB_Institute)"), std::string::npos);
}

// ------------------------------------------------------------ Evaluator --

class EvaluatorTest : public QueryFixture {};

TEST_F(EvaluatorTest, EmptyQueryIsInvalid) {
  ConjunctiveQuery q;
  auto result = Evaluate(dataset_.store, q);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EvaluatorTest, GroundAtomPresent) {
  ConjunctiveQuery q;
  q.AddAtom({Iri("worksAt"), QueryTerm::Constant(Iri("re1")),
             QueryTerm::Constant(Iri("inst1"))});
  auto result = Evaluate(dataset_.store, q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 1u);  // the empty binding
}

TEST_F(EvaluatorTest, GroundAtomAbsent) {
  ConjunctiveQuery q;
  q.AddAtom({Iri("worksAt"), QueryTerm::Constant(Iri("re1")),
             QueryTerm::Constant(Iri("inst2"))});
  auto result = Evaluate(dataset_.store, q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
}

TEST_F(EvaluatorTest, SingleAtomBindings) {
  ConjunctiveQuery q;
  const VarId x = q.NewVariable();
  q.AddAtom({Type(), QueryTerm::Variable(x),
             QueryTerm::Constant(Iri("Researcher"))});
  auto result = Evaluate(dataset_.store, q);
  ASSERT_TRUE(result.ok());
  std::set<std::string> names;
  for (const auto& row : result->rows) {
    names.insert(std::string(dataset_.dictionary.text(row[0])));
  }
  EXPECT_EQ(names, (std::set<std::string>{
                       std::string(grasp::testing::kEx) + "re1",
                       std::string(grasp::testing::kEx) + "re2"}));
}

TEST_F(EvaluatorTest, PaperExampleQuery) {
  // Fig. 1c: publications of 2006 by P. Cimiano who works at AIFB.
  ConjunctiveQuery q;
  const VarId x = q.NewVariable(), y = q.NewVariable(), z = q.NewVariable();
  q.AddAtom({Type(), QueryTerm::Variable(x),
             QueryTerm::Constant(Iri("Publication"))});
  q.AddAtom({Iri("year"), QueryTerm::Variable(x),
             QueryTerm::Constant(Lit("2006"))});
  q.AddAtom({Iri("author"), QueryTerm::Variable(x), QueryTerm::Variable(y)});
  q.AddAtom({Iri("name"), QueryTerm::Variable(y),
             QueryTerm::Constant(Lit("P._Cimiano"))});
  q.AddAtom({Iri("worksAt"), QueryTerm::Variable(y), QueryTerm::Variable(z)});
  q.AddAtom({Iri("name"), QueryTerm::Variable(z),
             QueryTerm::Constant(Lit("AIFB"))});
  auto result = Evaluate(dataset_.store, q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  ASSERT_EQ(result->variables.size(), 3u);
  EXPECT_EQ(dataset_.dictionary.text(result->rows[0][0]),
            std::string(grasp::testing::kEx) + "pub1");
  EXPECT_EQ(dataset_.dictionary.text(result->rows[0][1]),
            std::string(grasp::testing::kEx) + "re2");
  EXPECT_EQ(dataset_.dictionary.text(result->rows[0][2]),
            std::string(grasp::testing::kEx) + "inst1");
}

TEST_F(EvaluatorTest, LimitTruncates) {
  ConjunctiveQuery q;
  const VarId x = q.NewVariable(), y = q.NewVariable();
  q.AddAtom({Type(), QueryTerm::Variable(x), QueryTerm::Variable(y)});
  EvalOptions options;
  options.limit = 3;
  auto result = Evaluate(dataset_.store, q, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 3u);
  EXPECT_TRUE(result->truncated);
}

TEST_F(EvaluatorTest, MaxStepsTruncates) {
  ConjunctiveQuery q;
  const VarId x = q.NewVariable(), y = q.NewVariable();
  q.AddAtom({Type(), QueryTerm::Variable(x), QueryTerm::Variable(y)});
  EvalOptions options;
  options.max_steps = 2;
  auto result = Evaluate(dataset_.store, q, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->truncated);
}

TEST_F(EvaluatorTest, SameVariableTwiceInAtom) {
  auto dataset = grasp::testing::MakeDataset({
      R"(a knows a)",
      R"(a knows b)",
      R"(b knows a)",
  });
  ConjunctiveQuery q;
  const VarId x = q.NewVariable();
  q.AddAtom({dataset.dictionary.Find(rdf::TermKind::kIri,
                                     std::string(grasp::testing::kEx) +
                                         "knows"),
             QueryTerm::Variable(x), QueryTerm::Variable(x)});
  auto result = Evaluate(dataset.store, q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);  // only a knows a
  EXPECT_EQ(dataset.dictionary.text(result->rows[0][0]),
            std::string(grasp::testing::kEx) + "a");
}

TEST_F(EvaluatorTest, CyclicQueryPattern) {
  auto dataset = grasp::testing::MakeDataset({
      R"(a p b)", R"(b p c)", R"(c p a)",  // 3-cycle
      R"(x p y)", R"(y p x)",              // 2-cycle
  });
  const rdf::TermId p = dataset.dictionary.Find(
      rdf::TermKind::kIri, std::string(grasp::testing::kEx) + "p");
  ConjunctiveQuery q;
  const VarId x = q.NewVariable(), y = q.NewVariable(), z = q.NewVariable();
  q.AddAtom({p, QueryTerm::Variable(x), QueryTerm::Variable(y)});
  q.AddAtom({p, QueryTerm::Variable(y), QueryTerm::Variable(z)});
  q.AddAtom({p, QueryTerm::Variable(z), QueryTerm::Variable(x)});
  auto result = Evaluate(dataset.store, q);
  ASSERT_TRUE(result.ok());
  // Exactly the 3 rotations of the triangle. The 2-cycle contributes
  // nothing: a closed walk of odd length cannot exist in a bipartite
  // component, so no assignment over {x,y} satisfies all three atoms.
  std::set<std::vector<rdf::TermId>> rows(result->rows.begin(),
                                          result->rows.end());
  EXPECT_EQ(rows.size(), 3u);
}

/// Property: the indexed evaluator agrees with a naive enumerate-all-
/// assignments oracle on random small graphs and random queries.
class EvaluatorPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EvaluatorPropertyTest, AgreesWithAssignmentOracle) {
  Rng rng(GetParam());
  auto dataset = grasp::testing::MakeRandomDataset(GetParam(), 3, 8, 14, 2, 6, 3);
  const auto& store = dataset.store;

  // Collect all terms appearing anywhere (candidate assignments).
  std::set<rdf::TermId> term_set;
  for (const auto& t : store.triples()) {
    term_set.insert(t.subject);
    term_set.insert(t.object);
  }
  std::vector<rdf::TermId> terms(term_set.begin(), term_set.end());
  std::vector<rdf::TermId> predicates;
  {
    std::set<rdf::TermId> preds;
    for (const auto& t : store.triples()) preds.insert(t.predicate);
    predicates.assign(preds.begin(), preds.end());
  }

  for (int trial = 0; trial < 10; ++trial) {
    // Random query: 1-3 atoms over <= 3 variables, random constants.
    ConjunctiveQuery q;
    const int num_vars = 1 + static_cast<int>(rng.NextBelow(3));
    std::vector<VarId> vars;
    for (int i = 0; i < num_vars; ++i) vars.push_back(q.NewVariable());
    const int num_atoms = 1 + static_cast<int>(rng.NextBelow(3));
    for (int i = 0; i < num_atoms; ++i) {
      auto random_term = [&]() {
        if (rng.NextBernoulli(0.7)) {
          return QueryTerm::Variable(vars[rng.NextBelow(vars.size())]);
        }
        return QueryTerm::Constant(terms[rng.NextBelow(terms.size())]);
      };
      q.AddAtom({predicates[rng.NextBelow(predicates.size())], random_term(),
                 random_term()});
    }

    auto result = Evaluate(store, q);
    ASSERT_TRUE(result.ok());

    // Oracle: enumerate every assignment of used variables to terms.
    std::set<VarId> used;
    for (const Atom& a : q.atoms()) {
      if (a.subject.is_variable) used.insert(a.subject.var);
      if (a.object.is_variable) used.insert(a.object.var);
    }
    std::vector<VarId> used_vars(used.begin(), used.end());
    std::set<std::vector<rdf::TermId>> expected;
    std::vector<rdf::TermId> assignment(q.num_variables(),
                                        rdf::kInvalidTermId);
    std::function<void(std::size_t)> enumerate = [&](std::size_t i) {
      if (i == used_vars.size()) {
        for (const Atom& a : q.atoms()) {
          const rdf::TermId s =
              a.subject.is_variable ? assignment[a.subject.var] : a.subject.term;
          const rdf::TermId o =
              a.object.is_variable ? assignment[a.object.var] : a.object.term;
          if (!store.Contains({s, a.predicate, o})) return;
        }
        std::vector<rdf::TermId> row;
        for (VarId v : used_vars) row.push_back(assignment[v]);
        expected.insert(row);
        return;
      }
      for (rdf::TermId t : terms) {
        assignment[used_vars[i]] = t;
        enumerate(i + 1);
      }
    };
    enumerate(0);

    std::set<std::vector<rdf::TermId>> actual(result->rows.begin(),
                                              result->rows.end());
    EXPECT_EQ(actual, expected) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorPropertyTest,
                         ::testing::Values(7, 17, 27, 37, 47, 57));

}  // namespace
}  // namespace grasp::query
