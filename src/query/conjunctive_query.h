#ifndef GRASP_QUERY_CONJUNCTIVE_QUERY_H_
#define GRASP_QUERY_CONJUNCTIVE_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/filter_op.h"
#include "rdf/dictionary.h"

namespace grasp::query {

/// Variable identifier within one query (dense, starting at 0).
using VarId = std::uint32_t;

/// Subject or object of a query atom: a variable or an interned constant.
struct QueryTerm {
  static QueryTerm Variable(VarId var) {
    QueryTerm t;
    t.is_variable = true;
    t.var = var;
    return t;
  }
  static QueryTerm Constant(rdf::TermId term) {
    QueryTerm t;
    t.is_variable = false;
    t.term = term;
    return t;
  }

  bool is_variable = false;
  VarId var = 0;
  rdf::TermId term = rdf::kInvalidTermId;

  friend bool operator==(const QueryTerm& a, const QueryTerm& b) {
    if (a.is_variable != b.is_variable) return false;
    return a.is_variable ? a.var == b.var : a.term == b.term;
  }
};

/// One query atom P(s, o) (Definition 2). Predicates are always constants.
struct Atom {
  rdf::TermId predicate = rdf::kInvalidTermId;
  QueryTerm subject;
  QueryTerm object;

  friend bool operator==(const Atom& a, const Atom& b) {
    return a.predicate == b.predicate && a.subject == b.subject &&
           a.object == b.object;
  }
};

/// A numeric comparison on a variable — the filter-operator extension the
/// paper sketches in Sec. IX. Evaluates against the numeric interpretation
/// of the bound literal.
struct FilterCondition {
  VarId var = 0;
  FilterOp op = FilterOp::kGreater;
  double value = 0.0;

  friend bool operator==(const FilterCondition& a, const FilterCondition& b) {
    return a.var == b.var && a.op == b.op && a.value == b.value;
  }
};

/// A conjunctive query (Definition 2). Variables interact arbitrarily, so a
/// query is a graph pattern; all variables are treated as distinguished by
/// default ("a reasonable choice is to treat all query variables as
/// distinguished", Sec. VI-D). Optionally extended with numeric FILTER
/// conditions on variables (Sec. IX future work).
class ConjunctiveQuery {
 public:
  ConjunctiveQuery() = default;

  /// Appends an atom. Callers allocate variables via NewVariable().
  void AddAtom(Atom atom) { atoms_.push_back(atom); }

  /// Appends a numeric filter condition on a variable.
  void AddFilter(FilterCondition filter) { filters_.push_back(filter); }

  /// Allocates a fresh variable id.
  VarId NewVariable() { return num_variables_++; }

  const std::vector<Atom>& atoms() const { return atoms_; }
  const std::vector<FilterCondition>& filters() const { return filters_; }
  std::size_t num_variables() const { return num_variables_; }
  bool empty() const { return atoms_.empty(); }

  /// The cost assigned by the cost function C (lower is better).
  double cost() const { return cost_; }
  void set_cost(double cost) { cost_ = cost; }

  /// Removes duplicate atoms (the mapping rules of Sec. VI-D emit one type
  /// atom per incident edge, so duplicates are common) and duplicate
  /// filters.
  void DeduplicateAtoms();

  /// SPARQL rendering (Fig. 1c style). Variables print as ?x0, ?x1, ...
  std::string ToSparql(const rdf::Dictionary& dictionary) const;

  /// Compact one-line rendering using IRI local names; for logs and examples.
  std::string ToString(const rdf::Dictionary& dictionary) const;

  /// A serialization invariant under variable renaming and atom order:
  /// two queries are isomorphic iff their canonical strings are equal. Each
  /// atom renders as "<predicate>|<term>|<term>" and each filter as
  /// "F|v<rank>|<op>|<value>", where a constant is c<term id> and a variable
  /// is v<rank> under a labeling of the used variables with ranks 0..n-1;
  /// the string is the ';'-join of the sorted distinct fragments. Exact for
  /// queries with at most kExactCanonicalVarLimit variables (the paper's
  /// queries are far smaller): the smallest such join over all n!
  /// labelings. Because every rank is then one digit, the fragments are
  /// rendered once and each labeling only rewrites its rank digits in place
  /// (one digit slot per variable occurrence), re-sorts the fragment
  /// indices and joins them into a reused buffer that it compares with the
  /// best so far, so no labeling allocates once the buffers have grown.
  /// Beyond the limit a deterministic greedy labeling is used, which may
  /// distinguish some isomorphic pairs.
  std::string CanonicalString() const;

  /// At most 10, so that every exact-path rank is a single digit.
  static constexpr std::size_t kExactCanonicalVarLimit = 8;

  /// True when the two queries are isomorphic (equal canonical strings).
  friend bool Isomorphic(const ConjunctiveQuery& a, const ConjunctiveQuery& b) {
    return a.CanonicalString() == b.CanonicalString();
  }

 private:
  std::vector<Atom> atoms_;
  std::vector<FilterCondition> filters_;
  VarId num_variables_ = 0;
  double cost_ = 0.0;
};

}  // namespace grasp::query

#endif  // GRASP_QUERY_CONJUNCTIVE_QUERY_H_
