#ifndef GRASP_DATAGEN_WORKLOAD_H_
#define GRASP_DATAGEN_WORKLOAD_H_

#include <string>
#include <vector>

#include "query/conjunctive_query.h"
#include "rdf/dictionary.h"

namespace grasp::datagen {

/// Term of a gold-standard atom, written against local names so the
/// workload stays independent of interned ids.
struct GoldTerm {
  static GoldTerm Var(std::string name) {
    return GoldTerm{true, std::move(name), false};
  }
  static GoldTerm Cls(std::string local) {
    return GoldTerm{false, std::move(local), false};
  }
  static GoldTerm Lit(std::string text) {
    return GoldTerm{false, std::move(text), true};
  }

  bool is_var = false;
  std::string text;       ///< variable name, class/entity local name, or literal
  bool is_literal = false;
};

/// One gold atom; predicate "type" stands for rdf:type.
struct GoldAtom {
  std::string predicate;
  GoldTerm subject;
  GoldTerm object;
};

/// One evaluation query: keywords, the natural-language information need the
/// assessors provided (Sec. VII-A), and — when defined — the gold-standard
/// conjunctive query that satisfies the need. A generated query is "correct"
/// iff it is isomorphic to the gold query.
struct WorkloadQuery {
  std::string id;
  std::vector<std::string> keywords;
  std::string description;
  std::vector<GoldAtom> gold;
};

/// The 30 DBLP keyword queries of the effectiveness study (Fig. 4). The
/// paper collected these from 12 assessors; this reproduction ships an
/// executable equivalent against the generator's anchor entities (see
/// PAPER.md, "Substitutions").
std::vector<WorkloadQuery> DblpEffectivenessWorkload();

/// Q1-Q10 of the performance comparison (Fig. 5), ordered by keyword count
/// (2 up to 6) as in the original study.
std::vector<WorkloadQuery> DblpPerformanceWorkload();

/// The 9 TAP queries of the effectiveness study.
std::vector<WorkloadQuery> TapEffectivenessWorkload();

/// Materializes a workload query's gold standard against a dictionary.
/// `ns` is the generator namespace (kDblpNs / kTapNs). Constants are
/// interned on demand so the gold query can be compared (via isomorphism)
/// with engine output. Returns an empty query if no gold is defined.
query::ConjunctiveQuery BuildGoldQuery(const WorkloadQuery& workload_query,
                                       rdf::Dictionary* dictionary,
                                       const std::string& ns);

}  // namespace grasp::datagen

#endif  // GRASP_DATAGEN_WORKLOAD_H_
