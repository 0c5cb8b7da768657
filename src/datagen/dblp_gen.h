#ifndef GRASP_DATAGEN_DBLP_GEN_H_
#define GRASP_DATAGEN_DBLP_GEN_H_

#include <cstdint>

#include "rdf/dictionary.h"
#include "rdf/triple_store.h"

namespace grasp::datagen {

/// Namespace used by the DBLP-like generator.
inline constexpr char kDblpNs[] = "http://dblp.example.org/";

/// Parameters of the synthetic bibliographic dataset standing in for the
/// real DBLP dump (26M triples in the paper; size here is a parameter —
/// see PAPER.md, "Substitutions"). The generator reproduces DBLP's *shape*: very few
/// classes and relations, a huge number of V-vertices (titles, names,
/// years), Zipfian author productivity, and venue/citation structure.
struct DblpOptions {
  std::uint64_t seed = 42;
  std::size_t num_authors = 1500;
  std::size_t num_publications = 5000;
  std::size_t num_venues = 40;
  std::size_t num_institutes = 60;
  /// Average number of citation edges per publication.
  double citations_per_publication = 1.2;
  int year_min = 1990;
  int year_max = 2008;
  /// Zipf exponent for author productivity.
  double author_skew = 1.1;
};

/// Generates the dataset into `dictionary` / `store` (store left
/// unfinalized so callers can add more data). Alongside the random bulk, a
/// deterministic set of *anchor* entities (well-known authors, venues,
/// institutes and publications) is always emitted; the evaluation workloads
/// of workload.h reference exactly these anchors, which makes the
/// gold-standard queries of Fig. 4 realizable on every generated instance.
void GenerateDblp(const DblpOptions& options, rdf::Dictionary* dictionary,
                  rdf::TripleStore* store);

}  // namespace grasp::datagen

#endif  // GRASP_DATAGEN_DBLP_GEN_H_
