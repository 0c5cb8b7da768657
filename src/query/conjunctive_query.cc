#include "query/conjunctive_query.h"

#include <algorithm>
#include <charconv>
#include <numeric>
#include <set>
#include <string_view>

#include "common/string_util.h"
#include "rdf/ntriples.h"
#include "rdf/term.h"

namespace grasp::query {
namespace {

std::string RenderTermSparql(const QueryTerm& t,
                             const rdf::Dictionary& dictionary) {
  if (t.is_variable) return StrFormat("?x%u", t.var);
  if (dictionary.kind(t.term) == rdf::TermKind::kLiteral) {
    return "\"" + rdf::EscapeLiteral(dictionary.text(t.term)) + "\"";
  }
  return "<" + std::string(dictionary.text(t.term)) + ">";
}

std::string RenderTermShort(const QueryTerm& t,
                            const rdf::Dictionary& dictionary) {
  if (t.is_variable) return StrFormat("?x%u", t.var);
  if (dictionary.kind(t.term) == rdf::TermKind::kLiteral) {
    return "'" + std::string(dictionary.text(t.term)) + "'";
  }
  return std::string(rdf::IriLocalName(dictionary.text(t.term)));
}

void AppendUint(std::string* out, std::uint64_t value) {
  char buf[20];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/// The canonical fragments of a query under one variable labeling: one per
/// atom ("<predicate>|<term>|<term>") and one per filter
/// ("F|v<rank>|<op>|<value>"), stored back to back in `text`. A constant
/// renders as c<term id>, a variable as v<rank>; `slots` holds the position
/// of each variable occurrence's first rank digit.
struct CanonicalFragments {
  struct Slot {
    std::uint32_t pos;
    VarId var;
  };

  std::string text;
  std::vector<std::uint32_t> ends;  // fragment i ends at text[ends[i]]
  std::vector<Slot> slots;

  std::string_view operator[](std::size_t i) const {
    const std::uint32_t begin = i == 0 ? 0 : ends[i - 1];
    return std::string_view(text.data() + begin, ends[i] - begin);
  }
};

CanonicalFragments RenderFragments(const std::vector<Atom>& atoms,
                                   const std::vector<FilterCondition>& filters,
                                   const std::vector<VarId>& rank_of_var) {
  CanonicalFragments f;
  auto term = [&](const QueryTerm& t) {
    if (t.is_variable) {
      f.text.push_back('v');
      f.slots.push_back({static_cast<std::uint32_t>(f.text.size()), t.var});
      AppendUint(&f.text, rank_of_var[t.var]);
    } else {
      f.text.push_back('c');
      AppendUint(&f.text, t.term);
    }
  };
  for (const Atom& a : atoms) {
    AppendUint(&f.text, a.predicate);
    f.text.push_back('|');
    term(a.subject);
    f.text.push_back('|');
    term(a.object);
    f.ends.push_back(static_cast<std::uint32_t>(f.text.size()));
  }
  for (const FilterCondition& filter : filters) {
    f.text += "F|";
    term(QueryTerm::Variable(filter.var));
    f.text.push_back('|');
    f.text += FilterOpSymbol(filter.op);
    f.text.push_back('|');
    f.text += RenderFilterValue(filter.value);
    f.ends.push_back(static_cast<std::uint32_t>(f.text.size()));
  }
  return f;
}

/// Sorts fragment indices by fragment text.
void SortFragments(const CanonicalFragments& f,
                   std::vector<std::uint32_t>* order) {
  std::sort(order->begin(), order->end(),
            [&f](std::uint32_t a, std::uint32_t b) { return f[a] < f[b]; });
}

/// Writes the ';'-join of the distinct fragments, in `order` (sorted), into
/// `out`, replacing its contents but keeping its capacity.
void JoinDistinct(const CanonicalFragments& f,
                  const std::vector<std::uint32_t>& order, std::string* out) {
  out->clear();
  std::string_view prev;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::string_view piece = f[order[i]];
    if (i > 0 && piece == prev) continue;
    if (i > 0) out->push_back(';');
    out->append(piece);
    prev = piece;
  }
}

}  // namespace

void ConjunctiveQuery::DeduplicateAtoms() {
  std::vector<Atom> unique;
  for (const Atom& a : atoms_) {
    if (std::find(unique.begin(), unique.end(), a) == unique.end()) {
      unique.push_back(a);
    }
  }
  atoms_ = std::move(unique);
  std::vector<FilterCondition> unique_filters;
  for (const FilterCondition& f : filters_) {
    if (std::find(unique_filters.begin(), unique_filters.end(), f) ==
        unique_filters.end()) {
      unique_filters.push_back(f);
    }
  }
  filters_ = std::move(unique_filters);
}

std::string ConjunctiveQuery::ToSparql(
    const rdf::Dictionary& dictionary) const {
  std::set<VarId> vars;
  for (const Atom& a : atoms_) {
    if (a.subject.is_variable) vars.insert(a.subject.var);
    if (a.object.is_variable) vars.insert(a.object.var);
  }
  std::string out = "SELECT";
  if (vars.empty()) {
    out += " *";
  } else {
    for (VarId v : vars) out += StrFormat(" ?x%u", v);
  }
  out += " WHERE {\n";
  for (const Atom& a : atoms_) {
    out += "  " + RenderTermSparql(a.subject, dictionary) + " <" +
           std::string(dictionary.text(a.predicate)) + "> " +
           RenderTermSparql(a.object, dictionary) + " .\n";
  }
  for (const FilterCondition& f : filters_) {
    out += StrFormat("  FILTER(?x%u %s %s)\n", f.var,
                     std::string(FilterOpSymbol(f.op)).c_str(),
                     RenderFilterValue(f.value).c_str());
  }
  out += "}";
  return out;
}

std::string ConjunctiveQuery::ToString(
    const rdf::Dictionary& dictionary) const {
  std::vector<std::string> parts;
  parts.reserve(atoms_.size());
  for (const Atom& a : atoms_) {
    parts.push_back(StrFormat(
        "%s(%s, %s)",
        std::string(rdf::IriLocalName(dictionary.text(a.predicate))).c_str(),
        RenderTermShort(a.subject, dictionary).c_str(),
        RenderTermShort(a.object, dictionary).c_str()));
  }
  for (const FilterCondition& f : filters_) {
    parts.push_back(StrFormat("?x%u %s %s", f.var,
                              std::string(FilterOpSymbol(f.op)).c_str(),
                              RenderFilterValue(f.value).c_str()));
  }
  return Join(parts, " & ");
}

std::string ConjunctiveQuery::CanonicalString() const {
  // Collect the variables that actually occur.
  std::vector<VarId> used;
  {
    std::set<VarId> seen;
    for (const Atom& a : atoms_) {
      if (a.subject.is_variable) seen.insert(a.subject.var);
      if (a.object.is_variable) seen.insert(a.object.var);
    }
    for (const FilterCondition& f : filters_) seen.insert(f.var);
    used.assign(seen.begin(), seen.end());
  }

  std::vector<VarId> rank_of_var(num_variables_, 0);
  std::vector<std::uint32_t> order(atoms_.size() + filters_.size());
  std::iota(order.begin(), order.end(), 0u);

  if (used.size() <= kExactCanonicalVarLimit) {
    // Exact: lexicographically smallest serialization over all labelings.
    // Every rank is one digit, so the fragments are rendered once and each
    // labeling only rewrites the rank digits in place; the join goes into a
    // reused buffer, so after the first labelings nothing allocates.
    static_assert(kExactCanonicalVarLimit <= 10,
                  "ranks must render as one digit");
    CanonicalFragments fragments =
        RenderFragments(atoms_, filters_, rank_of_var);
    std::vector<VarId> perm(used.size());
    std::iota(perm.begin(), perm.end(), VarId{0});
    std::string best;
    std::string candidate;
    bool have_best = false;
    do {
      for (std::size_t i = 0; i < used.size(); ++i) {
        rank_of_var[used[i]] = perm[i];
      }
      for (const CanonicalFragments::Slot& slot : fragments.slots) {
        fragments.text[slot.pos] =
            static_cast<char>('0' + rank_of_var[slot.var]);
      }
      SortFragments(fragments, &order);
      JoinDistinct(fragments, order, &candidate);
      if (!have_best || candidate < best) {
        best.swap(candidate);
        have_best = true;
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
    return best;
  }

  // Greedy fallback: order variables by a deterministic structural
  // signature (occurrence count, then sorted incident predicates), ties by
  // variable id. Not a complete isomorphism test, but stable.
  struct Signature {
    std::size_t occurrences = 0;
    std::vector<std::uint64_t> incident;
    VarId var = 0;
  };
  std::vector<Signature> signatures;
  for (VarId v : used) {
    Signature sig;
    sig.var = v;
    for (const Atom& a : atoms_) {
      if (a.subject.is_variable && a.subject.var == v) {
        ++sig.occurrences;
        sig.incident.push_back((static_cast<std::uint64_t>(a.predicate) << 1));
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
  const CanonicalFragments fragments =
      RenderFragments(atoms_, filters_, rank_of_var);
  SortFragments(fragments, &order);
  std::string out;
  JoinDistinct(fragments, order, &out);
  return out;
}

}  // namespace grasp::query
