#include "query/verbalizer.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/string_util.h"
#include "rdf/data_graph.h"
#include "rdf/term.h"

namespace grasp::query {
namespace {

/// Splits a camelCase / snake_case local name into lower-case words
/// ("worksAt" -> "works at").
std::string HumanizeLocalName(std::string_view local) {
  std::string out;
  char prev = '\0';
  for (char c : local) {
    if (c == '_' || c == '-') {
      if (!out.empty() && out.back() != ' ') out.push_back(' ');
      prev = c;
      continue;
    }
    if (std::isupper(static_cast<unsigned char>(c)) &&
        std::islower(static_cast<unsigned char>(prev)) && !out.empty()) {
      out.push_back(' ');
    }
    out.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    prev = c;
  }
  return out;
}

struct VarFacts {
  std::string class_name;                       // from type atoms ("thing" if none)
  std::vector<std::string> attribute_clauses;   // "whose year is '2006'"
  std::vector<std::string> filter_clauses;      // "whose value is > 2000"
  /// (predicate, object var) pairs for relation atoms rooted here.
  std::vector<std::pair<std::string, VarId>> relations;
  bool is_root = true;  // no relation atom points at this variable
};

}  // namespace

std::string Verbalize(const ConjunctiveQuery& query,
                      const rdf::Dictionary& dictionary,
                      const VerbalizeOptions& options) {
  if (query.empty()) return options.prefix + " thing.";
  const rdf::TermId type_term =
      dictionary.Find(rdf::TermKind::kIri, rdf::Vocabulary().type_iri);

  std::map<VarId, VarFacts> facts;
  auto local = [&dictionary](rdf::TermId term) {
    return HumanizeLocalName(rdf::IriLocalName(dictionary.text(term)));
  };
  auto value_text = [&dictionary](rdf::TermId term) {
    if (dictionary.kind(term) == rdf::TermKind::kLiteral) {
      return "'" + std::string(dictionary.text(term)) + "'";
    }
    return std::string(rdf::IriLocalName(dictionary.text(term)));
  };

  std::vector<std::string> ground_clauses;
  for (const Atom& atom : query.atoms()) {
    if (!atom.subject.is_variable) {
      // Ground assertions (e.g. subClassOf(Article, Publication)).
      ground_clauses.push_back(StrFormat(
          "%s %s %s", value_text(atom.subject.term).c_str(),
          local(atom.predicate).c_str(),
          atom.object.is_variable ? "something"
                                  : value_text(atom.object.term).c_str()));
      continue;
    }
    VarFacts& f = facts[atom.subject.var];
    if (atom.predicate == type_term && !atom.object.is_variable) {
      const std::string cls = local(atom.object.term);
      // Keep the most specific (first) class mention.
      if (f.class_name.empty()) f.class_name = cls;
      continue;
    }
    if (atom.object.is_variable) {
      facts[atom.object.var].is_root = false;
      f.relations.emplace_back(local(atom.predicate), atom.object.var);
    } else {
      f.attribute_clauses.push_back(
          StrFormat("whose %s is %s", local(atom.predicate).c_str(),
                    value_text(atom.object.term).c_str()));
    }
  }
  for (const FilterCondition& filter : query.filters()) {
    facts[filter.var].filter_clauses.push_back(StrFormat(
        "that is %s %s", std::string(FilterOpSymbol(filter.op)).c_str(),
        RenderFilterValue(filter.value).c_str()));
  }

  // Render one variable as a noun phrase, following relations depth-first.
  std::set<VarId> rendered;
  std::function<std::string(VarId, bool)> phrase = [&](VarId v,
                                                       bool with_article) {
    VarFacts& f = facts[v];
    std::string noun = f.class_name.empty() ? "thing" : f.class_name;
    std::string out = with_article ? "some " + noun : noun;
    if (!rendered.insert(v).second) return out;  // avoid cycles
    std::vector<std::string> clauses = f.attribute_clauses;
    for (const std::string& fc : f.filter_clauses) clauses.push_back(fc);
    for (const auto& [pred, object] : f.relations) {
      clauses.push_back(
          StrFormat("with %s %s", pred.c_str(), phrase(object, true).c_str()));
    }
    if (!clauses.empty()) out += " " + Join(clauses, ", ");
    return out;
  };

  // Start from root variables (never the object of a relation), in id order.
  std::vector<std::string> sentences;
  for (auto& [var, f] : facts) {
    if (!f.is_root || rendered.count(var) > 0) continue;
    sentences.push_back(phrase(var, false));
  }
  // Any leftover variables (pure cycles).
  for (auto& [var, f] : facts) {
    (void)f;
    if (rendered.count(var) == 0) sentences.push_back(phrase(var, false));
  }
  for (const std::string& g : ground_clauses) sentences.push_back(g);

  return options.prefix + " " + Join(sentences, "; and every ") + ".";
}

}  // namespace grasp::query
