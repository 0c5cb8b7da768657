#ifndef GRASP_SNAPSHOT_ENGINE_SNAPSHOT_H_
#define GRASP_SNAPSHOT_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/status.h"
#include "keyword/keyword_index.h"
#include "rdf/data_graph.h"
#include "rdf/dictionary.h"
#include "rdf/triple_store.h"
#include "snapshot/mapped_file.h"
#include "summary/summary_graph.h"
#include "text/tokenizer.h"

namespace grasp::snapshot {

/// Borrowed views of the engine's immutable index state, as handed to the
/// snapshot writer (see KeywordSearchEngine::SaveIndex).
struct EngineParts {
  const rdf::Dictionary* dictionary = nullptr;
  const rdf::TripleStore* store = nullptr;
  const rdf::DataGraph* data_graph = nullptr;
  const summary::SummaryGraph* summary = nullptr;
  const keyword::KeywordIndex* keyword_index = nullptr;
};

/// Serializes the full immutable engine state into one page-aligned,
/// sectioned, checksummed image (see snapshot/format.h for the layout).
Status WriteEngineSnapshot(const EngineParts& parts, const std::string& path);

/// The result of loading a snapshot: the mapping plus every index structure,
/// ready to serve. The flat arrays (CSR topology, triple table, permutations)
/// point zero-copy into `mapping`; only the hash maps and string-bearing
/// structures (dictionary text, vocabulary, element contexts) are
/// materialized, each in one linear pass — no parsing, tokenization,
/// graph building or sorting happens.
///
/// `mapping` must outlive every other member (they are all heap-allocated,
/// so moving this struct is safe and keeps all internal pointers valid).
struct LoadedEngineParts {
  MappedFile mapping;
  std::unique_ptr<rdf::Dictionary> dictionary;
  std::unique_ptr<rdf::TripleStore> store;
  std::unique_ptr<rdf::DataGraph> data_graph;
  std::unique_ptr<summary::SummaryGraph> summary;
  std::unique_ptr<keyword::KeywordIndex> keyword_index;
  /// The lexical configuration the index was built with; querying with a
  /// different one would mis-tokenize keywords against the stored postings.
  text::AnalyzerOptions analyzer_options;
  double load_millis = 0.0;
};

/// Maps `path` and reconstructs the engine state. Every length, offset and
/// id read from the file is bounds-checked before use and all payload
/// checksums are verified; corrupt, truncated or incompatible images are
/// rejected with InvalidArgument and never produce partial state.
Result<LoadedEngineParts> ReadEngineSnapshot(const std::string& path);

}  // namespace grasp::snapshot

#endif  // GRASP_SNAPSHOT_ENGINE_SNAPSHOT_H_
