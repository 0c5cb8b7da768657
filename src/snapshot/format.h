#ifndef GRASP_SNAPSHOT_FORMAT_H_
#define GRASP_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/hash.h"

namespace grasp::snapshot {

/// On-disk layout of an index snapshot: one page-aligned, sectioned,
/// checksummed binary image of the engine's full immutable state.
///
///   +------------------+ offset 0
///   | FileHeader       |  magic, version, section count, file size,
///   |                  |  checksum over the section table
///   +------------------+
///   | SectionEntry[n]  |  id, element size, offset, byte length, checksum
///   +------------------+ first page boundary
///   | section payload  |  flat arrays, each starting on its own page so a
///   | ...              |  warm engine can point CSR spans straight at the
///   +------------------+  mapping (zero-copy, any element alignment)
///
/// Every structural fact the loader uses (section count, offsets, lengths,
/// element sizes) is validated against the actual file size before any
/// payload byte is interpreted, and every payload section carries its own
/// checksum — a truncated, bit-flipped or hand-crafted file is rejected
/// with a clean Status instead of undefined behavior.

inline constexpr char kMagic[8] = {'G', 'R', 'S', 'P', 'I', 'D', 'X', '\n'};
/// Version 2 added the inverted index's length-bucket CSR sections (32/33);
/// the reader requires an exact version match, so older snapshots rebuild.
inline constexpr std::uint32_t kFormatVersion = 2;
/// Section payloads start on page boundaries; 4096 is safe for mmap on
/// every platform the engine targets (mappings are page-granular).
inline constexpr std::uint64_t kPageSize = 4096;
/// Hard bound on the section table; far above what the format defines, so
/// a corrupt count cannot drive a huge table scan.
inline constexpr std::uint32_t kMaxSections = 256;

/// Section identifiers. Values are part of the format: never renumber, only
/// append (and bump kFormatVersion on incompatible layout changes).
enum SectionId : std::uint32_t {
  kSectionMeta = 0,  ///< one EngineMeta record (scalar engine state)
  // rdf::Dictionary: per-term kinds + a length-delimited text blob.
  kSectionDictKinds = 1,
  kSectionDictOffsets = 2,
  kSectionDictText = 3,
  // rdf::TripleStore: sorted SPO table + POS/OSP permutations + stats.
  kSectionTriples = 4,
  kSectionTriplePos = 5,
  kSectionTripleOsp = 6,
  kSectionPredicateStats = 7,
  // rdf::DataGraph: vertex/edge records + out/in + entity->class CSR.
  kSectionDataNodes = 8,
  kSectionDataEdges = 9,
  kSectionDataOutOffsets = 10,
  kSectionDataOutValues = 11,
  kSectionDataInOffsets = 12,
  kSectionDataInValues = 13,
  kSectionDataClassOffsets = 14,
  kSectionDataClassValues = 15,
  // summary::SummaryGraph: node/edge records + incidence CSR.
  kSectionSummaryNodes = 16,
  kSectionSummaryEdges = 17,
  kSectionSummaryIncOffsets = 18,
  kSectionSummaryIncValues = 19,
  // keyword::KeywordIndex: flattened element/context tables + numerics.
  kSectionKwElements = 20,
  kSectionKwContexts = 21,
  kSectionKwCtxClasses = 22,
  kSectionKwCtxCounts = 23,
  kSectionKwNumeric = 24,
  // text::InvertedIndex: vocabulary blob + CSR postings + doc lengths.
  kSectionIiTermOffsets = 25,
  kSectionIiTermText = 26,
  kSectionIiPostingOffsets = 27,
  kSectionIiPostings = 28,
  kSectionIiDocTermCounts = 29,
  kSectionIiSortedTerms = 30,
  /// rdf::DataGraph: dense term -> vertex table.
  kSectionDataTermVertex = 31,
  /// text::InvertedIndex: fuzzy-scan length buckets (CSR over term
  /// indexes; bucket = term length). Added in format version 2.
  kSectionIiBucketOffsets = 32,
  kSectionIiBucketTerms = 33,
  // 34 is retired and never reused (it held a shard plan). Readers skip
  // ids they do not read, so images that still carry it open unchanged.
};

struct FileHeader {
  char magic[8];
  std::uint32_t format_version;
  std::uint32_t section_count;
  /// Total file size; must equal the mapped size exactly.
  std::uint64_t file_size;
  /// Checksum64 over the section table that follows the header.
  std::uint64_t table_checksum;
  std::uint64_t reserved;
};
static_assert(sizeof(FileHeader) == 40);

struct SectionEntry {
  std::uint32_t id;
  /// sizeof the element type the section was written with; a mismatch with
  /// the reader's type rejects snapshots from an incompatible ABI.
  std::uint32_t elem_size;
  std::uint64_t offset;       ///< from file start; page-aligned
  std::uint64_t byte_length;  ///< multiple of elem_size
  std::uint64_t checksum;     ///< Checksum64 over the payload bytes
};
static_assert(sizeof(SectionEntry) == 32);

/// Fast 64-bit content checksum. Four independent splitmix lanes keep the
/// multiply latency pipelined (verification bandwidth is on the warm-start
/// critical path: every section is checksummed before the engine serves).
/// Not cryptographic — it guards against truncation, bit rot and transport
/// corruption, not against an adversary crafting collisions.
inline std::uint64_t Checksum64(const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t h0 = 0xcbf29ce484222325ULL ^ Mix64(n);
  std::uint64_t h1 = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h2 = 0xbf58476d1ce4e5b9ULL;
  std::uint64_t h3 = 0x94d049bb133111ebULL;
  while (n >= 32) {
    std::uint64_t w0, w1, w2, w3;
    std::memcpy(&w0, p, 8);
    std::memcpy(&w1, p + 8, 8);
    std::memcpy(&w2, p + 16, 8);
    std::memcpy(&w3, p + 24, 8);
    h0 = Mix64(h0 ^ w0);
    h1 = Mix64(h1 ^ w1);
    h2 = Mix64(h2 ^ w2);
    h3 = Mix64(h3 ^ w3);
    p += 32;
    n -= 32;
  }
  std::uint64_t h = Mix64(h0 ^ Mix64(h1 ^ Mix64(h2 ^ h3)));
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = Mix64(h ^ w);
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    h = Mix64(h ^ tail);
  }
  return h;
}

}  // namespace grasp::snapshot

#endif  // GRASP_SNAPSHOT_FORMAT_H_
