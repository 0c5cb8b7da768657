#include "core/subgraph.h"

#include <cstdint>
#include <type_traits>

#include "common/hash.h"
#include "common/string_util.h"

namespace grasp::core {
namespace {

// Four independent splitmix lanes: lane j mixes elements j, j+4, ... of its
// stream, the phase restarting at the edge stream. The per-stream salts
// keep node and edge ids from colliding across streams, and the final fold
// binds both counts.
constexpr std::uint64_t kLaneSeed[4] = {
    0x6b7a5c3d2e1f0908ULL, 0x9e3779b97f4a7c15ULL, 0xbf58476d1ce4e5b9ULL,
    0x94d049bb133111ebULL};
constexpr std::uint64_t kNodeSalt = 0x100000000ULL;
constexpr std::uint64_t kEdgeSalt = 0x200000000ULL;

}  // namespace

std::uint64_t StructureHashOf(std::span<const summary::NodeId> nodes,
                              std::span<const summary::EdgeId> edges) {
  // Sequence-sensitive digest of the sorted sets. This hash is purely an
  // in-memory dedup key (candidate store, augmentation cache), never
  // serialized.
  static_assert(std::is_same_v<summary::NodeId, std::uint32_t>);
  static_assert(std::is_same_v<summary::EdgeId, std::uint32_t>);
  std::uint64_t lane[4] = {kLaneSeed[0], kLaneSeed[1], kLaneSeed[2],
                           kLaneSeed[3]};
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    lane[i & 3] = Mix64(lane[i & 3] ^ (nodes[i] | kNodeSalt));
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    lane[i & 3] = Mix64(lane[i & 3] ^ (edges[i] | kEdgeSalt));
  }
  const std::uint64_t counts =
      Mix64(static_cast<std::uint64_t>(nodes.size()) * 0x9e3779b97f4a7c15ULL ^
            static_cast<std::uint64_t>(edges.size()));
  return Mix64(lane[0] ^ Mix64(lane[1] ^ Mix64(lane[2] ^
                                               Mix64(lane[3] ^ counts))));
}

std::string MatchingSubgraph::StructureKey() const {
  std::string key;
  key.reserve(8 * (nodes.size() + edges.size()) + 2);
  for (summary::NodeId n : nodes) key += StrFormat("n%u,", n);
  key.push_back('|');
  for (summary::EdgeId e : edges) key += StrFormat("e%u,", e);
  return key;
}

std::uint64_t MatchingSubgraph::StructureHash() const {
  return StructureHashOf(nodes, edges);
}

}  // namespace grasp::core
