// Dense id aliases, and the edge record made of them, used throughout
// the library.
//
// Entities, entity types and relationship types all get dense 32-bit ids
// assigned in insertion order; names live in name tables.
#ifndef EGP_GRAPH_IDS_H_
#define EGP_GRAPH_IDS_H_

#include <cstdint>
#include <limits>

namespace egp {

using EntityId = uint32_t;
using TypeId = uint32_t;     // entity type (schema graph vertex)
using RelTypeId = uint32_t;  // relationship type (schema graph edge)

inline constexpr uint32_t kInvalidId = std::numeric_limits<uint32_t>::max();

/// Orientation of a non-key attribute relative to a table's key type τ:
/// kOutgoing corresponds to γ(τ, τ') and kIncoming to γ(τ', τ).
enum class Direction : uint8_t { kOutgoing = 0, kIncoming = 1 };

/// One directed relationship instance e(src, dst) with its type: what
/// EntityGraphBuilder collects and FrozenGraph::Freeze indexes. A built
/// graph keeps its edges only as CSR arcs.
struct EdgeRecord {
  EntityId src;
  EntityId dst;
  RelTypeId rel_type;
};

inline const char* DirectionName(Direction d) {
  return d == Direction::kOutgoing ? "out" : "in";
}

}  // namespace egp

#endif  // EGP_GRAPH_IDS_H_
