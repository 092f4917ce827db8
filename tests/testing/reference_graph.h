// Test helper: reference oracles that read each edge from the direction
// opposite to the one the library reads (an outgoing value set from the
// in-arcs, and the reverse), by a full scan rather than the per-entity
// relationship runs. A test can so check one CSR array against the other.
#ifndef EGP_TESTS_TESTING_REFERENCE_GRAPH_H_
#define EGP_TESTS_TESTING_REFERENCE_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "graph/entity_graph.h"

namespace egp {
namespace testing_util {

/// Sorts and deduplicates a value list into a set.
inline void MakeSet(std::vector<EntityId>* values) {
  std::sort(values->begin(), values->end());
  values->erase(std::unique(values->begin(), values->end()), values->end());
}

/// Every edge of `rel_type` as a (key, value) pair seen from
/// `direction`: (source, destination) for kOutgoing, (destination,
/// source) for kIncoming. Read from the opposite direction's arcs.
inline std::vector<std::pair<EntityId, EntityId>> ReferenceEdges(
    const EntityGraph& graph, RelTypeId rel_type, Direction direction) {
  const FrozenGraph& adjacency = graph.adjacency();
  std::vector<std::pair<EntityId, EntityId>> edges;
  for (EntityId value = 0; value < graph.num_entities(); ++value) {
    for (const FrozenGraph::Arc& arc : direction == Direction::kOutgoing
                                           ? adjacency.InArcs(value)
                                           : adjacency.OutArcs(value)) {
      if (arc.rel_type == rel_type) edges.emplace_back(arc.neighbor, value);
    }
  }
  return edges;
}

/// The values of `e` through edges of `rel_type` in the given direction,
/// one per edge (multigraph repeats kept), in no particular order.
inline std::vector<EntityId> ReferenceValueList(const EntityGraph& graph,
                                                EntityId e,
                                                RelTypeId rel_type,
                                                Direction direction) {
  std::vector<EntityId> values;
  for (const auto& [key, value] : ReferenceEdges(graph, rel_type, direction)) {
    if (key == e) values.push_back(value);
  }
  return values;
}

/// t.γ(τ,τ') / t.γ(τ',τ): the neighbours of `e` through edges of
/// `rel_type` in the given direction. Deduplicated, sorted.
inline std::vector<EntityId> ReferenceNeighborSet(const EntityGraph& graph,
                                                  EntityId e,
                                                  RelTypeId rel_type,
                                                  Direction direction) {
  std::vector<EntityId> out = ReferenceValueList(graph, e, rel_type, direction);
  MakeSet(&out);
  return out;
}

/// Sτ_cov(γ): the number of data edges of one relationship type, counted
/// in the in-arcs (schema support counts read the out-arcs).
inline uint64_t RelTypeEdgeCount(const EntityGraph& graph,
                                 RelTypeId rel_type) {
  return ReferenceEdges(graph, rel_type, Direction::kOutgoing).size();
}

/// Sτ_ent(γ) as §3.3 defines it: the base-10 entropy of the key tuples'
/// non-empty value sets, grouped by set equality.
inline double ReferenceRelationshipEntropy(const EntityGraph& graph,
                                           RelTypeId rel_type,
                                           Direction direction) {
  // Every key entity's value list in one pass; a tuple without values
  // never appears, as |t.γ| counts non-empty tuples only.
  std::map<EntityId, std::vector<EntityId>> values;
  for (const auto& [key, value] : ReferenceEdges(graph, rel_type, direction)) {
    values[key].push_back(value);
  }
  std::map<std::vector<EntityId>, uint64_t> groups;
  for (auto& [key, value_set] : values) {
    MakeSet(&value_set);
    ++groups[value_set];
  }
  std::vector<uint64_t> counts;
  counts.reserve(groups.size());
  for (const auto& [value_set, count] : groups) counts.push_back(count);
  return EntropyLog10(counts);
}

}  // namespace testing_util
}  // namespace egp

#endif  // EGP_TESTS_TESTING_REFERENCE_GRAPH_H_
