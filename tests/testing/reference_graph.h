// Test helper: reference oracles that read an entity graph's edge array
// directly, independent of the CSR adjacency the library reads, so a test
// can check one against the other.
#ifndef EGP_TESTS_TESTING_REFERENCE_GRAPH_H_
#define EGP_TESTS_TESTING_REFERENCE_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <map>
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

/// t.γ(τ,τ') / t.γ(τ',τ): the neighbours of `e` through edges of
/// `rel_type` in the given direction. Deduplicated, sorted.
inline std::vector<EntityId> ReferenceNeighborSet(const EntityGraph& graph,
                                                  EntityId e,
                                                  RelTypeId rel_type,
                                                  Direction direction) {
  const bool outgoing = direction == Direction::kOutgoing;
  std::vector<EntityId> out;
  for (const EdgeRecord& edge : graph.edges()) {
    if (edge.rel_type == rel_type && (outgoing ? edge.src : edge.dst) == e) {
      out.push_back(outgoing ? edge.dst : edge.src);
    }
  }
  MakeSet(&out);
  return out;
}

/// Sτ_cov(γ): the number of data edges of one relationship type.
inline uint64_t RelTypeEdgeCount(const EntityGraph& graph,
                                 RelTypeId rel_type) {
  return static_cast<uint64_t>(std::count_if(
      graph.edges().begin(), graph.edges().end(),
      [rel_type](const EdgeRecord& e) { return e.rel_type == rel_type; }));
}

/// Sτ_ent(γ) as §3.3 defines it: the base-10 entropy of the key tuples'
/// non-empty value sets, grouped by set equality.
inline double ReferenceRelationshipEntropy(const EntityGraph& graph,
                                           RelTypeId rel_type,
                                           Direction direction) {
  const bool outgoing = direction == Direction::kOutgoing;
  // Every key entity's value list in one pass; a tuple without values
  // never appears, as |t.γ| counts non-empty tuples only.
  std::map<EntityId, std::vector<EntityId>> values;
  for (const EdgeRecord& edge : graph.edges()) {
    if (edge.rel_type != rel_type) continue;
    values[outgoing ? edge.src : edge.dst].push_back(outgoing ? edge.dst
                                                              : edge.src);
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
