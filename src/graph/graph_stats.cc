#include "graph/graph_stats.h"

#include <algorithm>
#include <map>
#include <queue>

#include "graph/schema_distance.h"

namespace egp {

EntityGraphStats ComputeEntityGraphStats(const EntityGraph& graph) {
  EntityGraphStats stats;
  stats.num_entities = graph.num_entities();
  stats.num_edges = graph.num_edges();
  stats.num_types = graph.num_types();
  stats.num_rel_types = graph.num_rel_types();
  const FrozenGraph& adjacency = graph.adjacency();
  uint64_t degree_sum = 0;
  for (EntityId e = 0; e < graph.num_entities(); ++e) {
    const uint64_t out = adjacency.OutDegree(e);
    degree_sum += out;
    stats.max_out_degree = std::max(stats.max_out_degree, out);
    if (graph.TypesOf(e).size() > 1) ++stats.multi_typed_entities;
    if (out + adjacency.InDegree(e) == 0) ++stats.isolated_entities;
  }
  stats.avg_out_degree =
      stats.num_entities == 0
          ? 0.0
          : static_cast<double>(degree_sum) /
                static_cast<double>(stats.num_entities);
  return stats;
}

std::vector<uint32_t> SchemaComponents(const SchemaGraph& schema,
                                       uint32_t* component_count) {
  const size_t n = schema.num_types();
  std::vector<uint32_t> component(n, kInvalidId);
  uint32_t next = 0;
  for (TypeId start = 0; start < n; ++start) {
    if (component[start] != kInvalidId) continue;
    const uint32_t id = next++;
    std::queue<TypeId> frontier;
    frontier.push(start);
    component[start] = id;
    while (!frontier.empty()) {
      const TypeId u = frontier.front();
      frontier.pop();
      for (TypeId v : schema.NeighborTypes(u)) {
        if (component[v] != kInvalidId) continue;
        component[v] = id;
        frontier.push(v);
      }
    }
  }
  if (component_count != nullptr) *component_count = next;
  return component;
}

SchemaGraphStats ComputeSchemaGraphStats(const SchemaGraph& schema) {
  SchemaGraphStats stats;
  stats.num_types = schema.num_types();
  stats.num_rel_types = schema.num_edges();

  uint32_t components = 0;
  SchemaComponents(schema, &components);
  stats.num_components = components;

  SchemaDistanceMatrix distances(schema);
  stats.diameter = distances.Diameter();
  stats.average_path_length = distances.AveragePathLength();

  std::map<std::pair<TypeId, TypeId>, uint32_t> pair_counts;
  for (const SchemaEdge& e : schema.edges()) {
    if (e.src == e.dst) {
      ++stats.self_loops;
      continue;
    }
    auto key = std::minmax(e.src, e.dst);
    ++pair_counts[{key.first, key.second}];
  }
  for (const auto& [pair, count] : pair_counts) {
    if (count > 1) ++stats.parallel_edge_pairs;
  }
  return stats;
}

}  // namespace egp
