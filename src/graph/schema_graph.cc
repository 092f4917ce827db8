#include "graph/schema_graph.h"

#include <algorithm>

#include "common/check.h"

namespace egp {

SchemaGraph SchemaGraph::FromEntityGraph(const EntityGraph& graph) {
  SchemaGraph schema;
  for (TypeId t = 0; t < graph.num_types(); ++t) {
    schema.AddType(graph.TypeName(t), graph.TypeEntityCount(t));
  }
  std::vector<uint64_t> support(graph.num_rel_types(), 0);
  for (const FrozenGraph::Arc& arc : graph.adjacency().out_arcs()) {
    ++support[arc.rel_type];
  }
  for (RelTypeId r = 0; r < graph.num_rel_types(); ++r) {
    if (support[r] == 0) continue;  // Es membership requires a data edge (§2).
    const RelTypeInfo& info = graph.RelType(r);
    const uint32_t index =
        schema.AddEdge(graph.RelSurfaceName(r), info.src_type, info.dst_type,
                       support[r]);
    schema.edge_rel_type_[index] = r;
  }
  return schema;
}

TypeId SchemaGraph::AddType(std::string_view name, uint64_t entity_count) {
  auto existing = type_names_.Find(name);
  EGP_CHECK(!existing.has_value()) << "duplicate schema type: " << name;
  const TypeId id = type_names_.Intern(name);
  type_entity_count_.push_back(entity_count);
  incident_.emplace_back();
  return id;
}

uint32_t SchemaGraph::AddEdge(std::string_view surface_name, TypeId src,
                              TypeId dst, uint64_t edge_count) {
  EGP_CHECK(src < num_types()) << "bad src type";
  EGP_CHECK(dst < num_types()) << "bad dst type";
  const uint32_t surface = surface_names_.Intern(surface_name);
  const uint32_t index = static_cast<uint32_t>(edges_.size());
  edges_.push_back(SchemaEdge{surface, src, dst, edge_count});
  edge_rel_type_.push_back(kInvalidId);
  incident_[src].push_back(index);
  if (dst != src) incident_[dst].push_back(index);
  return index;
}

const std::string& SchemaGraph::TypeName(TypeId t) const {
  return type_names_.Get(t);
}

const std::string& SchemaGraph::SurfaceName(const SchemaEdge& e) const {
  return surface_names_.Get(e.surface_name);
}

uint64_t SchemaGraph::TypeEntityCount(TypeId t) const {
  EGP_CHECK(t < type_entity_count_.size()) << "bad type id " << t;
  return type_entity_count_[t];
}

const SchemaEdge& SchemaGraph::Edge(uint32_t index) const {
  EGP_CHECK(index < edges_.size()) << "bad schema edge index " << index;
  return edges_[index];
}

const std::vector<uint32_t>& SchemaGraph::IncidentEdges(TypeId t) const {
  EGP_CHECK(t < incident_.size()) << "bad type id " << t;
  return incident_[t];
}

std::vector<TypeId> SchemaGraph::NeighborTypes(TypeId t) const {
  std::vector<TypeId> out;
  for (uint32_t index : IncidentEdges(t)) {
    const SchemaEdge& e = edges_[index];
    const TypeId other = e.src == t ? e.dst : e.src;
    if (other != t) out.push_back(other);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

uint64_t SchemaGraph::PairWeight(TypeId a, TypeId b) const {
  uint64_t weight = 0;
  for (uint32_t index : IncidentEdges(a)) {
    const SchemaEdge& e = edges_[index];
    if ((e.src == a && e.dst == b) || (e.src == b && e.dst == a)) {
      weight += e.edge_count;
    }
  }
  return weight;
}

RelTypeId SchemaGraph::RelTypeOfEdge(uint32_t index) const {
  EGP_CHECK(index < edge_rel_type_.size()) << "bad schema edge index";
  return edge_rel_type_[index];
}

}  // namespace egp
