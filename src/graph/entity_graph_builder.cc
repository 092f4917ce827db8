#include "graph/entity_graph_builder.h"

#include <algorithm>
#include <tuple>

#include "common/strings.h"

namespace egp {

EntityGraphBuilder::EntityGraphBuilder() = default;

TypeId EntityGraphBuilder::AddEntityType(std::string_view name) {
  auto existing = graph_.type_names_.Find(name);
  if (existing) return *existing;
  const TypeId id = graph_.type_names_.Intern(name);
  graph_.type_members_.emplace_back();
  return id;
}

RelTypeId EntityGraphBuilder::AddRelationshipType(std::string_view surface_name,
                                                  TypeId src_type,
                                                  TypeId dst_type) {
  EGP_CHECK(src_type < graph_.type_members_.size()) << "unknown src type";
  EGP_CHECK(dst_type < graph_.type_members_.size()) << "unknown dst type";
  const uint32_t surface = graph_.surface_names_.Intern(surface_name);
  const auto key = std::make_tuple(surface, src_type, dst_type);
  auto it = rel_type_index_.find(key);
  if (it != rel_type_index_.end()) return it->second;
  const RelTypeId id = static_cast<RelTypeId>(graph_.rel_types_.size());
  graph_.rel_types_.push_back(RelTypeInfo{surface, src_type, dst_type});
  rel_type_index_.emplace(key, id);
  return id;
}

EntityId EntityGraphBuilder::AddEntity(std::string_view name) {
  auto existing = graph_.entity_names_.Find(name);
  if (existing) return *existing;
  const EntityId id = graph_.entity_names_.Intern(name);
  graph_.entity_types_.emplace_back();
  return id;
}

void EntityGraphBuilder::AddEntityToType(EntityId entity, TypeId type) {
  EGP_CHECK(entity < graph_.entity_types_.size()) << "unknown entity";
  EGP_CHECK(type < graph_.type_members_.size()) << "unknown type";
  auto& types = graph_.entity_types_[entity];
  if (std::find(types.begin(), types.end(), type) != types.end()) return;
  types.push_back(type);
  graph_.type_members_[type].push_back(entity);
}

Status EntityGraphBuilder::AddEdge(EntityId src, RelTypeId rel_type,
                                   EntityId dst) {
  if (src >= graph_.entity_types_.size()) {
    return Status::InvalidArgument("AddEdge: unknown source entity");
  }
  if (dst >= graph_.entity_types_.size()) {
    return Status::InvalidArgument("AddEdge: unknown destination entity");
  }
  if (rel_type >= graph_.rel_types_.size()) {
    return Status::InvalidArgument("AddEdge: unknown relationship type");
  }
  const RelTypeInfo& info = graph_.rel_types_[rel_type];
  if (!graph_.EntityHasType(src, info.src_type)) {
    return Status::FailedPrecondition(StrFormat(
        "AddEdge: entity '%s' lacks required source type '%s' of '%s'",
        graph_.EntityName(src).c_str(),
        graph_.TypeName(info.src_type).c_str(),
        graph_.RelSurfaceName(rel_type).c_str()));
  }
  if (!graph_.EntityHasType(dst, info.dst_type)) {
    return Status::FailedPrecondition(StrFormat(
        "AddEdge: entity '%s' lacks required destination type '%s' of '%s'",
        graph_.EntityName(dst).c_str(),
        graph_.TypeName(info.dst_type).c_str(),
        graph_.RelSurfaceName(rel_type).c_str()));
  }
  edges_.push_back(EdgeRecord{src, dst, rel_type});
  return Status::OK();
}

const std::vector<TypeId>& EntityGraphBuilder::TypesOf(EntityId entity) const {
  return graph_.TypesOf(entity);
}

EntityId EntityGraphBuilder::AddTypedEntity(std::string_view name,
                                            std::string_view type_name) {
  const TypeId type = AddEntityType(type_name);
  const EntityId entity = AddEntity(name);
  AddEntityToType(entity, type);
  return entity;
}

Result<EntityGraph> EntityGraphBuilder::Build() {
  if (graph_.num_entities() == 0) {
    return Status::FailedPrecondition("Build: graph has no entities");
  }
  graph_.adjacency_ = FrozenGraph::Freeze(graph_.num_entities(), edges_);
  EntityGraph out = std::move(graph_);
  graph_ = EntityGraph();
  edges_ = {};
  rel_type_index_.clear();
  return out;
}

}  // namespace egp
