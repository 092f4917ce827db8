#include "graph/entity_graph_builder.h"

#include <algorithm>
#include <memory>
#include <tuple>

#include "common/strings.h"

namespace egp {
namespace {

/// Lists flattened back to back into offsets + values.
template <typename T>
struct Flat {
  std::vector<uint64_t> offsets{0};
  std::vector<T> values;

  template <typename List>
  void Append(const List& list) {
    values.insert(values.end(), list.begin(), list.end());
    offsets.push_back(values.size());
  }
};

/// What a built graph's names and type lists view.
struct FlatArrays {
  Flat<char> entity_names, type_names, surface_names;
  Flat<uint32_t> entity_types, type_members;
};

Result<NameTable> FlattenNames(const StringPool& pool, Flat<char>* out) {
  for (uint32_t id = 0; id < pool.size(); ++id) out->Append(pool.Get(id));
  return NameTable::Index({out->offsets, out->values});
}

IdLists FlattenLists(const std::vector<std::vector<uint32_t>>& lists,
                     Flat<uint32_t>* out) {
  for (const std::vector<uint32_t>& list : lists) out->Append(list);
  return IdLists{out->offsets, out->values};
}

}  // namespace

EntityGraphBuilder::EntityGraphBuilder() = default;

TypeId EntityGraphBuilder::AddEntityType(std::string_view name) {
  auto existing = type_names_.Find(name);
  if (existing) return *existing;
  const TypeId id = type_names_.Intern(name);
  type_members_.emplace_back();
  return id;
}

RelTypeId EntityGraphBuilder::AddRelationshipType(std::string_view surface_name,
                                                  TypeId src_type,
                                                  TypeId dst_type) {
  EGP_CHECK(src_type < type_members_.size()) << "unknown src type";
  EGP_CHECK(dst_type < type_members_.size()) << "unknown dst type";
  const uint32_t surface = surface_names_.Intern(surface_name);
  const auto key = std::make_tuple(surface, src_type, dst_type);
  auto it = rel_type_index_.find(key);
  if (it != rel_type_index_.end()) return it->second;
  const RelTypeId id = static_cast<RelTypeId>(rel_types_.size());
  rel_types_.push_back(RelTypeInfo{surface, src_type, dst_type});
  rel_type_index_.emplace(key, id);
  return id;
}

EntityId EntityGraphBuilder::AddEntity(std::string_view name) {
  auto existing = entity_names_.Find(name);
  if (existing) return *existing;
  const EntityId id = entity_names_.Intern(name);
  entity_types_.emplace_back();
  return id;
}

void EntityGraphBuilder::AddEntityToType(EntityId entity, TypeId type) {
  EGP_CHECK(entity < entity_types_.size()) << "unknown entity";
  EGP_CHECK(type < type_members_.size()) << "unknown type";
  auto& types = entity_types_[entity];
  if (std::find(types.begin(), types.end(), type) != types.end()) return;
  types.push_back(type);
  type_members_[type].push_back(entity);
}

Status EntityGraphBuilder::AddEdge(EntityId src, RelTypeId rel_type,
                                   EntityId dst) {
  if (src >= entity_types_.size()) {
    return Status::InvalidArgument("AddEdge: unknown source entity");
  }
  if (dst >= entity_types_.size()) {
    return Status::InvalidArgument("AddEdge: unknown destination entity");
  }
  if (rel_type >= rel_types_.size()) {
    return Status::InvalidArgument("AddEdge: unknown relationship type");
  }
  const RelTypeInfo& info = rel_types_[rel_type];
  const auto lacks = [this](EntityId e, TypeId t) {
    return std::ranges::count(entity_types_[e], t) == 0;
  };
  if (lacks(src, info.src_type)) {
    return Status::FailedPrecondition(StrFormat(
        "AddEdge: entity '%s' lacks required source type '%s' of '%s'",
        entity_names_.Get(src).c_str(),
        type_names_.Get(info.src_type).c_str(),
        surface_names_.Get(info.surface_name).c_str()));
  }
  if (lacks(dst, info.dst_type)) {
    return Status::FailedPrecondition(StrFormat(
        "AddEdge: entity '%s' lacks required destination type '%s' of '%s'",
        entity_names_.Get(dst).c_str(),
        type_names_.Get(info.dst_type).c_str(),
        surface_names_.Get(info.surface_name).c_str()));
  }
  edges_.push_back(EdgeRecord{src, dst, rel_type});
  return Status::OK();
}

const std::vector<TypeId>& EntityGraphBuilder::TypesOf(EntityId entity) const {
  EGP_CHECK(entity < entity_types_.size()) << "bad entity id " << entity;
  return entity_types_[entity];
}

EntityId EntityGraphBuilder::AddTypedEntity(std::string_view name,
                                            std::string_view type_name) {
  const TypeId type = AddEntityType(type_name);
  const EntityId entity = AddEntity(name);
  AddEntityToType(entity, type);
  return entity;
}

Result<EntityGraph> EntityGraphBuilder::Build() {
  if (entity_types_.empty()) {
    return Status::FailedPrecondition("Build: graph has no entities");
  }
  // The graph's spans point into these arrays, so they are filled where
  // they stay.
  auto flat = std::make_shared<FlatArrays>();
  EntityGraph::Parts parts;
  EGP_ASSIGN_OR_RETURN(parts.entity_names,
                       FlattenNames(entity_names_, &flat->entity_names));
  EGP_ASSIGN_OR_RETURN(parts.type_names,
                       FlattenNames(type_names_, &flat->type_names));
  EGP_ASSIGN_OR_RETURN(parts.surface_names,
                       FlattenNames(surface_names_, &flat->surface_names));
  parts.rel_types = std::move(rel_types_);
  parts.entity_types = FlattenLists(entity_types_, &flat->entity_types);
  parts.type_members = FlattenLists(type_members_, &flat->type_members);
  parts.adjacency = FrozenGraph::Freeze(entity_types_.size(), edges_);
  parts.backing = std::move(flat);
  *this = EntityGraphBuilder();
  return EntityGraph(std::move(parts));
}

}  // namespace egp
