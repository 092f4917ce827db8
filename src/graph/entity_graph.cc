#include "graph/entity_graph.h"

#include <algorithm>

#include "common/check.h"

namespace egp {

const std::string& EntityGraph::EntityName(EntityId e) const {
  return entity_names_.Get(e);
}

const std::vector<TypeId>& EntityGraph::TypesOf(EntityId e) const {
  EGP_CHECK(e < entity_types_.size()) << "bad entity id " << e;
  return entity_types_[e];
}

bool EntityGraph::EntityHasType(EntityId e, TypeId t) const {
  const auto& types = TypesOf(e);
  return std::find(types.begin(), types.end(), t) != types.end();
}

const std::string& EntityGraph::TypeName(TypeId t) const {
  return type_names_.Get(t);
}

const std::vector<EntityId>& EntityGraph::EntitiesOfType(TypeId t) const {
  EGP_CHECK(t < type_members_.size()) << "bad type id " << t;
  return type_members_[t];
}

uint64_t EntityGraph::TypeEntityCount(TypeId t) const {
  return EntitiesOfType(t).size();
}

const RelTypeInfo& EntityGraph::RelType(RelTypeId r) const {
  EGP_CHECK(r < rel_types_.size()) << "bad rel type id " << r;
  return rel_types_[r];
}

const std::string& EntityGraph::RelSurfaceName(RelTypeId r) const {
  return surface_names_.Get(RelType(r).surface_name);
}

}  // namespace egp
