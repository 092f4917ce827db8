// Builder for EntityGraph with validation of the §2 data-model invariants:
// the type of a relationship determines the types of its two end entities.
#ifndef EGP_GRAPH_ENTITY_GRAPH_BUILDER_H_
#define EGP_GRAPH_ENTITY_GRAPH_BUILDER_H_

#include <map>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/string_pool.h"
#include "graph/entity_graph.h"

namespace egp {

class EntityGraphBuilder {
 public:
  EntityGraphBuilder();

  /// Interns an entity type; idempotent.
  TypeId AddEntityType(std::string_view name);

  /// Declares a relationship type (surface, src_type, dst_type); returns the
  /// existing id if the triple was declared before. Surface names may repeat
  /// across different endpoint-type pairs.
  RelTypeId AddRelationshipType(std::string_view surface_name,
                                TypeId src_type, TypeId dst_type);

  /// Interns an entity; idempotent on name.
  EntityId AddEntity(std::string_view name);

  /// Adds a type to an entity (entities may be multi-typed); idempotent.
  void AddEntityToType(EntityId entity, TypeId type);

  /// Adds a relationship instance. Fails if either endpoint does not carry
  /// the entity type required by `rel_type`.
  Status AddEdge(EntityId src, RelTypeId rel_type, EntityId dst);

  /// Convenience: AddEntity + AddEntityToType in one call.
  EntityId AddTypedEntity(std::string_view name, std::string_view type_name);

  /// Types asserted so far for an entity under construction (first element
  /// is the primary / first-asserted type).
  const std::vector<TypeId>& TypesOf(EntityId entity) const;

  size_t num_entities() const { return entity_types_.size(); }

  /// Finalizes and returns the graph: flattens the names and type lists
  /// into the graph's arrays and freezes the edges added so far into its
  /// CSR adjacency; the builder is left empty. Fails if the graph has no
  /// entities.
  Result<EntityGraph> Build();

 private:
  StringPool entity_names_;
  StringPool type_names_;
  StringPool surface_names_;
  std::vector<RelTypeInfo> rel_types_;
  std::vector<std::vector<TypeId>> entity_types_;    // per entity
  std::vector<std::vector<EntityId>> type_members_;  // per type
  std::vector<EdgeRecord> edges_;  // until Build() freezes them
  // (surface name id, src, dst) -> rel type id
  std::map<std::tuple<uint32_t, TypeId, TypeId>, RelTypeId> rel_type_index_;
};

}  // namespace egp

#endif  // EGP_GRAPH_ENTITY_GRAPH_BUILDER_H_
