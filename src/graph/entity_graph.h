// EntityGraph: the paper's data graph Gd(Vd, Ed) (§2).
//
// A directed multigraph whose vertices are named entities (each belonging
// to one or more entity types) and whose edges are relationships, each
// belonging to exactly one relationship type. A relationship type is the
// triple (surface name, source entity type, destination entity type): two
// relationship types may share a surface name (e.g. the paper's two
// "Award Winners" types) but are distinct identifiers.
//
// The edges are kept once, as the CSR adjacency (adjacency()): each
// entity's arcs per direction, grouped by relationship type.
#ifndef EGP_GRAPH_ENTITY_GRAPH_H_
#define EGP_GRAPH_ENTITY_GRAPH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_pool.h"
#include "graph/frozen_graph.h"
#include "graph/ids.h"

namespace egp {

/// Descriptor of a relationship type γ(src_type, dst_type).
struct RelTypeInfo {
  uint32_t surface_name;  // id in surface_names() pool
  TypeId src_type;
  TypeId dst_type;
};

/// Immutable after construction via EntityGraphBuilder. Default
/// constructor yields an empty graph (useful as a placeholder member).
class EntityGraph {
 public:
  EntityGraph() = default;

  // --- Sizes -------------------------------------------------------------
  size_t num_entities() const { return entity_types_.size(); }
  size_t num_edges() const { return adjacency_.num_arcs(); }
  size_t num_types() const { return type_members_.size(); }
  size_t num_rel_types() const { return rel_types_.size(); }

  // --- Entities ----------------------------------------------------------
  const std::string& EntityName(EntityId e) const;
  /// Types the entity belongs to (entities may be multi-typed).
  const std::vector<TypeId>& TypesOf(EntityId e) const;
  bool EntityHasType(EntityId e, TypeId t) const;

  // --- Entity types ------------------------------------------------------
  const std::string& TypeName(TypeId t) const;
  /// T.τ in the paper: all entities of a type.
  const std::vector<EntityId>& EntitiesOfType(TypeId t) const;
  /// S_cov(τ): number of entities bearing the type.
  uint64_t TypeEntityCount(TypeId t) const;

  // --- Relationship types ------------------------------------------------
  const RelTypeInfo& RelType(RelTypeId r) const;
  const std::string& RelSurfaceName(RelTypeId r) const;

  // --- Edges ---------------------------------------------------------------
  /// The edges as CSR adjacency, per entity and direction; built once by
  /// EntityGraphBuilder::Build() or viewed from an .egps snapshot.
  const FrozenGraph& adjacency() const { return adjacency_; }

  // --- Name pools ----------------------------------------------------------
  const StringPool& entity_names() const { return entity_names_; }
  const StringPool& type_names() const { return type_names_; }
  const StringPool& surface_names() const { return surface_names_; }

 private:
  friend class EntityGraphBuilder;
  // The .egps snapshot loader (src/store/) reconstructs graphs directly
  // from validated binary sections, bypassing the per-record builder.
  friend struct GraphAssembler;

  StringPool entity_names_;
  StringPool type_names_;
  StringPool surface_names_;

  std::vector<RelTypeInfo> rel_types_;
  std::vector<std::vector<TypeId>> entity_types_;     // per entity
  std::vector<std::vector<EntityId>> type_members_;   // per type
  FrozenGraph adjacency_;
};

}  // namespace egp

#endif  // EGP_GRAPH_ENTITY_GRAPH_H_
