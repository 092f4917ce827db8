// EntityGraph: the paper's data graph Gd(Vd, Ed) (§2).
//
// A directed multigraph whose vertices are named entities (each belonging
// to one or more entity types) and whose edges are relationships, each
// belonging to exactly one relationship type. A relationship type is the
// triple (surface name, source entity type, destination entity type): two
// relationship types may share a surface name (e.g. the paper's two
// "Award Winners" types) but are distinct identifiers.
//
// Everything is kept once, as flat arrays: the three name tables and the
// two membership lists as offsets + values (FlatLists), and the edges as
// the CSR adjacency (adjacency()). A graph opened from an .egps snapshot
// views the snapshot's own sections, all kept alive by one shared
// backing; a built graph holds the arrays EntityGraphBuilder::Build()
// flattens and freezes. Copying a graph copies handles, not names or
// lists.
#ifndef EGP_GRAPH_ENTITY_GRAPH_H_
#define EGP_GRAPH_ENTITY_GRAPH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "graph/frozen_graph.h"
#include "graph/ids.h"

namespace egp {

/// Lists laid back to back, viewed: list i is values[offsets[i],
/// offsets[i + 1]). The offsets start at 0, never decrease and end at
/// values.size().
template <typename T>
struct FlatLists {
  std::span<const uint64_t> offsets;
  std::span<const T> values;

  size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::span<const T> operator[](size_t i) const {
    return values.subspan(offsets[i], offsets[i + 1] - offsets[i]);
  }
};
using IdLists = FlatLists<uint32_t>;

/// Distinct names with dense ids, kept as FlatLists<char>. Find()
/// answers from a hash index built once, by Index(), over the names in
/// place.
class NameTable {
 public:
  NameTable() = default;

  /// Indexes `names`, whose memory the caller keeps alive. Corruption,
  /// naming the two ids, if two names are equal.
  static Result<NameTable> Index(FlatLists<char> names);

  /// The name of an id; id must be valid. Inline: encoding a sampled
  /// preview looks up every cell's names.
  std::string_view Get(uint32_t id) const {
    EGP_CHECK(id < size()) << "name id out of range: " << id;
    const std::span<const char> name = names_[id];
    return {name.data(), name.size()};
  }
  /// The id of `name` if present.
  std::optional<uint32_t> Find(std::string_view name) const;
  size_t size() const { return names_.size(); }

  /// The names as stored, for serialization (the .egps snapshot writer).
  const FlatLists<char>& lists() const { return names_; }

 private:
  /// The slot holding `name`'s id, or the empty slot where it would go.
  size_t Slot(std::string_view name) const;

  FlatLists<char> names_;
  // Open addressing over ids, at most half full; shared, so copying a
  // table copies no index.
  std::shared_ptr<const std::vector<uint32_t>> slots_;
};

/// Descriptor of a relationship type γ(src_type, dst_type).
struct RelTypeInfo {
  uint32_t surface_name;  // id in surface_names()
  TypeId src_type;
  TypeId dst_type;
};

/// Immutable. Default constructor yields an empty graph (useful as a
/// placeholder member).
class EntityGraph {
 public:
  /// What a graph is made of. The spans view memory that `backing` keeps
  /// alive, and the parts must already be consistent: ids in range, the
  /// two membership lists each other's inverse, no list holding an id
  /// twice, and every arc's endpoints carrying its relationship type's
  /// endpoint types.
  struct Parts {
    std::shared_ptr<const void> backing;
    NameTable entity_names;
    NameTable type_names;
    NameTable surface_names;
    std::vector<RelTypeInfo> rel_types;
    IdLists entity_types;  // per entity, its types
    IdLists type_members;  // per type, its entities in membership order
    FrozenGraph adjacency;
  };

  EntityGraph() = default;
  /// The one way to assemble a graph: EntityGraphBuilder::Build() and
  /// the .egps reader (src/store/) both end here.
  explicit EntityGraph(Parts parts) : parts_(std::move(parts)) {}

  // --- Sizes -------------------------------------------------------------
  size_t num_entities() const { return parts_.entity_types.size(); }
  size_t num_edges() const { return parts_.adjacency.num_arcs(); }
  size_t num_types() const { return parts_.type_members.size(); }
  size_t num_rel_types() const { return parts_.rel_types.size(); }

  // --- Entities ----------------------------------------------------------
  std::string_view EntityName(EntityId e) const {
    return parts_.entity_names.Get(e);
  }
  /// Types the entity belongs to (entities may be multi-typed).
  std::span<const TypeId> TypesOf(EntityId e) const;
  bool EntityHasType(EntityId e, TypeId t) const;

  // --- Entity types ------------------------------------------------------
  std::string_view TypeName(TypeId t) const;
  /// T.τ in the paper: all entities of a type.
  std::span<const EntityId> EntitiesOfType(TypeId t) const;
  /// S_cov(τ): number of entities bearing the type.
  uint64_t TypeEntityCount(TypeId t) const;

  // --- Relationship types ------------------------------------------------
  const RelTypeInfo& RelType(RelTypeId r) const;
  std::string_view RelSurfaceName(RelTypeId r) const;

  // --- Edges ---------------------------------------------------------------
  /// The edges as CSR adjacency, per entity and direction; built once by
  /// EntityGraphBuilder::Build() or viewed from an .egps snapshot.
  const FrozenGraph& adjacency() const { return parts_.adjacency; }

  // --- Names and membership, as stored ------------------------------------
  const NameTable& entity_names() const { return parts_.entity_names; }
  const NameTable& type_names() const { return parts_.type_names; }
  const NameTable& surface_names() const { return parts_.surface_names; }
  const IdLists& entity_types() const { return parts_.entity_types; }
  const IdLists& type_members() const { return parts_.type_members; }

 private:
  Parts parts_;
};

}  // namespace egp

#endif  // EGP_GRAPH_ENTITY_GRAPH_H_
