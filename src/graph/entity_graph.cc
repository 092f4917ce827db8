#include "graph/entity_graph.h"

#include <algorithm>
#include <bit>
#include <functional>

#include "common/check.h"
#include "common/strings.h"

namespace egp {

Result<NameTable> NameTable::Index(FlatLists<char> names) {
  NameTable table;
  table.names_ = names;
  auto slots = std::make_shared<std::vector<uint32_t>>(
      std::bit_ceil(2 * table.size()), kInvalidId);
  table.slots_ = slots;
  for (uint32_t id = 0; id < table.size(); ++id) {
    uint32_t& slot = (*slots)[table.Slot(table.Get(id))];
    if (slot != kInvalidId) {
      return Status::Corruption(
          StrFormat("duplicate name: ids %u and %u are equal", slot, id));
    }
    slot = id;
  }
  return table;
}

size_t NameTable::Slot(std::string_view name) const {
  const std::vector<uint32_t>& slots = *slots_;
  const size_t mask = slots.size() - 1;
  size_t i = std::hash<std::string_view>{}(name) & mask;
  while (slots[i] != kInvalidId && Get(slots[i]) != name) i = (i + 1) & mask;
  return i;
}

std::optional<uint32_t> NameTable::Find(std::string_view name) const {
  if (slots_ == nullptr) return std::nullopt;
  const uint32_t id = (*slots_)[Slot(name)];
  if (id == kInvalidId) return std::nullopt;
  return id;
}

std::span<const TypeId> EntityGraph::TypesOf(EntityId e) const {
  EGP_CHECK(e < num_entities()) << "bad entity id " << e;
  return parts_.entity_types[e];
}

bool EntityGraph::EntityHasType(EntityId e, TypeId t) const {
  const auto types = TypesOf(e);
  return std::find(types.begin(), types.end(), t) != types.end();
}

std::string_view EntityGraph::TypeName(TypeId t) const {
  return parts_.type_names.Get(t);
}

std::span<const EntityId> EntityGraph::EntitiesOfType(TypeId t) const {
  EGP_CHECK(t < num_types()) << "bad type id " << t;
  return parts_.type_members[t];
}

uint64_t EntityGraph::TypeEntityCount(TypeId t) const {
  return EntitiesOfType(t).size();
}

const RelTypeInfo& EntityGraph::RelType(RelTypeId r) const {
  EGP_CHECK(r < parts_.rel_types.size()) << "bad rel type id " << r;
  return parts_.rel_types[r];
}

std::string_view EntityGraph::RelSurfaceName(RelTypeId r) const {
  return parts_.surface_names.Get(RelType(r).surface_name);
}

}  // namespace egp
