#include "graph/validate.h"

#include <algorithm>
#include <set>

#include "common/strings.h"

namespace egp {

ValidationReport ValidateEntityGraph(const EntityGraph& graph) {
  ValidationReport report;
  auto violate = [&report](std::string message) {
    if (report.violations.size() < 100) {  // cap runaway reports
      report.violations.push_back(std::move(message));
    }
  };
  // Names as NUL-terminated strings, for StrFormat's %s.
  const auto entity = [&graph](EntityId e) {
    return std::string(graph.EntityName(e));
  };
  const auto type = [&graph](TypeId t) {
    return std::string(graph.TypeName(t));
  };

  // Edge endpoint typing, per out-arc: the in-arcs are the out-arcs
  // transposed (Freeze builds them so; FromCsr rejects anything else).
  const FrozenGraph& adjacency = graph.adjacency();
  for (EntityId src = 0; src < adjacency.num_entities(); ++src) {
    for (const FrozenGraph::Arc& arc : adjacency.OutArcs(src)) {
      if (src >= graph.num_entities() ||
          arc.neighbor >= graph.num_entities() ||
          arc.rel_type >= graph.num_rel_types()) {
        violate(StrFormat("arc %u -> %u has an out-of-range id", src,
                          arc.neighbor));
        continue;
      }
      const RelTypeInfo& info = graph.RelType(arc.rel_type);
      if (!graph.EntityHasType(src, info.src_type)) {
        violate(StrFormat("arc %u -> %u: source '%s' lacks type '%s'", src,
                          arc.neighbor, entity(src).c_str(),
                          type(info.src_type).c_str()));
      }
      if (!graph.EntityHasType(arc.neighbor, info.dst_type)) {
        violate(StrFormat("arc %u -> %u: destination '%s' lacks type '%s'",
                          src, arc.neighbor,
                          entity(arc.neighbor).c_str(),
                          type(info.dst_type).c_str()));
      }
    }
  }

  // Membership symmetry: TypesOf(v) <-> EntitiesOfType(t).
  for (TypeId t = 0; t < graph.num_types(); ++t) {
    std::set<EntityId> members(graph.EntitiesOfType(t).begin(),
                               graph.EntitiesOfType(t).end());
    if (members.size() != graph.EntitiesOfType(t).size()) {
      violate(StrFormat("type '%s' has duplicate members",
                        type(t).c_str()));
    }
    for (EntityId v : members) {
      if (!graph.EntityHasType(v, t)) {
        violate(StrFormat("entity '%s' in members of '%s' but lacks the "
                          "type",
                          entity(v).c_str(),
                          type(t).c_str()));
      }
    }
  }
  for (EntityId v = 0; v < graph.num_entities(); ++v) {
    for (TypeId t : graph.TypesOf(v)) {
      const auto members = graph.EntitiesOfType(t);
      if (std::find(members.begin(), members.end(), v) == members.end()) {
        violate(StrFormat("entity '%s' has type '%s' but is not in its "
                          "member list",
                          entity(v).c_str(),
                          type(t).c_str()));
      }
    }
  }

  // Relationship-type endpoint sanity.
  for (RelTypeId r = 0; r < graph.num_rel_types(); ++r) {
    const RelTypeInfo& info = graph.RelType(r);
    if (info.src_type >= graph.num_types() ||
        info.dst_type >= graph.num_types()) {
      violate(StrFormat("relationship type %u has out-of-range endpoint "
                        "types",
                        r));
    }
  }
  return report;
}

Status CheckEntityGraph(const EntityGraph& graph) {
  const ValidationReport report = ValidateEntityGraph(graph);
  if (report.ok()) return Status::OK();
  std::string message = StrFormat("%zu violation(s); first: %s",
                                  report.violations.size(),
                                  report.violations.front().c_str());
  return Status::Corruption(std::move(message));
}

}  // namespace egp
