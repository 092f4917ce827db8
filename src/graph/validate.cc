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

  // Edge endpoint typing.
  for (EdgeId id = 0; id < graph.num_edges(); ++id) {
    const EdgeRecord& e = graph.Edge(id);
    if (e.src >= graph.num_entities() || e.dst >= graph.num_entities()) {
      violate(StrFormat("edge %u has out-of-range endpoint", id));
      continue;
    }
    if (e.rel_type >= graph.num_rel_types()) {
      violate(StrFormat("edge %u has out-of-range relationship type", id));
      continue;
    }
    const RelTypeInfo& info = graph.RelType(e.rel_type);
    if (!graph.EntityHasType(e.src, info.src_type)) {
      violate(StrFormat("edge %u: source '%s' lacks type '%s'", id,
                        graph.EntityName(e.src).c_str(),
                        graph.TypeName(info.src_type).c_str()));
    }
    if (!graph.EntityHasType(e.dst, info.dst_type)) {
      violate(StrFormat("edge %u: destination '%s' lacks type '%s'", id,
                        graph.EntityName(e.dst).c_str(),
                        graph.TypeName(info.dst_type).c_str()));
    }
  }

  if (!graph.adjacency().MatchesEdges(graph.num_entities(), graph.edges())) {
    violate("CSR adjacency disagrees with the edge array");
  }

  // Membership symmetry: TypesOf(v) <-> EntitiesOfType(t).
  for (TypeId t = 0; t < graph.num_types(); ++t) {
    std::set<EntityId> members(graph.EntitiesOfType(t).begin(),
                               graph.EntitiesOfType(t).end());
    if (members.size() != graph.EntitiesOfType(t).size()) {
      violate(StrFormat("type '%s' has duplicate members",
                        graph.TypeName(t).c_str()));
    }
    for (EntityId v : members) {
      if (!graph.EntityHasType(v, t)) {
        violate(StrFormat("entity '%s' in members of '%s' but lacks the "
                          "type",
                          graph.EntityName(v).c_str(),
                          graph.TypeName(t).c_str()));
      }
    }
  }
  for (EntityId v = 0; v < graph.num_entities(); ++v) {
    for (TypeId t : graph.TypesOf(v)) {
      const auto& members = graph.EntitiesOfType(t);
      if (std::find(members.begin(), members.end(), v) == members.end()) {
        violate(StrFormat("entity '%s' has type '%s' but is not in its "
                          "member list",
                          graph.EntityName(v).c_str(),
                          graph.TypeName(t).c_str()));
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
