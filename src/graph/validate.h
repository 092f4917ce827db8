// Structural validation of entity graphs.
//
// EntityGraphBuilder enforces the §2 invariants on the way in; this
// module re-checks them on a finished graph — the safety net after
// deserialization, external construction, or future mutation paths:
//   * every edge's endpoints carry the endpoint types its relationship
//     type requires;
//   * type membership lists and per-entity type lists agree;
//   * names are unique within each pool.
#ifndef EGP_GRAPH_VALIDATE_H_
#define EGP_GRAPH_VALIDATE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "graph/entity_graph.h"

namespace egp {

struct ValidationReport {
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
};

/// Full structural check; O(V + E). Collects every violation rather than
/// stopping at the first.
ValidationReport ValidateEntityGraph(const EntityGraph& graph);

/// Convenience wrapper returning Corruption with the first violations
/// when the graph is inconsistent.
Status CheckEntityGraph(const EntityGraph& graph);

}  // namespace egp

#endif  // EGP_GRAPH_VALIDATE_H_
