// Relational view of an entity graph, the §6.1.1 adaptation of
// Yang/Procopiuc/Srivastava (PVLDB'09).
//
// Each entity type τ becomes a relational table: the first column holds
// the entities of τ, plus one column per relationship type incident on τ
// in the schema graph. Tuples are the Cartesian product of the entity's
// values across columns; materializing that product is infeasible (and
// unnecessary), so the per-column statistics the importance measure needs
// — value-frequency entropies and cardinalities — are computed directly
// from the CSR arcs.
#ifndef EGP_BASELINE_RELATIONAL_VIEW_H_
#define EGP_BASELINE_RELATIONAL_VIEW_H_

#include <string>
#include <vector>

#include "graph/entity_graph.h"
#include "graph/schema_graph.h"

namespace egp {

struct RelationalColumn {
  uint32_t schema_edge = 0;    // index into the schema graph
  Direction direction = Direction::kOutgoing;  // relative to the table type
  std::string name;
  /// Base-2 entropy of the column's value-frequency distribution.
  double entropy = 0.0;
  uint64_t distinct_values = 0;
  uint64_t value_occurrences = 0;  // total edges feeding the column
};

struct RelationalTable {
  TypeId type = kInvalidId;
  std::string name;
  uint64_t base_rows = 0;  // |entities of τ| (pre-product)
  std::vector<RelationalColumn> columns;
  /// YPS09 information content: key-column entropy (log2 of row count —
  /// keys are distinct) plus the non-key columns' entropies.
  double information_content = 0.0;
};

std::vector<RelationalTable> BuildRelationalView(const EntityGraph& graph,
                                                 const SchemaGraph& schema);

}  // namespace egp

#endif  // EGP_BASELINE_RELATIONAL_VIEW_H_
