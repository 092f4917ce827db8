#include "baseline/relational_view.h"

#include <vector>

#include "common/math_util.h"

namespace egp {
namespace {

/// Entropy of the distribution of target-entity occurrences for one
/// relationship type seen from one side. A value's occurrence count is
/// the length of its run of `rel` arcs pointing back at the anchor side;
/// values are read in entity-id order, which fixes the summation order.
double ColumnEntropy(const EntityGraph& graph, RelTypeId rel,
                     Direction direction, uint64_t* distinct,
                     uint64_t* occurrences) {
  const Direction back = direction == Direction::kOutgoing
                             ? Direction::kIncoming
                             : Direction::kOutgoing;
  std::vector<uint64_t> counts;
  *occurrences = 0;
  for (EntityId value = 0; value < graph.num_entities(); ++value) {
    const size_t count = graph.adjacency().RelArcs(value, rel, back).size();
    if (count == 0) continue;
    counts.push_back(count);
    *occurrences += count;
  }
  *distinct = counts.size();
  return EntropyLog2(counts);
}

}  // namespace

std::vector<RelationalTable> BuildRelationalView(const EntityGraph& graph,
                                                 const SchemaGraph& schema) {
  std::vector<RelationalTable> tables;
  tables.reserve(schema.num_types());
  for (TypeId t = 0; t < schema.num_types(); ++t) {
    RelationalTable table;
    table.type = t;
    table.name = schema.TypeName(t);
    table.base_rows = schema.TypeEntityCount(t);

    for (uint32_t index : schema.IncidentEdges(t)) {
      const SchemaEdge& e = schema.Edge(index);
      const RelTypeId rel = schema.RelTypeOfEdge(index);
      // Both orientations for self-loops; otherwise the one anchored on t.
      for (Direction direction :
           {Direction::kOutgoing, Direction::kIncoming}) {
        const TypeId anchor =
            direction == Direction::kOutgoing ? e.src : e.dst;
        if (anchor != t) continue;
        RelationalColumn column;
        column.schema_edge = index;
        column.direction = direction;
        column.name = schema.SurfaceName(e);
        if (rel != kInvalidId) {
          column.entropy =
              ColumnEntropy(graph, rel, direction, &column.distinct_values,
                            &column.value_occurrences);
        }
        table.columns.push_back(std::move(column));
      }
    }

    // Key column: entities are distinct, so its entropy is log2(rows).
    table.information_content =
        Log2OrZero(static_cast<double>(table.base_rows));
    for (const RelationalColumn& column : table.columns) {
      table.information_content += column.entropy;
    }
    tables.push_back(std::move(table));
  }
  return tables;
}

}  // namespace egp
