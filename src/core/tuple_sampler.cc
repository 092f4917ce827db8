#include "core/tuple_sampler.h"

#include <algorithm>

#include "common/rng.h"

namespace egp {
namespace {

/// Union of the entity's neighbour sets across a column's relationship
/// types (one for plain columns, several for merged multi-way columns).
std::vector<EntityId> ColumnValues(const EntityGraph& graph, EntityId entity,
                                   const MaterializedColumn& column) {
  const FrozenGraph& adjacency = graph.adjacency();
  if (column.rel_types.size() == 1) {
    return adjacency.NeighborSet(entity, column.rel_types[0],
                                 column.direction);
  }
  std::vector<EntityId> values;
  for (RelTypeId rel : column.rel_types) {
    for (const FrozenGraph::Arc& arc :
         adjacency.RelArcs(entity, rel, column.direction)) {
      values.push_back(arc.neighbor);
    }
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

/// Whether ColumnValues would be non-empty, without building the set.
bool HasColumnValue(const EntityGraph& graph, EntityId entity,
                    const MaterializedColumn& column) {
  for (RelTypeId rel : column.rel_types) {
    if (!graph.adjacency().RelArcs(entity, rel, column.direction).empty()) {
      return true;
    }
  }
  return false;
}

}  // namespace

Result<MaterializedPreview> MaterializePreview(
    const EntityGraph& graph, const PreparedSchema& prepared,
    const Preview& preview, const TupleSamplerOptions& options) {
  const SchemaGraph& schema = prepared.schema();
  Rng rng(options.seed);
  MaterializedPreview out;

  for (const PreviewTable& table : preview.tables) {
    MaterializedTable mat;
    mat.key_type = table.key;
    mat.key_name = schema.TypeName(table.key);

    for (const NonKeyCandidate& c : table.nonkeys) {
      const RelTypeId rel_type = schema.RelTypeOfEdge(c.schema_edge);
      if (rel_type == kInvalidId) {
        return Status::FailedPrecondition(
            "MaterializePreview requires a schema derived from the entity "
            "graph");
      }
      const SchemaEdge& e = schema.Edge(c.schema_edge);
      const std::string& target = schema.TypeName(
          c.direction == Direction::kOutgoing ? e.dst : e.src);

      if (options.merge_multiway_columns) {
        // Fold into an existing column with the same surface name and
        // direction (a multi-way relationship seen from this key type).
        MaterializedColumn* merged = nullptr;
        for (MaterializedColumn& existing : mat.columns) {
          if (existing.name == schema.SurfaceName(e) &&
              existing.direction == c.direction) {
            merged = &existing;
            break;
          }
        }
        if (merged != nullptr) {
          merged->rel_types.push_back(rel_type);
          merged->target += ", " + target;
          continue;
        }
      }

      MaterializedColumn column;
      column.name = schema.SurfaceName(e);
      column.direction = c.direction;
      column.rel_types = {rel_type};
      column.target = target;
      mat.columns.push_back(std::move(column));
    }

    const std::span<const EntityId> members = graph.EntitiesOfType(table.key);
    mat.total_tuples = members.size();

    std::vector<size_t> picked;
    switch (options.strategy) {
      case SamplingStrategy::kRandom:
        picked = rng.SampleIndices(members.size(), options.rows_per_table);
        break;
      case SamplingStrategy::kFrequencyWeighted: {
        // Score each member by its number of non-empty cells; keep the
        // top rows (ties broken randomly via jitter).
        std::vector<std::pair<double, size_t>> scored;
        scored.reserve(members.size());
        for (size_t i = 0; i < members.size(); ++i) {
          double filled = 0.0;
          for (const MaterializedColumn& column : mat.columns) {
            if (HasColumnValue(graph, members[i], column)) filled += 1.0;
          }
          scored.emplace_back(filled + rng.NextDouble() * 0.5, i);
        }
        const size_t take = std::min(options.rows_per_table, scored.size());
        std::partial_sort(scored.begin(), scored.begin() + take, scored.end(),
                          [](const auto& a, const auto& b) {
                            return a.first > b.first;
                          });
        for (size_t i = 0; i < take; ++i) picked.push_back(scored[i].second);
        break;
      }
    }
    std::sort(picked.begin(), picked.end());

    mat.rows.reserve(picked.size());
    for (size_t index : picked) {
      MaterializedRow row;
      row.key = members[index];
      row.cells.reserve(mat.columns.size());
      for (const MaterializedColumn& column : mat.columns) {
        MaterializedCell mcell;
        mcell.values = ColumnValues(graph, row.key, column);
        row.cells.push_back(std::move(mcell));
      }
      mat.rows.push_back(std::move(row));
    }
    out.tables.push_back(std::move(mat));
  }
  return out;
}

}  // namespace egp
