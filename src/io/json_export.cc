#include "io/json_export.h"

namespace egp {
namespace {

/// Looks up `id`'s name and prefetches its bytes. Returns what writing
/// it adds to the body: the name, its quotes and the comma before it.
size_t LookUp(const NameTable& names, EntityId id) {
  const std::string_view name = names.Get(id);
  __builtin_prefetch(name.data());
  return name.size() + 3;
}

}  // namespace

void PreviewToJson(const PreparedSchema& prepared, const Preview& preview,
                   JsonWriter* out) {
  const SchemaGraph& schema = prepared.schema();
  out->BeginObject().Key("score").Double(preview.Score(prepared));
  out->Key("tables").BeginArray();
  for (const PreviewTable& table : preview.tables) {
    out->BeginObject().Key("key").String(schema.TypeName(table.key));
    out->Key("keyScore").Double(prepared.KeyScore(table.key));
    out->Key("nonkeys").BeginArray();
    for (const NonKeyCandidate& c : table.nonkeys) {
      const SchemaEdge& e = schema.Edge(c.schema_edge);
      const TypeId other = c.direction == Direction::kOutgoing ? e.dst : e.src;
      out->BeginObject().Key("name").String(schema.SurfaceName(e));
      out->Key("direction").String(DirectionName(c.direction));
      out->Key("target").String(schema.TypeName(other));
      out->Key("score").Double(c.score).EndObject();
    }
    out->EndArray().EndObject();
  }
  out->EndArray().EndObject();
}

std::string PreviewToJson(const PreparedSchema& prepared,
                          const Preview& preview) {
  std::string out;
  JsonWriter json(&out);
  PreviewToJson(prepared, preview, &json);
  return out;
}

void MaterializedPreviewToJson(const EntityGraph& graph,
                               const MaterializedPreview& preview,
                               JsonWriter* out) {
  // Every name is looked up before any is written. The lookups do not
  // wait on each other, so their offset loads overlap, where between
  // appends each would wait its turn; each name's bytes are prefetched
  // for the write; and the summed lengths reserve the body once instead
  // of regrowing it as it fills. Nothing is stored, so the lookups take
  // no memory however large the preview. The other members are
  // estimated, with 1 KB to spare for what a response writes after the
  // preview (its stats and timings).
  const NameTable& names = graph.entity_names();
  size_t bytes = 1024;
  for (const MaterializedTable& table : preview.tables) {
    bytes += 64 * (table.columns.size() + 1);  // the table's and columns'
    for (const MaterializedRow& row : table.rows) {
      bytes += 20 + LookUp(names, row.key);  // {"key":…,"cells":[…]},
      for (const MaterializedCell& cell : row.cells) {
        bytes += 3;  // […],
        for (const EntityId value : cell.values) {
          bytes += LookUp(names, value);
        }
      }
    }
  }
  out->Reserve(bytes);

  out->BeginObject().Key("tables").BeginArray();
  for (const MaterializedTable& table : preview.tables) {
    out->BeginObject().Key("key").String(table.key_name);
    out->Key("totalTuples").Uint(table.total_tuples);
    out->Key("columns").BeginArray();
    for (const MaterializedColumn& column : table.columns) {
      out->BeginObject().Key("name").String(column.name);
      out->Key("direction").String(DirectionName(column.direction));
      out->Key("target").String(column.target).EndObject();
    }
    out->EndArray().Key("rows").BeginArray();
    for (const MaterializedRow& row : table.rows) {
      out->BeginObject().Key("key").String(names.Get(row.key));
      out->Key("cells").BeginArray();
      for (const MaterializedCell& cell : row.cells) {
        out->BeginArray();
        for (const EntityId value : cell.values) {
          out->String(names.Get(value));
        }
        out->EndArray();
      }
      out->EndArray().EndObject();
    }
    out->EndArray().EndObject();
  }
  out->EndArray().EndObject();
}

std::string MaterializedPreviewToJson(const EntityGraph& graph,
                                      const MaterializedPreview& preview) {
  std::string out;
  JsonWriter json(&out);
  MaterializedPreviewToJson(graph, preview, &json);
  return out;
}

}  // namespace egp
