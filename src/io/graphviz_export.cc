#include "io/graphviz_export.h"

#include <set>
#include <sstream>

#include "common/strings.h"

namespace egp {
namespace {

/// Escaped label length past which a name is cut and ends in "...".
constexpr size_t kMaxLabelLength = 24;

std::string DotEscape(std::string_view text) {
  std::string out;
  for (char c : text) {
    if (out.size() >= kMaxLabelLength) {
      out += "...";
      break;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void EmitNodes(const SchemaGraph& schema,
               const std::set<TypeId>& highlighted, std::ostream& out) {
  for (TypeId t = 0; t < schema.num_types(); ++t) {
    const std::string label =
        DotEscape(schema.TypeName(t)) +
        StrFormat("\\n(%llu)", (unsigned long long)schema.TypeEntityCount(t));
    out << "  t" << t << " [label=\"" << label << "\"";
    if (highlighted.count(t) > 0) {
      out << ", style=filled, fillcolor=lightblue, penwidth=2";
    }
    out << "];\n";
  }
}

void EmitEdges(const SchemaGraph& schema,
               const std::set<std::pair<uint32_t, Direction>>& bold,
               std::ostream& out) {
  for (uint32_t index = 0; index < schema.num_edges(); ++index) {
    const SchemaEdge& e = schema.Edge(index);
    const std::string label =
        DotEscape(schema.SurfaceName(e)) +
        StrFormat(" (%llu)", (unsigned long long)e.edge_count);
    out << "  t" << e.src << " -> t" << e.dst << " [label=\"" << label
        << "\"";
    const bool is_bold = bold.count({index, Direction::kOutgoing}) > 0 ||
                         bold.count({index, Direction::kIncoming}) > 0;
    if (is_bold) out << ", penwidth=2.5, color=blue";
    out << "];\n";
  }
}

}  // namespace

std::string SchemaToDot(const SchemaGraph& schema) {
  std::ostringstream out;
  out << "digraph schema {\n  rankdir=LR;\n  node [shape=box];\n";
  EmitNodes(schema, {}, out);
  EmitEdges(schema, {}, out);
  out << "}\n";
  return out.str();
}

std::string PreviewToDot(const PreparedSchema& prepared,
                         const Preview& preview) {
  const SchemaGraph& schema = prepared.schema();
  std::set<TypeId> keys;
  std::set<std::pair<uint32_t, Direction>> chosen;
  for (const PreviewTable& table : preview.tables) {
    keys.insert(table.key);
    for (const NonKeyCandidate& c : table.nonkeys) {
      chosen.insert({c.schema_edge, c.direction});
    }
  }
  std::ostringstream out;
  out << "digraph preview {\n  rankdir=LR;\n  node [shape=box];\n";
  EmitNodes(schema, keys, out);
  EmitEdges(schema, chosen, out);
  out << "}\n";
  return out.str();
}

}  // namespace egp
