#include "io/graph_io.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/strings.h"
#include "graph/entity_graph_builder.h"
#include "io/ntriples.h"

namespace egp {

Result<EntityGraph> ReadEntityGraph(std::istream& in) {
  EntityGraphBuilder builder;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view view = Trim(line);
    if (view.empty() || view[0] == '#') continue;
    const std::vector<std::string> fields = Split(view, '\t');
    const std::string& kind = fields[0];
    auto error = [&](const char* what) {
      return Status::Corruption(StrFormat("line %zu: %s", line_number, what));
    };
    if (kind == "reltype") {
      if (fields.size() != 4) return error("reltype needs 3 fields");
      const TypeId src = builder.AddEntityType(fields[2]);
      const TypeId dst = builder.AddEntityType(fields[3]);
      builder.AddRelationshipType(fields[1], src, dst);
    } else if (kind == "type") {
      if (fields.size() != 3) return error("type needs 2 fields");
      builder.AddTypedEntity(fields[1], fields[2]);
    } else if (kind == "edge") {
      if (fields.size() != 6) return error("edge needs 5 fields");
      const TypeId src_type = builder.AddEntityType(fields[3]);
      const TypeId dst_type = builder.AddEntityType(fields[4]);
      const RelTypeId rel =
          builder.AddRelationshipType(fields[2], src_type, dst_type);
      const EntityId src = builder.AddEntity(fields[1]);
      const EntityId dst = builder.AddEntity(fields[5]);
      // Edges imply membership of their endpoints in the endpoint types.
      builder.AddEntityToType(src, src_type);
      builder.AddEntityToType(dst, dst_type);
      EGP_RETURN_IF_ERROR(builder.AddEdge(src, rel, dst));
    } else {
      return error("unknown record kind");
    }
  }
  return builder.Build();
}

Result<EntityGraph> ReadEntityGraphFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  return ReadEntityGraph(in);
}

Status WriteEntityGraph(const EntityGraph& graph, std::ostream& out) {
  out << "# EGT snapshot: " << graph.num_entities() << " entities, "
      << graph.num_edges() << " edges, " << graph.num_types() << " types, "
      << graph.num_rel_types() << " relationship types\n";
  for (RelTypeId r = 0; r < graph.num_rel_types(); ++r) {
    const RelTypeInfo& info = graph.RelType(r);
    out << "reltype\t" << graph.RelSurfaceName(r) << "\t"
        << graph.TypeName(info.src_type) << "\t"
        << graph.TypeName(info.dst_type) << "\n";
  }
  for (EntityId e = 0; e < graph.num_entities(); ++e) {
    for (TypeId t : graph.TypesOf(e)) {
      out << "type\t" << graph.EntityName(e) << "\t" << graph.TypeName(t)
          << "\n";
    }
  }
  // Edges in (source, relationship type, destination) order: the CSR's
  // own order. The reltype lines above fix the relationship type ids.
  for (EntityId src = 0; src < graph.num_entities(); ++src) {
    for (const FrozenGraph::Arc& arc : graph.adjacency().OutArcs(src)) {
      const RelTypeInfo& info = graph.RelType(arc.rel_type);
      out << "edge\t" << graph.EntityName(src) << "\t"
          << graph.RelSurfaceName(arc.rel_type) << "\t"
          << graph.TypeName(info.src_type) << "\t"
          << graph.TypeName(info.dst_type) << "\t"
          << graph.EntityName(arc.neighbor) << "\n";
    }
  }
  if (!out) return Status::IOError("write failed");
  return Status::OK();
}

Status WriteEntityGraphFile(const EntityGraph& graph,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  return WriteEntityGraph(graph, out);
}

const char* GraphStorageName(GraphStorage storage) {
  switch (storage) {
    case GraphStorage::kNTriples:
      return "nt";
    case GraphStorage::kEgt:
      return "egt";
    case GraphStorage::kSnapshot:
      return "snapshot";
  }
  return "unknown";
}

Result<LoadedGraph> LoadGraphFileAuto(
    const std::string& path, const SnapshotOpenOptions& snapshot_options) {
  bool is_snapshot = false;
  EGP_ASSIGN_OR_RETURN(is_snapshot, FileHasSnapshotMagic(path));
  LoadedGraph loaded;
  if (is_snapshot) {
    StoredGraph stored;
    EGP_ASSIGN_OR_RETURN(stored, OpenSnapshot(path, snapshot_options));
    loaded.graph = std::move(stored.graph);
    loaded.storage = GraphStorage::kSnapshot;
    return loaded;
  }
  if (EndsWith(path, ".egps")) {
    return Status::Corruption(path +
                              ": named .egps but does not start with the "
                              "EGPS magic (corrupt or not a snapshot)");
  }
  if (EndsWith(path, ".nt")) {
    EGP_ASSIGN_OR_RETURN(loaded.graph, ReadNTriplesFile(path));
    loaded.storage = GraphStorage::kNTriples;
    return loaded;
  }
  EGP_ASSIGN_OR_RETURN(loaded.graph, ReadEntityGraphFile(path));
  loaded.storage = GraphStorage::kEgt;
  return loaded;
}

}  // namespace egp
