// EGT snapshot format: a line-oriented TSV serialization of entity graphs
// that round-trips exactly (names, multi-typing, relationship types).
//
//   # comment
//   reltype <TAB> <surface> <TAB> <src type> <TAB> <dst type>
//   type    <TAB> <entity>  <TAB> <type>
//   edge    <TAB> <src> <TAB> <surface> <TAB> <src type> <TAB> <dst type> <TAB> <dst>
//
// `reltype` lines pre-declare relationship types (optional — edge lines
// create them on demand); `type` lines assert entity types and create
// entities; `edge` lines add relationship instances.
#ifndef EGP_IO_GRAPH_IO_H_
#define EGP_IO_GRAPH_IO_H_

#include <iosfwd>
#include <string>

#include "common/result.h"
#include "graph/entity_graph.h"
#include "store/snapshot_reader.h"

namespace egp {

Result<EntityGraph> ReadEntityGraph(std::istream& in);
Result<EntityGraph> ReadEntityGraphFile(const std::string& path);

Status WriteEntityGraph(const EntityGraph& graph, std::ostream& out);
Status WriteEntityGraphFile(const EntityGraph& graph,
                            const std::string& path);

// ---------------------------------------------------------------------------
// Unified loading: one entry point for every on-disk graph representation
// (.nt text, .egt text, .egps binary snapshot), shared by the CLI and the
// server's DatasetCatalog.
// ---------------------------------------------------------------------------

/// How a graph file is stored on disk.
enum class GraphStorage { kNTriples, kEgt, kSnapshot };

/// Stable lower-case label for logs and the /v1/datasets API:
/// "nt", "egt", or "snapshot".
const char* GraphStorageName(GraphStorage storage);

struct LoadedGraph {
  EntityGraph graph;
  GraphStorage storage = GraphStorage::kEgt;
};

/// Loads a graph with content sniffing: a file starting with the EGPS
/// magic opens as a binary snapshot whatever its name; otherwise a
/// ".nt" extension parses N-Triples and anything else the EGT text
/// format. A file *named* .egps without the magic is rejected outright
/// (a mangled snapshot should not fall through to a text parse).
Result<LoadedGraph> LoadGraphFileAuto(
    const std::string& path, const SnapshotOpenOptions& snapshot_options = {});

}  // namespace egp

#endif  // EGP_IO_GRAPH_IO_H_
