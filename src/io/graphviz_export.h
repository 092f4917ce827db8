// Graphviz (DOT) export of schema graphs, optionally highlighting a
// preview — the visual "schema graph" presentation the paper's user
// study compares against (the "Graph" approach of §6.3), plus a way to
// see which star subgraphs a preview selected (Fig. 3's #1/#2 overlays).
#ifndef EGP_IO_GRAPHVIZ_EXPORT_H_
#define EGP_IO_GRAPHVIZ_EXPORT_H_

#include <string>

#include "core/preview.h"
#include "graph/schema_graph.h"

namespace egp {

/// DOT digraph of the schema: one node per entity type labelled with its
/// entity count, one edge per relationship type labelled with its surface
/// name and relationship count. Names are cut at 24 characters, so long
/// synthetic names stay readable.
std::string SchemaToDot(const SchemaGraph& schema);

/// Same, with the preview's key types filled and its chosen non-key
/// attributes drawn bold — the star-shaped subgraphs of Def. 1.
std::string PreviewToDot(const PreparedSchema& prepared,
                         const Preview& preview);

}  // namespace egp

#endif  // EGP_IO_GRAPHVIZ_EXPORT_H_
