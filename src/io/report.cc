#include "io/report.h"

#include <algorithm>
#include <sstream>

#include "common/strings.h"
#include "core/discover.h"
#include "graph/graph_stats.h"
#include "io/graphviz_export.h"
#include "io/preview_renderer.h"

namespace egp {

Result<std::string> GeneratePreviewReport(const EntityGraph& graph,
                                          const ReportOptions& options) {
  const SchemaGraph schema = SchemaGraph::FromEntityGraph(graph);
  EGP_ASSIGN_OR_RETURN(
      PreparedSchema prepared,
      PreparedSchema::Create(schema, options.measures, &graph,
                             /*pool=*/nullptr, options.frozen));

  std::ostringstream out;
  out << "# " << options.title << "\n\n";

  // --- Statistics ---------------------------------------------------------
  const EntityGraphStats g = ComputeEntityGraphStats(graph);
  const SchemaGraphStats s = ComputeSchemaGraphStats(schema);
  out << "## Dataset statistics\n\n";
  out << "| metric | value |\n|---|---|\n";
  out << "| entities | " << g.num_entities << " |\n";
  out << "| relationships | " << g.num_edges << " |\n";
  out << "| entity types | " << s.num_types << " |\n";
  out << "| relationship types | " << s.num_rel_types << " |\n";
  out << "| multi-typed entities | " << g.multi_typed_entities << " |\n";
  out << StrFormat("| schema diameter / avg path | %u / %.2f |\n",
                   s.diameter, s.average_path_length);
  out << "| schema components | " << s.num_components << " |\n\n";

  // --- Key attribute ranking ----------------------------------------------
  out << "## Most important entity types ("
      << KeyMeasureName(options.measures.key_measure) << ")\n\n";
  out << "| rank | entity type | score | entities |\n|---|---|---|---|\n";
  std::vector<std::pair<double, TypeId>> ranked;
  for (TypeId t = 0; t < prepared.num_types(); ++t) {
    ranked.emplace_back(prepared.KeyScore(t), t);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (size_t i = 0; i < std::min(options.top_keys, ranked.size()); ++i) {
    out << "| " << (i + 1) << " | " << schema.TypeName(ranked[i].second)
        << " | " << StrFormat("%.6g", ranked[i].first) << " | "
        << schema.TypeEntityCount(ranked[i].second) << " |\n";
  }
  out << "\n";

  // --- Preview -------------------------------------------------------------
  EGP_ASSIGN_OR_RETURN(
      Discovery discovery,
      Discover(prepared, "auto", options.size, options.distance));
  const Preview& preview = discovery.preview;
  out << "## Preview (k=" << options.size.k << ", n=" << options.size.n;
  if (options.distance.mode == DistanceMode::kTight) {
    out << ", tight d=" << options.distance.d;
  } else if (options.distance.mode == DistanceMode::kDiverse) {
    out << ", diverse d=" << options.distance.d;
  }
  out << ", score " << StrFormat("%.6g", preview.Score(prepared)) << ")\n\n";

  EGP_ASSIGN_OR_RETURN(
      MaterializedPreview materialized,
      MaterializePreview(graph, prepared, preview, options.sampler));
  RenderOptions render;
  render.format = RenderOptions::Format::kMarkdown;
  render.show_direction = true;
  out << RenderPreview(graph, materialized, render);

  // --- Appendix --------------------------------------------------------------
  if (options.include_dot) {
    out << "## Appendix: schema graph (Graphviz)\n\n```dot\n"
        << PreviewToDot(prepared, preview) << "```\n";
  }
  return out.str();
}

}  // namespace egp
