// Markdown dataset-preview reports.
//
// The artifact the paper's introduction motivates: a document a data
// worker reads *before* fetching a dataset. Bundles the graph and schema
// statistics, the top key attributes under both measures, the discovered
// preview with sampled tuples (Markdown tables), and optionally the DOT
// source of the preview-annotated schema graph.
#ifndef EGP_IO_REPORT_H_
#define EGP_IO_REPORT_H_

#include <string>

#include "common/result.h"
#include "core/constraints.h"
#include "core/scoring_registry.h"
#include "core/tuple_sampler.h"
#include "graph/entity_graph.h"

namespace egp {

struct ReportOptions {
  std::string title = "Dataset preview";
  /// Any registered measures (ScoringRegistry names).
  MeasureSelection measures;
  /// The preview's constraints; discovery runs the "auto" algorithm.
  SizeConstraint size{3, 9};
  DistanceConstraint distance;
  TupleSamplerOptions sampler;
  size_t top_keys = 8;       // ranking table length
  bool include_dot = false;  // appendix with Graphviz source
};

/// Renders the full report; fails if discovery is infeasible under the
/// requested constraints.
Result<std::string> GeneratePreviewReport(const EntityGraph& graph,
                                          const ReportOptions& options = {});

}  // namespace egp

#endif  // EGP_IO_REPORT_H_
