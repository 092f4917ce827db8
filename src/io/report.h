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
#include "core/tuple_sampler.h"
#include "graph/entity_graph.h"

namespace egp {

struct ReportOptions {
  std::string title = "Dataset preview";
  PreparedSchemaOptions measures;
  /// The preview's constraints; discovery runs the "auto" algorithm.
  SizeConstraint size{3, 9};
  DistanceConstraint distance;
  TupleSamplerOptions sampler;
  size_t top_keys = 8;       // ranking table length
  bool include_dot = false;  // appendix with Graphviz source
  /// Prebuilt CSR of the graph (e.g. from an .egps snapshot); scoring
  /// reuses it instead of re-freezing. Must outlive the call.
  const FrozenGraph* frozen = nullptr;
};

/// Renders the full report; fails if discovery is infeasible under the
/// requested constraints.
Result<std::string> GeneratePreviewReport(const EntityGraph& graph,
                                          const ReportOptions& options = {});

}  // namespace egp

#endif  // EGP_IO_REPORT_H_
