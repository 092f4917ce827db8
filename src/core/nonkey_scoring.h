// Non-key attribute scoring measures (§3.3).
//
// Sτ_cov(γ): number of data edges of relationship type γ. Symmetric: the
//   same value regardless of which endpoint type is the table key.
// Sτ_ent(γ): entropy (base-10) of the distribution of γ-value sets over
//   tuples with non-empty values, grouping multi-valued cells by set
//   equality. Asymmetric: depends on which endpoint is the key.
#ifndef EGP_CORE_NONKEY_SCORING_H_
#define EGP_CORE_NONKEY_SCORING_H_

#include <vector>

#include "common/result.h"
#include "graph/entity_graph.h"
#include "graph/schema_graph.h"

namespace egp {

class ThreadPool;

/// Scores for every schema edge, per direction of use. outgoing[i] is the
/// score of schema edge i when the table key is its source type (γ(τ, τ'));
/// incoming[i] when the key is its destination type (γ(τ', τ)).
struct NonKeyScores {
  std::vector<double> outgoing;
  std::vector<double> incoming;
};

/// Coverage scores: outgoing == incoming == data-edge count.
NonKeyScores ComputeNonKeyCoverage(const SchemaGraph& schema);

/// Entropy scores. Requires `schema` to have been derived from `graph`
/// (schema edges must map to relationship types); fails otherwise.
///
/// Reads every (relationship, direction) pair's value sets straight out
/// of the graph's CSR adjacency — outgoing from the forward index,
/// incoming from the reverse — so no edge-list copy or global edge sort
/// is ever made. The independent (relationship, direction) jobs run on
/// `pool` when one is given, with bit-identical scores at any
/// parallelism.
Result<NonKeyScores> ComputeNonKeyEntropy(const EntityGraph& graph,
                                          const SchemaGraph& schema,
                                          ThreadPool* pool = nullptr);

/// Entropy of a single relationship type from the perspective of one
/// endpoint: the per-job kernel of ComputeNonKeyEntropy.
double RelationshipEntropy(const EntityGraph& graph, RelTypeId rel_type,
                           Direction direction);

}  // namespace egp

#endif  // EGP_CORE_NONKEY_SCORING_H_
