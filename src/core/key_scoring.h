// Key-attribute scoring measures (§3.2).
//
// S_cov(τ): number of entities of type τ.
// S_walk(τ): stationary probability of τ under a random walk over the
//   undirected type graph weighted by relationship counts, smoothed with a
//   small probability (default 1e-5) between every ordered pair of types so
//   the walk converges on disconnected schema graphs (§6 setup).
#ifndef EGP_CORE_KEY_SCORING_H_
#define EGP_CORE_KEY_SCORING_H_

#include <vector>

#include "common/result.h"
#include "graph/schema_graph.h"

namespace egp {

class ThreadPool;

/// Coverage scores for every type: S_cov(τ_i) = entity count of τ_i.
std::vector<double> ComputeKeyCoverage(const SchemaGraph& schema);

struct RandomWalkOptions {
  /// Smoothing probability mass added between every ordered pair of types
  /// (including self), as in the paper's experimental setup.
  double smoothing = 1e-5;
  /// Power-iteration stop conditions.
  int max_iterations = 500;
  double tolerance = 1e-12;
};

/// Stationary distribution π of the smoothed random walk; sums to 1.
/// InvalidArgument when the smoothing is negative or not finite, or is 0
/// while some type has no relationships (its transition row would be
/// all zeros).
///
/// Sparse implementation: the weight graph is held as a CSR over the
/// schema's type adjacency and the uniform smoothing term is folded in
/// analytically as a rank-1 update, so one lazy power-iteration step is
/// O(E_schema + n) time and the whole computation O(E_schema + n) memory
/// (never an n×n matrix). Each π_j is accumulated in a fixed per-row
/// order, so the result is bit-identical at any `pool` parallelism
/// (including none).
Result<std::vector<double>> ComputeKeyRandomWalk(
    const SchemaGraph& schema, const RandomWalkOptions& options = {},
    ThreadPool* pool = nullptr);

/// The transition probability M_ij from the paper's running example
/// (unsmoothed): w_ij / Σ_k w_ik, or 0 if τ_i has no incident weight.
double TransitionProbability(const SchemaGraph& schema, TypeId from, TypeId to);

}  // namespace egp

#endif  // EGP_CORE_KEY_SCORING_H_
