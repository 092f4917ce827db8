// Brute-force optimal preview discovery (Alg. 1).
//
// Enumerates every k-subset of eligible key types, filters by the pairwise
// distance constraint, and scores each subset's best preview (Theorem 3).
// Exponential in k; kept as the correctness oracle and the baseline of the
// Fig. 8/9 performance experiments.
#ifndef EGP_CORE_BRUTE_FORCE_H_
#define EGP_CORE_BRUTE_FORCE_H_

#include <cstdint>

#include "common/result.h"
#include "core/compose.h"
#include "core/constraints.h"
#include "core/preview.h"

namespace egp {

/// Instrumentation shared by the discovery algorithms; DP leaves it zero.
struct DiscoveryStats {
  /// Brute force: every k-subset of eligible key types it examined.
  /// Apriori: the members of L_k its walk reached — all of them on the
  /// exhaustive walk; on the pruned one, those not ruled out together
  /// with an ancestor or with a run of earlier siblings. Beam: the key
  /// sets of every size it reached, over all its widening attempts.
  uint64_t subsets_enumerated = 0;
  /// Brute force: the k-subsets that met the distance constraint, each
  /// scored. Apriori: the members of L_k it scored — |L_k| on the
  /// exhaustive walk; on the pruned one, the reached subsets whose own
  /// bound could still beat the best so far. Beam: the key sets the
  /// attempt that succeeded scored (every singleton, and on each later
  /// level those whose bound could still make the beam); 0 when no
  /// attempt succeeded.
  uint64_t subsets_scored = 0;
  bool truncated = false;  // brute force stopped early by max_subsets
};

struct BruteForceOptions {
  /// Stop after enumerating this many subsets (0 = unlimited). When hit,
  /// the best preview so far is returned and stats->truncated is set; used
  /// by the benchmark harness to extrapolate infeasible configurations.
  uint64_t max_subsets = 0;
};

Result<Preview> BruteForceDiscover(const PreparedSchema& prepared,
                                   const SizeConstraint& size,
                                   const DistanceConstraint& distance,
                                   const BruteForceOptions& options = {},
                                   DiscoveryStats* stats = nullptr);

}  // namespace egp

#endif  // EGP_CORE_BRUTE_FORCE_H_
