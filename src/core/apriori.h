// Apriori-style optimal tight/diverse preview discovery (Alg. 3).
//
// Step 1 finds L_k, the k-subsets of key types whose pairwise distances
// satisfy the constraint; step 2 scores each with ComputePreview
// (Theorem 3). Level-wise, Apriori builds L_i by joining (i−1)-subsets
// that share an (i−2)-prefix and checking only the two differing last
// elements. This implementation walks the same join depth-first instead:
// one compatibility bitset row per eligible key type (bit j of row i set
// when the pair meets the constraint), and the candidates that extend a
// prefix are the intersection of its members' rows above its last key.
// Every (i−1)-prefix in L_{i−1} thus meets exactly the elements the join
// would append to it, in ascending order, so the walk reaches L_k's
// subsets in the lexicographic order the level-wise join stores them —
// and scores each as it appears, keeping no level in memory. Of equal
// best scores, the first subset in that order wins.
#ifndef EGP_CORE_APRIORI_H_
#define EGP_CORE_APRIORI_H_

#include "common/result.h"
#include "core/brute_force.h"  // DiscoveryStats
#include "core/constraints.h"
#include "core/preview.h"

namespace egp {

struct AprioriOptions {
  /// Fail with OutOfRange if some level L_i, 3 <= i <= k, holds more than
  /// this many subsets (0 = unlimited); the error names the smallest such
  /// i. Guards the degenerate constraints the paper flags (tight with d
  /// near the diameter, diverse with tiny d).
  uint64_t max_level_size = 0;
};

Result<Preview> AprioriDiscover(const PreparedSchema& prepared,
                                const SizeConstraint& size,
                                const DistanceConstraint& distance,
                                const AprioriOptions& options = {},
                                DiscoveryStats* stats = nullptr);

}  // namespace egp

#endif  // EGP_CORE_APRIORI_H_
