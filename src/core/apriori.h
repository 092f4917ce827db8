// Apriori-style optimal tight/diverse preview discovery (Alg. 3), with an
// exact branch-and-bound walk over its candidate subsets.
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
// subsets in the lexicographic order the level-wise join stores them,
// keeping no level in memory. Of equal best scores, the first subset in
// that order wins.
//
// Two walks share that order. The exhaustive walk is Alg. 3 as the paper
// states it and scores every member of L_k. The pruned walk (the default,
// and what Discover() runs) skips every subtree that cannot beat the best
// subset found so far. Theorem 3 makes a subset's score the sum of its
// tables' heads (each key type's top candidate, weighted by S(τ)) and the
// n − k largest of its tails (the types' other weighted candidates), so
// any larger pool of heads and tails bounds it from above. Extending
// prefix P by eligible index j, the walk first bounds every completion
// whose other keys lie at j or above: P's heads, the k − |P| largest
// heads from j on, and the n − k largest of P's tails and all tails from
// j on, read from per-suffix tables built in O(K·n) per call. When that
// bound fails, j and every later sibling go. A child that survives is
// bounded again over its actual candidate set (the same sum, drawn from
// the types that can still join it), and a child with too few
// candidates to reach k keys goes too. Two cheaper sums run before that
// one and prune nothing it would keep: j's subtree with j's own head in
// place of the suffix's largest, and the candidates' heads with the
// suffix's tails. Each skips work the candidate-set sum would repeat,
// its bitset or its tail merge. A subtree goes only when its bound
// times (1 + 1e-12) is strictly below the best score so far; the slack
// covers the summation order and widens to 2·DBL_EPSILON per term once
// k + m passes about 2250 terms (1e-12 / 4.44e-16). The leaves that
// survive are scored by the same SubsetScorer, so the pruned walk
// returns the exhaustive walk's keys, tables and score, bit for bit, and
// the same status. Ties defeat the bound: on a schema of identical
// types nothing is pruned.
#ifndef EGP_CORE_APRIORI_H_
#define EGP_CORE_APRIORI_H_

#include "common/result.h"
#include "core/brute_force.h"  // DiscoveryStats
#include "core/constraints.h"
#include "core/preview.h"

namespace egp {

/// Which walk over L_k AprioriDiscover runs.
enum class AprioriWalk : uint8_t {
  /// Branch and bound over L_k. stats->subsets_enumerated counts the
  /// k-subsets the walk reached, stats->subsets_scored those it scored.
  kPruned = 0,
  /// Alg. 3: scores every member of L_k, and both counts are |L_k|. Only
  /// the paper's Fig. 9 reproduction and the tests select it.
  kExhaustive,
};

struct AprioriOptions {
  AprioriWalk walk = AprioriWalk::kPruned;
  /// Exhaustive walk only (InvalidArgument on the pruned one): fail with
  /// OutOfRange if some level L_i, 3 <= i <= k, holds more than this many
  /// subsets (0 = unlimited); the error names the smallest such i. Guards
  /// the degenerate constraints the paper flags (tight with d near the
  /// diameter, diverse with tiny d).
  uint64_t max_level_size = 0;
};

Result<Preview> AprioriDiscover(const PreparedSchema& prepared,
                                const SizeConstraint& size,
                                const DistanceConstraint& distance,
                                const AprioriOptions& options = {},
                                DiscoveryStats* stats = nullptr);

}  // namespace egp

#endif  // EGP_CORE_APRIORI_H_
