// Apriori-style optimal tight/diverse preview discovery (Alg. 3), with an
// exact branch-and-bound walk over its candidate subsets.
//
// Step 1 finds L_k, the k-subsets of key types whose pairwise distances
// satisfy the constraint; step 2 scores each with ComputePreview
// (Theorem 3). Level-wise, Apriori builds L_i by joining (i−1)-subsets
// that share an (i−2)-prefix and checking only the two differing last
// elements. This implementation walks the same join depth-first instead,
// over some order of the eligible key types: one compatibility bitset
// row per type (bit j of row i set when the pair meets the constraint),
// and the candidates that extend a prefix are the intersection of its
// members' rows above its last key. Every (i−1)-prefix in L_{i−1} thus
// meets exactly the elements the join would append to it, in that
// order, so the walk reaches L_k's subsets in the lexicographic order of
// their positions, keeping no level in memory.
//
// Two walks share that structure. The exhaustive walk is Alg. 3 as the paper
// states it: it runs in TypeId order over rows built for the call and scores
// every member of L_k. The pruned walk (the default, and what Discover()
// runs) runs over the prepared schema's KeySetIndex, built once per schema:
// the types in head order (a type's head is S(τ) times its top candidate's
// score; heads descending, TypeId ascending on ties), each suffix's largest
// tails and one set of rows per distinct constraint, so a call builds no
// table of its own beyond its prefix's heads and tails. It skips every
// subtree that cannot beat the best subset found so far. Theorem 3 makes a
// subset's score the sum of its tables' heads and the n − k largest of its
// tails (the types' other weighted candidates), so any larger pool of heads
// and tails bounds it from above. Extending prefix P by index j, the walk
// first bounds every completion whose other keys lie at j or above: P's
// heads, the k − |P| largest heads from j on (in head order the next
// k − |P|, one read of the index's prefix sums plus the rounding the read
// can lose), and the n − k largest of P's tails and all tails from j on
// (past the suffix's kSuffixTails kept ones, each left-out tail counts as
// the last kept one). When that bound fails, j and every later sibling go. A
// child that survives is bounded again over its actual candidate set: its
// k − |P| lowest indices' heads (O(k)) and its candidates' tails; a child
// with too few candidates to reach k keys goes too. A cheaper sum runs
// before the tail merge and prunes nothing it would keep: the candidates'
// heads with the suffix's tails. No bound is computed before the first leaf
// is scored: none can fall below the best score of −1 that precedes it. Head
// order meets the highest heads first, so an early leaf sets a high best
// score, and the suffix bound then cuts each later sibling loop short. A
// subtree goes only when its bound times (1 + 1e-12) is strictly below the
// best score so far; the slack covers the summation order and widens to
// 2·DBL_EPSILON per term once k + m passes about 2250 terms
// (1e-12 / 4.44e-16). Each surviving leaf's keys are scored in TypeId order
// by the same SubsetScorer, so a key set's score is bit-equal on both walks.
// Equal scores are never pruned, and of equal best scores both walks keep
// the lexicographically smallest TypeId tuple: the exhaustive walk meets it
// first, and the pruned one keeps the smaller tuple on an exact tie. So the
// pruned walk returns the exhaustive walk's keys, tables and score, bit for
// bit, and the same status. Ties defeat the bound: on a schema of identical
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
