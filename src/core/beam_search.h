// Approximate preview discovery by beam search (extension).
//
// §5.3 notes that "any more efficient or even approximate algorithm ...
// can be plugged into" the two-step tight/diverse framework. This module
// supplies such an algorithm: a beam over partial key sets, scoring each
// partial with the optimistic SubsetScorer score (the attributes a
// partial set would get with the full budget n — an admissible ranking
// heuristic because adding tables can only redistribute budget). Level 1
// keeps every eligible singleton, so level 2 scores every compatible pair
// — up to C(K,2); a k=2 request on the music domain (K=69) scores 2415
// subsets, 2346 of them pairs. From level 3 on, each level scores at most
// beam · K extensions, so the cost is O(K² + k · beam · K) score
// evaluations, and under tight constraints or large diverse d far fewer
// pairs qualify. It stays fast where Apriori degenerates (diverse d=2,
// tight d near the diameter, large k); the trade is optimality,
// quantified by bench_ablation_beam.
//
// Each level is one flat array of sorted, fixed-arity key tuples; a set
// reached from two kept tuples is dropped by sort-and-unique, and the
// level is trimmed with partial_sort under a total order (score
// descending, then keys ascending), so the kept beam is deterministic.
#ifndef EGP_CORE_BEAM_SEARCH_H_
#define EGP_CORE_BEAM_SEARCH_H_

#include "common/result.h"
#include "core/brute_force.h"  // DiscoveryStats
#include "core/constraints.h"
#include "core/preview.h"

namespace egp {

struct BeamSearchOptions {
  uint32_t beam_width = 8;
  /// When the beam dead-ends under a sparse constraint (no extension of
  /// any kept partial is feasible) the search retries with a 4× wider
  /// beam, up to this cap, before reporting NotFound. Set equal to
  /// beam_width to disable widening.
  uint32_t max_beam_width = 1024;
};

Result<Preview> BeamSearchDiscover(const PreparedSchema& prepared,
                                   const SizeConstraint& size,
                                   const DistanceConstraint& distance,
                                   const BeamSearchOptions& options = {},
                                   DiscoveryStats* stats = nullptr);

}  // namespace egp

#endif  // EGP_CORE_BEAM_SEARCH_H_
