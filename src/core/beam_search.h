// Approximate preview discovery by beam search (extension).
//
// §5.3 notes that "any more efficient or even approximate algorithm ...
// can be plugged into" the two-step tight/diverse framework. This module
// supplies such an algorithm: a beam over partial key sets, ranking each
// partial by the optimistic SubsetScorer score (the attributes a partial
// set would get with the full budget n — an admissible ranking heuristic
// because adding tables can only redistribute budget). Level 1 scores and
// keeps every eligible singleton, so level 2 holds every compatible pair
// — up to C(K,2), 2346 of them on the music domain (K=69) — and from
// level 3 on a level holds at most beam · K extensions of the kept
// tuples. It stays fast where Apriori degenerates (diverse d=2, tight d
// near the diameter, large k); the trade is optimality, quantified by
// bench_ablation_beam.
//
// A level scores only the sets that can still make the beam. Theorem 3
// bounds each: a pair by the sum of its two singleton scores, and kept
// tuple P extended by type t by P's score plus t's singleton score (the
// merge's allocation restricted to P is feasible for P under budget n,
// and t's share is at most its singleton score). The beam-width highest
// bounds are scored first; any other set is scored only if its bound
// times (1 + 1e-12) reaches the beam-width-th best score so far, since
// otherwise that many scored sets beat it. The slack covers the rounding
// of the sums and widens to 2·DBL_EPSILON per attribute once n passes
// about 2250. So a call costs O(K² + k · beam · K) bound sums plus the
// sets it scores: all K singletons, and per level the beam's width plus
// the sets whose bound reaches the beam. On the music domain's concise
// requests that is about a quarter of the sets the beam reaches; ties
// defeat the bound, and under tight constraints or large diverse d far
// fewer pairs qualify anyway.
//
// Each level is one flat array of sorted, fixed-arity key tuples. A set
// reachable from two kept tuples is generated once, by the earlier one:
// kept tuple p skips type t when an earlier kept tuple is p with one
// member swapped for t. The level is trimmed with partial_sort under a
// total order (score descending, then keys ascending), so the kept beam
// does not depend on the order a level is stored or scored in, and is
// deterministic.
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
