// Score frontier: the preview size/score trade-off surface.
//
// §4 frames preview size against goodness as the central trade-off; the
// DP recurrence of Alg. 2 computes, as a by-product, the optimal concise
// score for *every* (k', n') ≤ (k, n). This module exposes that surface
// in one DP pass — the data a UI (or the advisor) needs to let a user
// pick constraints by looking at the marginal value of one more table or
// attribute.
#ifndef EGP_CORE_FRONTIER_H_
#define EGP_CORE_FRONTIER_H_

#include <vector>

#include "common/result.h"
#include "core/candidates.h"

namespace egp {

class ScoreFrontier {
 public:
  /// Optimal concise-preview score with exactly k tables and at most n
  /// non-key attributes; negative if infeasible (fewer than k eligible
  /// types). k in [1, max_k], n in [k, max_n].
  double At(uint32_t k, uint32_t n) const;

  uint32_t max_k() const { return max_k_; }
  uint32_t max_n() const { return max_n_; }

  /// Marginal value of allowing one more table at attribute budget n:
  /// At(k, n) − At(k−1, n); negative when k is infeasible.
  double MarginalTable(uint32_t k, uint32_t n) const;

  /// Smallest (k, n) whose score is at least `fraction` of At(max_k,
  /// max_n) — "how small can the preview get while keeping 90% of the
  /// value". Returns k = 0 if the frontier is empty.
  struct Point {
    uint32_t k = 0;
    uint32_t n = 0;
    double score = 0.0;
  };
  Point KneeAt(double fraction) const;

 private:
  friend Result<ScoreFrontier> ComputeScoreFrontier(
      const PreparedSchema& prepared, uint32_t max_k, uint32_t max_n);

  uint32_t max_k_ = 0;
  uint32_t max_n_ = 0;
  std::vector<double> scores_;  // (k-1) * max_n_ + (n-1), row-major
};

/// One pass of Alg. 2's table fill (FillConciseTable, shared with the
/// DP) over the prepared schema; O(K · max_k · n²) with n = max_n
/// clamped to the schema's candidate total.
Result<ScoreFrontier> ComputeScoreFrontier(const PreparedSchema& prepared,
                                           uint32_t max_k, uint32_t max_n);

}  // namespace egp

#endif  // EGP_CORE_FRONTIER_H_
