#include "core/frontier.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "core/dynamic_programming.h"

namespace egp {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}  // namespace

double ScoreFrontier::At(uint32_t k, uint32_t n) const {
  EGP_CHECK(k >= 1 && k <= max_k_) << "k out of range: " << k;
  EGP_CHECK(n >= 1 && n <= max_n_) << "n out of range: " << n;
  const double score = scores_[(k - 1) * max_n_ + (n - 1)];
  return score;
}

double ScoreFrontier::MarginalTable(uint32_t k, uint32_t n) const {
  if (k <= 1) return At(1, n);
  const double with = At(k, n);
  const double without = At(k - 1, n);
  if (with < 0) return with;
  return with - std::max(without, 0.0);
}

ScoreFrontier::Point ScoreFrontier::KneeAt(double fraction) const {
  Point best;
  const double full = At(max_k_, max_n_);
  if (full < 0) return best;
  const double target = full * fraction;
  // Smallest total footprint (k + n), ties by smaller n.
  uint32_t best_cost = UINT32_MAX;
  for (uint32_t k = 1; k <= max_k_; ++k) {
    for (uint32_t n = k; n <= max_n_; ++n) {
      const double score = At(k, n);
      if (score < target) continue;
      const uint32_t cost = k + n;
      if (cost < best_cost || (cost == best_cost && n < best.n)) {
        best_cost = cost;
        best = Point{k, n, score};
      }
    }
  }
  return best;
}

Result<ScoreFrontier> ComputeScoreFrontier(const PreparedSchema& prepared,
                                           uint32_t max_k, uint32_t max_n) {
  if (max_k == 0 || max_n == 0) {
    return Status::InvalidArgument("frontier needs positive max_k/max_n");
  }
  if (max_n < max_k) {
    return Status::InvalidArgument("max_n must be at least max_k");
  }
  if (prepared.num_types() == 0) return Status::NotFound("empty schema graph");

  const ConciseTable table =
      FillConciseTable(prepared, max_k, max_n, /*record_choices=*/false);

  // Collapse "exactly j" into "at most n" via a running max per row; past
  // the table's clamped j axis nothing more fits, so the row holds.
  ScoreFrontier frontier;
  frontier.max_k_ = max_k;
  frontier.max_n_ = max_n;
  frontier.scores_.assign(static_cast<size_t>(max_k) * max_n, -1.0);
  for (uint32_t k = 1; k <= max_k; ++k) {
    double running = kNegInf;
    for (uint32_t n = 1; n <= max_n; ++n) {
      if (n <= table.n) {
        running = std::max(
            running, table.best[static_cast<size_t>(k) * (table.n + 1) + n]);
      }
      frontier.scores_[(k - 1) * max_n + (n - 1)] =
          running == kNegInf ? -1.0 : running;
    }
  }
  return frontier;
}

}  // namespace egp
