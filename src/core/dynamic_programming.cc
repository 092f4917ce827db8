#include "core/dynamic_programming.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/strings.h"
#include "core/key_sets.h"

namespace egp {

Result<Preview> DynamicProgrammingDiscover(const PreparedSchema& prepared,
                                           const SizeConstraint& size) {
  const uint32_t k = size.k;
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (size.n < k) {
    return Status::InvalidArgument(
        StrFormat("n=%u < k=%u: every table needs one non-key attribute",
                  size.n, k));
  }
  const size_t num_types = prepared.num_types();
  if (num_types == 0) return Status::NotFound("empty schema graph");
  // Answer an infeasible k before sizing the tables, and run the j axis
  // only up to the schema's candidate total: no preview holds more
  // non-keys, so every larger j stays -inf.
  if (EligibleKeyTypes(prepared).size() < k) {
    return Status::NotFound(
        StrFormat("fewer than k=%u eligible key types", k));
  }
  const uint32_t n = static_cast<uint32_t>(
      std::min<size_t>(size.n, prepared.TotalCandidates()));

  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const size_t cells = static_cast<size_t>(k + 1) * (n + 1);
  auto cell = [n](uint32_t i, uint32_t j) -> size_t {
    return static_cast<size_t>(i) * (n + 1) + j;
  };

  // g[x][i][j]: best score with exactly i tables / j non-keys among the
  // first x types; rolled over x. choice[x][i][j] = m (#attributes type x
  // contributes; 0 = skipped) for reconstruction.
  std::vector<double> prev(cells, kNegInf);
  std::vector<double> cur(cells, kNegInf);
  std::vector<uint16_t> choice(num_types * cells, 0);
  prev[cell(0, 0)] = 0.0;

  for (size_t x = 1; x <= num_types; ++x) {
    const TypeId type = static_cast<TypeId>(x - 1);
    const TypeCandidates& cands = prepared.Candidates(type);
    const uint32_t max_m =
        static_cast<uint32_t>(std::min<size_t>(cands.size(), n));
    uint16_t* choice_row = &choice[(x - 1) * cells];

    for (uint32_t i = 0; i <= std::min(k, static_cast<uint32_t>(x)); ++i) {
      for (uint32_t j = i; j <= n; ++j) {
        // Option 1: type x contributes nothing.
        double best = prev[cell(i, j)];
        uint16_t best_m = 0;
        if (i >= 1) {
          // Option 2: type x keys a table with its top-m candidates.
          const uint32_t limit = std::min(max_m, j - (i - 1));
          for (uint32_t m = 1; m <= limit; ++m) {
            const double below = prev[cell(i - 1, j - m)];
            if (below == kNegInf) continue;
            const double score = below + prepared.TableScore(type, m);
            if (score > best) {
              best = score;
              best_m = static_cast<uint16_t>(m);
            }
          }
        }
        cur[cell(i, j)] = best;
        choice_row[cell(i, j)] = best_m;
      }
    }
    prev.swap(cur);
    std::fill(cur.begin(), cur.end(), kNegInf);
  }

  // A preview may use fewer than n non-keys and still win (footnote 2);
  // take the best over j = k..n.
  double best_score = kNegInf;
  uint32_t best_j = 0;
  for (uint32_t j = k; j <= n; ++j) {
    if (prev[cell(k, j)] > best_score) {
      best_score = prev[cell(k, j)];
      best_j = j;
    }
  }
  if (best_score == kNegInf) {
    return Status::NotFound(
        StrFormat("fewer than k=%u eligible key types", k));
  }

  // Reconstruct the chosen (type, m) pairs by replaying the choices.
  std::vector<TypeId> keys;
  std::vector<uint32_t> key_m;
  uint32_t i = k;
  uint32_t j = best_j;
  for (size_t x = num_types; x >= 1; --x) {
    const uint16_t m = choice[(x - 1) * cells + cell(i, j)];
    if (m > 0) {
      keys.push_back(static_cast<TypeId>(x - 1));
      key_m.push_back(m);
      i -= 1;
      j -= m;
    }
    if (i == 0 && j == 0) break;
  }
  EGP_CHECK(i == 0 && j == 0) << "DP reconstruction failed";
  std::reverse(keys.begin(), keys.end());
  std::reverse(key_m.begin(), key_m.end());

  Preview preview;
  preview.tables.resize(keys.size());
  for (size_t t = 0; t < keys.size(); ++t) {
    preview.tables[t].key = keys[t];
    const TypeCandidates& cands = prepared.Candidates(keys[t]);
    preview.tables[t].nonkeys.assign(cands.sorted.begin(),
                                     cands.sorted.begin() + key_m[t]);
  }
  return preview;
}

}  // namespace egp
