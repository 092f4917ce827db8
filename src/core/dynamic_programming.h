// Dynamic-programming optimal *concise* preview discovery (Alg. 2).
//
// Popt(i, j, x): best preview with exactly i tables and exactly j non-key
// attributes drawn from the first x entity types. Either type x is skipped,
// or it contributes a table with its top-m candidates (Theorem 3). The
// distance-constrained spaces have no such optimal substructure (§5.2), so
// this algorithm is only exposed for DistanceMode::kNone.
// Complexity O(K·k·n²) after the one-off candidate sort.
#ifndef EGP_CORE_DYNAMIC_PROGRAMMING_H_
#define EGP_CORE_DYNAMIC_PROGRAMMING_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/constraints.h"
#include "core/preview.h"

namespace egp {

Result<Preview> DynamicProgrammingDiscover(const PreparedSchema& prepared,
                                           const SizeConstraint& size);

/// Alg. 2's table, filled over every type. The DP reads one row of it;
/// the score frontier (core/frontier.h) reads all of it.
struct ConciseTable {
  /// The j axis, clamped to the schema's candidate total: no preview
  /// holds more non-keys, so every larger j would stay -inf.
  uint32_t n = 0;
  /// best[i * (n + 1) + j]: the best score of exactly i tables holding
  /// exactly j non-keys, -inf where there is none.
  std::vector<double> best;
  /// Filled only on request: choice[x * (k + 1) * (n + 1) + i * (n + 1)
  /// + j] is how many top candidates type x adds in cell (i, j), 0 when
  /// it is skipped.
  std::vector<uint16_t> choice;
};

/// Fills the table for up to k tables and n non-keys (n is clamped).
ConciseTable FillConciseTable(const PreparedSchema& prepared, uint32_t k,
                              uint32_t n, bool record_choices);

}  // namespace egp

#endif  // EGP_CORE_DYNAMIC_PROGRAMMING_H_
