// Key-type sets for the subset-enumerating discovery algorithms: which
// types may key a table, and which pairs of them a distance constraint
// allows side by side, as one bitset row per eligible type.
#ifndef EGP_CORE_KEY_SETS_H_
#define EGP_CORE_KEY_SETS_H_

#include <cstdint>
#include <vector>

#include "core/candidates.h"
#include "core/constraints.h"

namespace egp {

/// The types with at least one candidate non-key attribute (Def. 1), in
/// ascending order.
std::vector<TypeId> EligibleKeyTypes(const PreparedSchema& prepared);

/// Pairwise compatibility of the eligible key types under a distance
/// constraint: bit j of row i is set when eligible[i] and eligible[j]
/// (i != j) satisfy it. The diagonal is clear, so the AND of the rows of
/// a key set holds exactly the types that extend it.
class CompatibilityRows {
 public:
  CompatibilityRows(const PreparedSchema& prepared,
                    const DistanceConstraint& distance,
                    const std::vector<TypeId>& eligible);

  /// 64-bit words per row.
  size_t words() const { return words_; }
  const uint64_t* row(size_t i) const { return &bits_[i * words_]; }

 private:
  size_t words_;
  std::vector<uint64_t> bits_;
};

}  // namespace egp

#endif  // EGP_CORE_KEY_SETS_H_
