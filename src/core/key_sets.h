// Key-type sets for the subset-enumerating discovery algorithms: which
// types may key a table, and which pairs of them a distance constraint
// allows side by side, as one bitset row per eligible type.
#ifndef EGP_CORE_KEY_SETS_H_
#define EGP_CORE_KEY_SETS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/constraints.h"

namespace egp {

class PreparedSchema;

/// The types with at least one candidate non-key attribute (Def. 1), in
/// ascending order.
std::vector<TypeId> EligibleKeyTypes(const PreparedSchema& prepared);

/// Pairwise compatibility of key types under a distance constraint, over
/// a given order of them: bit j of row i is set when order[i] and
/// order[j] (i != j) satisfy it. The diagonal is clear, so the AND of the
/// rows of a key set holds exactly the types that extend it.
class CompatibilityRows {
 public:
  CompatibilityRows(const PreparedSchema& prepared,
                    const DistanceConstraint& distance,
                    const std::vector<TypeId>& order);

  /// 64-bit words per row.
  size_t words() const { return words_; }
  const uint64_t* row(size_t i) const { return &bits_[i * words_]; }

 private:
  size_t words_;
  std::vector<uint64_t> bits_;
};

/// The eligible key types of one prepared schema, arranged for the pruned
/// Apriori walk, built once by PreparedSchema::Assemble and read-only
/// after. A type's head is S(τ) times its top candidate's score, and its
/// tails are S(τ) times each of its other candidates' scores. In head
/// order (head descending, TypeId ascending on ties) the largest heads of
/// any set of indices are its lowest ones, and the largest heads from
/// index j on are a prefix-sum read. The largest tails from index j on
/// are kept too, up to kSuffixTails of them.
class KeySetIndex {
 public:
  explicit KeySetIndex(const PreparedSchema& prepared);

  /// K, the number of eligible types.
  size_t size() const { return types_.size(); }
  /// The eligible types in head order.
  const std::vector<TypeId>& types() const { return types_; }
  double head(size_t i) const { return heads_[i]; }
  /// An upper bound on the sum of the `count` heads from index j on (all
  /// that are left if fewer): their prefix-sum difference plus what its
  /// rounding can have lost.
  double HeadsFrom(size_t j, size_t count) const {
    const size_t end = std::min(j + count, types_.size());
    return head_prefix_[end] - head_prefix_[j] + head_rounding_;
  }
  /// Index i's tails, descending.
  std::span<const double> tails(size_t i) const {
    return {tails_.data() + tail_offsets_[i],
            tail_offsets_[i + 1] - tail_offsets_[i]};
  }
  /// The tails of all K types.
  size_t total_tails() const { return tails_.size(); }

  /// How many of a suffix's largest tails the index keeps. While n − k
  /// is at most this, the walk's suffix bound sums the suffix's n − k
  /// largest tails; past it, each left-out tail counts as the last kept
  /// one. perfbench's request mixes ask for n − k of at most 6, which 8
  /// covers. On perfbench's music snapshot, Fig. 9's shapes (n − k up to
  /// 17) reach and score the same subsets with 8 as with 16.
  static constexpr size_t kSuffixTails = 8;
  /// The kSuffixTails largest tails of the types from index j on (all of
  /// them if fewer; none for j = K), descending.
  std::span<const double> SuffixTails(size_t j) const {
    return {suffix_tails_.data() + j * kSuffixTails, suffix_tail_count_[j]};
  }
  /// How many tails from index j on SuffixTails(j) leaves out. None of
  /// them exceeds its last one.
  size_t SuffixTailsLeftOut(size_t j) const {
    return tails_.size() - tail_offsets_[j] - suffix_tail_count_[j];
  }

  /// D: the largest finite distance between two eligible types (0 when
  /// none is finite).
  uint32_t max_distance() const { return max_distance_; }
  /// The rows of `distance` over types(). A tight d above D reads D's
  /// rows, a diverse d above D + 1 reads D + 1's, and a diverse d of 0 or
  /// no constraint reads diverse 1's: every distinct pair is at least 1
  /// apart.
  const CompatibilityRows& Rows(const DistanceConstraint& distance) const;

  /// Rough heap size: the order, heads, tails, suffix tails and rows.
  size_t ApproximateBytes() const;

 private:
  friend class PreparedSchema;  // holds one, built once it is assembled
  KeySetIndex() = default;

  std::vector<TypeId> types_;
  std::vector<double> heads_;
  std::vector<double> head_prefix_;  // K + 1: sums of the first i heads
  double head_rounding_ = 0.0;
  std::vector<double> tails_;  // every type's, in head order
  std::vector<size_t> tail_offsets_;  // K + 1
  std::vector<double> suffix_tails_;  // kSuffixTails per suffix start
  std::vector<size_t> suffix_tail_count_;  // K + 1
  uint32_t max_distance_ = 0;
  // Tight d = 0..D, then diverse d = 1..D + 1.
  std::vector<CompatibilityRows> rows_;
};

}  // namespace egp

#endif  // EGP_CORE_KEY_SETS_H_
