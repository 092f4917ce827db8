// ComputePreview (§5, Alg. 1 lines 5–14 / Alg. 3 line 17): given k chosen
// key types, build the best preview by Theorem 3 — each table takes its
// top-scoring candidate, then the remaining n−k slots are filled by a merge
// of the per-type sorted candidate lists, weighted by S(τ).
#ifndef EGP_CORE_COMPOSE_H_
#define EGP_CORE_COMPOSE_H_

#include <vector>

#include "common/result.h"
#include "core/constraints.h"
#include "core/preview.h"

namespace egp {

/// Returns the optimal preview over exactly the given key types with at
/// most n total non-key attributes. Fails if any key type has no candidate
/// non-key attribute or if n < keys.size().
Result<Preview> ComposePreview(const PreparedSchema& prepared,
                               const std::vector<TypeId>& keys, uint32_t n);

/// Score-only ComposePreview for the discovery algorithms' hot loops.
/// Built once per discovery call, it reuses one cursor array for every
/// subset, so scoring allocates nothing. The merge picks the next
/// attribute by a linear scan over the k cursors in a fixed total order
/// (weighted score descending, then type, then cursor position ascending)
/// and sums the picks in that order, so a subset's score does not depend
/// on how it was reached. ComposePreview runs the same merge.
class SubsetScorer {
 public:
  SubsetScorer(const PreparedSchema& prepared, uint32_t n)
      : prepared_(prepared), n_(n) {}

  /// Score of the best preview over keys[0..k) with at most n non-keys;
  /// negative if infeasible (k = 0, n < k, or a key type without
  /// candidates).
  double Score(const TypeId* keys, size_t k);
  double Score(const std::vector<TypeId>& keys) {
    return Score(keys.data(), keys.size());
  }

 private:
  friend Result<Preview> ComposePreview(const PreparedSchema&,
                                        const std::vector<TypeId>&, uint32_t);

  /// Merge cursor over one key's sorted candidates.
  struct Cursor {
    double weighted;   // S(type) · score of candidate `next`: the gain
    double key_score;  // S(type)
    const NonKeyCandidate* sorted;
    uint32_t next;  // next candidate index in `sorted`
    uint32_t size;
    TypeId type;
    uint32_t table;  // position within the key set
  };

  /// Runs the merge, calling pick(table, candidate index) for every
  /// attribute taken, each table's top-1 first and in key order; returns
  /// the preview score, or -1 when infeasible.
  template <typename Pick>
  double Merge(const TypeId* keys, size_t k, Pick&& pick);

  const PreparedSchema& prepared_;
  uint32_t n_;
  std::vector<Cursor> cursors_;
};

}  // namespace egp

#endif  // EGP_CORE_COMPOSE_H_
