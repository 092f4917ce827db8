#include "core/apriori.h"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <optional>
#include <span>
#include <vector>

#include "common/strings.h"
#include "core/compose.h"
#include "core/key_sets.h"

namespace egp {
namespace {

/// Writes the `limit` largest values of two descending lists to `out`,
/// descending, and returns how many it wrote.
size_t MergeLargest(const double* a, size_t a_size, const double* b,
                    size_t b_size, size_t limit, double* out) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  for (; count < limit && (i < a_size || j < b_size); ++count) {
    out[count] = j == b_size || (i < a_size && a[i] >= b[j]) ? a[i++] : b[j++];
  }
  return count;
}

/// Sum of the `limit` largest values of two descending lists, the second
/// followed by `extra` copies of `rest` (at most its last value).
double SumOfLargest(const double* a, size_t a_size, const double* b,
                    size_t b_size, size_t limit, size_t extra = 0,
                    double rest = 0.0) {
  const size_t b_end = b_size + extra;
  double sum = 0.0;
  size_t i = 0;
  size_t j = 0;
  for (size_t count = 0; count < limit && (i < a_size || j < b_end);
       ++count) {
    const double next = j < b_size ? b[j] : rest;
    if (j == b_end || (i < a_size && a[i] >= next)) {
      sum += a[i++];
    } else {
      sum += next;
      ++j;
    }
  }
  return sum;
}

/// Theorem 3 upper bounds on the scores of the k-subsets below a node of
/// the walk, over the indices of the key-set index's head order. Of a
/// type's tails only the first m = n − k can ever be picked. The bounds
/// hold because every weighted score is nonnegative.
class CompletionBound {
 public:
  CompletionBound(const KeySetIndex& index, uint32_t k, uint32_t n)
      : index_(index), k_(k) {
    m_ = std::min<size_t>(n - k, index.total_tails());
    // Both the bound and the score sum at most k + m nonnegative terms, so
    // each lies within (k + m)·2^-53 of its exact value, relatively.
    slack_ = 1.0 + std::max(1e-12, 2.0 * DBL_EPSILON * (k + m_));
    prefix_heads_.assign(k + 1, 0.0);
    prefix_tails_.resize((k + 1) * m_);
    prefix_tail_count_.assign(k + 1, 0);
    merge_buffers_.resize(2 * m_);
  }

  /// Whether no subtree with this bound can hold a subset scoring at or
  /// above `best`.
  bool Below(double bound, double best) const { return bound * slack_ < best; }

  /// Stage 1, for extending the depth-key prefix by index j.
  struct SuffixBound {
    /// On every completion whose other keys all lie at j or above: the
    /// prefix's heads, the k − depth largest heads from j on (the first
    /// k − depth, in head order), and `tails`.
    double from;
    /// The m largest of the prefix's tails and every tail from j on, or
    /// more: the suffix's tails past the index's kSuffixTails count as
    /// the last one it keeps.
    double tails;
  };
  SuffixBound Suffix(uint32_t depth, size_t j) const {
    const std::span<const double> suffix = index_.SuffixTails(j);
    const size_t left_out = index_.SuffixTailsLeftOut(j);
    const double tails = SumOfLargest(
        PrefixTails(depth), prefix_tail_count_[depth], suffix.data(),
        suffix.size(), m_, left_out, left_out == 0 ? 0.0 : suffix.back());
    return {prefix_heads_[depth] + index_.HeadsFrom(j, k_ - depth) + tails,
            tails};
  }

  /// The exact score, summed in another order, of the k-subset that
  /// extends the (k − 1)-key prefix by index j.
  double Leaf(size_t j) const {
    const uint32_t depth = k_ - 1;
    return prefix_heads_[depth] + index_.head(j) +
           SumOfLargest(PrefixTails(depth), prefix_tail_count_[depth],
                        Tails(j), TailCount(j), m_);
  }

  /// Makes the (depth + 1)-key prefix the depth-key one plus index j.
  void Extend(uint32_t depth, size_t j) {
    prefix_heads_[depth + 1] = prefix_heads_[depth] + index_.head(j);
    prefix_tail_count_[depth + 1] = MergeLargest(
        PrefixTails(depth), prefix_tail_count_[depth], Tails(j),
        TailCount(j), m_, prefix_tails_.data() + (depth + 1) * m_);
  }

  // Stage 2: Suffix's sums for the size-key prefix (made by Extend), drawn
  // from the types in its candidate set, words [first_word, words) of
  // `cand`, in place of every type from some index on.

  /// The prefix's heads and the k − size largest heads among `cand`: its
  /// k − size lowest indices. `cand` holds at least that many.
  double HeadsWithin(uint32_t size, const uint64_t* cand, size_t first_word,
                     size_t words) const {
    double sum = prefix_heads_[size];
    uint32_t missing = k_ - size;
    for (size_t w = first_word; w < words; ++w) {
      for (uint64_t word = cand[w]; word != 0; word &= word - 1) {
        const size_t i = w * 64 + static_cast<size_t>(std::countr_zero(word));
        sum += index_.head(i);
        if (--missing == 0) return sum;
      }
    }
    return sum;
  }

  /// The m largest of the prefix's tails and every tail in `cand`.
  double TailsWithin(uint32_t size, const uint64_t* cand, size_t first_word,
                     size_t words) {
    const double* tails = PrefixTails(size);
    size_t count = prefix_tail_count_[size];
    double* spare = merge_buffers_.data();
    for (size_t w = first_word; w < words; ++w) {
      for (uint64_t word = cand[w]; word != 0; word &= word - 1) {
        const size_t i = w * 64 + static_cast<size_t>(std::countr_zero(word));
        const size_t tail_count = TailCount(i);
        if (tail_count == 0 ||
            (count == m_ && Tails(i)[0] <= tails[m_ - 1])) {
          continue;
        }
        count = MergeLargest(tails, count, Tails(i), tail_count, m_, spare);
        tails = spare;
        spare = spare == merge_buffers_.data() ? merge_buffers_.data() + m_
                                               : merge_buffers_.data();
      }
    }
    double sum = 0.0;
    for (size_t t = 0; t < count; ++t) sum += tails[t];
    return sum;
  }

 private:
  const double* Tails(size_t i) const { return index_.tails(i).data(); }
  size_t TailCount(size_t i) const {
    return std::min(m_, index_.tails(i).size());
  }
  const double* PrefixTails(uint32_t depth) const {
    return prefix_tails_.data() + depth * m_;
  }

  const KeySetIndex& index_;
  const uint32_t k_;
  size_t m_;      // tail slots: n − k, or every tail there is if fewer
  double slack_;  // 1 + the relative rounding the bounds allow for
  std::vector<double> prefix_heads_;  // per prefix size, 0..k_
  std::vector<double> prefix_tails_;  // m_ per prefix size, descending
  std::vector<size_t> prefix_tail_count_;
  std::vector<double> merge_buffers_;  // TailsWithin's two, m_ each
};

/// The depth-first walk over L_k, in the order of `order`. keys[0..depth)
/// is the current prefix, a member of L_depth; `cand` holds the indices
/// into `order` that extend it, all above its last key's. With a bound,
/// the walk skips every subtree that cannot hold a subset scoring at or
/// above the best so far; without one it scores all of L_k.
class LevelWalk {
 public:
  LevelWalk(const std::vector<TypeId>& order, const CompatibilityRows& rows,
            uint32_t k, uint64_t max_level_size, CompletionBound* bound,
            SubsetScorer* scorer)
      : order_(order),
        rows_(rows),
        k_(k),
        max_level_size_(max_level_size),
        bound_(bound),
        scorer_(scorer),
        keys_(k),
        sorted_keys_(k),
        cand_(static_cast<size_t>(k) * rows.words()),
        level_size_(k + 1, 0) {
    best_keys_.reserve(k);
  }

  void Run() {
    // Every type extends the empty prefix.
    const size_t count = order_.size();
    for (size_t i = 0; i < count; ++i) {
      cand_[i / 64] |= uint64_t{1} << (i % 64);
    }
    Walk(0, cand_.data(), 0);
  }

  /// The smallest subset size from 3 to k whose level outgrew the cap;
  /// 0 if none did.
  uint32_t exceeded() const { return exceeded_; }
  uint64_t enumerated() const { return enumerated_; }
  uint64_t scored() const { return scored_; }
  /// In TypeId order.
  const std::vector<TypeId>& best_keys() const { return best_keys_; }

 private:
  bool Below(double bound) const { return bound_->Below(bound, best_score_); }

  /// Scores keys[0..k) in TypeId order, so a key set sums its heads in
  /// one order however the walk reached it, and keeps it if it beats the
  /// best so far, or ties it and is lexicographically smaller: the first
  /// best subset of a TypeId-order walk wins in any order.
  void ScoreLeaf() {
    const TypeId* keys = keys_.data();
    if (bound_ != nullptr) {  // the pruned walk runs in head order
      std::copy(keys_.begin(), keys_.end(), sorted_keys_.begin());
      std::sort(sorted_keys_.begin(), sorted_keys_.end());
      keys = sorted_keys_.data();
    }
    const double score = scorer_->Score(keys, k_);
    if (score > best_score_ ||
        (score == best_score_ &&
         std::lexicographical_compare(keys, keys + k_, best_keys_.begin(),
                                      best_keys_.end()))) {
      best_score_ = score;
      best_keys_.assign(keys, keys + k_);
    }
  }

  void Walk(uint32_t depth, const uint64_t* cand, size_t first_word) {
    const size_t words = rows_.words();
    const uint32_t size = depth + 1;  // of the subsets this call visits
    uint64_t* child = cand_.data() + static_cast<size_t>(size) * words;
    for (size_t w = first_word; w < words; ++w) {
      for (uint64_t word = cand[w]; word != 0; word &= word - 1) {
        const size_t j = w * 64 + static_cast<size_t>(std::countr_zero(word));
        // Every bound is nonnegative, so none prunes before a subset is
        // scored.
        const bool bounding = bound_ != nullptr && best_score_ >= 0.0;
        double suffix_tails = 0.0;
        if (bounding) {
          const CompletionBound::SuffixBound suffix = bound_->Suffix(depth, j);
          // No completion with keys from j on can beat the best so far,
          // so neither can j's subtree nor any later sibling's.
          if (Below(suffix.from)) return;
          suffix_tails = suffix.tails;
        }
        keys_[depth] = order_[j];
        // Once a level overflows, each later node of it returns here, so
        // no deeper level is walked again while the smaller ones keep
        // counting: the last level to overflow is the smallest.
        if (max_level_size_ != 0 && size >= 3 &&
            ++level_size_[size] > max_level_size_) {
          exceeded_ = size;
          return;
        }
        if (size == k_) {
          ++enumerated_;
          if (bounding && Below(bound_->Leaf(j))) continue;
          ++scored_;
          ScoreLeaf();
          continue;
        }
        // The extensions of keys[0..size): candidates above j that are
        // compatible with j too.
        const uint64_t* row = rows_.row(j);
        child[w] = (word & (word - 1)) & row[w];
        size_t extensions = std::popcount(child[w]);
        for (size_t v = w + 1; v < words; ++v) {
          child[v] = cand[v] & row[v];
          extensions += std::popcount(child[v]);
        }
        if (bound_ == nullptr) {
          if (extensions == 0) continue;
        } else {
          // Too few extensions to reach k keys, or none that can win.
          // The suffix's tails are never fewer than the candidates' own,
          // so the first sum prunes nothing the second would keep; it
          // only spares the second's tail merge.
          if (extensions < k_ - size) continue;
          bound_->Extend(depth, j);
          if (bounding) {
            const double heads = bound_->HeadsWithin(size, child, w, words);
            if (Below(heads + suffix_tails) ||
                Below(heads + bound_->TailsWithin(size, child, w, words))) {
              continue;
            }
          }
        }
        Walk(size, child, w);
      }
    }
  }

  const std::vector<TypeId>& order_;
  const CompatibilityRows& rows_;
  const uint32_t k_;
  const uint64_t max_level_size_;
  CompletionBound* bound_;  // null on the exhaustive walk
  SubsetScorer* scorer_;
  std::vector<TypeId> keys_;
  std::vector<TypeId> sorted_keys_;
  std::vector<uint64_t> cand_;  // one candidate set per depth
  std::vector<uint64_t> level_size_;
  uint32_t exceeded_ = 0;
  uint64_t enumerated_ = 0;
  uint64_t scored_ = 0;
  double best_score_ = -1.0;
  std::vector<TypeId> best_keys_;
};

}  // namespace

Result<Preview> AprioriDiscover(const PreparedSchema& prepared,
                                const SizeConstraint& size,
                                const DistanceConstraint& distance,
                                const AprioriOptions& options,
                                DiscoveryStats* stats) {
  const bool pruned = options.walk == AprioriWalk::kPruned;
  if (pruned && options.max_level_size != 0) {
    return Status::InvalidArgument(
        "max_level_size applies only to the exhaustive Apriori walk");
  }
  const uint32_t k = size.k;
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (size.n < k) {
    return Status::InvalidArgument(
        StrFormat("n=%u < k=%u: every table needs one non-key attribute",
                  size.n, k));
  }

  const KeySetIndex& index = prepared.key_sets();
  if (index.size() < k) {
    return Status::NotFound(StrFormat(
        "only %zu eligible key types, need k=%u", index.size(), k));
  }

  // Steps 1 and 2 in one pass: each k-subset is scored as the walk
  // reaches it, unless its bound already rules it out. The pruned walk
  // runs in the index's head order over its rows; the exhaustive one in
  // TypeId order over rows built for this call.
  SubsetScorer scorer(prepared, size.n);
  std::vector<TypeId> eligible;
  std::optional<CompatibilityRows> rows;
  std::optional<CompletionBound> bound;
  if (pruned) {
    bound.emplace(index, k, size.n);
  } else {
    eligible = EligibleKeyTypes(prepared);
    rows.emplace(prepared, distance, eligible);
  }
  LevelWalk walk(pruned ? index.types() : eligible,
                 pruned ? index.Rows(distance) : *rows, k,
                 options.max_level_size, bound ? &*bound : nullptr, &scorer);
  walk.Run();
  if (walk.exceeded() != 0) {
    return Status::OutOfRange(StrFormat(
        "Apriori level %u exceeded max_level_size=%llu", walk.exceeded(),
        static_cast<unsigned long long>(options.max_level_size)));
  }

  DiscoveryStats local_stats;
  local_stats.subsets_enumerated = walk.enumerated();
  local_stats.subsets_scored = walk.scored();
  if (stats != nullptr) *stats = local_stats;
  // Both walks reach the first member of L_k: nothing prunes before a
  // subset is scored.
  if (walk.enumerated() == 0) {
    return Status::NotFound("no k-subset satisfies the distance constraint");
  }
  if (walk.best_keys().empty()) {
    return Status::NotFound("no preview satisfies the distance constraint");
  }
  return ComposePreview(prepared, walk.best_keys(), size.n);
}

}  // namespace egp
