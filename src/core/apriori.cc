#include "core/apriori.h"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <functional>
#include <numeric>
#include <optional>
#include <vector>

#include "common/strings.h"
#include "core/compose.h"
#include "core/key_sets.h"

namespace egp {
namespace {

/// Calls visit(value) on the `limit` largest values of two descending
/// lists, largest first; returns how many it visited.
template <typename Visit>
size_t VisitLargest(const double* a, size_t a_size, const double* b,
                    size_t b_size, size_t limit, Visit&& visit) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  for (; count < limit && (i < a_size || j < b_size); ++count) {
    visit(j == b_size || (i < a_size && a[i] >= b[j]) ? a[i++] : b[j++]);
  }
  return count;
}

/// Writes the `limit` largest values of two descending lists to `out`,
/// descending, and returns how many it wrote.
size_t MergeLargest(const double* a, size_t a_size, const double* b,
                    size_t b_size, size_t limit, double* out) {
  return VisitLargest(a, a_size, b, b_size, limit,
                      [&out](double value) { *out++ = value; });
}

/// Sum of the `limit` largest values of two descending lists.
double SumOfLargest(const double* a, size_t a_size, const double* b,
                    size_t b_size, size_t limit) {
  double sum = 0.0;
  VisitLargest(a, a_size, b, b_size, limit,
               [&sum](double value) { sum += value; });
  return sum;
}

/// Theorem 3 upper bounds on the scores of the k-subsets below a node of
/// the walk, over eligible indices. A type's head is S(τ) times its top
/// candidate's score; its tails are S(τ) times each other candidate's, in
/// descending order, of which only the first m = n − k can ever be picked.
/// The bounds hold because every weighted score is nonnegative.
class CompletionBound {
 public:
  CompletionBound(const PreparedSchema& prepared,
                  const std::vector<TypeId>& eligible, uint32_t k,
                  uint32_t n)
      : k_(k),
        heads_(eligible.size()),
        head_order_(eligible.size()),
        tail_count_(eligible.size()) {
    const size_t count = eligible.size();
    size_t all_tails = 0;
    for (const TypeId t : eligible) {
      all_tails += prepared.Candidates(t).size() - 1;
    }
    m_ = std::min<size_t>(n - k, all_tails);
    // Both the bound and the score sum at most k + m nonnegative terms, so
    // each lies within (k + m)·2^-53 of its exact value, relatively.
    slack_ = 1.0 + std::max(1e-12, 2.0 * DBL_EPSILON * (k + m_));

    tails_.resize(count * m_);
    for (size_t i = 0; i < count; ++i) {
      const std::vector<NonKeyCandidate>& sorted =
          prepared.Candidates(eligible[i]).sorted;
      const double key_score = prepared.KeyScore(eligible[i]);
      heads_[i] = key_score * sorted[0].score;
      tail_count_[i] = std::min(m_, sorted.size() - 1);
      for (size_t s = 0; s < tail_count_[i]; ++s) {
        tails_[i * m_ + s] = key_score * sorted[s + 1].score;
      }
    }
    std::iota(head_order_.begin(), head_order_.end(), 0);
    std::sort(head_order_.begin(), head_order_.end(),
              [this](size_t a, size_t b) { return heads_[a] > heads_[b]; });

    // Per suffix [j, K): prefix sums of its k largest heads, and its m
    // largest tails.
    suffix_heads_.assign((count + 1) * (k + 1), 0.0);
    suffix_tails_.resize((count + 1) * m_);
    suffix_tail_count_.assign(count + 1, 0);
    std::vector<double> top;  // the suffix's largest heads, descending
    top.reserve(k + 1);
    for (size_t j = count; j-- > 0;) {
      top.insert(std::upper_bound(top.begin(), top.end(), heads_[j],
                                  std::greater<double>()),
                 heads_[j]);
      if (top.size() > k) top.pop_back();
      double* row = &suffix_heads_[j * (k + 1)];
      for (size_t r = 1; r <= k; ++r) {
        row[r] = row[r - 1] + (r <= top.size() ? top[r - 1] : 0.0);
      }
      suffix_tail_count_[j] = MergeLargest(
          Tails(j), tail_count_[j], suffix_tails_.data() + (j + 1) * m_,
          suffix_tail_count_[j + 1], m_, suffix_tails_.data() + j * m_);
    }

    prefix_heads_.assign(k + 1, 0.0);
    prefix_tails_.resize((k + 1) * m_);
    prefix_tail_count_.assign(k + 1, 0);
    merge_buffers_.resize(2 * m_);
  }

  /// Whether no subtree with this bound can hold a subset scoring at or
  /// above `best`.
  bool Below(double bound, double best) const { return bound * slack_ < best; }

  /// Stage 1, for extending the depth-key prefix by eligible index j.
  struct SuffixBound {
    /// On every completion whose other keys all lie at j or above: the
    /// prefix's heads, the k − depth largest heads from j on, and `tails`.
    double from;
    /// On those of them that contain j: j's head in place of the largest.
    double with;
    /// The m largest of the prefix's tails and every tail from j on.
    double tails;
  };
  SuffixBound Suffix(uint32_t depth, size_t j) const {
    const double* from_j = &suffix_heads_[j * (k_ + 1)];
    const double* after_j = from_j + (k_ + 1);
    const uint32_t missing = k_ - depth;
    const double tails =
        SumOfLargest(PrefixTails(depth), prefix_tail_count_[depth],
                     suffix_tails_.data() + j * m_, suffix_tail_count_[j], m_);
    return {prefix_heads_[depth] + from_j[missing] + tails,
            prefix_heads_[depth] + heads_[j] + after_j[missing - 1] + tails,
            tails};
  }

  /// The exact score, summed in another order, of the k-subset that
  /// extends the (k − 1)-key prefix by eligible index j.
  double Leaf(size_t j) const {
    const uint32_t depth = k_ - 1;
    return prefix_heads_[depth] + heads_[j] +
           SumOfLargest(PrefixTails(depth), prefix_tail_count_[depth],
                        Tails(j), tail_count_[j], m_);
  }

  /// Makes the (depth + 1)-key prefix the depth-key one plus eligible
  /// index j.
  void Extend(uint32_t depth, size_t j) {
    prefix_heads_[depth + 1] = prefix_heads_[depth] + heads_[j];
    prefix_tail_count_[depth + 1] = MergeLargest(
        PrefixTails(depth), prefix_tail_count_[depth], Tails(j),
        tail_count_[j], m_, prefix_tails_.data() + (depth + 1) * m_);
  }

  // Stage 2: Suffix's sums for the size-key prefix (made by Extend), drawn
  // from the types in its candidate set, words [first_word, words) of
  // `cand`, in place of every type from some index on.

  /// The prefix's heads and the k − size largest heads among `cand`.
  double HeadsWithin(uint32_t size, const uint64_t* cand,
                     size_t first_word) const {
    double sum = prefix_heads_[size];
    uint32_t missing = k_ - size;
    for (const size_t i : head_order_) {
      if (i / 64 >= first_word && (cand[i / 64] >> (i % 64) & 1) != 0) {
        sum += heads_[i];
        if (--missing == 0) break;
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
        if (tail_count_[i] == 0 ||
            (count == m_ && Tails(i)[0] <= tails[m_ - 1])) {
          continue;
        }
        count = MergeLargest(tails, count, Tails(i), tail_count_[i], m_, spare);
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
  const double* Tails(size_t i) const { return tails_.data() + i * m_; }
  const double* PrefixTails(uint32_t depth) const {
    return prefix_tails_.data() + depth * m_;
  }

  const uint32_t k_;
  size_t m_;       // tail slots: n − k, or every tail there is if fewer
  double slack_;   // 1 + the relative rounding the bounds allow for
  std::vector<double> heads_;
  std::vector<size_t> head_order_;  // eligible indices, largest head first
  std::vector<double> tails_;       // m_ per type, descending
  std::vector<size_t> tail_count_;
  std::vector<double> suffix_heads_;  // k_ + 1 per suffix start
  std::vector<double> suffix_tails_;  // m_ per suffix start, descending
  std::vector<size_t> suffix_tail_count_;
  std::vector<double> prefix_heads_;  // per prefix size, 0..k_
  std::vector<double> prefix_tails_;  // m_ per prefix size, descending
  std::vector<size_t> prefix_tail_count_;
  std::vector<double> merge_buffers_;  // TailsWithin's two, m_ each
};

/// The depth-first walk over L_k. keys[0..depth) is the current prefix, a
/// member of L_depth; `cand` holds the eligible indices that extend it,
/// all above its last key. With a bound, the walk skips every subtree that
/// cannot hold a subset scoring above the best so far; without one it
/// scores all of L_k.
class LevelWalk {
 public:
  LevelWalk(const std::vector<TypeId>& eligible, const CompatibilityRows& rows,
            uint32_t k, uint64_t max_level_size, CompletionBound* bound,
            SubsetScorer* scorer)
      : eligible_(eligible),
        rows_(rows),
        k_(k),
        max_level_size_(max_level_size),
        bound_(bound),
        scorer_(scorer),
        keys_(k),
        cand_(static_cast<size_t>(k) * rows.words()),
        level_size_(k + 1, 0) {
    best_keys_.reserve(k);
  }

  void Run() {
    // Every eligible type extends the empty prefix.
    const size_t count = eligible_.size();
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
  const std::vector<TypeId>& best_keys() const { return best_keys_; }

 private:
  bool Below(double bound) const { return bound_->Below(bound, best_score_); }

  void Walk(uint32_t depth, const uint64_t* cand, size_t first_word) {
    const size_t words = rows_.words();
    const uint32_t size = depth + 1;  // of the subsets this call visits
    uint64_t* child = cand_.data() + static_cast<size_t>(size) * words;
    for (size_t w = first_word; w < words; ++w) {
      for (uint64_t word = cand[w]; word != 0; word &= word - 1) {
        const size_t j = w * 64 + static_cast<size_t>(std::countr_zero(word));
        CompletionBound::SuffixBound suffix{};
        if (bound_ != nullptr) {
          suffix = bound_->Suffix(depth, j);
          // No completion with keys from j on can beat the best so far,
          // so neither can j's subtree nor any later sibling's.
          if (Below(suffix.from)) return;
        }
        keys_[depth] = eligible_[j];
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
          if (bound_ != nullptr && Below(bound_->Leaf(j))) continue;
          ++scored_;
          const double score = scorer_->Score(keys_.data(), k_);
          if (score > best_score_) {
            best_score_ = score;
            best_keys_.assign(keys_.begin(), keys_.end());
          }
          continue;
        }
        // j's subtree alone. The candidate-set bound below is never
        // above this one, so this prunes nothing it would keep; it only
        // spares building the child's candidate set.
        if (bound_ != nullptr && Below(suffix.with)) continue;
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
          const double heads = bound_->HeadsWithin(size, child, w);
          if (Below(heads + suffix.tails) ||
              Below(heads + bound_->TailsWithin(size, child, w, words))) {
            continue;
          }
        }
        Walk(size, child, w);
      }
    }
  }

  const std::vector<TypeId>& eligible_;
  const CompatibilityRows& rows_;
  const uint32_t k_;
  const uint64_t max_level_size_;
  CompletionBound* bound_;  // null on the exhaustive walk
  SubsetScorer* scorer_;
  std::vector<TypeId> keys_;
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

  const std::vector<TypeId> eligible = EligibleKeyTypes(prepared);
  if (eligible.size() < k) {
    return Status::NotFound(StrFormat(
        "only %zu eligible key types, need k=%u", eligible.size(), k));
  }

  // Steps 1 and 2 in one pass: each k-subset is scored as the walk
  // reaches it, unless its bound already rules it out.
  const CompatibilityRows rows(prepared, distance, eligible);
  SubsetScorer scorer(prepared, size.n);
  std::optional<CompletionBound> bound;
  if (pruned) bound.emplace(prepared, eligible, k, size.n);
  LevelWalk walk(eligible, rows, k, options.max_level_size,
                 bound ? &*bound : nullptr, &scorer);
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
