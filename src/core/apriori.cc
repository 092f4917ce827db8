#include "core/apriori.h"

#include <bit>

#include "common/strings.h"
#include "core/compose.h"
#include "core/key_sets.h"

namespace egp {
namespace {

/// The depth-first walk over L_k. keys[0..depth) is the current prefix, a
/// member of L_depth; `cand` holds the eligible indices that extend it,
/// all above its last key.
class LevelWalk {
 public:
  LevelWalk(const std::vector<TypeId>& eligible, const CompatibilityRows& rows,
            uint32_t k, uint64_t max_level_size, SubsetScorer* scorer)
      : eligible_(eligible),
        rows_(rows),
        k_(k),
        max_level_size_(max_level_size),
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
  const std::vector<TypeId>& best_keys() const { return best_keys_; }

 private:
  void Walk(uint32_t depth, const uint64_t* cand, size_t first_word) {
    const size_t words = rows_.words();
    const uint32_t size = depth + 1;  // of the subsets this call visits
    uint64_t* child = cand_.data() + static_cast<size_t>(size) * words;
    for (size_t w = first_word; w < words; ++w) {
      for (uint64_t word = cand[w]; word != 0; word &= word - 1) {
        const size_t j = w * 64 + static_cast<size_t>(std::countr_zero(word));
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
          const double score = scorer_->Score(keys_.data(), k_);
          if (score > best_score_) {
            best_score_ = score;
            best_keys_.assign(keys_.begin(), keys_.end());
          }
          continue;
        }
        // The extensions of keys[0..size): candidates above j that are
        // compatible with j too.
        const uint64_t* row = rows_.row(j);
        uint64_t any = child[w] = (word & (word - 1)) & row[w];
        for (size_t v = w + 1; v < words; ++v) {
          any |= child[v] = cand[v] & row[v];
        }
        if (any != 0) Walk(size, child, w);
      }
    }
  }

  const std::vector<TypeId>& eligible_;
  const CompatibilityRows& rows_;
  const uint32_t k_;
  const uint64_t max_level_size_;
  SubsetScorer* scorer_;
  std::vector<TypeId> keys_;
  std::vector<uint64_t> cand_;  // one candidate set per depth
  std::vector<uint64_t> level_size_;
  uint32_t exceeded_ = 0;
  uint64_t enumerated_ = 0;
  double best_score_ = -1.0;
  std::vector<TypeId> best_keys_;
};

}  // namespace

Result<Preview> AprioriDiscover(const PreparedSchema& prepared,
                                const SizeConstraint& size,
                                const DistanceConstraint& distance,
                                const AprioriOptions& options,
                                DiscoveryStats* stats) {
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
  // reaches it.
  const CompatibilityRows rows(prepared, distance, eligible);
  SubsetScorer scorer(prepared, size.n);
  LevelWalk walk(eligible, rows, k, options.max_level_size, &scorer);
  walk.Run();
  if (walk.exceeded() != 0) {
    return Status::OutOfRange(StrFormat(
        "Apriori level %u exceeded max_level_size=%llu", walk.exceeded(),
        static_cast<unsigned long long>(options.max_level_size)));
  }

  DiscoveryStats local_stats;
  local_stats.subsets_enumerated = walk.enumerated();
  local_stats.subsets_scored = walk.enumerated();
  if (stats != nullptr) *stats = local_stats;
  if (walk.enumerated() == 0) {
    return Status::NotFound("no k-subset satisfies the distance constraint");
  }
  if (walk.best_keys().empty()) {
    return Status::NotFound("no preview satisfies the distance constraint");
  }
  return ComposePreview(prepared, walk.best_keys(), size.n);
}

}  // namespace egp
