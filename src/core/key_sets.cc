#include "core/key_sets.h"

#include <algorithm>
#include <cfloat>
#include <functional>
#include <span>

#include "core/candidates.h"

namespace egp {

std::vector<TypeId> EligibleKeyTypes(const PreparedSchema& prepared) {
  std::vector<TypeId> eligible;
  eligible.reserve(prepared.num_types());
  for (TypeId t = 0; t < prepared.num_types(); ++t) {
    if (prepared.Eligible(t)) eligible.push_back(t);
  }
  return eligible;
}

CompatibilityRows::CompatibilityRows(const PreparedSchema& prepared,
                                     const DistanceConstraint& distance,
                                     const std::vector<TypeId>& order)
    : words_((order.size() + 63) / 64), bits_(order.size() * words_, 0) {
  const size_t count = order.size();
  if (distance.mode == DistanceMode::kNone) {
    // Every pair is compatible: set all but the diagonal.
    for (size_t i = 0; i < count; ++i) {
      uint64_t* row = &bits_[i * words_];
      std::fill(row, row + words_, ~uint64_t{0});
      if (count % 64 != 0) row[words_ - 1] = (uint64_t{1} << (count % 64)) - 1;
      row[i / 64] &= ~(uint64_t{1} << (i % 64));
    }
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    const std::span<const uint32_t> from = prepared.distances().Row(order[i]);
    for (size_t j = i + 1; j < count; ++j) {
      const uint64_t ok = distance.SatisfiedBy(from[order[j]]);
      bits_[i * words_ + j / 64] |= ok << (j % 64);
      bits_[j * words_ + i / 64] |= ok << (i % 64);
    }
  }
}

KeySetIndex::KeySetIndex(const PreparedSchema& prepared)
    : types_(EligibleKeyTypes(prepared)) {
  const auto head = [&prepared](TypeId t) {
    return prepared.KeyScore(t) * prepared.Candidates(t).sorted[0].score;
  };
  std::sort(types_.begin(), types_.end(), [&head](TypeId a, TypeId b) {
    const double head_a = head(a);
    const double head_b = head(b);
    return head_a != head_b ? head_a > head_b : a < b;
  });
  const size_t count = types_.size();
  heads_.reserve(count);
  head_prefix_.reserve(count + 1);
  head_prefix_.push_back(0.0);
  tail_offsets_.reserve(count + 1);
  tail_offsets_.push_back(0);
  for (const TypeId t : types_) {
    const double key_score = prepared.KeyScore(t);
    const std::vector<NonKeyCandidate>& sorted = prepared.Candidates(t).sorted;
    heads_.push_back(key_score * sorted[0].score);
    head_prefix_.push_back(head_prefix_.back() + heads_.back());
    for (size_t s = 1; s < sorted.size(); ++s) {
      tails_.push_back(key_score * sorted[s].score);
    }
    tail_offsets_.push_back(tails_.size());
  }
  // Per suffix [j, K), bottom up: its largest tails.
  suffix_tails_.assign((count + 1) * kSuffixTails, 0.0);
  suffix_tail_count_.assign(count + 1, 0);
  std::vector<double> merged;
  for (size_t j = count; j-- > 0;) {
    const std::span<const double> own = tails(j);
    const std::span<const double> after = SuffixTails(j + 1);
    merged.resize(own.size() + after.size());
    std::merge(own.begin(), own.end(), after.begin(), after.end(),
               merged.begin(), std::greater<double>());
    const size_t kept = std::min(merged.size(), kSuffixTails);
    std::copy_n(merged.begin(), kept,
                suffix_tails_.begin() + j * kSuffixTails);
    suffix_tail_count_[j] = kept;
  }

  // Every head is nonnegative, so each prefix sum is off by at most
  // K·2^-53 times the total P[K] and never falls as i grows; a difference
  // of two, with its own rounding, loses less than
  // 2(K + 1)·DBL_EPSILON·P[K].
  head_rounding_ = 2.0 * static_cast<double>(count + 1) * DBL_EPSILON *
                   head_prefix_.back();

  const SchemaDistanceMatrix& distances = prepared.distances();
  for (size_t i = 0; i < count; ++i) {
    const std::span<const uint32_t> from = distances.Row(types_[i]);
    for (size_t j = i + 1; j < count; ++j) {
      if (from[types_[j]] != SchemaDistanceMatrix::kUnreachable) {
        max_distance_ = std::max(max_distance_, from[types_[j]]);
      }
    }
  }
  const uint32_t top = max_distance_;
  rows_.reserve(2 * (static_cast<size_t>(top) + 1));
  for (uint32_t d = 0; d <= top; ++d) {
    rows_.emplace_back(prepared, DistanceConstraint::Tight(d), types_);
  }
  for (uint32_t d = 1; d <= top + 1; ++d) {
    rows_.emplace_back(prepared, DistanceConstraint::Diverse(d), types_);
  }
}

const CompatibilityRows& KeySetIndex::Rows(
    const DistanceConstraint& distance) const {
  const uint32_t top = max_distance_;
  switch (distance.mode) {
    case DistanceMode::kTight:
      return rows_[std::min(distance.d, top)];
    case DistanceMode::kDiverse:
      return rows_[top + std::clamp(distance.d, 1u, top + 1)];
    case DistanceMode::kNone:
      break;
  }
  return rows_[top + 1];
}

size_t KeySetIndex::ApproximateBytes() const {
  size_t bytes = types_.capacity() * sizeof(TypeId) +
                 (heads_.capacity() + head_prefix_.capacity() +
                  tails_.capacity() + suffix_tails_.capacity()) *
                     sizeof(double) +
                 (tail_offsets_.capacity() + suffix_tail_count_.capacity()) *
                     sizeof(size_t) +
                 rows_.capacity() * sizeof(CompatibilityRows);
  for (const CompatibilityRows& rows : rows_) {
    bytes += size() * rows.words() * sizeof(uint64_t);
  }
  return bytes;
}

}  // namespace egp
