#include "core/key_sets.h"

#include <algorithm>
#include <span>

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
                                     const std::vector<TypeId>& eligible)
    : words_((eligible.size() + 63) / 64),
      bits_(eligible.size() * words_, 0) {
  const size_t count = eligible.size();
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
    const std::span<const uint32_t> from =
        prepared.distances().Row(eligible[i]);
    for (size_t j = i + 1; j < count; ++j) {
      const uint64_t ok = distance.SatisfiedBy(from[eligible[j]]);
      bits_[i * words_ + j / 64] |= ok << (j % 64);
      bits_[j * words_ + i / 64] |= ok << (i % 64);
    }
  }
}

}  // namespace egp
