#include "core/key_sets.h"

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
  const SchemaDistanceMatrix& dist = prepared.distances();
  for (size_t i = 0; i < eligible.size(); ++i) {
    for (size_t j = i + 1; j < eligible.size(); ++j) {
      if (!distance.SatisfiedBy(dist.Distance(eligible[i], eligible[j]))) {
        continue;
      }
      bits_[i * words_ + j / 64] |= uint64_t{1} << (j % 64);
      bits_[j * words_ + i / 64] |= uint64_t{1} << (i % 64);
    }
  }
}

}  // namespace egp
