#include "core/key_sets.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/strings.h"
#include "tests/testing/random_schema.h"

namespace egp {
namespace {

/// A ring T0 → T1 → … → T(n−1) → T0: every type is eligible.
SchemaGraph Ring(uint32_t n) {
  SchemaGraph schema;
  for (uint32_t t = 0; t < n; ++t) schema.AddType(StrFormat("T%u", t), 5);
  for (uint32_t t = 0; t < n; ++t) {
    schema.AddEdge(StrFormat("r%u", t), t, (t + 1) % n, 3);
  }
  return schema;
}

/// Expects bit j of row i to be set exactly when j is another eligible
/// type whose Distance() to type i meets the constraint; no bit past the
/// last eligible type is set.
void ExpectRowsMatchDistances(const PreparedSchema& prepared) {
  const std::vector<TypeId> eligible = EligibleKeyTypes(prepared);
  const SchemaDistanceMatrix& dist = prepared.distances();
  std::vector<DistanceConstraint> constraints = {DistanceConstraint::None()};
  for (uint32_t d = 0; d <= 7; ++d) {
    constraints.push_back(DistanceConstraint::Tight(d));
    constraints.push_back(DistanceConstraint::Diverse(d));
  }
  for (const DistanceConstraint& distance : constraints) {
    SCOPED_TRACE(StrFormat("K=%zu mode=%d d=%u", eligible.size(),
                           static_cast<int>(distance.mode), distance.d));
    const CompatibilityRows rows(prepared, distance, eligible);
    ASSERT_EQ(rows.words(), (eligible.size() + 63) / 64);
    size_t mismatches = 0;
    for (size_t i = 0; i < eligible.size(); ++i) {
      for (size_t j = 0; j < rows.words() * 64; ++j) {
        const bool want =
            j < eligible.size() && j != i &&
            distance.SatisfiedBy(dist.Distance(eligible[i], eligible[j]));
        const bool got = (rows.row(i)[j / 64] >> (j % 64) & 1) != 0;
        if (got != want) ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

TEST(CompatibilityRowsTest, RowsHoldThePairsThatMeetTheConstraint) {
  // Rings fill whole words (64) or spill into a new one (65); the random
  // schemas have several components, so some pairs are unreachable.
  std::vector<SchemaGraph> schemas = {Ring(5), Ring(64), Ring(65)};
  for (const uint32_t num_types : {12u, 40u, 100u}) {
    schemas.push_back(testing_util::RandomSchemaGraph(
        8000 + num_types, num_types, num_types));
  }
  for (const SchemaGraph& schema : schemas) {
    auto prepared = PreparedSchema::Create(schema);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    ExpectRowsMatchDistances(*prepared);
  }
}

}  // namespace
}  // namespace egp
