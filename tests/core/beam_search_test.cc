#include "core/beam_search.h"

#include <gtest/gtest.h>

#include "common/strings.h"
#include "core/brute_force.h"
#include "datagen/paper_example.h"
#include "tests/testing/random_schema.h"

namespace egp {
namespace {

PreparedSchema PreparePaper() {
  auto prepared = PreparedSchema::Create(
      SchemaGraph::FromEntityGraph(BuildPaperExampleGraph()));
  EXPECT_TRUE(prepared.ok());
  return std::move(prepared).value();
}

TEST(BeamSearchTest, FindsPaperConciseOptimum) {
  const PreparedSchema prepared = PreparePaper();
  const auto preview = BeamSearchDiscover(prepared, SizeConstraint{2, 6},
                                          DistanceConstraint::None());
  ASSERT_TRUE(preview.ok());
  EXPECT_DOUBLE_EQ(preview->Score(prepared), 84.0);
}

TEST(BeamSearchTest, FindsPaperDiverseOptimum) {
  const PreparedSchema prepared = PreparePaper();
  const auto preview = BeamSearchDiscover(prepared, SizeConstraint{2, 6},
                                          DistanceConstraint::Diverse(2));
  ASSERT_TRUE(preview.ok());
  EXPECT_DOUBLE_EQ(preview->Score(prepared), 78.0);
}

TEST(BeamSearchTest, ResultAlwaysValid) {
  const PreparedSchema prepared = PreparePaper();
  for (uint32_t k = 1; k <= 4; ++k) {
    for (uint32_t n = k; n <= k + 4; ++n) {
      const SizeConstraint size{k, n};
      const auto preview =
          BeamSearchDiscover(prepared, size, DistanceConstraint::Tight(2));
      if (!preview.ok()) continue;
      EXPECT_TRUE(ValidatePreview(*preview, prepared, size,
                                  DistanceConstraint::Tight(2))
                      .ok())
          << "k=" << k << " n=" << n;
    }
  }
}

TEST(BeamSearchTest, InfeasibleConstraintIsNotFound) {
  const PreparedSchema prepared = PreparePaper();
  const auto preview = BeamSearchDiscover(prepared, SizeConstraint{3, 6},
                                          DistanceConstraint::Diverse(9));
  EXPECT_EQ(preview.status().code(), StatusCode::kNotFound);
}

TEST(BeamSearchTest, InvalidArguments) {
  const PreparedSchema prepared = PreparePaper();
  EXPECT_FALSE(BeamSearchDiscover(prepared, SizeConstraint{0, 5},
                                  DistanceConstraint::None())
                   .ok());
  EXPECT_FALSE(BeamSearchDiscover(prepared, SizeConstraint{3, 2},
                                  DistanceConstraint::None())
                   .ok());
  BeamSearchOptions zero;
  zero.beam_width = 0;
  EXPECT_FALSE(BeamSearchDiscover(prepared, SizeConstraint{2, 4},
                                  DistanceConstraint::None(), zero)
                   .ok());
}

TEST(BeamSearchTest, EqualScoresKeepTheSmallestKeys) {
  // A ring A→B→C→D→A of identical types: every key set of a size scores
  // the same, so a width-1 beam keeps the lexicographically smallest.
  SchemaGraph schema;
  for (const char* name : {"A", "B", "C", "D"}) schema.AddType(name, 5);
  for (TypeId t = 0; t < 4; ++t) {
    schema.AddEdge(StrFormat("r%u", t), t, (t + 1) % 4, 3);
  }
  auto prepared = PreparedSchema::Create(schema);
  ASSERT_TRUE(prepared.ok());
  BeamSearchOptions narrow;
  narrow.beam_width = 1;
  narrow.max_beam_width = 1;
  for (uint32_t k : {1u, 2u, 3u}) {
    const auto preview = BeamSearchDiscover(
        *prepared, SizeConstraint{k, k}, DistanceConstraint::None(), narrow);
    ASSERT_TRUE(preview.ok());
    ASSERT_EQ(preview->tables.size(), k);
    for (uint32_t i = 0; i < k; ++i) EXPECT_EQ(preview->tables[i].key, i);
  }
}

struct BeamInstance {
  uint64_t seed;
  uint32_t k;
  uint32_t n;
};

class BeamQualityTest : public ::testing::TestWithParam<BeamInstance> {};

TEST_P(BeamQualityTest, NeverBeatsAndUsuallyMatchesOptimal) {
  const BeamInstance& p = GetParam();
  const SchemaGraph schema = testing_util::RandomSchemaGraph(p.seed, 12, 24);
  auto prepared = PreparedSchema::Create(schema);
  ASSERT_TRUE(prepared.ok());
  const SizeConstraint size{p.k, p.n};
  for (const DistanceConstraint& constraint :
       {DistanceConstraint::None(), DistanceConstraint::Tight(2),
        DistanceConstraint::Diverse(2)}) {
    const auto exact = BruteForceDiscover(*prepared, size, constraint);
    const auto beam = BeamSearchDiscover(*prepared, size, constraint);
    if (!exact.ok()) {
      // Beam may also fail to find a feasible set; it must not "succeed"
      // with an invalid one.
      if (beam.ok()) {
        EXPECT_TRUE(ValidatePreview(*beam, *prepared, size, constraint).ok());
      }
      continue;
    }
    ASSERT_TRUE(beam.ok()) << "beam missed a feasible instance";
    const double optimal = exact->Score(*prepared);
    const double approx = beam->Score(*prepared);
    EXPECT_LE(approx, optimal + 1e-9);
    // With beam width 8 on 12-type schemas the approximation should stay
    // within 10% of optimal.
    EXPECT_GE(approx, optimal * 0.9)
        << "seed=" << p.seed << " k=" << p.k << " n=" << p.n;
    EXPECT_TRUE(ValidatePreview(*beam, *prepared, size, constraint).ok());
  }
}

std::vector<BeamInstance> BeamInstances() {
  std::vector<BeamInstance> instances;
  uint64_t seed = 9000;
  for (uint32_t k : {2u, 3u, 4u}) {
    for (uint32_t n : {4u, 8u}) {
      for (int repeat = 0; repeat < 4; ++repeat) {
        instances.push_back(BeamInstance{seed++, k, n});
      }
    }
  }
  return instances;
}

INSTANTIATE_TEST_SUITE_P(RandomSchemas, BeamQualityTest,
                         ::testing::ValuesIn(BeamInstances()));

}  // namespace
}  // namespace egp
