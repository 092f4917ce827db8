// Property suite: the optimized discovery algorithms agree with the
// brute-force oracle on randomized schema graphs, across the full
// constraint grid. Scores are compared (arg max may be a tie set, §4);
// returned previews must additionally validate against the constraints
// and obey Theorem 3.
#include <gtest/gtest.h>

#include "core/apriori.h"
#include "core/brute_force.h"
#include "core/dynamic_programming.h"
#include "core/key_sets.h"
#include "tests/testing/random_schema.h"

namespace egp {
namespace {

struct Instance {
  uint64_t seed;
  uint32_t num_types;
  uint32_t num_edges;
  uint32_t k;
  uint32_t n;
};

std::string InstanceName(const ::testing::TestParamInfo<Instance>& info) {
  const Instance& p = info.param;
  return "seed" + std::to_string(p.seed) + "_K" +
         std::to_string(p.num_types) + "_E" + std::to_string(p.num_edges) +
         "_k" + std::to_string(p.k) + "_n" + std::to_string(p.n);
}

class EquivalenceTest : public ::testing::TestWithParam<Instance> {
 protected:
  void SetUp() override {
    const Instance& p = GetParam();
    schema_ = testing_util::RandomSchemaGraph(p.seed, p.num_types,
                                              p.num_edges);
    auto prepared = PreparedSchema::Create(schema_, PreparedSchemaOptions{});
    ASSERT_TRUE(prepared.ok());
    prepared_ = std::make_unique<PreparedSchema>(std::move(prepared).value());
  }

  SchemaGraph schema_;
  std::unique_ptr<PreparedSchema> prepared_;
};

TEST_P(EquivalenceTest, DpMatchesBruteForceOnConcise) {
  const Instance& p = GetParam();
  const SizeConstraint size{p.k, p.n};
  const auto bf =
      BruteForceDiscover(*prepared_, size, DistanceConstraint::None());
  const auto dp = DynamicProgrammingDiscover(*prepared_, size);
  ASSERT_EQ(bf.ok(), dp.ok());
  if (!bf.ok()) return;
  EXPECT_NEAR(bf->Score(*prepared_), dp->Score(*prepared_), 1e-6);
  EXPECT_TRUE(ValidatePreview(*dp, *prepared_, size,
                              DistanceConstraint::None())
                  .ok());
}

TEST_P(EquivalenceTest, AprioriMatchesBruteForceOnTight) {
  const Instance& p = GetParam();
  const SizeConstraint size{p.k, p.n};
  for (uint32_t d = 1; d <= 3; ++d) {
    const DistanceConstraint constraint = DistanceConstraint::Tight(d);
    const auto bf = BruteForceDiscover(*prepared_, size, constraint);
    const auto apriori = AprioriDiscover(*prepared_, size, constraint);
    ASSERT_EQ(bf.ok(), apriori.ok()) << "d=" << d;
    if (!bf.ok()) continue;
    EXPECT_NEAR(bf->Score(*prepared_), apriori->Score(*prepared_), 1e-6)
        << "d=" << d;
    EXPECT_TRUE(ValidatePreview(*apriori, *prepared_, size, constraint).ok());
  }
}

TEST_P(EquivalenceTest, AprioriMatchesBruteForceOnDiverse) {
  const Instance& p = GetParam();
  const SizeConstraint size{p.k, p.n};
  for (uint32_t d = 1; d <= 3; ++d) {
    const DistanceConstraint constraint = DistanceConstraint::Diverse(d);
    const auto bf = BruteForceDiscover(*prepared_, size, constraint);
    const auto apriori = AprioriDiscover(*prepared_, size, constraint);
    ASSERT_EQ(bf.ok(), apriori.ok()) << "d=" << d;
    if (!bf.ok()) continue;
    EXPECT_NEAR(bf->Score(*prepared_), apriori->Score(*prepared_), 1e-6)
        << "d=" << d;
    EXPECT_TRUE(ValidatePreview(*apriori, *prepared_, size, constraint).ok());
  }
}

TEST_P(EquivalenceTest, Theorem3TopMAttributes) {
  // Every table of an optimal preview carries exactly the top-m candidates
  // of its key type.
  const Instance& p = GetParam();
  const auto dp =
      DynamicProgrammingDiscover(*prepared_, SizeConstraint{p.k, p.n});
  if (!dp.ok()) return;
  for (const PreviewTable& table : dp->tables) {
    const TypeCandidates& cands = prepared_->Candidates(table.key);
    ASSERT_LE(table.nonkeys.size(), cands.size());
    // Compare score sums: chosen == prefix (robust to equal-score ties).
    double chosen = 0.0;
    for (const NonKeyCandidate& c : table.nonkeys) chosen += c.score;
    EXPECT_NEAR(chosen, cands.TopSum(table.nonkeys.size()), 1e-9);
  }
}

TEST_P(EquivalenceTest, EntropyMeasureAgreesToo) {
  // Repeat DP ≡ BF under the asymmetric entropy measure on a derived
  // schema (the random schema has no entity graph, so re-derive one from
  // the paper example sizes by reusing coverage as a stand-in is not
  // possible; instead simply check with random-walk keys × coverage).
  PreparedSchemaOptions options;
  options.key_measure = KeyMeasure::kRandomWalk;
  auto prepared = PreparedSchema::Create(schema_, options);
  ASSERT_TRUE(prepared.ok());
  const Instance& p = GetParam();
  const SizeConstraint size{p.k, p.n};
  const auto bf =
      BruteForceDiscover(*prepared, size, DistanceConstraint::None());
  const auto dp = DynamicProgrammingDiscover(*prepared, size);
  ASSERT_EQ(bf.ok(), dp.ok());
  if (!bf.ok()) return;
  EXPECT_NEAR(bf->Score(*prepared), dp->Score(*prepared), 1e-9);
}

std::vector<Instance> MakeInstances() {
  std::vector<Instance> instances;
  uint64_t seed = 1000;
  for (uint32_t num_types : {4u, 6u, 9u, 12u}) {
    for (uint32_t num_edges : {5u, 12u, 24u}) {
      for (uint32_t k : {1u, 2u, 3u}) {
        for (uint32_t n : {3u, 6u}) {
          if (n < k) continue;
          instances.push_back(Instance{seed++, num_types, num_edges, k, n});
        }
      }
    }
  }
  return instances;
}

INSTANTIATE_TEST_SUITE_P(RandomSchemas, EquivalenceTest,
                         ::testing::ValuesIn(MakeInstances()), InstanceName);

// Schemas with more than 64 eligible key types, so Apriori's
// compatibility rows span several 64-bit words. Apriori must return brute
// force's own preview (the first best subset in the same lexicographic
// order), a bit-equal score, and enumerate exactly the subsets brute
// force scores.
class WideSchemaTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    const uint32_t num_types = GetParam();
    schema_ = testing_util::RandomSchemaGraph(7000 + num_types, num_types,
                                              2 * num_types);
    auto prepared = PreparedSchema::Create(schema_, PreparedSchemaOptions{});
    ASSERT_TRUE(prepared.ok());
    prepared_ = std::make_unique<PreparedSchema>(std::move(prepared).value());
    ASSERT_GT(EligibleKeyTypes(*prepared_).size(), 64u);
  }

  /// |L_i|: the i-subsets whose pairs all satisfy `distance`.
  uint64_t LevelSize(uint32_t i, const DistanceConstraint& distance) const {
    DiscoveryStats stats;
    EXPECT_TRUE(BruteForceDiscover(*prepared_, SizeConstraint{i, i},
                                   distance, BruteForceOptions{}, &stats)
                    .ok());
    return stats.subsets_scored;
  }

  SchemaGraph schema_;
  std::unique_ptr<PreparedSchema> prepared_;
};

TEST_P(WideSchemaTest, AprioriMatchesBruteForceExactly) {
  for (uint32_t k = 1; k <= 3; ++k) {
    const SizeConstraint size{k, k + 2};
    for (DistanceMode mode : {DistanceMode::kTight, DistanceMode::kDiverse}) {
      for (uint32_t d = 1; d <= 3; ++d) {
        const DistanceConstraint constraint{mode, d};
        DiscoveryStats bf_stats;
        DiscoveryStats apriori_stats;
        const auto bf = BruteForceDiscover(*prepared_, size, constraint,
                                           BruteForceOptions{}, &bf_stats);
        const auto apriori = AprioriDiscover(*prepared_, size, constraint,
                                             AprioriOptions{}, &apriori_stats);
        const std::string where = "k=" + std::to_string(k) + " " +
                                  (mode == DistanceMode::kTight ? "tight"
                                                                : "diverse") +
                                  " d=" + std::to_string(d);
        ASSERT_EQ(bf.ok(), apriori.ok()) << where;
        EXPECT_EQ(apriori_stats.subsets_enumerated, bf_stats.subsets_scored)
            << where;
        if (!bf.ok()) continue;
        ASSERT_EQ(bf->tables.size(), apriori->tables.size()) << where;
        for (size_t t = 0; t < bf->tables.size(); ++t) {
          EXPECT_EQ(bf->tables[t].key, apriori->tables[t].key) << where;
        }
        EXPECT_EQ(bf->Score(*prepared_), apriori->Score(*prepared_)) << where;
      }
    }
  }
}

TEST_P(WideSchemaTest, MaxLevelSizeCapsTheLargestLevelFromThree) {
  const uint32_t k = 4;
  const SizeConstraint size{k, 6};
  const DistanceConstraint tight = DistanceConstraint::Tight(2);
  std::vector<uint64_t> level(k + 1, 0);
  uint64_t largest = 0;
  for (uint32_t i = 3; i <= k; ++i) {
    level[i] = LevelSize(i, tight);
    largest = std::max(largest, level[i]);
  }
  ASSERT_GT(largest, 1u);

  DiscoveryStats uncapped_stats;
  const auto uncapped = AprioriDiscover(*prepared_, size, tight,
                                        AprioriOptions{}, &uncapped_stats);
  ASSERT_TRUE(uncapped.ok());

  // A cap equal to the largest level lets the call through unchanged.
  DiscoveryStats capped_stats;
  const auto capped = AprioriDiscover(*prepared_, size, tight,
                                      AprioriOptions{largest}, &capped_stats);
  ASSERT_TRUE(capped.ok()) << capped.status().ToString();
  EXPECT_EQ(capped->Score(*prepared_), uncapped->Score(*prepared_));
  EXPECT_EQ(capped_stats.subsets_enumerated, uncapped_stats.subsets_enumerated);
  EXPECT_EQ(capped_stats.subsets_enumerated, level[k]);

  // One below fails, naming the smallest level over the cap, and leaves
  // the stats alone.
  uint32_t first_over = 3;
  while (level[first_over] <= largest - 1) ++first_over;
  DiscoveryStats untouched;
  untouched.subsets_enumerated = 12345;
  const auto over = AprioriDiscover(*prepared_, size, tight,
                                    AprioriOptions{largest - 1}, &untouched);
  EXPECT_EQ(over.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(over.status().message(),
            "Apriori level " + std::to_string(first_over) +
                " exceeded max_level_size=" + std::to_string(largest - 1));
  EXPECT_EQ(untouched.subsets_enumerated, 12345u);

  // Every cap below a level names the smallest level above it.
  for (uint32_t i = 3; i <= k; ++i) {
    const uint64_t cap = level[i] - 1;
    if (cap == 0) continue;
    uint32_t expected = 3;
    while (level[expected] <= cap) ++expected;
    const auto result =
        AprioriDiscover(*prepared_, size, tight, AprioriOptions{cap});
    EXPECT_EQ(result.status().message(),
              "Apriori level " + std::to_string(expected) +
                  " exceeded max_level_size=" + std::to_string(cap));
  }
}

INSTANTIATE_TEST_SUITE_P(MultiWordRows, WideSchemaTest,
                         ::testing::Values(70u, 130u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "K" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace egp
