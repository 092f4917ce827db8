// Property suite: the optimized discovery algorithms agree with the
// brute-force oracle on randomized schema graphs, across the full
// constraint grid. Scores are compared (arg max may be a tie set, §4);
// returned previews must additionally validate against the constraints
// and obey Theorem 3.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/apriori.h"
#include "core/brute_force.h"
#include "core/dynamic_programming.h"
#include "core/key_sets.h"
#include "core/scoring_registry.h"
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

/// Runs both Apriori walks on one request and expects the pruned walk to
/// return the exhaustive walk's outcome: its status, or its keys, tables
/// and a bit-equal score. The exhaustive walk counts all of L_k twice;
/// the pruned one reaches no more of it and scores no more than it
/// reaches. A `cap` above 0 bounds the exhaustive walk's levels, and a
/// request whose levels outgrow it is skipped and returns false.
bool ExpectPrunedMatchesExhaustive(const PreparedSchema& prepared,
                                   const SizeConstraint& size,
                                   const DistanceConstraint& distance,
                                   uint64_t cap = 0) {
  SCOPED_TRACE(std::string(distance.mode == DistanceMode::kTight ? "tight"
                                                                 : "diverse") +
               " d=" + std::to_string(distance.d) +
               " k=" + std::to_string(size.k) + " n=" + std::to_string(size.n));
  DiscoveryStats exhaustive_stats;
  DiscoveryStats pruned_stats;
  const auto exhaustive =
      AprioriDiscover(prepared, size, distance,
                      AprioriOptions{AprioriWalk::kExhaustive, cap},
                      &exhaustive_stats);
  if (exhaustive.status().code() == StatusCode::kOutOfRange) return false;
  const auto pruned = AprioriDiscover(prepared, size, distance,
                                      AprioriOptions{}, &pruned_stats);
  EXPECT_EQ(pruned.status().code(), exhaustive.status().code());
  EXPECT_EQ(pruned.status().message(), exhaustive.status().message());
  EXPECT_EQ(exhaustive_stats.subsets_scored,
            exhaustive_stats.subsets_enumerated);
  EXPECT_LE(pruned_stats.subsets_enumerated,
            exhaustive_stats.subsets_enumerated);
  EXPECT_LE(pruned_stats.subsets_scored, pruned_stats.subsets_enumerated);
  // Nothing prunes before the first subset is scored.
  EXPECT_EQ(pruned_stats.subsets_scored == 0,
            exhaustive_stats.subsets_enumerated == 0);
  if (!exhaustive.ok() || !pruned.ok()) return true;
  EXPECT_EQ(pruned->Score(prepared), exhaustive->Score(prepared));
  EXPECT_EQ(pruned->tables.size(), exhaustive->tables.size());
  for (size_t t = 0; t < std::min(pruned->tables.size(),
                                   exhaustive->tables.size());
       ++t) {
    const PreviewTable& a = pruned->tables[t];
    const PreviewTable& b = exhaustive->tables[t];
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.nonkeys.size(), b.nonkeys.size());
    for (size_t c = 0; c < std::min(a.nonkeys.size(), b.nonkeys.size());
         ++c) {
      EXPECT_EQ(a.nonkeys[c].schema_edge, b.nonkeys[c].schema_edge);
      EXPECT_EQ(a.nonkeys[c].direction, b.nonkeys[c].direction);
    }
  }
  return true;
}

/// The pruned-walk grid: tight and diverse d 1–4, k 1–5, n from k to k+6.
/// Returns how many requests ran; the levels do not depend on n, so a
/// (constraint, k) whose levels outgrow `cap` skips every n.
size_t ExpectPrunedMatchesExhaustiveOnTheGrid(const PreparedSchema& prepared,
                                              uint64_t cap = 0) {
  size_t ran = 0;
  for (DistanceMode mode : {DistanceMode::kTight, DistanceMode::kDiverse}) {
    for (uint32_t d = 1; d <= 4; ++d) {
      for (uint32_t k = 1; k <= 5; ++k) {
        for (uint32_t n = k; n <= k + 6; ++n) {
          if (!ExpectPrunedMatchesExhaustive(prepared, SizeConstraint{k, n},
                                             DistanceConstraint{mode, d},
                                             cap)) {
            break;
          }
          ++ran;
        }
      }
    }
  }
  return ran;
}

/// Coverage and random-walk key measures, coverage non-keys.
std::vector<PreparedSchema> PrepareBothKeyMeasures(const SchemaGraph& schema) {
  std::vector<PreparedSchema> prepared;
  for (const char* key : {"coverage", "randomwalk"}) {
    MeasureSelection measures;
    measures.key = key;
    auto one = PreparedSchema::Create(schema, measures);
    EXPECT_TRUE(one.ok()) << one.status().ToString();
    if (one.ok()) prepared.push_back(std::move(one).value());
  }
  return prepared;
}

class EquivalenceTest : public ::testing::TestWithParam<Instance> {
 protected:
  void SetUp() override {
    const Instance& p = GetParam();
    schema_ = testing_util::RandomSchemaGraph(p.seed, p.num_types,
                                              p.num_edges);
    auto prepared = PreparedSchema::Create(schema_);
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
  MeasureSelection measures;
  measures.key = "randomwalk";
  auto prepared = PreparedSchema::Create(schema_, measures);
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

// The pruned Apriori walk against the exhaustive one on random schemas of
// 5 to 14 types, sparse to dense.
class PrunedWalkTest
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>> {};

TEST_P(PrunedWalkTest, MatchesTheExhaustiveWalk) {
  const auto [num_types, num_edges] = GetParam();
  for (uint64_t seed = 0; seed < 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SchemaGraph schema = testing_util::RandomSchemaGraph(
        8000 + 100 * num_types + seed, num_types, num_edges);
    for (const PreparedSchema& prepared : PrepareBothKeyMeasures(schema)) {
      EXPECT_EQ(ExpectPrunedMatchesExhaustiveOnTheGrid(prepared),
                2u * 4 * 5 * 7);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomSchemas, PrunedWalkTest,
    ::testing::Values(std::make_pair(5u, 6u), std::make_pair(8u, 10u),
                      std::make_pair(8u, 24u), std::make_pair(11u, 14u),
                      std::make_pair(11u, 30u), std::make_pair(14u, 20u),
                      std::make_pair(14u, 42u), std::make_pair(14u, 70u)),
    [](const ::testing::TestParamInfo<std::pair<uint32_t, uint32_t>>& info) {
      return "K" + std::to_string(info.param.first) + "_E" +
             std::to_string(info.param.second);
    });

TEST(PrunedWalkTest, MatchesTheExhaustiveWalkOnAFlatRing) {
  // A ring of identical types: every key set of a size scores the same, so
  // every bound ties the best score, nothing prunes, and the first subset
  // in L_k's order must still win.
  SchemaGraph schema;
  for (uint32_t t = 0; t < 12; ++t) schema.AddType("T" + std::to_string(t), 5);
  for (TypeId t = 0; t < 12; ++t) {
    schema.AddEdge("r" + std::to_string(t), t, (t + 1) % 12, 3);
    schema.AddEdge("s" + std::to_string(t), t, (t + 1) % 12, 3);
  }
  for (const PreparedSchema& prepared : PrepareBothKeyMeasures(schema)) {
    EXPECT_EQ(ExpectPrunedMatchesExhaustiveOnTheGrid(prepared), 2u * 4 * 5 * 7);
  }
  // With coverage keys every score ties exactly: the pruned walk scores
  // all of L_k, and the first subset wins.
  const auto prepared = PreparedSchema::Create(schema);
  ASSERT_TRUE(prepared.ok());
  DiscoveryStats stats;
  const auto preview = AprioriDiscover(*prepared, SizeConstraint{3, 5},
                                       DistanceConstraint::Diverse(2),
                                       AprioriOptions{}, &stats);
  ASSERT_TRUE(preview.ok());
  EXPECT_EQ(preview->tables[0].key, 0u);
  EXPECT_EQ(preview->tables[1].key, 2u);
  EXPECT_EQ(preview->tables[2].key, 4u);
  EXPECT_EQ(stats.subsets_scored, stats.subsets_enumerated);
  DiscoveryStats exhaustive;
  ASSERT_TRUE(AprioriDiscover(*prepared, SizeConstraint{3, 5},
                              DistanceConstraint::Diverse(2),
                              AprioriOptions{AprioriWalk::kExhaustive},
                              &exhaustive)
                  .ok());
  EXPECT_EQ(stats.subsets_scored, exhaustive.subsets_scored);
}

TEST(PrunedWalkTest, SlackCoversTheSummationOrder) {
  // T0's one candidate scores 1 + 3 ulp. T1's head is 1 and its four
  // tails are 0.6 ulp each: the scorer adds them one by one to 1 and
  // gets 1 + 4 ulp, so T1 wins, but the bound adds the tails first and
  // gets 1 + 2 ulp, below T0's score. Only the slack keeps T1.
  const double ulp = std::ldexp(1.0, -52);
  const double tail = 0.6 * ulp;
  SchemaGraph schema;
  for (const char* name : {"T0", "T1", "T2"}) schema.AddType(name, 1);
  schema.AddEdge("e0", 0, 2, 1);
  for (int e = 1; e <= 5; ++e) schema.AddEdge("e" + std::to_string(e), 1, 2, 1);
  if (!ScoringRegistry::Global().HasKeyMeasure("pruned-walk-test-ones")) {
    ASSERT_TRUE(ScoringRegistry::Global()
                    .RegisterKeyMeasure(
                        "pruned-walk-test-ones",
                        [](const ScoringContext& context) {
                          return Result<std::vector<double>>(
                              std::vector<double>(context.schema.num_types(),
                                                  1.0));
                        })
                    .ok());
    ASSERT_TRUE(ScoringRegistry::Global()
                    .RegisterNonKeyMeasure(
                        "pruned-walk-test-ulps",
                        [ulp, tail](const NonKeyScoringContext& context) {
                          NonKeyScores scores;
                          scores.outgoing = {1.0 + 3 * ulp, 1.0, tail, tail,
                                             tail, tail};
                          scores.incoming.assign(context.schema.num_edges(),
                                                 0.0);
                          return Result<NonKeyScores>(std::move(scores));
                        })
                    .ok());
  }
  MeasureSelection measures;
  measures.key = "pruned-walk-test-ones";
  measures.nonkey = "pruned-walk-test-ulps";
  const auto prepared = PreparedSchema::Create(schema, measures);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  const SizeConstraint size{1, 5};
  const auto pruned =
      AprioriDiscover(*prepared, size, DistanceConstraint::Tight(1));
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->tables[0].key, 1u);
  EXPECT_EQ(pruned->Score(*prepared), 1.0 + 4 * ulp);
  ExpectPrunedMatchesExhaustive(*prepared, size, DistanceConstraint::Tight(1));
}

TEST(PrunedWalkTest, RejectsALevelCap) {
  const SchemaGraph schema = testing_util::RandomSchemaGraph(8001, 8, 12);
  const auto prepared = PreparedSchema::Create(schema);
  ASSERT_TRUE(prepared.ok());
  DiscoveryStats untouched;
  untouched.subsets_enumerated = 12345;
  const auto result = AprioriDiscover(*prepared, SizeConstraint{3, 5},
                                      DistanceConstraint::Tight(2),
                                      AprioriOptions{AprioriWalk::kPruned, 10},
                                      &untouched);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().message(),
            "max_level_size applies only to the exhaustive Apriori walk");
  EXPECT_EQ(untouched.subsets_enumerated, 12345u);
}

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
    auto prepared = PreparedSchema::Create(schema_);
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
  const AprioriOptions exhaustive{AprioriWalk::kExhaustive};
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
                                             exhaustive, &apriori_stats);
        const auto pruned = AprioriDiscover(*prepared_, size, constraint);
        const std::string where = "k=" + std::to_string(k) + " " +
                                  (mode == DistanceMode::kTight ? "tight"
                                                                : "diverse") +
                                  " d=" + std::to_string(d);
        ASSERT_EQ(bf.ok(), apriori.ok()) << where;
        ASSERT_EQ(bf.ok(), pruned.ok()) << where;
        EXPECT_EQ(apriori_stats.subsets_enumerated, bf_stats.subsets_scored)
            << where;
        if (!bf.ok()) continue;
        ASSERT_EQ(bf->tables.size(), apriori->tables.size()) << where;
        ASSERT_EQ(bf->tables.size(), pruned->tables.size()) << where;
        for (size_t t = 0; t < bf->tables.size(); ++t) {
          EXPECT_EQ(bf->tables[t].key, apriori->tables[t].key) << where;
          EXPECT_EQ(bf->tables[t].key, pruned->tables[t].key) << where;
        }
        EXPECT_EQ(bf->Score(*prepared_), apriori->Score(*prepared_)) << where;
        EXPECT_EQ(bf->Score(*prepared_), pruned->Score(*prepared_)) << where;
      }
    }
  }
}

TEST_P(WideSchemaTest, PrunedWalkMatchesTheExhaustiveWalk) {
  // Diverse d=1 admits every k-subset of over 64 types, so the exhaustive
  // oracle runs only where its levels stay within 200k subsets.
  for (const PreparedSchema& prepared : PrepareBothKeyMeasures(schema_)) {
    // More requests than the k <= 3 part of the grid alone.
    EXPECT_GT(ExpectPrunedMatchesExhaustiveOnTheGrid(prepared, 200'000),
              2u * 4 * 3 * 7);
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
  const auto uncapped =
      AprioriDiscover(*prepared_, size, tight,
                      AprioriOptions{AprioriWalk::kExhaustive},
                      &uncapped_stats);
  ASSERT_TRUE(uncapped.ok());

  // A cap equal to the largest level lets the call through unchanged.
  DiscoveryStats capped_stats;
  const auto capped =
      AprioriDiscover(*prepared_, size, tight,
                      AprioriOptions{AprioriWalk::kExhaustive, largest},
                      &capped_stats);
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
  const auto over =
      AprioriDiscover(*prepared_, size, tight,
                      AprioriOptions{AprioriWalk::kExhaustive, largest - 1},
                      &untouched);
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
    const auto result = AprioriDiscover(
        *prepared_, size, tight, AprioriOptions{AprioriWalk::kExhaustive, cap});
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
