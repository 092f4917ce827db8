#include "core/key_sets.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "core/apriori.h"
#include "core/candidates.h"
#include "core/scoring_registry.h"
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

/// Rings fill whole words (64) or spill into a new one (65); the random
/// schemas have several components, so some pairs are unreachable.
std::vector<SchemaGraph> Schemas() {
  std::vector<SchemaGraph> schemas = {Ring(5), Ring(64), Ring(65)};
  for (const uint32_t num_types : {12u, 40u, 100u}) {
    schemas.push_back(testing_util::RandomSchemaGraph(
        8000 + num_types, num_types, num_types));
  }
  return schemas;
}

/// Every schema of Schemas() under coverage and random-walk keys.
std::vector<PreparedSchema> PrepareAll() {
  std::vector<PreparedSchema> prepared;
  for (const SchemaGraph& schema : Schemas()) {
    for (const char* key : {"coverage", "randomwalk"}) {
      MeasureSelection measures;
      measures.key = key;
      auto one = PreparedSchema::Create(schema, measures);
      EXPECT_TRUE(one.ok()) << one.status().ToString();
      if (one.ok()) prepared.push_back(std::move(one).value());
    }
  }
  return prepared;
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
  for (const SchemaGraph& schema : Schemas()) {
    auto prepared = PreparedSchema::Create(schema);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    ExpectRowsMatchDistances(*prepared);
  }
}

TEST(KeySetIndexTest, OrdersTypesByHeadThenTypeId) {
  for (const PreparedSchema& prepared : PrepareAll()) {
    const KeySetIndex& index = prepared.key_sets();
    SCOPED_TRACE(StrFormat("K=%zu key=%s", index.size(),
                           prepared.measures().key.c_str()));
    std::vector<TypeId> ascending = index.types();
    std::sort(ascending.begin(), ascending.end());
    EXPECT_EQ(ascending, EligibleKeyTypes(prepared));
    size_t tails = 0;
    for (size_t i = 0; i < index.size(); ++i) {
      const TypeId t = index.types()[i];
      const std::vector<NonKeyCandidate>& sorted =
          prepared.Candidates(t).sorted;
      const double key_score = prepared.KeyScore(t);
      EXPECT_EQ(index.head(i), key_score * sorted[0].score) << "T" << t;
      ASSERT_EQ(index.tails(i).size(), sorted.size() - 1) << "T" << t;
      for (size_t s = 1; s < sorted.size(); ++s) {
        EXPECT_EQ(index.tails(i)[s - 1], key_score * sorted[s].score);
      }
      tails += index.tails(i).size();
      if (i > 0) {
        const TypeId before = index.types()[i - 1];
        EXPECT_TRUE(index.head(i - 1) > index.head(i) ||
                    (index.head(i - 1) == index.head(i) && before < t))
            << "T" << before << " before T" << t;
      }
    }
    EXPECT_EQ(index.total_tails(), tails);

    // HeadsFrom bounds the heads from j on, and only by the rounding.
    double total = 0.0;
    for (size_t i = 0; i < index.size(); ++i) total += index.head(i);
    for (size_t j = 0; j <= index.size(); ++j) {
      for (size_t count = 1; count <= 4; ++count) {
        double sum = 0.0;
        for (size_t i = j; i < std::min(j + count, index.size()); ++i) {
          sum += index.head(i);
        }
        EXPECT_GE(index.HeadsFrom(j, count), sum) << j << " " << count;
        EXPECT_LE(index.HeadsFrom(j, count), sum + 1e-9 * total)
            << j << " " << count;
      }
    }
  }
}

TEST(KeySetIndexTest, KeepsEachSuffixsLargestTails) {
  // Dense random schemas give a suffix more tails than the index keeps.
  std::vector<PreparedSchema> all = PrepareAll();
  for (const uint32_t num_types : {8u, 14u}) {
    auto dense = PreparedSchema::Create(testing_util::RandomSchemaGraph(
        8100 + num_types, num_types, 6 * num_types));
    ASSERT_TRUE(dense.ok());
    all.push_back(std::move(dense).value());
  }
  size_t cut = 0;
  for (const PreparedSchema& prepared : all) {
    const KeySetIndex& index = prepared.key_sets();
    std::vector<double> suffix;  // every tail from j on, descending
    for (size_t j = index.size() + 1; j-- > 0;) {
      if (j < index.size()) {
        suffix.insert(suffix.end(), index.tails(j).begin(),
                      index.tails(j).end());
        std::sort(suffix.begin(), suffix.end(), std::greater<double>());
      }
      const size_t kept = std::min(suffix.size(), KeySetIndex::kSuffixTails);
      const std::span<const double> got = index.SuffixTails(j);
      ASSERT_EQ(got.size(), kept) << "j=" << j;
      EXPECT_TRUE(std::equal(got.begin(), got.end(), suffix.begin()))
          << "j=" << j;
      EXPECT_EQ(index.SuffixTailsLeftOut(j), suffix.size() - kept)
          << "j=" << j;
      cut += suffix.size() > kept;
    }
  }
  EXPECT_GT(cut, 0u);
}

TEST(KeySetIndexTest, EqualHeadsKeepTypeIdOrder) {
  // Every type of a coverage-scored ring has the same head.
  const auto prepared = PreparedSchema::Create(Ring(9));
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->key_sets().types(), EligibleKeyTypes(*prepared));
}

TEST(KeySetIndexTest, RowsMatchPerCallRowsOverTheSameOrder) {
  for (const PreparedSchema& prepared : PrepareAll()) {
    const KeySetIndex& index = prepared.key_sets();
    const std::vector<TypeId>& order = index.types();
    uint32_t largest = 0;
    for (const TypeId a : order) {
      for (const TypeId b : order) {
        const uint32_t d = prepared.distances().Distance(a, b);
        if (d != SchemaDistanceMatrix::kUnreachable) {
          largest = std::max(largest, d);
        }
      }
    }
    EXPECT_EQ(index.max_distance(), largest);
    for (const DistanceMode mode :
         {DistanceMode::kNone, DistanceMode::kTight, DistanceMode::kDiverse}) {
      for (uint32_t d = 0; d <= index.max_distance() + 3; ++d) {
        const DistanceConstraint distance{mode, d};
        SCOPED_TRACE(StrFormat("K=%zu D=%u mode=%d d=%u", order.size(),
                               index.max_distance(), static_cast<int>(mode),
                               d));
        const CompatibilityRows want(prepared, distance, order);
        const CompatibilityRows& got = index.Rows(distance);
        ASSERT_EQ(got.words(), want.words());
        size_t mismatches = 0;
        for (size_t i = 0; i < order.size(); ++i) {
          for (size_t w = 0; w < want.words(); ++w) {
            if (got.row(i)[w] != want.row(i)[w]) ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0u);
      }
    }
  }
}

TEST(KeySetIndexTest, ThePrunedWalkKeepsTheFirstOfTwoTiedKeySets) {
  // Two components, T0–T3 and T1–T2, with heads 3, 1, 4 and 2: under
  // tight d=1 the key sets {T0, T3} and {T1, T2} both score exactly 5.
  // Head order is T2, T0, T3, T1, so the pruned walk meets {T1, T2}
  // first, yet it must return {T0, T3}, the first in TypeId order, as
  // the exhaustive walk does.
  SchemaGraph schema;
  for (const char* name : {"T0", "T1", "T2", "T3"}) schema.AddType(name, 1);
  schema.AddEdge("e0", 0, 3, 1);
  schema.AddEdge("e1", 1, 2, 1);
  if (!ScoringRegistry::Global().HasKeyMeasure("key-sets-test-ones")) {
    ASSERT_TRUE(ScoringRegistry::Global()
                    .RegisterKeyMeasure(
                        "key-sets-test-ones",
                        [](const ScoringContext& context) {
                          return Result<std::vector<double>>(
                              std::vector<double>(context.schema.num_types(),
                                                  1.0));
                        })
                    .ok());
    ASSERT_TRUE(ScoringRegistry::Global()
                    .RegisterNonKeyMeasure(
                        "key-sets-test-heads",
                        [](const NonKeyScoringContext&) {
                          NonKeyScores scores;
                          scores.outgoing = {3.0, 1.0};
                          scores.incoming = {2.0, 4.0};
                          return Result<NonKeyScores>(std::move(scores));
                        })
                    .ok());
  }
  MeasureSelection measures;
  measures.key = "key-sets-test-ones";
  measures.nonkey = "key-sets-test-heads";
  const auto prepared = PreparedSchema::Create(schema, measures);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->key_sets().types(), (std::vector<TypeId>{2, 0, 3, 1}));

  for (const uint32_t n : {2u, 3u}) {
    const SizeConstraint size{2, n};
    for (const AprioriWalk walk :
         {AprioriWalk::kPruned, AprioriWalk::kExhaustive}) {
      SCOPED_TRACE(StrFormat("n=%u walk=%d", n, static_cast<int>(walk)));
      DiscoveryStats stats;
      const auto preview =
          AprioriDiscover(*prepared, size, DistanceConstraint::Tight(1),
                          AprioriOptions{walk}, &stats);
      ASSERT_TRUE(preview.ok()) << preview.status().ToString();
      ASSERT_EQ(preview->tables.size(), 2u);
      EXPECT_EQ(preview->tables[0].key, 0u);
      EXPECT_EQ(preview->tables[1].key, 3u);
      EXPECT_EQ(preview->Score(*prepared), 5.0);
      // A tie is never pruned: both key sets are scored.
      EXPECT_EQ(stats.subsets_scored, 2u);
    }
  }
}

TEST(KeySetIndexTest, ThePrunedWalkMatchesTheExhaustiveOnePastTheKeptTails) {
  // n − k above kSuffixTails: the bound counts the suffix tails the index
  // leaves out as its last kept one, and must still keep every optimum.
  size_t compared = 0;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const auto prepared = PreparedSchema::Create(
        testing_util::RandomSchemaGraph(8200 + seed, 12, 70));
    ASSERT_TRUE(prepared.ok());
    for (const DistanceMode mode :
         {DistanceMode::kTight, DistanceMode::kDiverse}) {
      for (uint32_t d = 1; d <= 4; ++d) {
        for (uint32_t k = 1; k <= 4; ++k) {
          for (const uint32_t extra : {17u, 25u, 60u}) {
            const SizeConstraint size{k, k + extra};
            const DistanceConstraint distance{mode, d};
            SCOPED_TRACE(StrFormat("seed=%llu mode=%d d=%u k=%u n=%u",
                                   static_cast<unsigned long long>(seed),
                                   static_cast<int>(mode), d, k, size.n));
            const auto pruned =
                AprioriDiscover(*prepared, size, distance, AprioriOptions{});
            const auto exhaustive = AprioriDiscover(
                *prepared, size, distance,
                AprioriOptions{AprioriWalk::kExhaustive});
            ASSERT_EQ(pruned.status().ToString(),
                      exhaustive.status().ToString());
            if (!exhaustive.ok()) continue;
            ++compared;
            ASSERT_EQ(pruned->tables.size(), exhaustive->tables.size());
            for (size_t t = 0; t < pruned->tables.size(); ++t) {
              EXPECT_EQ(pruned->tables[t].key, exhaustive->tables[t].key);
            }
            EXPECT_EQ(pruned->Score(*prepared), exhaustive->Score(*prepared));
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 100u);
}

}  // namespace
}  // namespace egp
