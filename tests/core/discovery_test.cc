// Unit tests of the discovery algorithms and their one dispatch,
// Discover(), on the paper's running example and hand-checkable schema
// graphs.
#include <gtest/gtest.h>

#include <bit>

#include "core/apriori.h"
#include "core/beam_search.h"
#include "core/brute_force.h"
#include "core/discover.h"
#include "core/dynamic_programming.h"
#include "datagen/paper_example.h"

namespace egp {
namespace {

class DiscoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = BuildPaperExampleGraph();
    auto prepared = PreparedSchema::Create(
        SchemaGraph::FromEntityGraph(graph_), PreparedSchemaOptions{});
    ASSERT_TRUE(prepared.ok());
    prepared_ = std::make_unique<PreparedSchema>(std::move(prepared).value());
  }

  TypeId Type(std::string_view name) const {
    return *prepared_->schema().type_names().Find(name);
  }

  EntityGraph graph_;
  std::unique_ptr<PreparedSchema> prepared_;
};

TEST_F(DiscoveryTest, BruteForceFindsPaperConciseOptimum) {
  const auto preview = BruteForceDiscover(*prepared_, SizeConstraint{2, 6},
                                          DistanceConstraint::None());
  ASSERT_TRUE(preview.ok()) << preview.status().ToString();
  EXPECT_DOUBLE_EQ(preview->Score(*prepared_), 84.0);
  EXPECT_TRUE(ValidatePreview(*preview, *prepared_, SizeConstraint{2, 6},
                              DistanceConstraint::None())
                  .ok());
}

TEST_F(DiscoveryTest, DynamicProgrammingMatches) {
  const auto preview =
      DynamicProgrammingDiscover(*prepared_, SizeConstraint{2, 6});
  ASSERT_TRUE(preview.ok());
  EXPECT_DOUBLE_EQ(preview->Score(*prepared_), 84.0);
  EXPECT_TRUE(ValidatePreview(*preview, *prepared_, SizeConstraint{2, 6},
                              DistanceConstraint::None())
                  .ok());
}

TEST_F(DiscoveryTest, DiverseOptimumIsFilmPlusAward) {
  // §4: optimal diverse preview (k=2, n=6, d=2) = {FILM×5, AWARD×1}.
  const auto preview = AprioriDiscover(*prepared_, SizeConstraint{2, 6},
                                       DistanceConstraint::Diverse(2));
  ASSERT_TRUE(preview.ok());
  EXPECT_DOUBLE_EQ(preview->Score(*prepared_), 78.0);
  std::vector<TypeId> keys = preview->Keys();
  std::vector<TypeId> expected = {Type("FILM"), Type("AWARD")};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(keys, expected);
}

TEST_F(DiscoveryTest, TightOptimumMatchesConciseHere) {
  // All of FILM's neighbours are at distance 1, so tight d=1 admits the
  // concise optimum.
  const auto preview = AprioriDiscover(*prepared_, SizeConstraint{2, 6},
                                       DistanceConstraint::Tight(1));
  ASSERT_TRUE(preview.ok());
  EXPECT_DOUBLE_EQ(preview->Score(*prepared_), 84.0);
}

TEST_F(DiscoveryTest, SingleTablePreviews) {
  for (const char* algorithm : {"bf", "dp"}) {
    const auto discovery = Discover(*prepared_, algorithm, SizeConstraint{1, 3},
                                    DistanceConstraint::None());
    ASSERT_TRUE(discovery.ok()) << algorithm;
    // Best single table: FILM with top-3 = 4·15 = 60.
    EXPECT_DOUBLE_EQ(discovery->preview.Score(*prepared_), 60.0);
  }
}

TEST_F(DiscoveryTest, KEqualsOneApriori) {
  const auto preview = AprioriDiscover(*prepared_, SizeConstraint{1, 3},
                                       DistanceConstraint::Diverse(2));
  ASSERT_TRUE(preview.ok());
  EXPECT_DOUBLE_EQ(preview->Score(*prepared_), 60.0);
}

TEST_F(DiscoveryTest, InvalidSizeConstraints) {
  EXPECT_FALSE(BruteForceDiscover(*prepared_, SizeConstraint{0, 5},
                                  DistanceConstraint::None())
                   .ok());
  EXPECT_FALSE(BruteForceDiscover(*prepared_, SizeConstraint{3, 2},
                                  DistanceConstraint::None())
                   .ok());
  EXPECT_FALSE(DynamicProgrammingDiscover(*prepared_, SizeConstraint{0, 5})
                   .ok());
  EXPECT_FALSE(AprioriDiscover(*prepared_, SizeConstraint{3, 2},
                               DistanceConstraint::Tight(2))
                   .ok());
}

TEST_F(DiscoveryTest, InfeasibleDistanceConstraintIsNotFound) {
  // No pair of types is at distance ≥ 10 in this schema.
  const auto preview = AprioriDiscover(*prepared_, SizeConstraint{2, 6},
                                       DistanceConstraint::Diverse(10));
  EXPECT_FALSE(preview.ok());
  EXPECT_EQ(preview.status().code(), StatusCode::kNotFound);
  const auto bf = BruteForceDiscover(*prepared_, SizeConstraint{2, 6},
                                     DistanceConstraint::Diverse(10));
  EXPECT_EQ(bf.status().code(), StatusCode::kNotFound);
}

TEST_F(DiscoveryTest, KExceedsEligibleTypes) {
  const auto preview = BruteForceDiscover(*prepared_, SizeConstraint{7, 10},
                                          DistanceConstraint::None());
  EXPECT_EQ(preview.status().code(), StatusCode::kNotFound);
}

TEST_F(DiscoveryTest, StatsCountSubsets) {
  DiscoveryStats stats;
  const auto preview =
      BruteForceDiscover(*prepared_, SizeConstraint{2, 6},
                         DistanceConstraint::None(), BruteForceOptions{},
                         &stats);
  ASSERT_TRUE(preview.ok());
  EXPECT_EQ(stats.subsets_enumerated, 15u);  // C(6,2)
  EXPECT_EQ(stats.subsets_scored, 15u);
  EXPECT_FALSE(stats.truncated);
}

TEST_F(DiscoveryTest, TruncationStopsEnumeration) {
  DiscoveryStats stats;
  BruteForceOptions options;
  options.max_subsets = 3;
  const auto preview = BruteForceDiscover(
      *prepared_, SizeConstraint{2, 6}, DistanceConstraint::None(), options,
      &stats);
  ASSERT_TRUE(preview.ok());  // best-so-far is still returned
  EXPECT_EQ(stats.subsets_enumerated, 3u);
  EXPECT_TRUE(stats.truncated);
}

TEST_F(DiscoveryTest, AutoDispatch) {
  const auto concise = Discover(*prepared_, "auto", SizeConstraint{2, 6},
                                DistanceConstraint::None());
  ASSERT_TRUE(concise.ok());
  EXPECT_EQ(concise->algorithm, "dp");
  EXPECT_DOUBLE_EQ(concise->preview.Score(*prepared_), 84.0);

  const auto diverse = Discover(*prepared_, "auto", SizeConstraint{2, 6},
                                DistanceConstraint::Diverse(2));
  ASSERT_TRUE(diverse.ok());
  EXPECT_EQ(diverse->algorithm, "apriori");
  EXPECT_DOUBLE_EQ(diverse->preview.Score(*prepared_), 78.0);
}

TEST_F(DiscoveryTest, DpRejectsDistanceConstraint) {
  const auto discovery = Discover(*prepared_, "dp", SizeConstraint{2, 6},
                                  DistanceConstraint::Tight(2));
  EXPECT_FALSE(discovery.ok());
  EXPECT_EQ(discovery.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(discovery.status().message(),
            "the dynamic-programming algorithm only solves the concise "
            "space; distance constraints lack its optimal substructure");
}

/// The per-algorithm function that Discover() should run for `algorithm`
/// (a canonical name, "auto" resolved), called directly.
Result<Preview> DirectDiscover(const PreparedSchema& prepared,
                               const std::string& algorithm,
                               const SizeConstraint& size,
                               const DistanceConstraint& distance,
                               DiscoveryStats* stats) {
  if (algorithm == "bf") {
    return BruteForceDiscover(prepared, size, distance, {}, stats);
  }
  if (algorithm == "dp") return DynamicProgrammingDiscover(prepared, size);
  if (algorithm == "apriori") {
    return AprioriDiscover(prepared, size, distance, {}, stats);
  }
  return BeamSearchDiscover(prepared, size, distance, {}, stats);
}

TEST_F(DiscoveryTest, DiscoverMatchesTheAlgorithmItNames) {
  const SizeConstraint size{2, 6};
  for (const std::string name :
       {"auto", "bf", "bruteforce", "dp", "apriori", "beam"}) {
    for (const DistanceConstraint distance :
         {DistanceConstraint::None(), DistanceConstraint::Tight(1),
          DistanceConstraint::Diverse(2)}) {
      const bool concise = distance.mode == DistanceMode::kNone;
      std::string expected = name == "bruteforce" ? "bf" : name;
      if (name == "auto") expected = concise ? "dp" : "apriori";
      SCOPED_TRACE(name + " d=" + std::to_string(distance.d));

      DiscoveryStats stats;
      const auto discovery = Discover(*prepared_, name, size, distance, &stats);
      if (expected == "dp" && !concise) {
        EXPECT_EQ(discovery.status().code(), StatusCode::kInvalidArgument);
        continue;
      }
      ASSERT_TRUE(discovery.ok()) << discovery.status().ToString();
      EXPECT_EQ(discovery->algorithm, expected);

      DiscoveryStats direct_stats;
      const auto direct =
          DirectDiscover(*prepared_, expected, size, distance, &direct_stats);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      EXPECT_EQ(discovery->preview.Keys(), direct->Keys());
      EXPECT_EQ(std::bit_cast<uint64_t>(discovery->preview.Score(*prepared_)),
                std::bit_cast<uint64_t>(direct->Score(*prepared_)));
      EXPECT_EQ(stats.subsets_enumerated, direct_stats.subsets_enumerated);
      EXPECT_EQ(stats.subsets_scored, direct_stats.subsets_scored);
      EXPECT_EQ(stats.truncated, direct_stats.truncated);
    }
  }
}

TEST_F(DiscoveryTest, DiscoverRejectsAnUnknownName) {
  const auto discovery = Discover(*prepared_, "nope", SizeConstraint{2, 6},
                                  DistanceConstraint::None());
  const Status expected = CanonicalAlgorithmName("nope").status();
  EXPECT_EQ(expected.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(discovery.status().code(), expected.code());
  EXPECT_EQ(discovery.status().message(), expected.message());
}

TEST(DiscoveryEdgeCaseTest, PreviewMayUseFewerThanNAttributes) {
  // Footnote 2: a preview with fewer than n non-keys may be optimal. One
  // high-coverage key with a single huge attribute beats spreading out.
  SchemaGraph schema;
  schema.AddType("BIG", 1000);
  schema.AddType("SMALL", 1);
  schema.AddType("OTHER", 1);
  schema.AddEdge("big-rel", 0, 2, 500);
  schema.AddEdge("tiny-rel", 1, 2, 1);
  auto prepared = PreparedSchema::Create(schema, PreparedSchemaOptions{});
  ASSERT_TRUE(prepared.ok());
  const auto preview =
      DynamicProgrammingDiscover(*prepared, SizeConstraint{1, 5});
  ASSERT_TRUE(preview.ok());
  EXPECT_EQ(preview->tables[0].key, 0u);
  EXPECT_EQ(preview->TotalNonKeys(), 1u);  // only one candidate exists
}

TEST(DiscoveryEdgeCaseTest, ZeroScoreTypesStillFormValidPreviews) {
  SchemaGraph schema;
  schema.AddType("A", 0);  // zero entities → zero coverage score
  schema.AddType("B", 0);
  schema.AddEdge("r", 0, 1, 0);
  auto prepared = PreparedSchema::Create(schema, PreparedSchemaOptions{});
  ASSERT_TRUE(prepared.ok());
  const auto preview =
      DynamicProgrammingDiscover(*prepared, SizeConstraint{2, 2});
  ASSERT_TRUE(preview.ok());
  EXPECT_DOUBLE_EQ(preview->Score(*prepared), 0.0);
  EXPECT_EQ(preview->tables.size(), 2u);
}

}  // namespace
}  // namespace egp
