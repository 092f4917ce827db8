#include "core/compose.h"

#include <gtest/gtest.h>

#include "datagen/paper_example.h"

namespace egp {
namespace {

class ComposeTest : public ::testing::Test {
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

TEST_F(ComposeTest, PaperConciseExampleScores84) {
  // §4's example: optimal concise preview with k=2, n=6 over
  // {FILM, FILM ACTOR} scores 4·(6+5+4+2) + 2·(6+2) = 84.
  const auto preview =
      ComposePreview(*prepared_, {Type("FILM"), Type("FILM ACTOR")}, 6);
  ASSERT_TRUE(preview.ok());
  EXPECT_DOUBLE_EQ(preview->Score(*prepared_), 84.0);
  EXPECT_EQ(preview->TotalNonKeys(), 6u);
}

TEST_F(ComposeTest, PaperDiverseExampleScores78) {
  // §4's diverse example {FILM×5, AWARD×1}: 4·18 + 3·2 = 78.
  const auto preview =
      ComposePreview(*prepared_, {Type("FILM"), Type("AWARD")}, 6);
  ASSERT_TRUE(preview.ok());
  EXPECT_DOUBLE_EQ(preview->Score(*prepared_), 78.0);
  // FILM takes 5 attributes (all of Γ_FILM), AWARD 1.
  EXPECT_EQ(preview->tables[0].nonkeys.size(), 5u);
  EXPECT_EQ(preview->tables[1].nonkeys.size(), 1u);
}

TEST_F(ComposeTest, ScoreOnlyMatchesMaterialized) {
  const std::vector<std::vector<TypeId>> key_sets = {
      {Type("FILM")},
      {Type("FILM"), Type("AWARD")},
      {Type("FILM ACTOR"), Type("FILM DIRECTOR")},
      {Type("FILM"), Type("FILM ACTOR"), Type("FILM GENRE")},
  };
  for (const auto& keys : key_sets) {
    for (uint32_t n : {2u, 4u, 6u, 9u}) {
      if (n < keys.size()) continue;
      const auto preview = ComposePreview(*prepared_, keys, n);
      ASSERT_TRUE(preview.ok());
      EXPECT_NEAR(SubsetScorer(*prepared_, n).Score(keys),
                  preview->Score(*prepared_), 1e-9);
    }
  }
}

TEST_F(ComposeTest, EveryTableGetsItsTopCandidate) {
  // Theorem 3 / Alg. 1 line 8: the best candidate of each key is always
  // included.
  const auto preview = ComposePreview(
      *prepared_, {Type("FILM"), Type("FILM ACTOR"), Type("AWARD")}, 3);
  ASSERT_TRUE(preview.ok());
  for (const PreviewTable& table : preview->tables) {
    ASSERT_EQ(table.nonkeys.size(), 1u);
    const NonKeyCandidate& top = prepared_->Candidates(table.key).sorted[0];
    EXPECT_EQ(table.nonkeys[0].schema_edge, top.schema_edge);
    EXPECT_EQ(table.nonkeys[0].direction, top.direction);
  }
}

TEST_F(ComposeTest, RemainingSlotsMaximizeWeightedGain) {
  // With k=2 and n=3 over {FILM, FILM PRODUCER}: the third slot should go
  // to FILM (weight 4) over FILM PRODUCER (weight 1).
  const auto preview =
      ComposePreview(*prepared_, {Type("FILM"), Type("FILM PRODUCER")}, 3);
  ASSERT_TRUE(preview.ok());
  EXPECT_EQ(preview->tables[0].nonkeys.size(), 2u);
  EXPECT_EQ(preview->tables[1].nonkeys.size(), 1u);
}

TEST_F(ComposeTest, CapsAtAvailableCandidates) {
  // AWARD has only 2 candidates; asking for many slots keeps the preview
  // feasible with fewer non-keys than n.
  const auto preview = ComposePreview(*prepared_, {Type("AWARD")}, 10);
  ASSERT_TRUE(preview.ok());
  EXPECT_EQ(preview->TotalNonKeys(), 2u);
}

TEST_F(ComposeTest, ErrorWhenNLessThanK) {
  const auto preview =
      ComposePreview(*prepared_, {Type("FILM"), Type("AWARD")}, 1);
  EXPECT_FALSE(preview.ok());
  EXPECT_EQ(preview.status().code(), StatusCode::kInvalidArgument);
  EXPECT_LT(SubsetScorer(*prepared_, 1).Score({Type("FILM"), Type("AWARD")}),
            0.0);
}

TEST_F(ComposeTest, ErrorOnEmptyKeys) {
  EXPECT_FALSE(ComposePreview(*prepared_, {}, 3).ok());
}

TEST_F(ComposeTest, ErrorWhenTypeHasNoCandidates) {
  SchemaGraph schema;
  schema.AddType("A", 1);
  schema.AddType("ISOLATED", 1);
  schema.AddType("B", 1);
  schema.AddEdge("r", 0, 2, 1);
  auto prepared = PreparedSchema::Create(schema, PreparedSchemaOptions{});
  ASSERT_TRUE(prepared.ok());
  const auto preview = ComposePreview(*prepared, {0, 1}, 4);
  EXPECT_FALSE(preview.ok());
  EXPECT_EQ(preview.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ComposeTieTest, EqualGainsGoToTheSmallerTypeFirst) {
  // A ring A→B→C→D→A of identical types: every candidate's weighted gain
  // ties, and a tied slot goes to the smaller type, wherever its table.
  SchemaGraph schema;
  for (const char* name : {"A", "B", "C", "D"}) schema.AddType(name, 5);
  for (TypeId t = 0; t < 4; ++t) {
    schema.AddEdge("r" + std::to_string(t), t, (t + 1) % 4, 3);
  }
  auto prepared = PreparedSchema::Create(schema, PreparedSchemaOptions{});
  ASSERT_TRUE(prepared.ok());
  const auto preview = ComposePreview(*prepared, {1, 0}, 3);
  ASSERT_TRUE(preview.ok());
  EXPECT_EQ(preview->tables[0].nonkeys.size(), 1u);  // B
  EXPECT_EQ(preview->tables[1].nonkeys.size(), 2u);  // A
  EXPECT_EQ(SubsetScorer(*prepared, 3).Score({1, 0}), 45.0);
}

TEST_F(ComposeTest, ExhaustiveCrossCheckOnSmallInstance) {
  // Brute-force all ways to split n attributes over two fixed keys and
  // verify the greedy merge is optimal.
  const std::vector<TypeId> keys = {Type("FILM"), Type("FILM ACTOR")};
  const uint32_t n = 4;
  double best = -1.0;
  const TypeCandidates& c0 = prepared_->Candidates(keys[0]);
  const TypeCandidates& c1 = prepared_->Candidates(keys[1]);
  for (uint32_t m0 = 1; m0 < n; ++m0) {
    const uint32_t m1 = n - m0;
    if (m0 > c0.size() || m1 > c1.size()) continue;
    const double score = prepared_->KeyScore(keys[0]) * c0.TopSum(m0) +
                         prepared_->KeyScore(keys[1]) * c1.TopSum(m1);
    best = std::max(best, score);
  }
  EXPECT_NEAR(SubsetScorer(*prepared_, n).Score(keys), best, 1e-9);
}

}  // namespace
}  // namespace egp
