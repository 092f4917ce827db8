#include "core/candidates.h"

#include <gtest/gtest.h>

#include "datagen/paper_example.h"

namespace egp {
namespace {

PreparedSchema PreparePaperExample(const char* key = "coverage") {
  const EntityGraph graph = BuildPaperExampleGraph();
  const SchemaGraph schema = SchemaGraph::FromEntityGraph(graph);
  MeasureSelection measures;
  measures.key = key;
  auto prepared = PreparedSchema::Create(schema, measures, &graph);
  EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
  return std::move(prepared).value();
}

TEST(PreparedSchemaTest, CandidatesSortedDescending) {
  const PreparedSchema prepared = PreparePaperExample();
  for (TypeId t = 0; t < prepared.num_types(); ++t) {
    const TypeCandidates& cands = prepared.Candidates(t);
    for (size_t i = 1; i < cands.sorted.size(); ++i) {
      EXPECT_GE(cands.sorted[i - 1].score, cands.sorted[i].score);
    }
  }
}

TEST(PreparedSchemaTest, PrefixSumsMatchScores) {
  const PreparedSchema prepared = PreparePaperExample();
  for (TypeId t = 0; t < prepared.num_types(); ++t) {
    const TypeCandidates& cands = prepared.Candidates(t);
    double sum = 0.0;
    EXPECT_DOUBLE_EQ(cands.TopSum(0), 0.0);
    for (size_t m = 0; m < cands.size(); ++m) {
      sum += cands.sorted[m].score;
      EXPECT_DOUBLE_EQ(cands.TopSum(m + 1), sum);
    }
  }
}

TEST(PreparedSchemaTest, FilmCandidatesOrderedByCoverage) {
  // FILM's candidates by coverage: Actor 6, Genres 5, Director 4,
  // Producer 2, Executive Producer 1.
  const PreparedSchema prepared = PreparePaperExample();
  const TypeId film = *prepared.schema().type_names().Find("FILM");
  const TypeCandidates& cands = prepared.Candidates(film);
  ASSERT_EQ(cands.size(), 5u);
  std::vector<double> expected = {6, 5, 4, 2, 1};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(cands.sorted[i].score, expected[i]);
  }
  EXPECT_DOUBLE_EQ(cands.TopSum(5), 18.0);
}

TEST(PreparedSchemaTest, TableScoreIsKeyTimesTopSum) {
  const PreparedSchema prepared = PreparePaperExample();
  const TypeId film = *prepared.schema().type_names().Find("FILM");
  // S(FILM) = 4; top-3 = 6+5+4 = 15 → table score 60 (Eq. 2 + Thm. 3).
  EXPECT_DOUBLE_EQ(prepared.TableScore(film, 3), 60.0);
}

TEST(PreparedSchemaTest, EligibilityRequiresCandidates) {
  SchemaGraph schema;
  schema.AddType("CONNECTED", 5);
  schema.AddType("OTHER", 5);
  schema.AddType("ISOLATED", 5);
  schema.AddEdge("r", 0, 1, 3);
  auto prepared = PreparedSchema::Create(schema);
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared->Eligible(0));
  EXPECT_TRUE(prepared->Eligible(1));
  EXPECT_FALSE(prepared->Eligible(2));
}

TEST(PreparedSchemaTest, SelfLoopYieldsTwoCandidates) {
  SchemaGraph schema;
  schema.AddType("EPISODE", 10);
  schema.AddEdge("Next", 0, 0, 9);
  auto prepared = PreparedSchema::Create(schema);
  ASSERT_TRUE(prepared.ok());
  const TypeCandidates& cands = prepared->Candidates(0);
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_NE(cands.sorted[0].direction, cands.sorted[1].direction);
}

TEST(PreparedSchemaTest, TotalCandidatesCountsBothEndpoints) {
  // N = 2|Es| in the paper's complexity analysis.
  const PreparedSchema prepared = PreparePaperExample();
  EXPECT_EQ(prepared.TotalCandidates(), 2 * prepared.schema().num_edges());
}

TEST(PreparedSchemaTest, EntropyMeasureRequiresGraph) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const SchemaGraph schema = SchemaGraph::FromEntityGraph(graph);
  MeasureSelection measures;
  measures.nonkey = "entropy";
  const auto without_graph = PreparedSchema::Create(schema, measures);
  EXPECT_FALSE(without_graph.ok());
  EXPECT_EQ(without_graph.status().code(), StatusCode::kInvalidArgument);
  const auto with_graph = PreparedSchema::Create(schema, measures, &graph);
  EXPECT_TRUE(with_graph.ok());
}

TEST(PreparedSchemaTest, RandomWalkKeyScores) {
  const PreparedSchema prepared = PreparePaperExample("randomwalk");
  double total = 0.0;
  for (TypeId t = 0; t < prepared.num_types(); ++t) {
    total += prepared.KeyScore(t);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  const TypeId film = *prepared.schema().type_names().Find("FILM");
  const TypeId producer = *prepared.schema().type_names().Find("FILM PRODUCER");
  EXPECT_GT(prepared.KeyScore(film), prepared.KeyScore(producer));
}

TEST(PreparedSchemaTest, DeterministicTieBreaks) {
  SchemaGraph schema;
  schema.AddType("A", 1);
  schema.AddType("B", 1);
  schema.AddType("C", 1);
  schema.AddEdge("r1", 0, 1, 5);  // equal scores
  schema.AddEdge("r2", 0, 2, 5);
  auto prepared = PreparedSchema::Create(schema);
  ASSERT_TRUE(prepared.ok());
  const TypeCandidates& cands = prepared->Candidates(0);
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_LT(cands.sorted[0].schema_edge, cands.sorted[1].schema_edge);
}

}  // namespace
}  // namespace egp
