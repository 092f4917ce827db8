#include "graph/schema_distance.h"

#include <gtest/gtest.h>

#include <span>

#include "common/strings.h"
#include "datagen/paper_example.h"

namespace egp {
namespace {

SchemaGraph PathGraph(size_t n) {
  SchemaGraph schema;
  for (size_t i = 0; i < n; ++i) {
    schema.AddType(StrFormat("T%zu", i), 1);
  }
  for (size_t i = 0; i + 1 < n; ++i) {
    schema.AddEdge("r", static_cast<TypeId>(i), static_cast<TypeId>(i + 1),
                   1);
  }
  return schema;
}

TEST(SchemaDistanceTest, PaperExampleDistances) {
  // §4: dist(FILM, FILM ACTOR) = 1; dist(FILM, AWARD) = 2.
  const EntityGraph graph = BuildPaperExampleGraph();
  const SchemaGraph schema = SchemaGraph::FromEntityGraph(graph);
  const SchemaDistanceMatrix dist(schema);
  const TypeId film = *schema.type_names().Find("FILM");
  const TypeId actor = *schema.type_names().Find("FILM ACTOR");
  const TypeId award = *schema.type_names().Find("AWARD");
  const TypeId genre = *schema.type_names().Find("FILM GENRE");
  EXPECT_EQ(dist.Distance(film, actor), 1u);
  EXPECT_EQ(dist.Distance(film, award), 2u);
  EXPECT_EQ(dist.Distance(genre, award), 3u);
  EXPECT_EQ(dist.Distance(film, film), 0u);
}

TEST(SchemaDistanceTest, DistanceIsSymmetric) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const SchemaGraph schema = SchemaGraph::FromEntityGraph(graph);
  const SchemaDistanceMatrix dist(schema);
  for (TypeId a = 0; a < schema.num_types(); ++a) {
    for (TypeId b = 0; b < schema.num_types(); ++b) {
      EXPECT_EQ(dist.Distance(a, b), dist.Distance(b, a));
    }
  }
}

TEST(SchemaDistanceTest, RowHoldsEveryDistanceFromItsType) {
  const SchemaGraph schema = SchemaGraph::FromEntityGraph(
      BuildPaperExampleGraph());
  const SchemaDistanceMatrix dist(schema);
  for (TypeId a = 0; a < schema.num_types(); ++a) {
    const std::span<const uint32_t> row = dist.Row(a);
    ASSERT_EQ(row.size(), schema.num_types());
    for (TypeId b = 0; b < schema.num_types(); ++b) {
      EXPECT_EQ(row[b], dist.Distance(a, b));
    }
  }
}

TEST(SchemaDistanceDeathTest, RowOutOfRangeAborts) {
  const SchemaDistanceMatrix dist(PathGraph(3));
  EXPECT_DEATH({ (void)dist.Row(3); }, "distance row out of range");
}

TEST(SchemaDistanceTest, PathGraphDistances) {
  const SchemaGraph schema = PathGraph(5);
  const SchemaDistanceMatrix dist(schema);
  EXPECT_EQ(dist.Distance(0, 4), 4u);
  EXPECT_EQ(dist.Distance(1, 3), 2u);
  EXPECT_EQ(dist.Diameter(), 4u);
}

TEST(SchemaDistanceTest, DisconnectedComponents) {
  SchemaGraph schema;
  schema.AddType("A", 1);
  schema.AddType("B", 1);
  schema.AddType("C", 1);
  schema.AddEdge("r", 0, 1, 1);
  const SchemaDistanceMatrix dist(schema);
  EXPECT_EQ(dist.Distance(0, 1), 1u);
  EXPECT_EQ(dist.Distance(0, 2), SchemaDistanceMatrix::kUnreachable);
  EXPECT_EQ(dist.Distance(2, 2), 0u);
  EXPECT_EQ(dist.Diameter(), 1u);  // only finite pairs count
}

TEST(SchemaDistanceTest, EdgeDirectionIgnored) {
  // Undirected paths (§4 footnote 1): distances ignore orientation.
  SchemaGraph schema;
  schema.AddType("A", 1);
  schema.AddType("B", 1);
  schema.AddType("C", 1);
  schema.AddEdge("r", 1, 0, 1);  // B -> A
  schema.AddEdge("r", 1, 2, 1);  // B -> C
  const SchemaDistanceMatrix dist(schema);
  EXPECT_EQ(dist.Distance(0, 2), 2u);
}

TEST(SchemaDistanceTest, ParallelEdgesDoNotShorten) {
  SchemaGraph schema;
  schema.AddType("A", 1);
  schema.AddType("B", 1);
  schema.AddEdge("r1", 0, 1, 1);
  schema.AddEdge("r2", 0, 1, 9);
  const SchemaDistanceMatrix dist(schema);
  EXPECT_EQ(dist.Distance(0, 1), 1u);
}

TEST(SchemaDistanceTest, AveragePathLength) {
  const SchemaGraph schema = PathGraph(3);  // distances: 1,1,2
  const SchemaDistanceMatrix dist(schema);
  EXPECT_NEAR(dist.AveragePathLength(), (1 + 1 + 2) / 3.0, 1e-12);
}

TEST(SchemaDistanceTest, SingleVertex) {
  SchemaGraph schema;
  schema.AddType("A", 1);
  const SchemaDistanceMatrix dist(schema);
  EXPECT_EQ(dist.Distance(0, 0), 0u);
  EXPECT_EQ(dist.Diameter(), 0u);
  EXPECT_DOUBLE_EQ(dist.AveragePathLength(), 0.0);
}

}  // namespace
}  // namespace egp
