#include "graph/schema_graph.h"

#include <gtest/gtest.h>

#include "datagen/paper_example.h"
#include "graph/entity_graph_builder.h"
#include "tests/testing/reference_graph.h"

namespace egp {
namespace {

TEST(SchemaGraphTest, DerivedFromPaperExample) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const SchemaGraph schema = SchemaGraph::FromEntityGraph(graph);
  // Fig. 3: 6 entity types, 7 relationship types.
  EXPECT_EQ(schema.num_types(), 6u);
  EXPECT_EQ(schema.num_edges(), 7u);
}

TEST(SchemaGraphTest, EntityCountsCarryOver) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const SchemaGraph schema = SchemaGraph::FromEntityGraph(graph);
  const TypeId film = *schema.type_names().Find("FILM");
  const TypeId award = *schema.type_names().Find("AWARD");
  EXPECT_EQ(schema.TypeEntityCount(film), 4u);   // S_cov(FILM) = 4
  EXPECT_EQ(schema.TypeEntityCount(award), 3u);
}

TEST(SchemaGraphTest, PairWeightsMatchPaper) {
  // §3.2 worked example: w(FILM, GENRE)=5, w(FILM, ACTOR)=6,
  // w(FILM, DIRECTOR)=4, w(FILM, PRODUCER)=3.
  const EntityGraph graph = BuildPaperExampleGraph();
  const SchemaGraph schema = SchemaGraph::FromEntityGraph(graph);
  const TypeId film = *schema.type_names().Find("FILM");
  const TypeId genre = *schema.type_names().Find("FILM GENRE");
  const TypeId actor = *schema.type_names().Find("FILM ACTOR");
  const TypeId director = *schema.type_names().Find("FILM DIRECTOR");
  const TypeId producer = *schema.type_names().Find("FILM PRODUCER");
  EXPECT_EQ(schema.PairWeight(film, genre), 5u);
  EXPECT_EQ(schema.PairWeight(film, actor), 6u);
  EXPECT_EQ(schema.PairWeight(film, director), 4u);
  EXPECT_EQ(schema.PairWeight(film, producer), 3u);
  // Symmetry.
  EXPECT_EQ(schema.PairWeight(genre, film), 5u);
  // Unrelated pair.
  const TypeId award = *schema.type_names().Find("AWARD");
  EXPECT_EQ(schema.PairWeight(genre, award), 0u);
}

TEST(SchemaGraphTest, EdgeCountIsRelationshipSupport) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const SchemaGraph schema = SchemaGraph::FromEntityGraph(graph);
  uint64_t genres_count = 0;
  for (const SchemaEdge& e : schema.edges()) {
    if (schema.SurfaceName(e) == "Genres") genres_count = e.edge_count;
  }
  EXPECT_EQ(genres_count, 5u);  // S_cov^FILM(Genres) = 5
}

TEST(SchemaGraphTest, IncidentEdgesBothDirections) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const SchemaGraph schema = SchemaGraph::FromEntityGraph(graph);
  const TypeId film = *schema.type_names().Find("FILM");
  // FILM touches Actor, Director, Genres, Producer, Executive Producer.
  EXPECT_EQ(schema.IncidentEdges(film).size(), 5u);
  const TypeId award = *schema.type_names().Find("AWARD");
  // Two distinct Award Winners relationship types.
  EXPECT_EQ(schema.IncidentEdges(award).size(), 2u);
}

TEST(SchemaGraphTest, NeighborTypesDeduplicated) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const SchemaGraph schema = SchemaGraph::FromEntityGraph(graph);
  const TypeId film = *schema.type_names().Find("FILM");
  // Producer + Executive Producer both connect to FILM PRODUCER: the
  // neighbour list still names it once.
  const auto neighbors = schema.NeighborTypes(film);
  EXPECT_EQ(neighbors.size(), 4u);
}

TEST(SchemaGraphTest, RelTypeMappingPreserved) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const SchemaGraph schema = SchemaGraph::FromEntityGraph(graph);
  for (uint32_t i = 0; i < schema.num_edges(); ++i) {
    const RelTypeId rel = schema.RelTypeOfEdge(i);
    ASSERT_NE(rel, kInvalidId);
    const SchemaEdge& e = schema.Edge(i);
    EXPECT_EQ(graph.RelType(rel).src_type, e.src);
    EXPECT_EQ(graph.RelType(rel).dst_type, e.dst);
    EXPECT_EQ(testing_util::RelTypeEdgeCount(graph, rel), e.edge_count);
  }
}

TEST(SchemaGraphTest, DirectConstruction) {
  SchemaGraph schema;
  const TypeId a = schema.AddType("A", 10);
  const TypeId b = schema.AddType("B", 20);
  const uint32_t e1 = schema.AddEdge("r1", a, b, 7);
  const uint32_t e2 = schema.AddEdge("r2", a, b, 3);  // parallel edge
  EXPECT_EQ(schema.num_types(), 2u);
  EXPECT_EQ(schema.num_edges(), 2u);
  EXPECT_EQ(schema.PairWeight(a, b), 10u);
  EXPECT_EQ(schema.RelTypeOfEdge(e1), kInvalidId);
  EXPECT_EQ(schema.Edge(e2).edge_count, 3u);
}

TEST(SchemaGraphTest, SelfLoopIncidentOnce) {
  SchemaGraph schema;
  const TypeId a = schema.AddType("A", 5);
  schema.AddEdge("next", a, a, 4);
  EXPECT_EQ(schema.IncidentEdges(a).size(), 1u);
  EXPECT_TRUE(schema.NeighborTypes(a).empty());
  EXPECT_EQ(schema.PairWeight(a, a), 4u);
}

TEST(SchemaGraphTest, UnusedRelationshipTypeExcluded) {
  // §2: γ ∈ Es iff a data edge of that type exists.
  EntityGraphBuilder b;
  const TypeId t1 = b.AddEntityType("A");
  const TypeId t2 = b.AddEntityType("B");
  b.AddRelationshipType("unused", t1, t2);
  const RelTypeId used = b.AddRelationshipType("used", t1, t2);
  const EntityId x = b.AddEntity("x");
  const EntityId y = b.AddEntity("y");
  b.AddEntityToType(x, t1);
  b.AddEntityToType(y, t2);
  ASSERT_TRUE(b.AddEdge(x, used, y).ok());
  auto graph = b.Build();
  ASSERT_TRUE(graph.ok());
  const SchemaGraph schema = SchemaGraph::FromEntityGraph(*graph);
  EXPECT_EQ(schema.num_edges(), 1u);
  EXPECT_EQ(schema.SurfaceName(schema.Edge(0)), "used");
}

}  // namespace
}  // namespace egp
