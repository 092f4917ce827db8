#include "graph/entity_graph.h"

#include <gtest/gtest.h>

#include "graph/entity_graph_builder.h"
#include "tests/testing/reference_graph.h"

namespace egp {
namespace {

class EntityGraphTest : public ::testing::Test {
 protected:
  // A small two-type graph: two PERSON entities each connected to a CITY.
  EntityGraph MakeSmallGraph() {
    EntityGraphBuilder b;
    const TypeId person = b.AddEntityType("PERSON");
    const TypeId city = b.AddEntityType("CITY");
    const RelTypeId lives_in = b.AddRelationshipType("Lives In", person, city);
    const EntityId alice = b.AddEntity("Alice");
    const EntityId bob = b.AddEntity("Bob");
    const EntityId paris = b.AddEntity("Paris");
    b.AddEntityToType(alice, person);
    b.AddEntityToType(bob, person);
    b.AddEntityToType(paris, city);
    EXPECT_TRUE(b.AddEdge(alice, lives_in, paris).ok());
    EXPECT_TRUE(b.AddEdge(bob, lives_in, paris).ok());
    auto result = b.Build();
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }
};

TEST_F(EntityGraphTest, SizesAreConsistent) {
  const EntityGraph g = MakeSmallGraph();
  EXPECT_EQ(g.num_entities(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.num_types(), 2u);
  EXPECT_EQ(g.num_rel_types(), 1u);
}

TEST_F(EntityGraphTest, NamesRoundTrip) {
  const EntityGraph g = MakeSmallGraph();
  EXPECT_EQ(g.EntityName(0), "Alice");
  EXPECT_EQ(g.TypeName(0), "PERSON");
  EXPECT_EQ(g.RelSurfaceName(0), "Lives In");
}

TEST_F(EntityGraphTest, TypeMembership) {
  const EntityGraph g = MakeSmallGraph();
  EXPECT_EQ(g.EntitiesOfType(0).size(), 2u);
  EXPECT_EQ(g.TypeEntityCount(1), 1u);
  EXPECT_TRUE(g.EntityHasType(0, 0));
  EXPECT_FALSE(g.EntityHasType(0, 1));
}

TEST_F(EntityGraphTest, AdjacencyIndexes) {
  const EntityGraph g = MakeSmallGraph();
  EXPECT_EQ(g.adjacency().OutDegree(0), 1u);
  EXPECT_EQ(g.adjacency().InDegree(2), 2u);
  EXPECT_EQ(g.adjacency().OutDegree(2), 0u);
  EXPECT_EQ(testing_util::RelTypeEdgeCount(g, 0), 2u);
}

TEST_F(EntityGraphTest, NeighborSetDirections) {
  const EntityGraph g = MakeSmallGraph();
  const FrozenGraph& adjacency = g.adjacency();
  const auto out = adjacency.NeighborSet(0, 0, Direction::kOutgoing);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(g.EntityName(out[0]), "Paris");
  const auto in = adjacency.NeighborSet(2, 0, Direction::kIncoming);
  EXPECT_EQ(in.size(), 2u);
  EXPECT_TRUE(adjacency.NeighborSet(0, 0, Direction::kIncoming).empty());
}

TEST(EntityGraphBuilderTest, EntityInterningIsIdempotent) {
  EntityGraphBuilder b;
  EXPECT_EQ(b.AddEntity("X"), b.AddEntity("X"));
  EXPECT_EQ(b.num_entities(), 1u);
}

TEST(EntityGraphBuilderTest, RelTypeTripleIsUnique) {
  EntityGraphBuilder b;
  const TypeId t1 = b.AddEntityType("A");
  const TypeId t2 = b.AddEntityType("B");
  const RelTypeId r1 = b.AddRelationshipType("rel", t1, t2);
  EXPECT_EQ(b.AddRelationshipType("rel", t1, t2), r1);
  // Same surface, different endpoints → distinct relationship type (§2's
  // "Award Winners" point).
  EXPECT_NE(b.AddRelationshipType("rel", t2, t1), r1);
}

TEST(EntityGraphBuilderTest, MultiTypedEntities) {
  EntityGraphBuilder b;
  const TypeId actor = b.AddEntityType("ACTOR");
  const TypeId producer = b.AddEntityType("PRODUCER");
  const EntityId will = b.AddEntity("Will");
  b.AddEntityToType(will, actor);
  b.AddEntityToType(will, producer);
  b.AddEntityToType(will, actor);  // idempotent
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->TypesOf(will).size(), 2u);
  EXPECT_EQ(g->TypeEntityCount(actor), 1u);
  EXPECT_EQ(g->TypeEntityCount(producer), 1u);
}

TEST(EntityGraphBuilderTest, AddEdgeValidatesEndpointTypes) {
  EntityGraphBuilder b;
  const TypeId person = b.AddEntityType("PERSON");
  const TypeId city = b.AddEntityType("CITY");
  const RelTypeId rel = b.AddRelationshipType("Lives In", person, city);
  const EntityId alice = b.AddEntity("Alice");
  const EntityId paris = b.AddEntity("Paris");
  b.AddEntityToType(alice, person);
  b.AddEntityToType(paris, city);
  // Wrong direction: Paris is not a PERSON.
  const Status wrong = b.AddEdge(paris, rel, alice);
  EXPECT_EQ(wrong.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(b.AddEdge(alice, rel, paris).ok());
}

TEST(EntityGraphBuilderTest, AddEdgeRejectsUnknownIds) {
  EntityGraphBuilder b;
  const TypeId t = b.AddEntityType("T");
  const RelTypeId rel = b.AddRelationshipType("r", t, t);
  const EntityId e = b.AddEntity("e");
  b.AddEntityToType(e, t);
  EXPECT_EQ(b.AddEdge(99, rel, e).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(b.AddEdge(e, 99, e).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(b.AddEdge(e, rel, 99).code(), StatusCode::kInvalidArgument);
}

TEST(EntityGraphBuilderTest, BuildEmptyFails) {
  EntityGraphBuilder b;
  EXPECT_EQ(b.Build().status().code(), StatusCode::kFailedPrecondition);
}

TEST(EntityGraphBuilderTest, SelfLoopEdgesSupported) {
  EntityGraphBuilder b;
  const TypeId episode = b.AddEntityType("EPISODE");
  const RelTypeId next = b.AddRelationshipType("Next", episode, episode);
  const EntityId e1 = b.AddEntity("ep1");
  const EntityId e2 = b.AddEntity("ep2");
  b.AddEntityToType(e1, episode);
  b.AddEntityToType(e2, episode);
  ASSERT_TRUE(b.AddEdge(e1, next, e2).ok());
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->adjacency().NeighborSet(e1, next, Direction::kOutgoing).size(),
            1u);
  EXPECT_EQ(g->adjacency().NeighborSet(e2, next, Direction::kIncoming).size(),
            1u);
}

TEST(EntityGraphBuilderTest, ParallelEdgesOfDifferentTypes) {
  // The paper's Actor + Executive Producer double edge between the same
  // entity pair.
  EntityGraphBuilder b;
  const TypeId person = b.AddEntityType("PERSON");
  const TypeId film = b.AddEntityType("FILM");
  const RelTypeId r1 = b.AddRelationshipType("Actor", person, film);
  const RelTypeId r2 = b.AddRelationshipType("Producer", person, film);
  const EntityId will = b.AddEntity("Will");
  const EntityId movie = b.AddEntity("Movie");
  b.AddEntityToType(will, person);
  b.AddEntityToType(movie, film);
  ASSERT_TRUE(b.AddEdge(will, r1, movie).ok());
  ASSERT_TRUE(b.AddEdge(will, r2, movie).ok());
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
  EXPECT_EQ(g->adjacency().OutDegree(will), 2u);
}

TEST(EntityGraphBuilderTest, BuildResetsBuilder) {
  EntityGraphBuilder b;
  b.AddTypedEntity("X", "T");
  ASSERT_TRUE(b.Build().ok());
  EXPECT_EQ(b.num_entities(), 0u);
}

}  // namespace
}  // namespace egp
