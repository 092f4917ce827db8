#include "core/nonkey_scoring.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/strings.h"
#include "datagen/generator.h"
#include "datagen/paper_example.h"
#include "graph/entity_graph_builder.h"
#include "tests/testing/reference_graph.h"

namespace egp {
namespace {

RelTypeId FindRelType(const EntityGraph& graph, std::string_view surface) {
  for (RelTypeId r = 0; r < graph.num_rel_types(); ++r) {
    if (graph.RelSurfaceName(r) == surface) return r;
  }
  ADD_FAILURE() << "relationship type not found: " << surface;
  return kInvalidId;
}

TEST(NonKeyCoverageTest, PaperExampleCounts) {
  // §3.3: S_cov(Director) = 4, S_cov(Genres) = 5.
  const EntityGraph graph = BuildPaperExampleGraph();
  const SchemaGraph schema = SchemaGraph::FromEntityGraph(graph);
  const NonKeyScores scores = ComputeNonKeyCoverage(schema);
  for (uint32_t i = 0; i < schema.num_edges(); ++i) {
    const std::string& name = schema.SurfaceName(schema.Edge(i));
    if (name == "Director") {
      EXPECT_DOUBLE_EQ(scores.outgoing[i], 4.0);
      EXPECT_DOUBLE_EQ(scores.incoming[i], 4.0);  // symmetric (§3.3)
    } else if (name == "Genres") {
      EXPECT_DOUBLE_EQ(scores.outgoing[i], 5.0);
    } else if (name == "Actor") {
      EXPECT_DOUBLE_EQ(scores.outgoing[i], 6.0);
    }
  }
}

TEST(EntropyTest, PaperDirectorExample) {
  // S_ent^FILM(Director) = 0.45: the FILM-side view is the incoming
  // direction of Director(FILM DIRECTOR → FILM).
  const EntityGraph graph = BuildPaperExampleGraph();
  const RelTypeId director = FindRelType(graph, "Director");
  EXPECT_NEAR(RelationshipEntropy(graph, director, Direction::kIncoming),
              0.45, 0.005);
}

TEST(EntropyTest, PaperGenresExample) {
  // S_ent^FILM(Genres) = 0.28: FILM is the source of Genres, value sets
  // {Action,SciFi}:2 and {Action}:1, Hancock empty (excluded).
  const EntityGraph graph = BuildPaperExampleGraph();
  const RelTypeId genres = FindRelType(graph, "Genres");
  EXPECT_NEAR(RelationshipEntropy(graph, genres, Direction::kOutgoing), 0.28,
              0.005);
}

TEST(EntropyTest, AsymmetricAcrossDirections) {
  // §3.3: the entropy measure is asymmetric. From the FILM GENRE side,
  // Genres has 2 tuples {films-with-Action} vs {films-with-SciFi} with
  // different sets → entropy log10(2) ≈ 0.301, different from 0.28.
  const EntityGraph graph = BuildPaperExampleGraph();
  const RelTypeId genres = FindRelType(graph, "Genres");
  const double film_side =
      RelationshipEntropy(graph, genres, Direction::kOutgoing);
  const double genre_side =
      RelationshipEntropy(graph, genres, Direction::kIncoming);
  EXPECT_NE(film_side, genre_side);
  EXPECT_NEAR(genre_side, 0.301, 0.005);
}

TEST(EntropyTest, AllDistinctValuesMaximizeEntropy) {
  EntityGraphBuilder b;
  const TypeId person = b.AddEntityType("P");
  const TypeId city = b.AddEntityType("C");
  const RelTypeId rel = b.AddRelationshipType("in", person, city);
  for (int i = 0; i < 10; ++i) {
    const EntityId p = b.AddEntity(StrFormat("p%d", i));
    const EntityId c = b.AddEntity(StrFormat("c%d", i));
    b.AddEntityToType(p, person);
    b.AddEntityToType(c, city);
    ASSERT_TRUE(b.AddEdge(p, rel, c).ok());
  }
  auto graph = b.Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_NEAR(RelationshipEntropy(*graph, rel, Direction::kOutgoing), 1.0,
              1e-9);  // log10(10)
}

TEST(EntropyTest, AllSameValueIsZero) {
  EntityGraphBuilder b;
  const TypeId person = b.AddEntityType("P");
  const TypeId city = b.AddEntityType("C");
  const RelTypeId rel = b.AddRelationshipType("in", person, city);
  const EntityId paris = b.AddEntity("paris");
  b.AddEntityToType(paris, city);
  for (int i = 0; i < 5; ++i) {
    const EntityId p = b.AddEntity(StrFormat("p%d", i));
    b.AddEntityToType(p, person);
    ASSERT_TRUE(b.AddEdge(p, rel, paris).ok());
  }
  auto graph = b.Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_DOUBLE_EQ(RelationshipEntropy(*graph, rel, Direction::kOutgoing),
                   0.0);
}

TEST(EntropyTest, MultiValuedCellsGroupBySetEquality) {
  // Two entities with the same 2-element set, one with a subset: 2 groups.
  EntityGraphBuilder b;
  const TypeId person = b.AddEntityType("P");
  const TypeId tag = b.AddEntityType("T");
  const RelTypeId rel = b.AddRelationshipType("has", person, tag);
  const EntityId t1 = b.AddEntity("t1");
  const EntityId t2 = b.AddEntity("t2");
  b.AddEntityToType(t1, tag);
  b.AddEntityToType(t2, tag);
  for (int i = 0; i < 2; ++i) {
    const EntityId p = b.AddEntity("pboth" + std::to_string(i));
    b.AddEntityToType(p, person);
    ASSERT_TRUE(b.AddEdge(p, rel, t1).ok());
    ASSERT_TRUE(b.AddEdge(p, rel, t2).ok());
  }
  const EntityId lone = b.AddEntity("plone");
  b.AddEntityToType(lone, person);
  ASSERT_TRUE(b.AddEdge(lone, rel, t1).ok());
  auto graph = b.Build();
  ASSERT_TRUE(graph.ok());
  // Histogram {2, 1} → same as the Genres example: 0.28.
  EXPECT_NEAR(RelationshipEntropy(*graph, rel, Direction::kOutgoing), 0.28,
              0.005);
}

TEST(EntropyTest, EmptyTuplesExcludedFromDenominator) {
  // 4 persons, only 2 with values (distinct): H = log10(2), not affected
  // by the 2 empty tuples.
  EntityGraphBuilder b;
  const TypeId person = b.AddEntityType("P");
  const TypeId city = b.AddEntityType("C");
  const RelTypeId rel = b.AddRelationshipType("in", person, city);
  for (int i = 0; i < 4; ++i) {
    const EntityId p = b.AddEntity(StrFormat("p%d", i));
    b.AddEntityToType(p, person);
  }
  for (int i = 0; i < 2; ++i) {
    const EntityId c = b.AddEntity(StrFormat("c%d", i));
    b.AddEntityToType(c, city);
    ASSERT_TRUE(
        b.AddEdge(static_cast<EntityId>(i), rel, c).ok());
  }
  auto graph = b.Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_NEAR(RelationshipEntropy(*graph, rel, Direction::kOutgoing),
              std::log10(2.0), 1e-9);
}

TEST(EntropyTest, NoEdgesIsZero) {
  EntityGraphBuilder b;
  const TypeId person = b.AddEntityType("P");
  const RelTypeId rel = b.AddRelationshipType("knows", person, person);
  b.AddTypedEntity("p0", "P");
  auto graph = b.Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_DOUBLE_EQ(RelationshipEntropy(*graph, rel, Direction::kOutgoing),
                   0.0);
}

TEST(ComputeNonKeyEntropyTest, FailsWithoutRelTypeMapping) {
  const EntityGraph graph = BuildPaperExampleGraph();
  SchemaGraph direct;  // built directly: no relationship-type mapping
  direct.AddType("A", 1);
  direct.AddType("B", 1);
  direct.AddEdge("r", 0, 1, 1);
  const auto result = ComputeNonKeyEntropy(graph, direct);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ComputeNonKeyEntropyTest, FastPathMatchesReferenceOnGeneratedDomain) {
  // ComputeNonKeyEntropy reads each direction's value sets off that
  // direction's arcs; the reference groups the value sets it reads off
  // the opposite direction's arcs. They must agree on every (edge,
  // direction) of a realistic generated graph.
  GeneratorOptions options;
  options.scale = 0.0003;
  auto domain = GenerateDomainByName("tv", options);
  ASSERT_TRUE(domain.ok());
  const auto fast = ComputeNonKeyEntropy(domain->graph, domain->schema);
  ASSERT_TRUE(fast.ok());
  for (uint32_t i = 0; i < domain->schema.num_edges(); ++i) {
    const RelTypeId rel = domain->schema.RelTypeOfEdge(i);
    EXPECT_NEAR(fast->outgoing[i],
                testing_util::ReferenceRelationshipEntropy(
                    domain->graph, rel, Direction::kOutgoing),
                1e-9)
        << "edge " << i << " outgoing";
    EXPECT_NEAR(fast->incoming[i],
                testing_util::ReferenceRelationshipEntropy(
                    domain->graph, rel, Direction::kIncoming),
                1e-9)
        << "edge " << i << " incoming";
  }
}

TEST(ComputeNonKeyEntropyTest, PopulatesBothDirections) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const SchemaGraph schema = SchemaGraph::FromEntityGraph(graph);
  const auto result = ComputeNonKeyEntropy(graph, schema);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outgoing.size(), schema.num_edges());
  EXPECT_EQ(result->incoming.size(), schema.num_edges());
  for (uint32_t i = 0; i < schema.num_edges(); ++i) {
    EXPECT_GE(result->outgoing[i], 0.0);
    EXPECT_GE(result->incoming[i], 0.0);
  }
}

}  // namespace
}  // namespace egp
