#include "core/key_scoring.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>

#include "datagen/paper_example.h"

namespace egp {
namespace {

SchemaGraph PaperSchema() {
  return SchemaGraph::FromEntityGraph(BuildPaperExampleGraph());
}

TEST(KeyCoverageTest, PaperExampleCounts) {
  const SchemaGraph schema = PaperSchema();
  const auto scores = ComputeKeyCoverage(schema);
  EXPECT_DOUBLE_EQ(scores[*schema.type_names().Find("FILM")], 4.0);
  EXPECT_DOUBLE_EQ(scores[*schema.type_names().Find("FILM ACTOR")], 2.0);
  EXPECT_DOUBLE_EQ(scores[*schema.type_names().Find("FILM PRODUCER")], 1.0);
  EXPECT_DOUBLE_EQ(scores[*schema.type_names().Find("AWARD")], 3.0);
}

TEST(TransitionProbabilityTest, PaperWorkedExample) {
  // §3.2: M(FILM→FILM GENRE) = 5/18 ≈ 0.28; M(FILM→FILM PRODUCER) = 3/18
  // ≈ 0.17.
  const SchemaGraph schema = PaperSchema();
  const TypeId film = *schema.type_names().Find("FILM");
  const TypeId genre = *schema.type_names().Find("FILM GENRE");
  const TypeId producer = *schema.type_names().Find("FILM PRODUCER");
  EXPECT_NEAR(TransitionProbability(schema, film, genre), 0.28, 0.005);
  EXPECT_NEAR(TransitionProbability(schema, film, producer), 0.17, 0.005);
}

TEST(TransitionProbabilityTest, RowSumsToOne) {
  const SchemaGraph schema = PaperSchema();
  const TypeId film = *schema.type_names().Find("FILM");
  double row = 0.0;
  for (TypeId t = 0; t < schema.num_types(); ++t) {
    row += TransitionProbability(schema, film, t);
  }
  EXPECT_NEAR(row, 1.0, 1e-12);
}

TEST(RandomWalkTest, StationaryDistributionSumsToOne) {
  const SchemaGraph schema = PaperSchema();
  const std::vector<double> pi = ComputeKeyRandomWalk(schema).value();
  EXPECT_NEAR(std::accumulate(pi.begin(), pi.end(), 0.0), 1.0, 1e-9);
  for (double p : pi) EXPECT_GT(p, 0.0);
}

TEST(RandomWalkTest, HubDominatesStarGraph) {
  SchemaGraph schema;
  const TypeId hub = schema.AddType("HUB", 1);
  for (int i = 0; i < 5; ++i) {
    const TypeId leaf = schema.AddType("LEAF" + std::to_string(i), 1);
    schema.AddEdge("r", hub, leaf, 10);
  }
  const std::vector<double> pi = ComputeKeyRandomWalk(schema).value();
  for (TypeId t = 1; t < schema.num_types(); ++t) {
    EXPECT_GT(pi[hub], pi[t]);
  }
}

TEST(RandomWalkTest, SymmetricGraphIsUniform) {
  // A 4-cycle with equal weights: all types equally central.
  SchemaGraph schema;
  for (int i = 0; i < 4; ++i) schema.AddType("T" + std::to_string(i), 1);
  for (int i = 0; i < 4; ++i) {
    schema.AddEdge("r", static_cast<TypeId>(i),
                   static_cast<TypeId>((i + 1) % 4), 5);
  }
  const std::vector<double> pi = ComputeKeyRandomWalk(schema).value();
  for (double p : pi) EXPECT_NEAR(p, 0.25, 1e-6);
}

TEST(RandomWalkTest, WeightsDriveStationaryMass) {
  // A—B heavily connected, C attached lightly: C gets the least mass.
  SchemaGraph schema;
  schema.AddType("A", 1);
  schema.AddType("B", 1);
  schema.AddType("C", 1);
  schema.AddEdge("r", 0, 1, 100);
  schema.AddEdge("r", 1, 2, 1);
  const std::vector<double> pi = ComputeKeyRandomWalk(schema).value();
  EXPECT_GT(pi[0], pi[2]);
  EXPECT_GT(pi[1], pi[0]);  // B touches both
}

TEST(RandomWalkTest, DisconnectedGraphConvergesViaSmoothing) {
  // §6: the 1e-5 smoothing guarantees convergence on disconnected schema
  // graphs.
  SchemaGraph schema;
  schema.AddType("A", 1);
  schema.AddType("B", 1);
  schema.AddType("C", 1);  // isolated
  schema.AddEdge("r", 0, 1, 50);
  const std::vector<double> pi = ComputeKeyRandomWalk(schema).value();
  EXPECT_NEAR(std::accumulate(pi.begin(), pi.end(), 0.0), 1.0, 1e-9);
  EXPECT_GT(pi[2], 0.0);
  EXPECT_GT(pi[0], pi[2]);
}

TEST(RandomWalkTest, UnsmoothedWalkNeedsEveryTypeConnected) {
  SchemaGraph schema;
  schema.AddType("A", 1);
  schema.AddType("B", 1);
  schema.AddType("C", 1);  // isolated
  schema.AddEdge("r", 0, 1, 50);
  RandomWalkOptions unsmoothed;
  unsmoothed.smoothing = 0.0;
  const auto isolated = ComputeKeyRandomWalk(schema, unsmoothed);
  ASSERT_FALSE(isolated.ok());
  EXPECT_EQ(isolated.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(isolated.status().message().find("type 'C' has none"),
            std::string::npos)
      << isolated.status().ToString();

  schema.AddEdge("s", 1, 2, 5);  // now connected: no smoothing needed
  const auto connected = ComputeKeyRandomWalk(schema, unsmoothed);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  EXPECT_NEAR(std::accumulate(connected->begin(), connected->end(), 0.0), 1.0,
              1e-9);

  for (const double bad : {-1e-5, std::nan("")}) {
    RandomWalkOptions options;
    options.smoothing = bad;
    EXPECT_FALSE(ComputeKeyRandomWalk(schema, options).ok()) << bad;
  }
}

TEST(RandomWalkTest, PaperExampleFilmIsCentral) {
  const SchemaGraph schema = PaperSchema();
  const std::vector<double> pi = ComputeKeyRandomWalk(schema).value();
  const TypeId film = *schema.type_names().Find("FILM");
  for (TypeId t = 0; t < schema.num_types(); ++t) {
    if (t == film) continue;
    EXPECT_GT(pi[film], pi[t]) << "FILM should be the most central type";
  }
}

TEST(RandomWalkTest, SelfLoopRetainsMass) {
  SchemaGraph schema;
  schema.AddType("A", 1);
  schema.AddType("B", 1);
  schema.AddType("C", 1);
  schema.AddEdge("r", 0, 1, 10);
  schema.AddEdge("r", 1, 2, 10);
  const std::vector<double> base = ComputeKeyRandomWalk(schema).value();
  SchemaGraph with_loop;
  with_loop.AddType("A", 1);
  with_loop.AddType("B", 1);
  with_loop.AddType("C", 1);
  with_loop.AddEdge("r", 0, 1, 10);
  with_loop.AddEdge("r", 1, 2, 10);
  with_loop.AddEdge("self", 0, 0, 50);
  const std::vector<double> looped = ComputeKeyRandomWalk(with_loop).value();
  EXPECT_GT(looped[0], base[0]);
}

TEST(RandomWalkTest, SingleType) {
  SchemaGraph schema;
  schema.AddType("A", 7);
  const std::vector<double> pi = ComputeKeyRandomWalk(schema).value();
  ASSERT_EQ(pi.size(), 1u);
  EXPECT_DOUBLE_EQ(pi[0], 1.0);
}

}  // namespace
}  // namespace egp
