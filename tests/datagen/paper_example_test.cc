// Exhaustive verification of the Fig. 1 reconstruction against every
// number the paper states about its running example.
#include "datagen/paper_example.h"

#include <gtest/gtest.h>

#include <map>

#include "tests/testing/reference_graph.h"

namespace egp {
namespace {

using testing_util::ReferenceNeighborSet;
using testing_util::RelTypeEdgeCount;

class PaperExampleTest : public ::testing::Test {
 protected:
  void SetUp() override { graph_ = BuildPaperExampleGraph(); }

  EntityId Entity(std::string_view name) const {
    auto id = graph_.entity_names().Find(name);
    EXPECT_TRUE(id.has_value()) << name;
    return *id;
  }
  TypeId Type(std::string_view name) const {
    auto id = graph_.type_names().Find(name);
    EXPECT_TRUE(id.has_value()) << name;
    return *id;
  }

  EntityGraph graph_;
};

TEST_F(PaperExampleTest, Sizes) {
  EXPECT_EQ(graph_.num_entities(), 14u);
  EXPECT_EQ(graph_.num_types(), 6u);
  EXPECT_EQ(graph_.num_rel_types(), 7u);
  EXPECT_EQ(graph_.num_edges(), 21u);
}

TEST_F(PaperExampleTest, FilmTypeHasFourEntities) {
  EXPECT_EQ(graph_.TypeEntityCount(Type("FILM")), 4u);  // S_cov(FILM) = 4
}

TEST_F(PaperExampleTest, WillSmithIsActorAndProducer) {
  const EntityId will = Entity("Will Smith");
  EXPECT_TRUE(graph_.EntityHasType(will, Type("FILM ACTOR")));
  EXPECT_TRUE(graph_.EntityHasType(will, Type("FILM PRODUCER")));
  EXPECT_EQ(graph_.TypesOf(will).size(), 2u);
}

TEST_F(PaperExampleTest, DoubleEdgeWillToIRobot) {
  // "there are two edges Actor and Executive Producer from Will Smith to
  // I, Robot" (§2).
  const EntityId will = Entity("Will Smith");
  const EntityId irobot = Entity("I, Robot");
  int edges = 0;
  for (const FrozenGraph::Arc& arc : graph_.adjacency().OutArcs(will)) {
    if (arc.neighbor == irobot) ++edges;
  }
  EXPECT_EQ(edges, 2);
}

TEST_F(PaperExampleTest, AwardWinnersSurfaceNameIsShared) {
  // Two distinct relationship types share the "Award Winners" surface.
  int award_winner_types = 0;
  for (RelTypeId r = 0; r < graph_.num_rel_types(); ++r) {
    if (graph_.RelSurfaceName(r) == "Award Winners") ++award_winner_types;
  }
  EXPECT_EQ(award_winner_types, 2);
}

TEST_F(PaperExampleTest, Figure2TupleContents) {
  // t1 = ⟨Men in Black, Barry Sonnenfeld, {Action Film, Science Fiction}⟩.
  const EntityId mib = Entity("Men in Black");
  RelTypeId director = kInvalidId, genres = kInvalidId;
  for (RelTypeId r = 0; r < graph_.num_rel_types(); ++r) {
    if (graph_.RelSurfaceName(r) == "Director") director = r;
    if (graph_.RelSurfaceName(r) == "Genres") genres = r;
  }
  const auto director_values =
      ReferenceNeighborSet(graph_, mib, director, Direction::kIncoming);
  ASSERT_EQ(director_values.size(), 1u);
  EXPECT_EQ(graph_.EntityName(director_values[0]), "Barry Sonnenfeld");
  const auto genre_values =
      ReferenceNeighborSet(graph_, mib, genres, Direction::kOutgoing);
  EXPECT_EQ(genre_values.size(), 2u);
  // t3 = ⟨Hancock, Peter Berg, -⟩: empty genres.
  EXPECT_TRUE(ReferenceNeighborSet(graph_, Entity("Hancock"), genres,
                                   Direction::kOutgoing)
                  .empty());
}

TEST_F(PaperExampleTest, RelationshipCounts) {
  const std::map<std::string, size_t> expected = {
      {"Actor", 6}, {"Director", 4}, {"Genres", 5},
      {"Producer", 2}, {"Executive Producer", 1},
  };
  for (RelTypeId r = 0; r < graph_.num_rel_types(); ++r) {
    const std::string name(graph_.RelSurfaceName(r));
    auto it = expected.find(name);
    if (it != expected.end()) {
      EXPECT_EQ(RelTypeEdgeCount(graph_, r), it->second) << name;
    }
  }
}

TEST_F(PaperExampleTest, AwardWinnersSplitByType) {
  // Actor-side: Will → Saturn, Tommy → Academy. Director-side: Barry →
  // Razzie.
  for (RelTypeId r = 0; r < graph_.num_rel_types(); ++r) {
    if (graph_.RelSurfaceName(r) != "Award Winners") continue;
    const RelTypeInfo& info = graph_.RelType(r);
    if (info.src_type == Type("FILM ACTOR")) {
      EXPECT_EQ(RelTypeEdgeCount(graph_, r), 2u);
    } else {
      EXPECT_EQ(info.src_type, Type("FILM DIRECTOR"));
      EXPECT_EQ(RelTypeEdgeCount(graph_, r), 1u);
    }
  }
}

TEST_F(PaperExampleTest, TommyLeeJonesActedInBothMenInBlackFilms) {
  const EntityId tommy = Entity("Tommy Lee Jones");
  RelTypeId actor = kInvalidId;
  for (RelTypeId r = 0; r < graph_.num_rel_types(); ++r) {
    if (graph_.RelSurfaceName(r) == "Actor") actor = r;
  }
  const auto films =
      ReferenceNeighborSet(graph_, tommy, actor, Direction::kOutgoing);
  ASSERT_EQ(films.size(), 2u);
}

}  // namespace
}  // namespace egp
