#include "graph/frozen_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "datagen/generator.h"
#include "datagen/paper_example.h"
#include "graph/entity_graph_builder.h"
#include "tests/testing/reference_graph.h"

namespace egp {
namespace {

using testing_util::ReferenceNeighborSet;

TEST(FrozenGraphTest, ArcCountsMatch) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const FrozenGraph& frozen = graph.adjacency();
  EXPECT_EQ(frozen.num_entities(), graph.num_entities());
  EXPECT_EQ(frozen.num_arcs(), graph.num_edges());
  // Each direction's degrees, counted from the other direction's arcs.
  std::vector<size_t> out(graph.num_entities()), in(graph.num_entities());
  for (EntityId e = 0; e < graph.num_entities(); ++e) {
    for (const FrozenGraph::Arc& arc : frozen.InArcs(e)) ++out[arc.neighbor];
    for (const FrozenGraph::Arc& arc : frozen.OutArcs(e)) ++in[arc.neighbor];
  }
  for (EntityId e = 0; e < graph.num_entities(); ++e) {
    EXPECT_EQ(frozen.OutDegree(e), out[e]);
    EXPECT_EQ(frozen.InDegree(e), in[e]);
  }
}

TEST(FrozenGraphTest, ArcsSortedByRelTypeThenNeighbor) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const FrozenGraph& frozen = graph.adjacency();
  for (EntityId e = 0; e < graph.num_entities(); ++e) {
    const auto arcs = frozen.OutArcs(e);
    for (size_t i = 1; i < arcs.size(); ++i) {
      const bool ordered =
          arcs[i - 1].rel_type < arcs[i].rel_type ||
          (arcs[i - 1].rel_type == arcs[i].rel_type &&
           arcs[i - 1].neighbor <= arcs[i].neighbor);
      EXPECT_TRUE(ordered);
    }
  }
}

TEST(FrozenGraphTest, NeighborSetsMatchEntityGraphOnPaperExample) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const FrozenGraph& frozen = graph.adjacency();
  for (EntityId e = 0; e < graph.num_entities(); ++e) {
    for (RelTypeId r = 0; r < graph.num_rel_types(); ++r) {
      for (Direction d : {Direction::kOutgoing, Direction::kIncoming}) {
        EXPECT_EQ(frozen.NeighborSet(e, r, d),
                  ReferenceNeighborSet(graph, e, r, d))
            << "entity " << e << " rel " << r;
      }
    }
  }
}

TEST(FrozenGraphTest, NeighborSetsMatchOnGeneratedDomain) {
  GeneratorOptions options;
  options.scale = 0.0003;
  auto domain = GenerateDomainByName("people", options);
  ASSERT_TRUE(domain.ok());
  const FrozenGraph& frozen = domain->graph.adjacency();
  // Spot-check a deterministic sample of (entity, rel type) pairs.
  for (EntityId e = 0; e < domain->graph.num_entities(); e += 97) {
    for (RelTypeId r = 0; r < domain->graph.num_rel_types(); r += 7) {
      for (Direction d : {Direction::kOutgoing, Direction::kIncoming}) {
        EXPECT_EQ(frozen.NeighborSet(e, r, d),
                  ReferenceNeighborSet(domain->graph, e, r, d));
      }
    }
  }
}

TEST(FrozenGraphTest, FromCsrRejectsArraysThatAreNotTransposes) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const FrozenGraph& frozen = graph.adjacency();
  const size_t n = graph.num_entities();
  const auto wrap = [&](std::span<const FrozenGraph::Arc> in_arcs) {
    return FrozenGraph::FromCsr(n, graph.num_rel_types(),
                                frozen.out_offsets(), frozen.in_offsets(),
                                frozen.out_arcs(), in_arcs, nullptr);
  };
  ASSERT_TRUE(wrap(frozen.in_arcs()).ok());

  // Re-point the in-arc of an entity with exactly one: still in bounds
  // and sorted, with the same counts, but no longer the transpose.
  std::vector<FrozenGraph::Arc> in_arcs(frozen.in_arcs().begin(),
                                        frozen.in_arcs().end());
  EntityId single = 0;
  while (single < n && frozen.InDegree(single) != 1) ++single;
  ASSERT_LT(single, n);
  FrozenGraph::Arc& arc = in_arcs[frozen.in_offsets()[single]];
  arc.neighbor = static_cast<EntityId>((arc.neighbor + 1) % n);
  const auto rejected = wrap(in_arcs);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kCorruption);
  EXPECT_NE(rejected.status().message().find("transposed"),
            std::string::npos)
      << rejected.status().message();
}

TEST(FrozenGraphTest, MemoryAccountingIsPlausible) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const FrozenGraph& frozen = graph.adjacency();
  // Two arc arrays + two offset arrays; arcs are 8 bytes each.
  const size_t lower_bound =
      2 * graph.num_edges() * sizeof(FrozenGraph::Arc) +
      2 * (graph.num_entities() + 1) * sizeof(uint64_t);
  EXPECT_GE(frozen.MemoryBytes(), lower_bound);
  EXPECT_LT(frozen.MemoryBytes(), 4 * lower_bound);
}

TEST(FrozenGraphTest, EmptyAdjacency) {
  EntityGraphBuilder b;
  b.AddTypedEntity("lonely", "T");
  auto graph = b.Build();
  ASSERT_TRUE(graph.ok());
  const FrozenGraph& frozen = graph->adjacency();
  EXPECT_TRUE(frozen.OutArcs(0).empty());
  EXPECT_TRUE(frozen.InArcs(0).empty());
  EXPECT_TRUE(frozen.NeighborSet(0, 0, Direction::kOutgoing).empty());
}

}  // namespace
}  // namespace egp
