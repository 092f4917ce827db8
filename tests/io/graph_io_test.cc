#include "io/graph_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "datagen/generator.h"
#include "datagen/paper_example.h"

namespace egp {
namespace {

TEST(GraphIoTest, PaperExampleRoundTrips) {
  const EntityGraph original = BuildPaperExampleGraph();
  std::stringstream buffer;
  ASSERT_TRUE(WriteEntityGraph(original, buffer).ok());
  auto restored = ReadEntityGraph(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_entities(), original.num_entities());
  EXPECT_EQ(restored->num_edges(), original.num_edges());
  EXPECT_EQ(restored->num_types(), original.num_types());
  EXPECT_EQ(restored->num_rel_types(), original.num_rel_types());
}

TEST(GraphIoTest, RoundTripPreservesStructure) {
  const EntityGraph original = BuildPaperExampleGraph();
  std::stringstream buffer;
  ASSERT_TRUE(WriteEntityGraph(original, buffer).ok());
  auto restored = ReadEntityGraph(buffer);
  ASSERT_TRUE(restored.ok());
  // Check a specific entity's neighbourhood survives: Will Smith's out
  // edges by surface name.
  const EntityId will_a = *original.entity_names().Find("Will Smith");
  const EntityId will_b = *restored->entity_names().Find("Will Smith");
  EXPECT_EQ(original.adjacency().OutDegree(will_a),
            restored->adjacency().OutDegree(will_b));
  EXPECT_EQ(original.TypesOf(will_a).size(),
            restored->TypesOf(will_b).size());
}

TEST(GraphIoTest, RoundTripPreservesScores) {
  // The schema-graph statistics that drive scoring must be identical.
  const EntityGraph original = BuildPaperExampleGraph();
  std::stringstream buffer;
  ASSERT_TRUE(WriteEntityGraph(original, buffer).ok());
  auto restored = ReadEntityGraph(buffer);
  ASSERT_TRUE(restored.ok());
  const SchemaGraph sa = SchemaGraph::FromEntityGraph(original);
  const SchemaGraph sb = SchemaGraph::FromEntityGraph(*restored);
  ASSERT_EQ(sa.num_edges(), sb.num_edges());
  for (uint32_t i = 0; i < sa.num_edges(); ++i) {
    const std::string& name_a = sa.SurfaceName(sa.Edge(i));
    bool matched = false;
    for (uint32_t j = 0; j < sb.num_edges(); ++j) {
      if (sb.SurfaceName(sb.Edge(j)) == name_a &&
          sb.TypeName(sb.Edge(j).src) == sa.TypeName(sa.Edge(i).src) &&
          sb.Edge(j).edge_count == sa.Edge(i).edge_count) {
        matched = true;
      }
    }
    EXPECT_TRUE(matched) << name_a;
  }
}

TEST(GraphIoTest, GeneratedDomainRoundTrips) {
  GeneratorOptions options;
  options.scale = 0.0002;
  auto domain = GenerateDomainByName("people", options);
  ASSERT_TRUE(domain.ok());
  std::stringstream buffer;
  ASSERT_TRUE(WriteEntityGraph(domain->graph, buffer).ok());
  auto restored = ReadEntityGraph(buffer);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_entities(), domain->graph.num_entities());
  EXPECT_EQ(restored->num_edges(), domain->graph.num_edges());
  EXPECT_EQ(restored->num_rel_types(), domain->graph.num_rel_types());
}

TEST(GraphIoTest, CommentsAndBlankLinesIgnored) {
  std::stringstream in(
      "# a comment\n"
      "\n"
      "type\tx\tT\n"
      "   \n"
      "# another\n"
      "type\ty\tT\n");
  auto graph = ReadEntityGraph(in);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_entities(), 2u);
}

TEST(GraphIoTest, EdgeLineCreatesEverything) {
  std::stringstream in("edge\twill\tActor\tACTOR\tFILM\tmib\n");
  auto graph = ReadEntityGraph(in);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_entities(), 2u);
  EXPECT_EQ(graph->num_types(), 2u);
  EXPECT_EQ(graph->num_edges(), 1u);
  const EntityId will = *graph->entity_names().Find("will");
  EXPECT_TRUE(graph->EntityHasType(will, *graph->type_names().Find("ACTOR")));
}

TEST(GraphIoTest, MalformedLinesRejected) {
  {
    std::stringstream in("type\tonly-two-fields\n");
    EXPECT_EQ(ReadEntityGraph(in).status().code(), StatusCode::kCorruption);
  }
  {
    std::stringstream in("edge\ta\tb\tc\n");
    EXPECT_EQ(ReadEntityGraph(in).status().code(), StatusCode::kCorruption);
  }
  {
    std::stringstream in("frobnicate\tx\ty\n");
    EXPECT_EQ(ReadEntityGraph(in).status().code(), StatusCode::kCorruption);
  }
}

TEST(GraphIoTest, ErrorMentionsLineNumber) {
  std::stringstream in("type\ta\tT\nbogus\tz\n");
  const auto result = ReadEntityGraph(in);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(GraphIoTest, FileIoErrors) {
  EXPECT_EQ(ReadEntityGraphFile("/nonexistent/path.egt").status().code(),
            StatusCode::kIOError);
  const EntityGraph graph = BuildPaperExampleGraph();
  EXPECT_EQ(WriteEntityGraphFile(graph, "/nonexistent/dir/out.egt").code(),
            StatusCode::kIOError);
}

TEST(GraphIoTest, FileRoundTrip) {
  const EntityGraph original = BuildPaperExampleGraph();
  const std::string path = ::testing::TempDir() + "/egp_roundtrip.egt";
  ASSERT_TRUE(WriteEntityGraphFile(original, path).ok());
  auto restored = ReadEntityGraphFile(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_edges(), original.num_edges());
}

}  // namespace
}  // namespace egp
