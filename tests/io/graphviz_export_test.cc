#include "io/graphviz_export.h"

#include <gtest/gtest.h>

#include "core/discover.h"
#include "datagen/paper_example.h"

namespace egp {
namespace {

class GraphvizTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = BuildPaperExampleGraph();
    schema_ = SchemaGraph::FromEntityGraph(graph_);
  }

  EntityGraph graph_;
  SchemaGraph schema_;
};

TEST_F(GraphvizTest, SchemaDotStructure) {
  const std::string dot = SchemaToDot(schema_);
  EXPECT_EQ(dot.rfind("digraph schema {", 0), 0u);
  EXPECT_EQ(dot.back(), '\n');
  EXPECT_NE(dot.find("FILM"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("Award Winners"), std::string::npos);
  // One node per type, one edge per relationship type.
  size_t nodes = 0, edges = 0;
  for (size_t pos = 0; (pos = dot.find("[label=", pos)) != std::string::npos;
       ++pos) {
    ++nodes;
  }
  for (size_t pos = 0; (pos = dot.find("->", pos)) != std::string::npos;
       ++pos) {
    ++edges;
  }
  EXPECT_EQ(nodes, schema_.num_types() + schema_.num_edges());
  EXPECT_EQ(edges, schema_.num_edges());
}

TEST_F(GraphvizTest, LabelsCarryCounts) {
  const std::string dot = SchemaToDot(schema_);
  EXPECT_NE(dot.find("FILM\\n(4)"), std::string::npos);  // S_cov(FILM)
}

TEST_F(GraphvizTest, PreviewHighlightsKeysAndAttributes) {
  auto prepared = PreparedSchema::Create(schema_);
  ASSERT_TRUE(prepared.ok());
  auto discovery = Discover(*prepared, "auto", SizeConstraint{2, 6},
                            DistanceConstraint::None());
  ASSERT_TRUE(discovery.ok());
  const std::string dot = PreviewToDot(*prepared, discovery->preview);
  EXPECT_NE(dot.find("fillcolor=lightblue"), std::string::npos);
  EXPECT_NE(dot.find("penwidth=2.5"), std::string::npos);
  // Exactly k key nodes are highlighted.
  size_t highlighted = 0;
  for (size_t pos = 0;
       (pos = dot.find("fillcolor=lightblue", pos)) != std::string::npos;
       ++pos) {
    ++highlighted;
  }
  EXPECT_EQ(highlighted, 2u);
}

TEST_F(GraphvizTest, LabelsEscapedAndTruncated) {
  SchemaGraph schema;
  // 46 characters, cut after 24 escaped ones.
  schema.AddType("TYPE \"WITH QUOTES\" AND A VERY LONG NAME INDEED", 1);
  schema.AddType("EXACTLY TWENTY-FOUR CHAR", 1);  // fits: not cut
  schema.AddEdge("rel \\ backslash", 0, 1, 1);
  const std::string dot = SchemaToDot(schema);
  EXPECT_NE(dot.find("label=\"TYPE \\\"WITH QUOTES\\\" AND...\\n(1)\""),
            std::string::npos)
      << dot;
  EXPECT_NE(dot.find("label=\"EXACTLY TWENTY-FOUR CHAR\\n(1)\""),
            std::string::npos)
      << dot;
  EXPECT_NE(dot.find("label=\"rel \\\\ backslash (1)\""), std::string::npos)
      << dot;
}

}  // namespace
}  // namespace egp
