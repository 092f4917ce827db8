#include "io/report.h"

#include <gtest/gtest.h>

#include "datagen/paper_example.h"

namespace egp {
namespace {

TEST(ReportTest, ContainsAllSections) {
  const EntityGraph graph = BuildPaperExampleGraph();
  ReportOptions options;
  options.title = "Film excerpt";
  options.size = {2, 6};
  const auto report = GeneratePreviewReport(graph, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("# Film excerpt"), std::string::npos);
  EXPECT_NE(report->find("## Dataset statistics"), std::string::npos);
  EXPECT_NE(report->find("## Most important entity types"),
            std::string::npos);
  EXPECT_NE(report->find("## Preview (k=2, n=6"), std::string::npos);
  EXPECT_NE(report->find("| **FILM** |"), std::string::npos);
  EXPECT_NE(report->find("score 84"), std::string::npos);
}

TEST(ReportTest, StatisticsValuesPresent) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const auto report = GeneratePreviewReport(graph, ReportOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("| entities | 14 |"), std::string::npos);
  EXPECT_NE(report->find("| relationships | 21 |"), std::string::npos);
  EXPECT_NE(report->find("| entity types | 6 |"), std::string::npos);
}

TEST(ReportTest, DistanceConstraintNoted) {
  const EntityGraph graph = BuildPaperExampleGraph();
  ReportOptions options;
  options.size = {2, 6};
  options.distance = DistanceConstraint::Diverse(2);
  const auto report = GeneratePreviewReport(graph, options);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("diverse d=2"), std::string::npos);
  EXPECT_NE(report->find("score 78"), std::string::npos);
}

TEST(ReportTest, DotAppendixOptIn) {
  const EntityGraph graph = BuildPaperExampleGraph();
  ReportOptions without;
  without.size = {2, 6};
  ReportOptions with = without;
  with.include_dot = true;
  const auto a = GeneratePreviewReport(graph, without);
  const auto b = GeneratePreviewReport(graph, with);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->find("digraph preview"), std::string::npos);
  EXPECT_NE(b->find("digraph preview"), std::string::npos);
}

TEST(ReportTest, InfeasibleDiscoveryPropagates) {
  const EntityGraph graph = BuildPaperExampleGraph();
  ReportOptions options;
  options.size = {9, 12};  // more tables than types
  const auto report = GeneratePreviewReport(graph, options);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}

TEST(ReportTest, RandomWalkEntropyMeasures) {
  const EntityGraph graph = BuildPaperExampleGraph();
  ReportOptions options;
  options.measures.key_measure = KeyMeasure::kRandomWalk;
  options.measures.nonkey_measure = NonKeyMeasure::kEntropy;
  options.size = {2, 5};
  const auto report = GeneratePreviewReport(graph, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("RandomWalk"), std::string::npos);
}

}  // namespace
}  // namespace egp
