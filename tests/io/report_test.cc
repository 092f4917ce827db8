#include "io/report.h"

#include <gtest/gtest.h>

#include "core/scoring_registry.h"
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
  options.measures.key = "randomwalk";
  options.measures.nonkey = "entropy";
  options.size = {2, 5};
  const auto report = GeneratePreviewReport(graph, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("## Most important entity types (randomwalk)"),
            std::string::npos);
}

TEST(ReportTest, RegisteredKeyMeasureNamesTheRanking) {
  // Any registered measure can drive a report, not just the paper's.
  ASSERT_TRUE(ScoringRegistry::Global()
                  .RegisterKeyMeasure(
                      "report-test-uniform",
                      [](const ScoringContext& context) {
                        return Result<std::vector<double>>(
                            std::vector<double>(context.schema.num_types(),
                                                1.0));
                      })
                  .ok());
  const EntityGraph graph = BuildPaperExampleGraph();
  ReportOptions options;
  options.measures.key = "report-test-uniform";
  options.size = {2, 6};
  const auto report = GeneratePreviewReport(graph, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(
      report->find("## Most important entity types (report-test-uniform)"),
      std::string::npos);
  EXPECT_NE(report->find("| 1 | "), std::string::npos);
}

}  // namespace
}  // namespace egp
