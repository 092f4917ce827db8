// ScoringRegistry: built-in measures, user registration, lookup errors,
// and the name-based PreparedSchema::Create path.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "core/candidates.h"
#include "core/scoring_registry.h"
#include "datagen/paper_example.h"

namespace egp {

/// Grants tests a private registry instance (the public entry point is the
/// process-wide Global()).
class ScoringRegistryTestPeer {
 public:
  ScoringRegistry registry;
};

namespace {

bool Contains(const std::vector<std::string>& names, const char* name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(ScoringRegistryTest, BuiltInsArePreRegistered) {
  ScoringRegistryTestPeer peer;
  EXPECT_TRUE(Contains(peer.registry.KeyMeasureNames(), "coverage"));
  EXPECT_TRUE(Contains(peer.registry.KeyMeasureNames(), "randomwalk"));
  EXPECT_TRUE(Contains(peer.registry.NonKeyMeasureNames(), "coverage"));
  EXPECT_TRUE(Contains(peer.registry.NonKeyMeasureNames(), "entropy"));
  EXPECT_TRUE(peer.registry.HasKeyMeasure("coverage"));
  EXPECT_FALSE(peer.registry.HasKeyMeasure("entropy"));  // non-key only
}

TEST(ScoringRegistryTest, BuiltInScorersMatchTheDirectFunctions) {
  ScoringRegistryTestPeer peer;
  const EntityGraph graph = BuildPaperExampleGraph();
  const SchemaGraph schema = SchemaGraph::FromEntityGraph(graph);
  const ScoringContext context{schema, &graph, RandomWalkOptions{}};

  auto coverage = peer.registry.FindKeyMeasure("coverage");
  ASSERT_TRUE(coverage.ok());
  const auto scores = (*coverage)(context);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(*scores, ComputeKeyCoverage(schema));

  auto entropy = peer.registry.FindNonKeyMeasure("entropy");
  ASSERT_TRUE(entropy.ok());
  const auto nonkey = (*entropy)(context);
  ASSERT_TRUE(nonkey.ok());
  const auto direct = ComputeNonKeyEntropy(graph, schema);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(nonkey->outgoing, direct->outgoing);
  EXPECT_EQ(nonkey->incoming, direct->incoming);
}

TEST(ScoringRegistryTest, EntropyWithoutTheDataGraphFails) {
  ScoringRegistryTestPeer peer;
  const SchemaGraph schema =
      SchemaGraph::FromEntityGraph(BuildPaperExampleGraph());
  const ScoringContext context{schema, nullptr, RandomWalkOptions{}};
  auto entropy = peer.registry.FindNonKeyMeasure("entropy");
  ASSERT_TRUE(entropy.ok());
  const auto scores = (*entropy)(context);
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScoringRegistryTest, LookupOfUnknownMeasureListsWhatExists) {
  ScoringRegistryTestPeer peer;
  const auto missing = peer.registry.FindKeyMeasure("pagerank");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("coverage"), std::string::npos);
  EXPECT_NE(missing.status().message().find("randomwalk"),
            std::string::npos);
}

TEST(ScoringRegistryTest, RegistrationRejectsDuplicatesAndEmpties) {
  ScoringRegistryTestPeer peer;
  const auto constant = [](const ScoringContext& context) {
    return Result<std::vector<double>>(
        std::vector<double>(context.schema.num_types(), 1.0));
  };
  EXPECT_TRUE(peer.registry.RegisterKeyMeasure("uniform", constant).ok());
  const Status duplicate =
      peer.registry.RegisterKeyMeasure("uniform", constant);
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists);
  const Status builtin =
      peer.registry.RegisterKeyMeasure("coverage", constant);
  EXPECT_EQ(builtin.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(peer.registry.RegisterKeyMeasure("", constant).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(peer.registry.RegisterKeyMeasure("x", nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(ScoringRegistryTest, GlobalRegistrationFlowsIntoPreparedSchema) {
  // Registered through the global registry, usable by name in
  // MeasureSelection — and a wrong-sized score vector is rejected.
  ASSERT_TRUE(ScoringRegistry::Global()
                  .RegisterNonKeyMeasure(
                      "registry-test-halves",
                      [](const ScoringContext& context) {
                        NonKeyScores scores;
                        scores.outgoing.assign(context.schema.num_edges(),
                                               0.5);
                        scores.incoming.assign(context.schema.num_edges(),
                                               0.5);
                        return Result<NonKeyScores>(std::move(scores));
                      })
                  .ok());
  const SchemaGraph schema =
      SchemaGraph::FromEntityGraph(BuildPaperExampleGraph());
  MeasureSelection measures;
  measures.nonkey = "registry-test-halves";
  const auto prepared = PreparedSchema::Create(schema, measures);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->measures().nonkey, "registry-test-halves");
  // Every candidate scored 0.5: the best 2-attribute table of any type
  // scores S(τ) * 1.0.
  for (TypeId t = 0; t < prepared->num_types(); ++t) {
    if (prepared->Candidates(t).size() >= 2) {
      EXPECT_DOUBLE_EQ(prepared->TableScore(t, 2),
                       prepared->KeyScore(t) * 1.0);
    }
  }

  ASSERT_TRUE(ScoringRegistry::Global()
                  .RegisterKeyMeasure(
                      "registry-test-broken",
                      [](const ScoringContext&) {
                        return Result<std::vector<double>>(
                            std::vector<double>{1.0});  // wrong size
                      })
                  .ok());
  MeasureSelection broken;
  broken.key = "registry-test-broken";
  const auto invalid = PreparedSchema::Create(schema, broken);
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kInternal);
}

TEST(ScoringRegistryTest, PreparedSchemaRejectsNegativeAndNonFiniteScores) {
  // Theorem 3's merge and Apriori's bound assume no score is negative, and
  // a NaN breaks the candidate sort: Create rejects both, naming the
  // measure and the score's subject, for key and non-key measures alike.
  const SchemaGraph schema =
      SchemaGraph::FromEntityGraph(BuildPaperExampleGraph());
  const TypeId last = static_cast<TypeId>(schema.num_types() - 1);
  const uint32_t edge = schema.num_edges() - 1;
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    const std::string suffix = bad < 0 ? "negative" : "nan";
    const std::string key_name = "registry-test-key-" + suffix;
    const std::string nonkey_name = "registry-test-nonkey-" + suffix;
    ASSERT_TRUE(ScoringRegistry::Global()
                    .RegisterKeyMeasure(
                        key_name,
                        [bad](const ScoringContext& context) {
                          std::vector<double> scores(
                              context.schema.num_types(), 1.0);
                          scores.back() = bad;
                          return Result<std::vector<double>>(scores);
                        })
                    .ok());
    ASSERT_TRUE(ScoringRegistry::Global()
                    .RegisterNonKeyMeasure(
                        nonkey_name,
                        [bad](const ScoringContext& context) {
                          NonKeyScores scores;
                          scores.outgoing.assign(context.schema.num_edges(),
                                                 1.0);
                          scores.incoming.assign(context.schema.num_edges(),
                                                 1.0);
                          scores.incoming.back() = bad;
                          return Result<NonKeyScores>(std::move(scores));
                        })
                    .ok());
    const std::string printed = bad < 0 ? "-1" : "nan";

    MeasureSelection as_key;
    as_key.key = key_name;
    const auto key = PreparedSchema::Create(schema, as_key);
    EXPECT_EQ(key.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(key.status().message(),
              "key measure '" + key_name + "' returned " + printed +
                  " for type '" + schema.TypeName(last) +
                  "'; scores must be finite and non-negative");

    MeasureSelection as_nonkey;
    as_nonkey.nonkey = nonkey_name;
    const auto nonkey = PreparedSchema::Create(schema, as_nonkey);
    EXPECT_EQ(nonkey.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(nonkey.status().message(),
              "non-key measure '" + nonkey_name + "' returned " + printed +
                  " for schema edge " + std::to_string(edge) +
                  " (in); scores must be finite and non-negative");
  }
}

}  // namespace
}  // namespace egp
