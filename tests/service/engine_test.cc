// egp::Engine request/response behaviour: constraint resolution, measure
// selection by name, algorithm dispatch, prepared-state memoization, and
// the schema-only serving mode.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datagen/paper_example.h"
#include "io/ntriples.h"
#include "service/engine.h"

#ifndef EGP_SAMPLE_NT
#error "EGP_SAMPLE_NT must be defined by the build"
#endif

namespace egp {
namespace {

Engine PaperEngine() { return Engine::FromGraph(BuildPaperExampleGraph()); }

TEST(EngineTest, ServesThePaperExample) {
  const Engine engine = PaperEngine();
  PreviewRequest request;
  request.size = {2, 6};
  request.sample_rows = 4;
  const auto response = engine.Preview(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_DOUBLE_EQ(response->score, 84.0);  // §4's worked optimum
  EXPECT_EQ(response->algorithm, "dp");     // auto resolves to DP (concise)
  EXPECT_EQ(response->size.k, 2u);
  EXPECT_EQ(response->size.n, 6u);
  EXPECT_TRUE(response->rationale.empty());
  ASSERT_NE(response->prepared, nullptr);
  EXPECT_TRUE(ValidatePreview(response->preview, *response->prepared,
                              response->size, response->distance)
                  .ok());
  EXPECT_EQ(response->materialized.tables.size(),
            response->preview.tables.size());
  EXPECT_GE(response->prepare_seconds, 0.0);
  EXPECT_GE(response->discover_seconds, 0.0);
}

TEST(EngineTest, SampleRowsZeroSkipsMaterialization) {
  const Engine engine = PaperEngine();
  PreviewRequest request;
  request.size = {2, 6};
  const auto response = engine.Preview(request);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->materialized.tables.empty());
  EXPECT_EQ(response->sample_seconds, 0.0);
}

TEST(EngineTest, SecondRequestWithSameMeasuresSkipsRescoring) {
  // The acceptance shape of the memoization: same measure configuration,
  // different (k, n) — the expensive scored-candidate state is reused.
  const Engine engine = PaperEngine();
  PreviewRequest first;
  first.size = {2, 6};
  const auto a = engine.Preview(first);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(a->prepared_cache_hit);

  PreviewRequest second;
  second.size = {3, 4};
  second.distance = DistanceConstraint::Tight(2);
  const auto b = engine.Preview(second);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->prepared_cache_hit);
  EXPECT_EQ(a->prepared.get(), b->prepared.get());  // literally shared

  const Engine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(EngineTest, DifferentMeasureConfigurationsGetOwnEntries) {
  const Engine engine = PaperEngine();
  PreviewRequest request;
  request.size = {2, 6};
  ASSERT_TRUE(engine.Preview(request).ok());
  request.measures.key = "randomwalk";
  const auto rw = engine.Preview(request);
  ASSERT_TRUE(rw.ok());
  EXPECT_FALSE(rw->prepared_cache_hit);
  // Same measure name but different walk parameters is a different
  // configuration as well.
  request.measures.walk.smoothing = 1e-3;
  const auto smoothed = engine.Preview(request);
  ASSERT_TRUE(smoothed.ok());
  EXPECT_FALSE(smoothed->prepared_cache_hit);
  EXPECT_EQ(engine.cache_stats().entries, 3u);
}

TEST(EngineTest, CacheCapacityEvictsLeastRecentlyUsed) {
  EngineOptions options;
  options.prepared_cache_capacity = 2;
  const Engine engine =
      Engine::FromGraph(BuildPaperExampleGraph(), options);
  PreviewRequest a;
  a.size = {2, 6};
  PreviewRequest b = a;
  b.measures.key = "randomwalk";
  PreviewRequest c = a;
  c.measures.nonkey = "entropy";

  ASSERT_TRUE(engine.Preview(a).ok());
  ASSERT_TRUE(engine.Preview(b).ok());
  EXPECT_EQ(engine.cache_stats().evictions, 0u);  // still within capacity
  ASSERT_TRUE(engine.Preview(a).ok());  // touch a: b is now the LRU
  ASSERT_TRUE(engine.Preview(c).ok());  // at capacity: evicts b
  EXPECT_EQ(engine.cache_stats().entries, 2u);
  EXPECT_EQ(engine.cache_stats().evictions, 1u);

  const auto a_again = engine.Preview(a);
  ASSERT_TRUE(a_again.ok());
  EXPECT_TRUE(a_again->prepared_cache_hit);  // a survived
  const auto b_again = engine.Preview(b);
  ASSERT_TRUE(b_again.ok());
  EXPECT_FALSE(b_again->prepared_cache_hit);  // b was evicted, rebuilt
  EXPECT_EQ(engine.cache_stats().evictions, 2u);  // rebuilding b evicted a|c

  // The counters reconcile: every miss either sits in the cache, was
  // LRU-evicted, or was a failure drop (none here).
  const Engine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, stats.entries + stats.evictions);
}

TEST(EngineTest, FailedPreparationsAreNotCached) {
  const Engine engine = Engine::FromSchema(
      SchemaGraph::FromEntityGraph(BuildPaperExampleGraph()));
  PreviewRequest entropy;
  entropy.size = {2, 6};
  entropy.measures.nonkey = "entropy";  // needs the data graph: fails
  ASSERT_FALSE(engine.Preview(entropy).ok());
  EXPECT_EQ(engine.cache_stats().entries, 0u);  // the failure was dropped
}

TEST(EngineTest, NearEqualWalkParametersDoNotAlias) {
  const Engine engine = PaperEngine();
  PreviewRequest request;
  request.size = {2, 6};
  request.measures.key = "randomwalk";
  request.measures.walk.tolerance = 1e-12;
  ASSERT_TRUE(engine.Preview(request).ok());
  // Sub-1e-6 differences must be distinct cache entries, not hits on
  // state built under the other tolerance.
  request.measures.walk.tolerance = 1e-7;
  const auto response = engine.Preview(request);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->prepared_cache_hit);
}

TEST(EngineTest, CopiedEngineSharesSnapshotAndCache) {
  const Engine engine = PaperEngine();
  const Engine copy = engine;
  PreviewRequest request;
  request.size = {2, 6};
  ASSERT_TRUE(engine.Preview(request).ok());
  const auto through_copy = copy.Preview(request);
  ASSERT_TRUE(through_copy.ok());
  EXPECT_TRUE(through_copy->prepared_cache_hit);
  EXPECT_EQ(copy.graph(), engine.graph());
}

TEST(EngineTest, BudgetRequestsRunTheAdvisor) {
  const Engine engine = PaperEngine();
  // A two-table display: small enough that the suggested tight
  // constraint is feasible on the paper's star-shaped schema.
  DisplayBudget budget;
  budget.height_rows = 14;
  PreviewRequest request;
  request.size = {999, 999};  // ignored: the budget decides
  request.budget = budget;
  const auto response = engine.Preview(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->rationale.empty());
  EXPECT_GT(response->size.k, 0u);
  EXPECT_LT(response->size.k, 999u);
  EXPECT_EQ(response->distance.mode, DistanceMode::kNone);

  const auto suggestion = engine.Suggest(budget);
  ASSERT_TRUE(suggestion.ok());
  EXPECT_EQ(response->size.k, suggestion->size.k);
  EXPECT_EQ(response->size.n, suggestion->size.n);
  EXPECT_EQ(response->rationale, suggestion->rationale);

  PreviewRequest tight = request;
  tight.suggested_distance = DistanceMode::kTight;
  const auto tight_response = engine.Preview(tight);
  ASSERT_TRUE(tight_response.ok());
  EXPECT_EQ(tight_response->distance.mode, DistanceMode::kTight);
  EXPECT_EQ(tight_response->distance.d, suggestion->tight_d);
}

TEST(EngineTest, UnknownMeasureNameFails) {
  const Engine engine = PaperEngine();
  PreviewRequest request;
  request.measures.key = "pagerank";
  const auto response = engine.Preview(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
  EXPECT_NE(response.status().message().find("randomwalk"),
            std::string::npos);  // the error lists what exists
}

TEST(EngineTest, UnknownAlgorithmNameFails) {
  const Engine engine = PaperEngine();
  PreviewRequest request;
  request.algorithm = "quantum";
  const auto response = engine.Preview(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, DpRejectsDistanceConstraints) {
  const Engine engine = PaperEngine();
  PreviewRequest request;
  request.size = {2, 6};
  request.distance = DistanceConstraint::Tight(1);
  request.algorithm = "dp";
  const auto response = engine.Preview(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, AllAlgorithmsServeAndAgreeOnTheOptimum) {
  const Engine engine = PaperEngine();
  for (const char* algo : {"auto", "bf", "dp", "apriori", "beam"}) {
    PreviewRequest request;
    request.size = {2, 6};
    request.algorithm = algo;
    const auto response = engine.Preview(request);
    ASSERT_TRUE(response.ok()) << algo;
    // The schema is tiny; even the approximate beam finds the optimum.
    EXPECT_DOUBLE_EQ(response->score, 84.0) << algo;
  }
}

TEST(EngineTest, SchemaOnlyEngineServesSchemaLevelRequests) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const Engine engine = Engine::FromSchema(SchemaGraph::FromEntityGraph(graph));
  EXPECT_EQ(engine.graph(), nullptr);

  PreviewRequest request;
  request.size = {2, 6};
  const auto response = engine.Preview(request);
  ASSERT_TRUE(response.ok());
  EXPECT_DOUBLE_EQ(response->score, 84.0);

  PreviewRequest entropy = request;
  entropy.measures.nonkey = "entropy";
  EXPECT_FALSE(engine.Preview(entropy).ok());  // needs the data graph

  PreviewRequest sampled = request;
  sampled.sample_rows = 3;
  const auto sampled_response = engine.Preview(sampled);
  ASSERT_FALSE(sampled_response.ok());
  EXPECT_EQ(sampled_response.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, UserRegisteredMeasureServesEndToEnd) {
  // A degree-style custom key measure registered at runtime is selectable
  // by name like the built-ins, engine-side caching included.
  ASSERT_TRUE(ScoringRegistry::Global()
                  .RegisterKeyMeasure(
                      "engine-test-degree",
                      [](const ScoringContext& context) {
                        std::vector<double> scores(
                            context.schema.num_types(), 0.0);
                        for (TypeId t = 0; t < context.schema.num_types();
                             ++t) {
                          for (const uint32_t e :
                               context.schema.IncidentEdges(t)) {
                            scores[t] +=
                                context.schema.Edge(e).edge_count;
                          }
                        }
                        return Result<std::vector<double>>(
                            std::move(scores));
                      })
                  .ok());
  const Engine engine = PaperEngine();
  PreviewRequest request;
  request.size = {2, 6};
  request.measures.key = "engine-test-degree";
  const auto response = engine.Preview(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_GT(response->score, 0.0);
  EXPECT_TRUE(ValidatePreview(response->preview, *response->prepared,
                              response->size, response->distance)
                  .ok());
  const auto again = engine.Preview(request);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->prepared_cache_hit);
}

TEST(EngineTest, ThreadedEngineMatchesSerialEngineExactly) {
  // EngineOptions::threads trades build latency only: the served preview,
  // score, and every prepared surface must be bit-identical to a serial
  // engine's.
  EngineOptions serial_options;
  serial_options.threads = 1;
  const Engine serial =
      Engine::FromGraph(BuildPaperExampleGraph(), serial_options);
  EngineOptions threaded_options;
  threaded_options.threads = 8;
  const Engine threaded =
      Engine::FromGraph(BuildPaperExampleGraph(), threaded_options);

  PreviewRequest request;
  request.size = {2, 6};
  request.measures.key = "randomwalk";
  request.measures.nonkey = "entropy";
  const auto a = serial.Preview(request);
  const auto b = threaded.Preview(request);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->score, b->score);  // exact, not approximate
  ASSERT_EQ(a->preview.tables.size(), b->preview.tables.size());
  for (size_t i = 0; i < a->preview.tables.size(); ++i) {
    EXPECT_EQ(a->preview.tables[i].key, b->preview.tables[i].key);
  }
  for (TypeId t = 0; t < a->prepared->num_types(); ++t) {
    EXPECT_EQ(a->prepared->KeyScore(t), b->prepared->KeyScore(t));
  }
}

TEST(EngineTest, ResponseCarriesPrepareTimings) {
  const Engine engine = PaperEngine();
  PreviewRequest request;
  request.size = {2, 6};
  const auto response = engine.Preview(request);
  ASSERT_TRUE(response.ok());
  const PrepareTimings& t = response->prepare_timings;
  EXPECT_GE(t.key_seconds, 0.0);
  EXPECT_GE(t.nonkey_seconds, 0.0);
  EXPECT_GE(t.distance_seconds, 0.0);
  EXPECT_GE(t.candidate_sort_seconds, 0.0);
  // The phases are timed inside the total.
  EXPECT_GE(t.total_seconds, t.key_seconds + t.nonkey_seconds +
                                 t.distance_seconds +
                                 t.candidate_sort_seconds);
  // A cache hit reports the original build's timings, not zeros.
  const auto again = engine.Preview(request);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->prepared_cache_hit);
  EXPECT_EQ(again->prepare_timings.total_seconds, t.total_seconds);
}

// Which rows a sample seed picks is part of the response body. These are
// the rows of one fixed request on the shipped sample dataset, so a change
// to the sampler shows up here as a reviewed diff.
TEST(EngineTest, SampledRowKeysArePinned) {
  auto graph = ReadNTriplesFile(EGP_SAMPLE_NT);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  const Engine engine = Engine::FromGraph(std::move(graph).value());
  const auto row_keys = [&engine](SamplingStrategy strategy) {
    PreviewRequest request;
    request.size = {2, 4};
    request.sample_rows = 2;
    request.sample_seed = 7;
    request.sample_strategy = strategy;
    const auto response = engine.Preview(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    std::vector<std::string> tables;
    if (!response.ok()) return tables;
    for (const MaterializedTable& table : response->materialized.tables) {
      std::string keys = table.key_name + ":";
      for (const MaterializedRow& row : table.rows) {
        keys += " " + engine.graph()->EntityName(row.key);
      }
      tables.push_back(keys);
    }
    return tables;
  };
  EXPECT_EQ(row_keys(SamplingStrategy::kRandom),
            (std::vector<std::string>{"RESEARCHER: carol erin",
                                      "PAPER: p4 p5"}));
  EXPECT_EQ(row_keys(SamplingStrategy::kFrequencyWeighted),
            (std::vector<std::string>{"RESEARCHER: dave erin",
                                      "PAPER: p5 p6"}));
}

}  // namespace
}  // namespace egp
