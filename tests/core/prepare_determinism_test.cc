// Determinism regression: a PreparedSchema built on a thread pool must be
// bit-identical to the serial golden — key scores, non-key scores, the Γτ
// candidate ordering and prefix sums, and the distance matrix — at every
// parallelism. The parallel pipeline statically partitions index ranges
// and each job writes its own slot with a fixed-order accumulation, so
// nothing here is allowed to depend on scheduling. Runs under the TSan
// build like every suite (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/strings.h"
#include "core/candidates.h"
#include "core/key_scoring.h"
#include "datagen/generator.h"
#include "service/engine.h"
#include "tests/testing/random_schema.h"

namespace egp {
namespace {

/// Bit-exact comparison of every score surface of two prepared schemas.
void ExpectBitIdentical(const PreparedSchema& golden,
                        const PreparedSchema& built, unsigned threads) {
  const size_t num_types = golden.schema().num_types();
  ASSERT_EQ(built.schema().num_types(), num_types);
  for (TypeId t = 0; t < num_types; ++t) {
    // EXPECT_EQ on doubles is exact, which is the point.
    EXPECT_EQ(golden.KeyScore(t), built.KeyScore(t))
        << "key score of type " << t << " at " << threads << " threads";
    const TypeCandidates& a = golden.Candidates(t);
    const TypeCandidates& b = built.Candidates(t);
    ASSERT_EQ(a.sorted.size(), b.sorted.size()) << "Γτ size of type " << t;
    for (size_t i = 0; i < a.sorted.size(); ++i) {
      EXPECT_EQ(a.sorted[i].schema_edge, b.sorted[i].schema_edge)
          << "Γτ order of type " << t << " slot " << i << " at " << threads
          << " threads";
      EXPECT_EQ(a.sorted[i].direction, b.sorted[i].direction)
          << "Γτ direction of type " << t << " slot " << i;
      EXPECT_EQ(a.sorted[i].score, b.sorted[i].score)
          << "non-key score of type " << t << " slot " << i << " at "
          << threads << " threads";
    }
    ASSERT_EQ(a.prefix.size(), b.prefix.size());
    for (size_t i = 0; i < a.prefix.size(); ++i) {
      EXPECT_EQ(a.prefix[i], b.prefix[i])
          << "prefix sum of type " << t << " slot " << i;
    }
    for (TypeId u = 0; u < num_types; ++u) {
      EXPECT_EQ(golden.distances().Distance(t, u),
                built.distances().Distance(t, u))
          << "distance " << t << "→" << u << " at " << threads << " threads";
    }
  }
}

void CheckAllParallelisms(const SchemaGraph& schema,
                          const MeasureSelection& measures,
                          const EntityGraph* graph) {
  auto golden = PreparedSchema::Create(schema, measures, graph);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    auto built = PreparedSchema::Create(schema, measures, graph, &pool);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ExpectBitIdentical(*golden, *built, threads);
  }
}

/// Engine-built preparations, at 1 and 4 threads, for selections that
/// share `measures.nonkey` and differ in smoothing: every build after the
/// first assembles the memoized non-key part, and each must equal a fresh
/// Create bit for bit. `make_engine` builds an engine over the schema (and
/// graph) under test.
template <typename MakeEngine>
void CheckEngineBuilds(const SchemaGraph& schema, MeasureSelection measures,
                       const EntityGraph* graph, MakeEngine&& make_engine) {
  for (unsigned threads : {1u, 4u}) {
    EngineOptions options;
    options.threads = threads;
    const Engine engine = make_engine(options);
    std::shared_ptr<const PreparedSchema> first;
    for (int i = 0; i < 4; ++i) {
      measures.walk.smoothing = 1e-5 * (1 + i);
      auto fresh = PreparedSchema::Create(schema, measures, graph);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      auto built = engine.Prepared(measures);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      SCOPED_TRACE(StrFormat("engine build %d", i));
      ExpectBitIdentical(*fresh, **built, threads);
      if (i == 0) {
        first = *built;
        continue;
      }
      EXPECT_EQ((*built)->timings().nonkey_seconds, 0.0);  // a memo hit
      if (schema.num_types() > 0) {
        EXPECT_EQ(&(*built)->Candidates(0), &first->Candidates(0));
      }
    }
  }
}

TEST(PrepareDeterminismTest, RandomSchemasCoverageAndRandomWalk) {
  for (uint64_t seed : {7u, 21u, 98u}) {
    const SchemaGraph schema =
        testing_util::RandomSchemaGraph(seed, 60, 240);
    for (const char* key : {"coverage", "randomwalk"}) {
      MeasureSelection measures;
      measures.key = key;
      measures.nonkey = "coverage";
      SCOPED_TRACE(std::string("seed ") + std::to_string(seed) + " key " +
                   key);
      CheckAllParallelisms(schema, measures, nullptr);
      CheckEngineBuilds(schema, measures, nullptr,
                        [&schema](const EngineOptions& options) {
                          return Engine::FromSchema(schema, options);
                        });
    }
  }
}

TEST(PrepareDeterminismTest, GeneratedDomainWithEntropy) {
  // The entropy measure exercises the FrozenGraph CSR path end to end.
  GeneratorOptions options;
  options.scale = 0.002;
  for (const char* domain_name : {"tv", "basketball"}) {
    auto domain = GenerateDomainByName(domain_name, options);
    ASSERT_TRUE(domain.ok()) << domain.status().ToString();
    MeasureSelection measures;
    measures.key = "randomwalk";
    measures.nonkey = "entropy";
    SCOPED_TRACE(domain_name);
    CheckAllParallelisms(domain->schema, measures, &domain->graph);
    CheckEngineBuilds(domain->schema, measures, &domain->graph,
                      [&domain](const EngineOptions& engine_options) {
                        return Engine::FromGraph(domain->graph,
                                                 engine_options);
                      });
  }
}

TEST(PrepareDeterminismTest, RepeatedParallelBuildsAreStable) {
  // Same pool, several builds: results must not drift run to run.
  const SchemaGraph schema = testing_util::RandomSchemaGraph(5, 40, 160);
  MeasureSelection measures;
  measures.key = "randomwalk";
  ThreadPool pool(8);
  auto first = PreparedSchema::Create(schema, measures, nullptr, &pool);
  ASSERT_TRUE(first.ok());
  for (int round = 0; round < 3; ++round) {
    auto again = PreparedSchema::Create(schema, measures, nullptr, &pool);
    ASSERT_TRUE(again.ok());
    ExpectBitIdentical(*first, *again, 8);
  }
}

TEST(PrepareDeterminismTest, SparseWalkMatchesDenseSemantics) {
  // The CSR walk replaced a dense-matrix implementation; its stationary
  // distribution must still be a probability vector with the same
  // qualitative structure on random schemas (exact values are covered by
  // key_scoring_test's worked examples).
  for (uint64_t seed : {3u, 11u}) {
    const SchemaGraph schema = testing_util::RandomSchemaGraph(seed, 50, 200);
    const std::vector<double> pi = ComputeKeyRandomWalk(schema).value();
    ASSERT_EQ(pi.size(), schema.num_types());
    double total = 0.0;
    for (double p : pi) {
      EXPECT_GT(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace egp
