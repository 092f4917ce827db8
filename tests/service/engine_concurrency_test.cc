// Engine concurrency: many threads issuing mixed requests against one
// Engine must produce exactly the results the single-threaded internal
// layer (PreparedSchema::Create + the per-algorithm functions) produces,
// with no data races. Run under ASan/UBSan in the sanitize CI job and under
// ThreadSanitizer in the tsan job (EGP_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/apriori.h"
#include "core/beam_search.h"
#include "core/dynamic_programming.h"
#include "core/key_scoring.h"
#include "core/nonkey_scoring.h"
#include "datagen/generator.h"
#include "datagen/paper_example.h"
#include "service/engine.h"

namespace egp {
namespace {

struct RequestCase {
  PreviewRequest request;
  double golden_score = 0.0;
  std::string label;
};

/// Computes the golden score for one request the single-threaded way,
/// calling the algorithm the request names directly, so the oracle does
/// not share the Engine's dispatch.
double GoldenScore(const EntityGraph& graph, const PreviewRequest& request) {
  auto prepared = PreparedSchema::Create(SchemaGraph::FromEntityGraph(graph),
                                         request.measures, &graph);
  EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
  Result<Preview> preview = Status::Internal("unset");
  if (request.algorithm == "bf") {
    preview = BruteForceDiscover(*prepared, request.size, request.distance);
  } else if (request.algorithm == "beam") {
    preview = BeamSearchDiscover(*prepared, request.size, request.distance);
  } else if (request.distance.mode == DistanceMode::kNone) {  // "auto"
    preview = DynamicProgrammingDiscover(*prepared, request.size);
  } else {
    preview = AprioriDiscover(*prepared, request.size, request.distance);
  }
  EXPECT_TRUE(preview.ok()) << preview.status().ToString();
  return preview->Score(*prepared);
}

/// The mixed request matrix: sizes × distance constraints × measures ×
/// algorithms, all combinations that are valid on the paper example.
std::vector<RequestCase> BuildCases(const EntityGraph& graph) {
  std::vector<RequestCase> cases;
  const std::pair<const char*, const char*> measure_pairs[] = {
      {"coverage", "coverage"},
      {"randomwalk", "coverage"},
      {"coverage", "entropy"},
      {"randomwalk", "entropy"},
  };
  for (const auto& [km, nm] : measure_pairs) {
    for (const SizeConstraint size :
         {SizeConstraint{2, 6}, SizeConstraint{3, 7}}) {
      for (const DistanceConstraint distance :
           {DistanceConstraint::None(), DistanceConstraint::Tight(2),
            DistanceConstraint::Diverse(2)}) {
        for (const char* algorithm : {"auto", "bf", "beam"}) {
          RequestCase c;
          c.request.size = size;
          c.request.distance = distance;
          c.request.measures.key = km;
          c.request.measures.nonkey = nm;
          c.request.algorithm = algorithm;
          c.golden_score = GoldenScore(graph, c.request);
          c.label = std::string(km) + "/" + nm + " k" +
                    std::to_string(size.k) + "n" + std::to_string(size.n) +
                    " d" + std::to_string(static_cast<int>(distance.mode)) +
                    " " + algorithm;
          cases.push_back(std::move(c));
        }
      }
    }
  }
  return cases;
}

TEST(EngineConcurrencyTest, MixedRequestsMatchSingleThreadedGoldens) {
  const EntityGraph graph = BuildPaperExampleGraph();
  const std::vector<RequestCase> cases = BuildCases(graph);
  ASSERT_FALSE(cases.empty());

  const Engine engine = Engine::FromGraph(BuildPaperExampleGraph());
  constexpr int kThreads = 8;
  constexpr int kRounds = 5;

  // Threads collect their own failures; asserting happens after join so
  // the test body stays free of cross-thread GoogleTest state.
  std::vector<std::vector<std::string>> failures(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Each thread walks the case list from its own offset so the
        // interleaving differs across threads.
        for (size_t i = 0; i < cases.size(); ++i) {
          const RequestCase& c =
              cases[(i + static_cast<size_t>(t) * 7) % cases.size()];
          const auto response = engine.Preview(c.request);
          if (!response.ok()) {
            failures[t].push_back(c.label + ": " +
                                  response.status().ToString());
            continue;
          }
          if (response->score != c.golden_score) {
            failures[t].push_back(
                c.label + ": score " + std::to_string(response->score) +
                " != golden " + std::to_string(c.golden_score));
          }
          const Status valid =
              ValidatePreview(response->preview, *response->prepared,
                              response->size, response->distance);
          if (!valid.ok()) {
            failures[t].push_back(c.label + ": " + valid.ToString());
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (const std::string& failure : failures[t]) {
      ADD_FAILURE() << "thread " << t << ": " << failure;
    }
  }

  // Four measure configurations were in play; every other request hit.
  const Engine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits,
            static_cast<uint64_t>(kThreads) * kRounds * cases.size() -
                stats.misses);
}

TEST(EngineConcurrencyTest, ConcurrentSuggestAndPreparedAreSafe) {
  GeneratorOptions options;
  options.scale = 0.0003;
  auto domain = GenerateDomainByName("music", options);
  ASSERT_TRUE(domain.ok());
  const Engine engine = Engine::FromGraph(std::move(domain->graph));

  constexpr int kThreads = 6;
  std::vector<int> errors(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        switch ((t + i) % 3) {
          case 0: {
            DisplayBudget budget;
            budget.width_chars = 80 + 10 * (i % 4);
            if (!engine.Suggest(budget).ok()) ++errors[t];
            break;
          }
          case 1: {
            MeasureSelection measures;
            measures.key = (i % 2) == 0 ? "coverage" : "randomwalk";
            if (!engine.Prepared(measures).ok()) ++errors[t];
            break;
          }
          default: {
            PreviewRequest request;
            request.size = {2, 5};
            request.sample_rows = 2;
            request.sample_seed = static_cast<uint64_t>(i);
            if (!engine.Preview(request).ok()) ++errors[t];
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(errors[t], 0) << t;
}

// Calls to the counting non-key measure below.
std::atomic<int> counted_calls{0};

TEST(EngineConcurrencyTest, ConcurrentBuildsComputeANonKeyPartOnce) {
  // Eight first requests for eight selections (one smoothing each) that
  // share one non-key measure: one computes its non-key part, the other
  // seven wait for it. The scorer dawdles so they all arrive while it
  // runs.
  ASSERT_TRUE(ScoringRegistry::Global()
                  .RegisterNonKeyMeasure(
                      "concurrency-test-counted",
                      [](const NonKeyScoringContext& context) {
                        counted_calls.fetch_add(1);
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(50));
                        return Result<NonKeyScores>(
                            ComputeNonKeyCoverage(context.schema));
                      })
                  .ok());
  const Engine engine = Engine::FromGraph(BuildPaperExampleGraph());
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const PreparedSchema>> prepared(kThreads);
  std::vector<std::string> errors(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      MeasureSelection measures;
      measures.key = "randomwalk";
      measures.nonkey = "concurrency-test-counted";
      measures.walk.smoothing = 1e-5 * (1 + t);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      auto result = engine.Prepared(measures);
      if (result.ok()) {
        prepared[t] = std::move(result).value();
      } else {
        errors[t] = result.status().ToString();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(errors[t].empty()) << "thread " << t << ": " << errors[t];
  }
  EXPECT_EQ(counted_calls.load(), 1);
  EXPECT_EQ(engine.cache_stats().entries, static_cast<size_t>(kThreads));
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(&prepared[t]->Candidates(0), &prepared[0]->Candidates(0)) << t;
  }
}

// Calls to the key measure below, which sleeps and then throws on its
// first call.
std::atomic<int> sleepy_throw_calls{0};

// What that measure throws. Every waiter catches the one exception object
// the build stored, so it carries no state for them to read: libstdc++'s
// exception reference count is not instrumented, and ThreadSanitizer
// would report a read of a shared message against the last catcher's
// free.
struct ScorerThrew {};

TEST(EngineConcurrencyTest, WaitersOnAThrownBuildGetItsException) {
  // Eight first requests for one selection: one builds and its scorer
  // throws while the rest wait. Each thread gets either the scorer's
  // exception (it waited on that build) or a preview (it came after the
  // failed entry was erased), never a broken promise.
  ASSERT_TRUE(ScoringRegistry::Global()
                  .RegisterKeyMeasure(
                      "concurrency-test-throws-once",
                      [](const ScoringContext& context)
                          -> Result<std::vector<double>> {
                        if (sleepy_throw_calls.fetch_add(1) == 0) {
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(50));
                          throw ScorerThrew{};
                        }
                        return ComputeKeyCoverage(context.schema);
                      })
                  .ok());
  const Engine engine = Engine::FromGraph(BuildPaperExampleGraph());
  PreviewRequest request;
  request.size = {2, 6};
  request.measures.key = "concurrency-test-throws-once";
  constexpr int kThreads = 8;
  std::vector<std::string> outcomes(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      try {
        const auto response = engine.Preview(request);
        outcomes[t] = response.ok() ? "served" : response.status().ToString();
      } catch (const ScorerThrew&) {
        outcomes[t] = "scorer threw";
      } catch (const std::future_error& e) {
        outcomes[t] = std::string("future_error: ") + e.what();
      } catch (...) {
        outcomes[t] = "another exception";
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  int threw = 0;
  for (int t = 0; t < kThreads; ++t) {
    if (outcomes[t] == "scorer threw") {
      ++threw;
    } else {
      EXPECT_EQ(outcomes[t], "served") << "thread " << t;
    }
  }
  EXPECT_GE(threw, 1);  // at least the thread that built
  Result<PreviewResponse> again = Status::Internal("unset");
  EXPECT_NO_THROW(again = engine.Preview(request));
  EXPECT_TRUE(again.ok()) << again.status().ToString();
}

// The key measure below holds its first call until released, then fails
// it with an error; later calls succeed at once.
std::atomic<int> held_calls{0};
std::atomic<bool> release_held_call{false};

TEST(EngineConcurrencyTest, AFailedBuildKeepsTheEntryInsertedAfterItsEviction) {
  // With capacity 1, a held build is evicted and its selection inserted
  // and built again. When the held build then fails, it must erase only
  // its own insert: the entry built after it stays ready.
  ASSERT_TRUE(ScoringRegistry::Global()
                  .RegisterKeyMeasure(
                      "concurrency-test-held",
                      [](const ScoringContext& context)
                          -> Result<std::vector<double>> {
                        if (held_calls.fetch_add(1) == 0) {
                          while (!release_held_call.load()) {
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(1));
                          }
                          return Status::Unavailable("held call fails");
                        }
                        return ComputeKeyCoverage(context.schema);
                      })
                  .ok());
  EngineOptions options;
  options.prepared_cache_capacity = 1;
  const Engine engine = Engine::FromGraph(BuildPaperExampleGraph(), options);
  MeasureSelection held;
  held.key = "concurrency-test-held";
  Result<std::shared_ptr<const PreparedSchema>> first =
      Status::Internal("unset");
  std::thread builder([&] { first = engine.Prepared(held); });
  while (held_calls.load() == 0) std::this_thread::yield();

  // Non-fatal checks until the held call is released and joined.
  EXPECT_TRUE(engine.Prepared(MeasureSelection{}).ok());  // evicts it
  EXPECT_EQ(engine.cache_stats().evictions, 1u);
  EXPECT_TRUE(engine.Prepared(held).ok());  // inserted and built again
  EXPECT_EQ(engine.cache_stats().evictions, 2u);
  release_held_call.store(true);
  builder.join();
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);

  EXPECT_TRUE(engine.IsPrepared(held));
  const std::vector<Engine::CacheEntryInfo> entries = engine.cache_entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].ready);
  const uint64_t hits = engine.cache_stats().hits;
  ASSERT_TRUE(engine.Prepared(held).ok());
  EXPECT_EQ(engine.cache_stats().hits, hits + 1);
  EXPECT_EQ(held_calls.load(), 2);
}

}  // namespace
}  // namespace egp
