// Engine concurrency: many threads issuing mixed requests against one
// Engine must produce exactly the results the single-threaded internal
// layer (PreparedSchema::Create + the per-algorithm functions) produces,
// with no data races. Run under ASan/UBSan in the sanitize CI job and under
// ThreadSanitizer in the tsan job (EGP_SANITIZE=thread).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/apriori.h"
#include "core/beam_search.h"
#include "core/dynamic_programming.h"
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

}  // namespace
}  // namespace egp
