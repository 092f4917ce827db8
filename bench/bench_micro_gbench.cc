// google-benchmark microbenchmarks of the core primitives: schema
// preparation, scoring, all-pairs distances and the three discovery
// algorithms, on the exact-size paper schemas; and the response encode
// of a sampled preview.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/apriori.h"
#include "core/beam_search.h"
#include "core/brute_force.h"
#include "core/compose.h"
#include "core/dynamic_programming.h"
#include "core/frontier.h"
#include "graph/frozen_graph.h"
#include "graph/schema_distance.h"
#include "server/api.h"
#include "service/engine.h"

namespace {

using namespace egp;

const GeneratedDomain& MusicDomain() { return bench::Domain("music"); }

PreparedSchema PreparedMusic() {
  auto prepared =
      PreparedSchema::Create(MusicDomain().schema, {}, &MusicDomain().graph);
  EGP_CHECK(prepared.ok());
  return std::move(prepared).value();
}

void BM_SchemaDerivation(benchmark::State& state) {
  const GeneratedDomain& domain = MusicDomain();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SchemaGraph::FromEntityGraph(domain.graph));
  }
}
BENCHMARK(BM_SchemaDerivation);

void BM_PrepareCoverage(benchmark::State& state) {
  for (auto _ : state) {
    auto prepared = PreparedSchema::Create(MusicDomain().schema);
    benchmark::DoNotOptimize(prepared);
  }
}
BENCHMARK(BM_PrepareCoverage);

void BM_PrepareRandomWalk(benchmark::State& state) {
  MeasureSelection measures;
  measures.key = "randomwalk";
  for (auto _ : state) {
    auto prepared = PreparedSchema::Create(MusicDomain().schema, measures);
    benchmark::DoNotOptimize(prepared);
  }
}
BENCHMARK(BM_PrepareRandomWalk);

void BM_PrepareEntropy(benchmark::State& state) {
  MeasureSelection measures;
  measures.nonkey = "entropy";
  for (auto _ : state) {
    auto prepared = PreparedSchema::Create(MusicDomain().schema, measures,
                                           &MusicDomain().graph);
    benchmark::DoNotOptimize(prepared);
  }
}
BENCHMARK(BM_PrepareEntropy);

void BM_AllPairsDistances(benchmark::State& state) {
  for (auto _ : state) {
    SchemaDistanceMatrix dist(MusicDomain().schema);
    benchmark::DoNotOptimize(dist.Diameter());
  }
}
BENCHMARK(BM_AllPairsDistances);

void BM_DynamicProgramming(benchmark::State& state) {
  const PreparedSchema prepared = PreparedMusic();
  const SizeConstraint size{static_cast<uint32_t>(state.range(0)), 20};
  for (auto _ : state) {
    auto preview = DynamicProgrammingDiscover(prepared, size);
    benchmark::DoNotOptimize(preview);
  }
}
BENCHMARK(BM_DynamicProgramming)->Arg(3)->Arg(6)->Arg(9);

// Both walks over the same L_k: the pruned one (exhaustive=0, what the
// server runs) and Alg. 3's (exhaustive=1).
void BM_AprioriTight(benchmark::State& state) {
  const PreparedSchema prepared = PreparedMusic();
  const SizeConstraint size{static_cast<uint32_t>(state.range(0)), 20};
  AprioriOptions options;
  options.walk =
      state.range(1) != 0 ? AprioriWalk::kExhaustive : AprioriWalk::kPruned;
  for (auto _ : state) {
    auto preview = AprioriDiscover(prepared, size,
                                   DistanceConstraint::Tight(2), options);
    benchmark::DoNotOptimize(preview);
  }
}
BENCHMARK(BM_AprioriTight)
    ->ArgNames({"k", "exhaustive"})
    ->ArgsProduct({{3, 5}, {0, 1}});

// Diverse d=4 at n = k + 3, the Apriori shape discover_music sends most,
// on both walks.
void BM_AprioriDiverse(benchmark::State& state) {
  const PreparedSchema prepared = PreparedMusic();
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  const SizeConstraint size{k, k + 3};
  AprioriOptions options;
  options.walk =
      state.range(1) != 0 ? AprioriWalk::kExhaustive : AprioriWalk::kPruned;
  for (auto _ : state) {
    auto preview = AprioriDiscover(prepared, size,
                                   DistanceConstraint::Diverse(4), options);
    benchmark::DoNotOptimize(preview);
  }
}
BENCHMARK(BM_AprioriDiverse)
    ->ArgNames({"k", "exhaustive"})
    ->ArgsProduct({{5, 6}, {0, 1}});

void BM_BeamConcise(benchmark::State& state) {
  const PreparedSchema prepared = PreparedMusic();
  const SizeConstraint size{static_cast<uint32_t>(state.range(0)), 20};
  for (auto _ : state) {
    auto preview =
        BeamSearchDiscover(prepared, size, DistanceConstraint::None());
    benchmark::DoNotOptimize(preview);
  }
}
BENCHMARK(BM_BeamConcise)->Arg(3)->Arg(6);

void BM_BruteForceSmallK(benchmark::State& state) {
  const PreparedSchema prepared = PreparedMusic();
  const SizeConstraint size{static_cast<uint32_t>(state.range(0)), 10};
  for (auto _ : state) {
    auto preview =
        BruteForceDiscover(prepared, size, DistanceConstraint::None());
    benchmark::DoNotOptimize(preview);
  }
}
BENCHMARK(BM_BruteForceSmallK)->Arg(2)->Arg(3);

void BM_ScoreFrontier(benchmark::State& state) {
  const PreparedSchema prepared = PreparedMusic();
  const uint32_t max_k = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    auto frontier = ComputeScoreFrontier(prepared, max_k, 2 * max_k);
    benchmark::DoNotOptimize(frontier);
  }
}
BENCHMARK(BM_ScoreFrontier)->Arg(5)->Arg(10);

void BM_NeighborScanFrozenGraph(benchmark::State& state) {
  const FrozenGraph& frozen = MusicDomain().graph.adjacency();
  const RelTypeId rel = 0;
  for (auto _ : state) {
    size_t total = 0;
    for (EntityId e = 0; e < frozen.num_entities(); e += 13) {
      total += frozen.NeighborSet(e, rel, Direction::kOutgoing).size();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_NeighborScanFrozenGraph);

void BM_ComposePreviewScore(benchmark::State& state) {
  const PreparedSchema prepared = PreparedMusic();
  std::vector<TypeId> keys;
  for (TypeId t = 0; t < prepared.num_types() && keys.size() < 6; ++t) {
    if (prepared.Eligible(t)) keys.push_back(t);
  }
  SubsetScorer scorer(prepared, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.Score(keys));
  }
}
BENCHMARK(BM_ComposePreviewScore);

// The /v1/preview body of a sampled preview, encoded as the server
// encodes it (PreviewResponseToJson), on basketball at the serving
// benchmark's scale (1.0): k=4, n=8, with `rows` rows per table, over 16
// sample seeds so each pass reads a spread of names. Bytes processed are
// the bodies' bytes.
void BM_EncodeSampledPreview(benchmark::State& state) {
  static const Engine* const engine = [] {
    GeneratorOptions options;
    options.scale = 1.0;
    auto domain = GenerateDomainByName("basketball", options);
    EGP_CHECK(domain.ok()) << domain.status().ToString();
    return new Engine(Engine::FromGraph(std::move(domain->graph)));
  }();
  std::vector<PreviewResponse> responses;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    PreviewRequest request;
    request.size = {4, 8};
    request.sample_rows = static_cast<size_t>(state.range(0));
    request.sample_seed = seed;
    auto response = engine->Preview(request);
    EGP_CHECK(response.ok()) << response.status().ToString();
    responses.push_back(std::move(response).value());
  }
  const std::string dataset = "basketball";
  int64_t bytes = 0;
  for (auto _ : state) {
    for (const PreviewResponse& response : responses) {
      std::string body = PreviewResponseToJson(*engine, dataset, response,
                                               /*include_materialized=*/true);
      bytes += static_cast<int64_t>(body.size());
      benchmark::DoNotOptimize(body.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_EncodeSampledPreview)->ArgName("rows")->Arg(5)->Arg(50);

}  // namespace

BENCHMARK_MAIN();
