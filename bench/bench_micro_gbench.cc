// google-benchmark microbenchmarks of the core primitives: schema
// preparation, scoring, all-pairs distances and the three discovery
// algorithms, on the exact-size paper schemas.
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

namespace {

using namespace egp;

const GeneratedDomain& MusicDomain() { return bench::Domain("music"); }

PreparedSchema PreparedMusic(KeyMeasure km = KeyMeasure::kCoverage,
                             NonKeyMeasure nm = NonKeyMeasure::kCoverage) {
  PreparedSchemaOptions options;
  options.key_measure = km;
  options.nonkey_measure = nm;
  auto prepared =
      PreparedSchema::Create(MusicDomain().schema, options,
                             &MusicDomain().graph);
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
    auto prepared = PreparedSchema::Create(MusicDomain().schema,
                                           PreparedSchemaOptions{});
    benchmark::DoNotOptimize(prepared);
  }
}
BENCHMARK(BM_PrepareCoverage);

void BM_PrepareRandomWalk(benchmark::State& state) {
  PreparedSchemaOptions options;
  options.key_measure = KeyMeasure::kRandomWalk;
  for (auto _ : state) {
    auto prepared = PreparedSchema::Create(MusicDomain().schema, options);
    benchmark::DoNotOptimize(prepared);
  }
}
BENCHMARK(BM_PrepareRandomWalk);

void BM_PrepareEntropy(benchmark::State& state) {
  PreparedSchemaOptions options;
  options.nonkey_measure = NonKeyMeasure::kEntropy;
  for (auto _ : state) {
    auto prepared = PreparedSchema::Create(MusicDomain().schema, options,
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

void BM_AprioriTight(benchmark::State& state) {
  const PreparedSchema prepared = PreparedMusic();
  const SizeConstraint size{static_cast<uint32_t>(state.range(0)), 20};
  for (auto _ : state) {
    auto preview =
        AprioriDiscover(prepared, size, DistanceConstraint::Tight(2));
    benchmark::DoNotOptimize(preview);
  }
}
BENCHMARK(BM_AprioriTight)->Arg(3)->Arg(5);

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

void BM_FreezeGraph(benchmark::State& state) {
  for (auto _ : state) {
    FrozenGraph frozen = FrozenGraph::Freeze(MusicDomain().graph);
    benchmark::DoNotOptimize(frozen.num_arcs());
  }
}
BENCHMARK(BM_FreezeGraph);

void BM_NeighborScanEntityGraph(benchmark::State& state) {
  const EntityGraph& graph = MusicDomain().graph;
  const RelTypeId rel = 0;
  for (auto _ : state) {
    size_t total = 0;
    for (EntityId e = 0; e < graph.num_entities(); e += 13) {
      total += graph.NeighborSet(e, rel, Direction::kOutgoing).size();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_NeighborScanEntityGraph);

void BM_NeighborScanFrozenGraph(benchmark::State& state) {
  static const FrozenGraph* frozen =
      new FrozenGraph(FrozenGraph::Freeze(MusicDomain().graph));
  const RelTypeId rel = 0;
  for (auto _ : state) {
    size_t total = 0;
    for (EntityId e = 0; e < frozen->num_entities(); e += 13) {
      total += frozen->NeighborSet(e, rel, Direction::kOutgoing).size();
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

}  // namespace

BENCHMARK_MAIN();
