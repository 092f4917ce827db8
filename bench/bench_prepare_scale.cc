// PreparedSchema build benchmark: serial vs parallel, and vs the seed
// implementations — the repo's tracked perf trajectory (BENCH_prepare.json).
//
// The paper computes every scoring measure before discovery (§5), so on
// large entity graphs the PreparedSchema build dominates end-to-end
// latency. This bench times that build on datagen graphs:
//
//   - at each requested thread count (ThreadPool-driven builds must be
//     bit-identical to the serial build; verified here and in
//     tests/core/prepare_determinism_test.cc),
//   - through an Engine at the widest thread count: its first build of
//     the selection, which computes the non-key part, and a build of the
//     same selection with a fresh smoothing, which reuses the memoized
//     part and runs only the key scorer (the cold request a server
//     serves once the non-key measure has been seen), and
//   - against "seed" baselines: the original dense O(n²)-memory random
//     walk and the per-direction edge-pair-copy + global-sort entropy,
//     kept verbatim below so the algorithmic speedup stays measurable
//     after the originals left the library.
//
// Emits one JSON document (stdout or --out) for tools/bench_to_json.sh.
//
//   bench_prepare_scale [--domains basketball,architecture] [--scale 1.0]
//                       [--threads 1,2,4,8] [--repeat 3]
//                       [--key randomwalk] [--nonkey entropy]
//                       [--no-baseline] [--out FILE]
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/candidates.h"
#include "datagen/generator.h"
#include "graph/schema_graph.h"
#include "service/engine.h"

namespace egp {
namespace {

// ---------------------------------------------------------------------------
// Seed baselines (verbatim pre-optimization algorithms, for the trajectory)
// ---------------------------------------------------------------------------

/// Seed ComputeKeyRandomWalk: dense n×n weight + transition matrices,
/// O(n²) memory and O(n²) work per lazy power-iteration step.
std::vector<double> SeedKeyRandomWalkDense(const SchemaGraph& schema,
                                           const RandomWalkOptions& options) {
  const size_t n = schema.num_types();
  if (n == 0) return {};
  if (n == 1) return {1.0};

  std::vector<double> weights(n * n, 0.0);
  for (const SchemaEdge& e : schema.edges()) {
    const double w = static_cast<double>(e.edge_count);
    weights[e.src * n + e.dst] += w;
    if (e.src != e.dst) weights[e.dst * n + e.src] += w;
  }

  std::vector<double> transition(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (size_t j = 0; j < n; ++j) {
      transition[i * n + j] = weights[i * n + j] + options.smoothing;
      row_sum += transition[i * n + j];
    }
    for (size_t j = 0; j < n; ++j) transition[i * n + j] /= row_sum;
  }

  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double p = pi[i];
      if (p == 0.0) continue;
      const double* row = &transition[i * n];
      for (size_t j = 0; j < n; ++j) next[j] += p * row[j];
    }
    double delta = 0.0;
    for (size_t j = 0; j < n; ++j) {
      next[j] = 0.5 * (next[j] + pi[j]);
      delta += std::fabs(next[j] - pi[j]);
    }
    pi.swap(next);
    if (delta < options.tolerance) break;
  }
  double total = 0.0;
  for (double p : pi) total += p;
  for (double& p : pi) p /= total;
  return pi;
}

/// Each relationship type's edges in (source, destination) order: the
/// per-relationship lists the seed read, gathered once outside the timed
/// region.
std::vector<std::vector<EdgeRecord>> EdgesByRelType(const EntityGraph& graph) {
  std::vector<std::vector<EdgeRecord>> by_rel(graph.num_rel_types());
  for (EntityId src = 0; src < graph.num_entities(); ++src) {
    for (const FrozenGraph::Arc& arc : graph.adjacency().OutArcs(src)) {
      by_rel[arc.rel_type].push_back(EdgeRecord{src, arc.neighbor,
                                                arc.rel_type});
    }
  }
  return by_rel;
}

/// Seed RelationshipEntropyFast: copies the relationship's edge list into
/// a (key, value) pair arena — once per direction — and globally sorts it.
double SeedRelationshipEntropyPairSort(const std::vector<EdgeRecord>& edges,
                                       Direction direction) {
  std::vector<std::pair<EntityId, EntityId>> pairs;
  pairs.reserve(edges.size());
  for (const EdgeRecord& e : edges) {
    if (direction == Direction::kOutgoing) {
      pairs.emplace_back(e.src, e.dst);
    } else {
      pairs.emplace_back(e.dst, e.src);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  struct Span {
    size_t begin;
    size_t end;
  };
  std::vector<Span> spans;
  for (size_t i = 0; i < pairs.size();) {
    size_t j = i + 1;
    while (j < pairs.size() && pairs[j].first == pairs[i].first) ++j;
    spans.push_back(Span{i, j});
    i = j;
  }
  auto span_less = [&pairs](const Span& a, const Span& b) {
    return std::lexicographical_compare(
        pairs.begin() + a.begin, pairs.begin() + a.end,
        pairs.begin() + b.begin, pairs.begin() + b.end,
        [](const auto& x, const auto& y) { return x.second < y.second; });
  };
  auto span_equal = [&pairs](const Span& a, const Span& b) {
    return a.end - a.begin == b.end - b.begin &&
           std::equal(pairs.begin() + a.begin, pairs.begin() + a.end,
                      pairs.begin() + b.begin,
                      [](const auto& x, const auto& y) {
                        return x.second == y.second;
                      });
  };
  std::sort(spans.begin(), spans.end(), span_less);

  std::vector<uint64_t> counts;
  for (size_t i = 0; i < spans.size();) {
    size_t j = i + 1;
    while (j < spans.size() && span_equal(spans[i], spans[j])) ++j;
    counts.push_back(j - i);
    i = j;
  }
  return EntropyLog10(counts);
}

NonKeyScores SeedNonKeyEntropy(
    const std::vector<std::vector<EdgeRecord>>& edges_by_rel,
    const SchemaGraph& schema) {
  NonKeyScores scores;
  scores.outgoing.resize(schema.num_edges());
  scores.incoming.resize(schema.num_edges());
  for (uint32_t i = 0; i < schema.num_edges(); ++i) {
    const auto& edges = edges_by_rel[schema.RelTypeOfEdge(i)];
    scores.outgoing[i] =
        SeedRelationshipEntropyPairSort(edges, Direction::kOutgoing);
    scores.incoming[i] =
        SeedRelationshipEntropyPairSort(edges, Direction::kIncoming);
  }
  return scores;
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

struct BenchOptions {
  std::vector<std::string> domains = {"basketball", "architecture"};
  double scale = 1.0;
  std::vector<unsigned> threads = {1, 2, 4, 8};
  int repeat = 3;
  std::string key_measure = "randomwalk";
  std::string nonkey_measure = "entropy";
  bool baseline = true;
  std::string out;
};

std::vector<std::string> SplitCommas(const std::string& value) {
  std::vector<std::string> parts = Split(value, ',');
  std::erase(parts, "");  // "a,,b" and trailing commas: drop empties
  return parts;
}

/// Minimum wall-clock seconds of fn over `repeat` runs — the standard
/// noise-resistant estimator for deterministic workloads.
double MinSeconds(int repeat, const std::function<void()>& fn) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    Timer timer;
    fn();
    const double elapsed = timer.ElapsedSeconds();
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

bool SameScores(const PreparedSchema& a, const PreparedSchema& b) {
  for (TypeId t = 0; t < a.schema().num_types(); ++t) {
    if (a.KeyScore(t) != b.KeyScore(t)) return false;
    const TypeCandidates& ca = a.Candidates(t);
    const TypeCandidates& cb = b.Candidates(t);
    if (ca.sorted.size() != cb.sorted.size()) return false;
    for (size_t i = 0; i < ca.sorted.size(); ++i) {
      if (ca.sorted[i].schema_edge != cb.sorted[i].schema_edge ||
          ca.sorted[i].direction != cb.sorted[i].direction ||
          ca.sorted[i].score != cb.sorted[i].score) {
        return false;
      }
    }
  }
  for (TypeId x = 0; x < a.schema().num_types(); ++x) {
    for (TypeId y = 0; y < a.schema().num_types(); ++y) {
      if (a.distances().Distance(x, y) != b.distances().Distance(x, y)) {
        return false;
      }
    }
  }
  return true;
}

struct BuildResult {
  unsigned threads = 0;
  PrepareTimings timings;
};

/// The build of median total time among `timings` (the lower middle for
/// an even count), phases and all.
PrepareTimings MedianBuild(std::vector<PrepareTimings> timings) {
  std::sort(timings.begin(), timings.end(),
            [](const PrepareTimings& a, const PrepareTimings& b) {
              return a.total_seconds < b.total_seconds;
            });
  return timings[(timings.size() - 1) / 2];
}

/// One phase object of the JSON document.
std::string PhaseJson(const char* name, unsigned threads,
                      const PrepareTimings& t) {
  char buffer[320];
  std::snprintf(buffer, sizeof(buffer),
                "      \"%s\": {\"threads\": %u, \"total_seconds\": %.6f, "
                "\"key_seconds\": %.6f, \"nonkey_seconds\": %.6f, "
                "\"distance_seconds\": %.6f, "
                "\"candidate_sort_seconds\": %.6f},\n",
                name, threads, t.total_seconds, t.key_seconds,
                t.nonkey_seconds, t.distance_seconds,
                t.candidate_sort_seconds);
  return buffer;
}

int Run(const BenchOptions& options) {
  std::string json;
  json += "{\n";
  json += "  \"bench\": \"bench_prepare_scale\",\n";
  json += "  \"hardware_threads\": " + std::to_string(HardwareThreads()) +
          ",\n";
  json += "  \"scale\": " + std::to_string(options.scale) + ",\n";
  json += "  \"repeat\": " + std::to_string(options.repeat) + ",\n";
  json += "  \"measures\": {\"key\": \"" + options.key_measure +
          "\", \"nonkey\": \"" + options.nonkey_measure + "\"},\n";
  json += "  \"datasets\": [\n";

  for (size_t d = 0; d < options.domains.size(); ++d) {
    const std::string& name = options.domains[d];
    GeneratorOptions generator;
    generator.scale = options.scale;
    auto domain = GenerateDomainByName(name, generator);
    if (!domain.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   domain.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[%s] %zu entities, %zu relationships, %zu types, "
                 "%zu schema edges\n",
                 name.c_str(), domain->graph.num_entities(),
                 domain->graph.num_edges(), domain->schema.num_types(),
                 domain->schema.num_edges());

    MeasureSelection measures;
    measures.key = options.key_measure;
    measures.nonkey = options.nonkey_measure;

    // Serial golden build: the reference every other configuration must
    // match bit-for-bit.
    auto golden = PreparedSchema::Create(domain->schema, measures,
                                         &domain->graph);
    if (!golden.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   golden.status().ToString().c_str());
      return 1;
    }

    std::vector<BuildResult> builds;
    for (unsigned threads : options.threads) {
      ThreadPool pool(threads);
      ThreadPool* pool_ptr = threads <= 1 ? nullptr : &pool;
      PrepareTimings best;
      for (int r = 0; r < options.repeat; ++r) {
        auto built = PreparedSchema::Create(domain->schema, measures,
                                            &domain->graph, pool_ptr);
        if (!built.ok()) {
          std::fprintf(stderr, "error: %s\n",
                       built.status().ToString().c_str());
          return 1;
        }
        if (!SameScores(*golden, *built)) {
          std::fprintf(stderr,
                       "FATAL: %u-thread build diverged from the serial "
                       "golden on %s\n",
                       threads, name.c_str());
          return 2;
        }
        if (r == 0 || built->timings().total_seconds < best.total_seconds) {
          best = built->timings();
        }
      }
      builds.push_back(BuildResult{threads, best});
      std::fprintf(stderr,
                   "[%s] threads=%u total=%.1fms (key %.1f, nonkey %.1f, "
                   "dist %.1f, sort %.1f)\n",
                   name.c_str(), threads, best.total_seconds * 1e3,
                   best.key_seconds * 1e3, best.nonkey_seconds * 1e3,
                   best.distance_seconds * 1e3,
                   best.candidate_sort_seconds * 1e3);
    }

    // Engine builds: per repeat a fresh Engine's first build of the
    // selection, then the selection with a fresh smoothing, whose build
    // assembles the memoized non-key part with new key scores.
    const unsigned engine_threads = builds.back().threads;
    std::vector<PrepareTimings> first_builds;
    std::vector<PrepareTimings> memo_hit_builds;
    for (int r = 0; r < options.repeat; ++r) {
      EngineOptions engine_options;
      engine_options.threads = engine_threads;
      const Engine engine = Engine::FromGraph(domain->graph, engine_options);
      MeasureSelection fresh = measures;
      fresh.walk.smoothing *= 1.0 + static_cast<double>(r + 1) * 1e-9;
      auto first = engine.Prepared(measures);
      auto hit = first.ok() ? engine.Prepared(fresh) : first;
      if (!hit.ok()) {
        std::fprintf(stderr, "error: %s\n", hit.status().ToString().c_str());
        return 1;
      }
      bool same = SameScores(*golden, **first);
      if (same && r == 0) {
        auto reference =
            PreparedSchema::Create(domain->schema, fresh, &domain->graph);
        same = reference.ok() && SameScores(*reference, **hit);
      }
      if (!same) {
        std::fprintf(stderr,
                     "FATAL: an Engine build diverged from "
                     "PreparedSchema::Create on %s\n",
                     name.c_str());
        return 2;
      }
      first_builds.push_back((*first)->timings());
      memo_hit_builds.push_back((*hit)->timings());
    }
    const PrepareTimings engine_first = MedianBuild(first_builds);
    const PrepareTimings engine_hit = MedianBuild(memo_hit_builds);
    std::fprintf(stderr,
                 "[%s] engine threads=%u first build %.1fms (nonkey %.1f), "
                 "memo-hit build %.3fms (key %.3f)\n",
                 name.c_str(), engine_threads, engine_first.total_seconds * 1e3,
                 engine_first.nonkey_seconds * 1e3,
                 engine_hit.total_seconds * 1e3, engine_hit.key_seconds * 1e3);

    // Seed baselines: same scoring work, pre-optimization algorithms.
    double seed_key_seconds = 0.0;
    double seed_nonkey_seconds = 0.0;
    if (options.baseline) {
      if (options.key_measure == "randomwalk") {
        seed_key_seconds = MinSeconds(options.repeat, [&] {
          SeedKeyRandomWalkDense(domain->schema, RandomWalkOptions{});
        });
      }
      if (options.nonkey_measure == "entropy") {
        const auto edges_by_rel = EdgesByRelType(domain->graph);
        seed_nonkey_seconds = MinSeconds(options.repeat, [&] {
          SeedNonKeyEntropy(edges_by_rel, domain->schema);
        });
      }
      std::fprintf(stderr, "[%s] seed baseline: key %.1fms, nonkey %.1fms\n",
                   name.c_str(), seed_key_seconds * 1e3,
                   seed_nonkey_seconds * 1e3);
    }

    const PrepareTimings& serial = builds.front().timings;
    const PrepareTimings& widest = builds.back().timings;
    char buffer[256];
    json += "    {\n";
    json += "      \"domain\": \"" + name + "\",\n";
    json += "      \"entities\": " +
            std::to_string(domain->graph.num_entities()) + ",\n";
    json += "      \"relationships\": " +
            std::to_string(domain->graph.num_edges()) + ",\n";
    json += "      \"types\": " +
            std::to_string(domain->schema.num_types()) + ",\n";
    json += "      \"schema_edges\": " +
            std::to_string(domain->schema.num_edges()) + ",\n";
    json += "      \"builds\": [\n";
    for (size_t b = 0; b < builds.size(); ++b) {
      const PrepareTimings& t = builds[b].timings;
      std::snprintf(buffer, sizeof(buffer),
                    "        {\"threads\": %u, \"total_seconds\": %.6f, "
                    "\"key_seconds\": %.6f, \"nonkey_seconds\": %.6f, "
                    "\"distance_seconds\": %.6f, "
                    "\"candidate_sort_seconds\": %.6f}%s\n",
                    builds[b].threads, t.total_seconds, t.key_seconds,
                    t.nonkey_seconds, t.distance_seconds,
                    t.candidate_sort_seconds,
                    b + 1 < builds.size() ? "," : "");
      json += buffer;
    }
    json += "      ],\n";
    json += PhaseJson("engine_first_build", engine_threads, engine_first);
    json += PhaseJson("engine_memo_hit_build", engine_threads, engine_hit);
    if (options.baseline) {
      std::snprintf(buffer, sizeof(buffer),
                    "      \"seed_baseline\": {\"key_seconds\": %.6f, "
                    "\"nonkey_seconds\": %.6f},\n",
                    seed_key_seconds, seed_nonkey_seconds);
      json += buffer;
      const double seed_scoring = seed_key_seconds + seed_nonkey_seconds;
      const double serial_scoring =
          serial.key_seconds + serial.nonkey_seconds;
      const double parallel_scoring =
          widest.key_seconds + widest.nonkey_seconds;
      std::snprintf(
          buffer, sizeof(buffer),
          "      \"scoring_speedup_serial_vs_seed\": %.3f,\n"
          "      \"scoring_speedup_parallel_vs_seed\": %.3f,\n",
          serial_scoring > 0.0 ? seed_scoring / serial_scoring : 0.0,
          parallel_scoring > 0.0 ? seed_scoring / parallel_scoring : 0.0);
      json += buffer;
    }
    std::snprintf(buffer, sizeof(buffer),
                  "      \"build_speedup_parallel_vs_serial\": %.3f\n",
                  widest.total_seconds > 0.0
                      ? serial.total_seconds / widest.total_seconds
                      : 0.0);
    json += buffer;
    json += d + 1 < options.domains.size() ? "    },\n" : "    }\n";
  }
  json += "  ]\n";
  json += "}\n";

  if (options.out.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(options.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", options.out.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", options.out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace egp

int main(int argc, char** argv) {
  egp::BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--domains") {
      options.domains = egp::SplitCommas(value());
    } else if (arg == "--scale") {
      options.scale = std::atof(value());
    } else if (arg == "--threads") {
      options.threads.clear();
      for (const std::string& t : egp::SplitCommas(value())) {
        options.threads.push_back(
            static_cast<unsigned>(std::strtoul(t.c_str(), nullptr, 10)));
      }
    } else if (arg == "--repeat") {
      options.repeat = std::atoi(value());
    } else if (arg == "--key") {
      options.key_measure = value();
    } else if (arg == "--nonkey") {
      options.nonkey_measure = value();
    } else if (arg == "--no-baseline") {
      options.baseline = false;
    } else if (arg == "--out") {
      options.out = value();
    } else {
      std::fprintf(stderr,
                   "usage: bench_prepare_scale [--domains a,b] [--scale S] "
                   "[--threads 1,2,4,8] [--repeat R] [--key M] [--nonkey M] "
                   "[--no-baseline] [--out FILE]\n");
      return 2;
    }
  }
  if (options.domains.empty() || options.threads.empty() ||
      options.repeat < 1) {
    std::fprintf(stderr, "error: empty domain/thread list or repeat < 1\n");
    return 2;
  }
  // Normalize the thread list: ascending and unique, with the serial
  // reference first — the speedup fields compare builds.front() (serial)
  // against builds.back() (widest), which an unsorted --threads list
  // would silently mislabel.
  std::erase(options.threads, 0u);
  options.threads.push_back(1);
  std::sort(options.threads.begin(), options.threads.end());
  options.threads.erase(
      std::unique(options.threads.begin(), options.threads.end()),
      options.threads.end());
  return egp::Run(options);
}
