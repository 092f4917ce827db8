#include "core/nonkey_scoring.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/math_util.h"
#include "common/parallel.h"

namespace egp {
namespace {

/// Value-set span inside a shared arena of entity ids, with an FNV-1a
/// hash of the (sorted, deduplicated) sequence so set-equality grouping
/// can bucket by (length, hash) instead of lexicographic sorting —
/// element compares only run inside hash buckets.
struct ValueSpan {
  size_t begin;
  size_t end;
  uint64_t hash;
};

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvStep(uint64_t hash, EntityId value) {
  return (hash ^ static_cast<uint64_t>(value)) * kFnvPrime;
}

}  // namespace

NonKeyScores ComputeNonKeyCoverage(const SchemaGraph& schema) {
  NonKeyScores scores;
  scores.outgoing.resize(schema.num_edges());
  scores.incoming.resize(schema.num_edges());
  for (uint32_t i = 0; i < schema.num_edges(); ++i) {
    const double support = static_cast<double>(schema.Edge(i).edge_count);
    scores.outgoing[i] = support;
    scores.incoming[i] = support;
  }
  return scores;
}

/// Batched entropy for one relationship type and direction, off the CSR.
/// Each key entity's γ-run is a contiguous, neighbor-sorted span of the
/// adjacency (forward index for outgoing, reverse for incoming), so
/// value sets stream into an arena with one adjacent-dedup pass — no
/// per-tuple allocation, no edge-list copy, no global edge sort. A sort
/// over the per-tuple spans then counts set-equality classes.
/// O(values + tuples·log(tuples)·set̄) per call.
double RelationshipEntropy(const EntityGraph& graph, RelTypeId rel_type,
                           Direction direction) {
  const RelTypeInfo& info = graph.RelType(rel_type);
  const TypeId key_type =
      direction == Direction::kOutgoing ? info.src_type : info.dst_type;

  std::vector<EntityId> arena;
  std::vector<ValueSpan> spans;
  for (EntityId e : graph.EntitiesOfType(key_type)) {
    const std::span<const FrozenGraph::Arc> run =
        graph.adjacency().RelArcs(e, rel_type, direction);
    if (run.empty()) continue;  // |t.γ| counts non-empty tuples only.
    const size_t begin = arena.size();
    uint64_t hash = kFnvOffset;
    for (const FrozenGraph::Arc& arc : run) {
      // Runs are neighbor-sorted: multigraph repeats are adjacent.
      if (arena.size() == begin || arena.back() != arc.neighbor) {
        arena.push_back(arc.neighbor);
        hash = FnvStep(hash, arc.neighbor);
      }
    }
    spans.push_back(ValueSpan{begin, arena.size(), hash});
  }

  // Group by value-set equality: bucket spans by (length, hash) — a
  // cheap scalar sort with a fixed arena-position tiebreak, so the order
  // (hence the histogram below) is a pure function of the input — then
  // confirm true equality inside each bucket, where near-all members
  // belong to one group and full compares are rare.
  std::sort(spans.begin(), spans.end(),
            [](const ValueSpan& a, const ValueSpan& b) {
              const size_t len_a = a.end - a.begin;
              const size_t len_b = b.end - b.begin;
              if (len_a != len_b) return len_a < len_b;
              if (a.hash != b.hash) return a.hash < b.hash;
              return a.begin < b.begin;
            });
  auto span_equal = [&arena](const ValueSpan& a, const ValueSpan& b) {
    return std::equal(arena.begin() + a.begin, arena.begin() + a.end,
                      arena.begin() + b.begin);
  };

  std::vector<uint64_t> counts;
  // Equality groups of the current bucket: (representative span index,
  // index into counts). Buckets almost always hold exactly one group;
  // the inner scan only pays when 64-bit hashes collide.
  std::vector<std::pair<size_t, size_t>> bucket_groups;
  for (size_t i = 0; i < spans.size();) {
    // One (length, hash) bucket: [i, j).
    size_t j = i + 1;
    while (j < spans.size() &&
           spans[j].end - spans[j].begin == spans[i].end - spans[i].begin &&
           spans[j].hash == spans[i].hash) {
      ++j;
    }
    bucket_groups.clear();
    for (size_t s = i; s < j; ++s) {
      bool matched = false;
      for (const auto& [representative, count_index] : bucket_groups) {
        if (span_equal(spans[s], spans[representative])) {
          ++counts[count_index];
          matched = true;
          break;
        }
      }
      if (!matched) {
        bucket_groups.emplace_back(s, counts.size());
        counts.push_back(1);
      }
    }
    i = j;
  }
  return EntropyLog10(counts);
}

Result<NonKeyScores> ComputeNonKeyEntropy(const EntityGraph& graph,
                                          const SchemaGraph& schema,
                                          ThreadPool* pool) {
  for (uint32_t i = 0; i < schema.num_edges(); ++i) {
    if (schema.RelTypeOfEdge(i) == kInvalidId) {
      return Status::FailedPrecondition(
          "entropy scoring requires a schema graph derived from the entity "
          "graph (schema edge lacks relationship-type mapping)");
    }
  }

  NonKeyScores scores;
  scores.outgoing.resize(schema.num_edges());
  scores.incoming.resize(schema.num_edges());
  // Jobs are (edge, direction) pairs; each writes one disjoint slot, so
  // the scores are bit-identical at any parallelism. Grain 1: job cost is
  // each relationship's edge count (heavily skewed), so every job is
  // claimed on its own and the dominant relationship never holds others
  // back behind it.
  ParallelFor(pool, 0, 2 * schema.num_edges(), [&](size_t job) {
    const uint32_t edge = static_cast<uint32_t>(job >> 1);
    const RelTypeId rel_type = schema.RelTypeOfEdge(edge);
    if ((job & 1) == 0) {
      scores.outgoing[edge] =
          RelationshipEntropy(graph, rel_type, Direction::kOutgoing);
    } else {
      scores.incoming[edge] =
          RelationshipEntropy(graph, rel_type, Direction::kIncoming);
    }
  });
  return scores;
}

}  // namespace egp
