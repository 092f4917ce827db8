#include "graph/schema_distance.h"

#include "common/check.h"
#include "common/parallel.h"

namespace egp {

SchemaDistanceMatrix::SchemaDistanceMatrix(const SchemaGraph& schema,
                                           ThreadPool* pool)
    : n_(schema.num_types()) {
  dist_.assign(n_ * n_, kUnreachable);

  // Undirected adjacency (deduplicated) once, then BFS per source. Each
  // source writes only its own row and its own partial statistics, so the
  // sweep parallelizes with bit-identical results (the reductions below
  // are over integers, where summation order cannot matter either).
  std::vector<std::vector<TypeId>> adjacency(n_);
  const auto neighbors = [&](size_t t) {
    adjacency[t] = schema.NeighborTypes(t);
  };

  std::vector<uint32_t> max_dist(n_, 0);
  std::vector<uint64_t> pairs(n_, 0);
  std::vector<uint64_t> sums(n_, 0);
  const auto sweep = [&](size_t source) {
    uint32_t* row = &dist_[source * n_];
    row[source] = 0;
    // Vector-backed frontier: rows are dense enough that a queue's
    // allocation churn would dominate small BFS sweeps.
    std::vector<TypeId> frontier;
    frontier.reserve(n_);
    frontier.push_back(static_cast<TypeId>(source));
    for (size_t head = 0; head < frontier.size(); ++head) {
      const TypeId u = frontier[head];
      for (TypeId v : adjacency[u]) {
        if (row[v] != kUnreachable) continue;
        row[v] = row[u] + 1;
        frontier.push_back(v);
      }
    }
    for (TypeId v = 0; v < n_; ++v) {
      if (v == source || row[v] == kUnreachable) continue;
      max_dist[source] = std::max(max_dist[source], row[v]);
      ++pairs[source];
      sums[source] += row[v];
    }
  };
  if (pool == nullptr) {
    // Plain loops, not a serial ParallelFor: an Engine builds its matrix
    // this way, and the catalog creates engines inside a parallel body.
    for (size_t t = 0; t < n_; ++t) neighbors(t);
    for (size_t source = 0; source < n_; ++source) sweep(source);
  } else {
    ParallelFor(pool, 0, n_, neighbors, /*grain=*/16);
    // Grain 1: BFS cost varies with the source's component size, and
    // every source writes only its own row/partials.
    ParallelFor(pool, 0, n_, sweep);
  }

  uint64_t finite_pairs = 0;
  uint64_t finite_sum = 0;
  for (size_t source = 0; source < n_; ++source) {
    diameter_ = std::max(diameter_, max_dist[source]);
    finite_pairs += pairs[source];
    finite_sum += sums[source];
  }
  average_path_length_ =
      finite_pairs == 0
          ? 0.0
          : static_cast<double>(finite_sum) / static_cast<double>(finite_pairs);
}

uint32_t SchemaDistanceMatrix::Distance(TypeId a, TypeId b) const {
  EGP_CHECK(a < n_ && b < n_) << "distance query out of range";
  return dist_[a * n_ + b];
}

std::span<const uint32_t> SchemaDistanceMatrix::Row(TypeId a) const {
  EGP_CHECK(a < n_) << "distance row out of range";
  return {dist_.data() + a * n_, n_};
}

}  // namespace egp
