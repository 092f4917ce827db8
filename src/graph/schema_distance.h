// All-pairs undirected shortest-path distances between entity types (§4).
//
// dist(T1, T2) is the length of the shortest undirected path between the
// tables' key types in the schema graph; used by the tight/diverse
// constraints. Computed once by BFS from every vertex (K is small).
#ifndef EGP_GRAPH_SCHEMA_DISTANCE_H_
#define EGP_GRAPH_SCHEMA_DISTANCE_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/schema_graph.h"

namespace egp {

class ThreadPool;

class SchemaDistanceMatrix {
 public:
  /// Marks unreachable pairs.
  static constexpr uint32_t kUnreachable =
      std::numeric_limits<uint32_t>::max();

  /// The per-source BFS sweeps run on `pool` when one is given (each
  /// source owns its row, so the matrix and the derived diameter /
  /// average-path statistics are identical at any parallelism). Without
  /// one they run as plain loops, so a serial build may run inside a
  /// ParallelFor body.
  explicit SchemaDistanceMatrix(const SchemaGraph& schema,
                                ThreadPool* pool = nullptr);

  /// Undirected shortest-path length; 0 for a == b; kUnreachable if the
  /// types are in different components.
  uint32_t Distance(TypeId a, TypeId b) const;

  /// Every type's Distance from `a`, indexed by TypeId.
  std::span<const uint32_t> Row(TypeId a) const;

  /// Longest finite distance (graph diameter over reachable pairs).
  uint32_t Diameter() const { return diameter_; }

  /// Mean finite distance over distinct reachable pairs (the paper quotes
  /// film's average path length as ~3-4).
  double AveragePathLength() const { return average_path_length_; }

  size_t num_types() const { return n_; }

  /// Rough resident size: the n×n matrix.
  size_t ApproximateBytes() const {
    return sizeof(*this) + dist_.capacity() * sizeof(uint32_t);
  }

 private:
  size_t n_ = 0;
  std::vector<uint32_t> dist_;  // row-major n_ x n_
  uint32_t diameter_ = 0;
  double average_path_length_ = 0.0;
};

}  // namespace egp

#endif  // EGP_GRAPH_SCHEMA_DISTANCE_H_
