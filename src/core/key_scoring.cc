#include "core/key_scoring.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"

namespace egp {
namespace {

/// Undirected pairwise weights w_ij in CSR form: for each type i, the
/// distinct neighbour types j (sorted) with their aggregated relationship
/// counts. Symmetric; self-loops appear once per row.
struct WeightCsr {
  std::vector<size_t> offsets;  // n + 1
  std::vector<TypeId> cols;
  std::vector<double> weights;
  std::vector<double> row_sums;  // d_i = sum_j w_ij
};

WeightCsr BuildWeightCsr(const SchemaGraph& schema) {
  const size_t n = schema.num_types();
  struct Entry {
    TypeId row;
    TypeId col;
    double weight;
  };
  std::vector<Entry> entries;
  entries.reserve(2 * schema.num_edges());
  for (const SchemaEdge& e : schema.edges()) {
    const double w = static_cast<double>(e.edge_count);
    entries.push_back(Entry{e.src, e.dst, w});
    if (e.src != e.dst) entries.push_back(Entry{e.dst, e.src, w});
  }
  // Stable sort: parallel schema edges between the same pair keep their
  // insertion order, so the aggregation below sums in a fixed order.
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     if (a.row != b.row) return a.row < b.row;
                     return a.col < b.col;
                   });

  WeightCsr csr;
  csr.offsets.assign(n + 1, 0);
  csr.row_sums.assign(n, 0.0);
  for (size_t i = 0; i < entries.size();) {
    size_t j = i + 1;
    double w = entries[i].weight;
    while (j < entries.size() && entries[j].row == entries[i].row &&
           entries[j].col == entries[i].col) {
      w += entries[j].weight;
      ++j;
    }
    csr.cols.push_back(entries[i].col);
    csr.weights.push_back(w);
    ++csr.offsets[entries[i].row + 1];
    csr.row_sums[entries[i].row] += w;
    i = j;
  }
  for (size_t i = 0; i < n; ++i) csr.offsets[i + 1] += csr.offsets[i];
  return csr;
}

}  // namespace

std::vector<double> ComputeKeyCoverage(const SchemaGraph& schema) {
  std::vector<double> scores(schema.num_types());
  for (TypeId t = 0; t < schema.num_types(); ++t) {
    scores[t] = static_cast<double>(schema.TypeEntityCount(t));
  }
  return scores;
}

Result<std::vector<double>> ComputeKeyRandomWalk(
    const SchemaGraph& schema, const RandomWalkOptions& options,
    ThreadPool* pool) {
  const double s = options.smoothing;
  if (!(s >= 0.0) || !std::isfinite(s)) {
    return Status::InvalidArgument(
        "random walk smoothing must be finite and >= 0");
  }
  const size_t n = schema.num_types();
  if (n == 0) return std::vector<double>{};
  if (n == 1) return std::vector<double>{1.0};

  // The row-stochastic transition matrix of the smoothed walk is
  //   T_ij = (w_ij + s) / r_i,   r_i = d_i + s·n,
  // i.e. sparse weights plus a rank-1 all-ones term. One step is then
  //   (πT)_j = Σ_i w_ij·x_i + s·Σ_i x_i   with  x_i = π_i / r_i,
  // so the smoothing never needs to be materialized: a sparse product
  // plus one scalar. W is symmetric (w_ij = w_ji), which makes the
  // pull form exact: row j of the CSR *is* column j, and each (πT)_j
  // sums its terms in that row's fixed order — deterministic at any
  // parallelism, O(E_schema + n) per iteration.
  const WeightCsr csr = BuildWeightCsr(schema);
  std::vector<double> inv_row_total(n);
  for (size_t i = 0; i < n; ++i) {
    const double r = csr.row_sums[i] + s * static_cast<double>(n);
    if (!(r > 0.0)) {
      return Status::InvalidArgument(
          "random walk smoothing must be > 0 when an entity type has no "
          "relationships (type '" +
          schema.TypeName(static_cast<TypeId>(i)) + "' has none)");
    }
    inv_row_total[i] = 1.0 / r;
  }

  // Lazy power iteration: π ← ½(πT + π). The lazy walk has the same
  // stationary distribution as T but is aperiodic, so the iteration also
  // converges on (near-)bipartite schema graphs where plain π ← πT
  // oscillates with period 2.
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> x(n, 0.0);
  std::vector<double> next(n, 0.0);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Grain: one index is a handful of flops — only spread across the
    // pool when rows number in the thousands.
    constexpr size_t kWalkGrain = 2048;
    ParallelFor(
        pool, 0, n, [&](size_t i) { x[i] = pi[i] * inv_row_total[i]; },
        kWalkGrain);
    // The scalar reductions (smoothing mass, convergence delta) stay
    // serial: they are O(n), and chunked summation would tie the bits to
    // the thread count.
    double smoothing_mass = 0.0;
    for (size_t i = 0; i < n; ++i) smoothing_mass += x[i];
    smoothing_mass *= s;
    ParallelFor(
        pool, 0, n,
        [&](size_t j) {
          double acc = smoothing_mass;
          for (size_t k = csr.offsets[j]; k < csr.offsets[j + 1]; ++k) {
            acc += csr.weights[k] * x[csr.cols[k]];
          }
          next[j] = 0.5 * (acc + pi[j]);
        },
        kWalkGrain);
    double delta = 0.0;
    for (size_t j = 0; j < n; ++j) delta += std::fabs(next[j] - pi[j]);
    pi.swap(next);
    if (delta < options.tolerance) break;
  }

  // Normalize defensively against floating-point drift.
  double total = 0.0;
  for (double p : pi) total += p;
  for (double& p : pi) p /= total;
  return pi;
}

double TransitionProbability(const SchemaGraph& schema, TypeId from,
                             TypeId to) {
  double weight_to = 0.0;
  double weight_total = 0.0;
  for (TypeId other = 0; other < schema.num_types(); ++other) {
    const double w = static_cast<double>(schema.PairWeight(from, other));
    weight_total += w;
    if (other == to) weight_to = w;
  }
  return weight_total == 0.0 ? 0.0 : weight_to / weight_total;
}

}  // namespace egp
