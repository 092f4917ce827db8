// Deterministic pseudo-random number generation.
//
// All stochastic components (data generation, tuple sampling, simulators)
// take an explicit Rng so every experiment is reproducible from a seed.
#ifndef EGP_COMMON_RNG_H_
#define EGP_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace egp {

/// xoshiro256** with SplitMix64 seeding. Not cryptographic; fast, high
/// quality for simulation purposes, and identical across platforms.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). bound must be positive.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Gaussian via Box–Muller (mean, stddev).
  double NextGaussian(double mean = 0.0, double stddev = 1.0);

  /// Log-normal: exp(N(mu, sigma)).
  double NextLogNormal(double mu, double sigma);

  /// Bernoulli trial with success probability p.
  bool NextBernoulli(double p);

  /// Index sampled proportionally to `weights` (non-negative, not all zero).
  size_t NextWeighted(const std::vector<double>& weights);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = NextBounded(i + 1);
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// A uniformly random k-subset of [0, n) by Floyd's algorithm: exactly
  /// k draws and O(k) expected work, independent of n. The indices come
  /// in no particular order. k >= n returns every index, ascending.
  std::vector<size_t> SampleIndices(size_t n, size_t k);

  /// Derives an independent child generator (for parallel streams).
  Rng Fork();

 private:
  uint64_t state_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Precomputed Zipf(s) distribution over ranks 1..n; Sample() returns a
/// 0-based rank index with P(rank i) ∝ 1/(i+1)^s.
class ZipfDistribution {
 public:
  ZipfDistribution(size_t n, double exponent);

  size_t Sample(Rng* rng) const;
  /// P(rank index i), i in [0, n).
  double Probability(size_t i) const { return probabilities_[i]; }
  size_t size() const { return probabilities_.size(); }

 private:
  std::vector<double> cumulative_;
  std::vector<double> probabilities_;
};

}  // namespace egp

#endif  // EGP_COMMON_RNG_H_
