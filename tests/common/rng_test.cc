#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

namespace egp {
namespace {

TEST(RngTest, DeterministicUnderSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 12);
}

TEST(RngTest, NextBoundedInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedCoversAllResidues) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyCorrect) {
  Rng rng(17);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian(2.0, 3.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(RngTest, LogNormalMedianIsExpMu) {
  Rng rng(19);
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) samples.push_back(rng.NextLogNormal(3.0, 0.4));
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  EXPECT_NEAR(samples[samples.size() / 2], std::exp(3.0), 1.0);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, WeightedRespectsZeroWeights) {
  Rng rng(29);
  std::vector<double> weights = {0.0, 1.0, 0.0, 2.0};
  for (int i = 0; i < 200; ++i) {
    const size_t pick = rng.NextWeighted(weights);
    EXPECT_TRUE(pick == 1 || pick == 3);
  }
}

TEST(RngTest, WeightedProportions) {
  Rng rng(31);
  std::vector<double> weights = {1.0, 3.0};
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextWeighted(weights) == 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = items;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

// Floyd's algorithm spelled out, with the rule for a repeated draw as a
// parameter: the correct rule takes j, the biased one keeps t.
std::vector<size_t> FloydReference(Rng* rng, size_t n, size_t k,
                                   bool take_j_on_repeat) {
  std::vector<size_t> picked;
  std::set<size_t> taken;
  for (size_t j = n - k; j < n; ++j) {
    const size_t t = rng->NextBounded(j + 1);
    const size_t pick = taken.count(t) > 0 && take_j_on_repeat ? j : t;
    taken.insert(pick);
    picked.push_back(pick);
  }
  return picked;
}

// Pearson's chi-square of a 3-of-8 sampler against the uniform law on all
// C(8, 3) = 56 subsets: one draw from Rng(seed) for every seed in
// [1, 56 * 1000]. A draw that is not a 3-subset lands in none of the 56
// cells (an index outside [0, 8) sets bit 8). Deterministic: the same
// sampler always yields the same value (44.9 for SampleIndices).
template <typename Sampler>
double SubsetChiSquare(Sampler sample) {
  constexpr int kSubsets = 56;
  constexpr int kDraws = kSubsets * 1000;
  std::vector<int> counts(512, 0);  // by bitmask
  for (int seed = 1; seed <= kDraws; ++seed) {
    Rng rng(seed);
    unsigned mask = 0;
    for (size_t i : sample(&rng)) mask |= 1u << std::min<size_t>(i, 8);
    ++counts[mask];
  }
  const double expected = static_cast<double>(kDraws) / kSubsets;
  double chi_square = 0.0;
  int cells = 0;
  for (unsigned mask = 0; mask < 256; ++mask) {
    if (__builtin_popcount(mask) != 3) continue;
    const double diff = counts[mask] - expected;
    chi_square += diff * diff / expected;
    ++cells;
  }
  EXPECT_EQ(cells, kSubsets);
  return chi_square;
}

// The 0.999 quantile of chi-square with 55 degrees of freedom.
constexpr double kChiSquare55At999 = 93.17;

TEST(RngTest, SampleIndicesUniformOverAllSubsets) {
  const double chi_square = SubsetChiSquare(
      [](Rng* rng) { return rng->SampleIndices(8, 3); });
  EXPECT_LT(chi_square, kChiSquare55At999);
}

TEST(RngTest, SubsetChiSquareRejectsBiasedFloyd) {
  const double correct = SubsetChiSquare(
      [](Rng* rng) { return FloydReference(rng, 8, 3, true); });
  const double biased = SubsetChiSquare(
      [](Rng* rng) { return FloydReference(rng, 8, 3, false); });
  EXPECT_LT(correct, kChiSquare55At999);
  EXPECT_GT(biased, kChiSquare55At999);
}

TEST(RngTest, SampleIndicesIsFloydWithExactlyKDraws) {
  for (const auto& [n, k] : std::vector<std::pair<size_t, size_t>>{
           {8, 3}, {100, 10}, {10689, 5}, {7, 6}, {2, 1}}) {
    Rng a(41), b(41);
    EXPECT_EQ(a.SampleIndices(n, k), FloydReference(&b, n, k, true))
        << n << " " << k;
    EXPECT_EQ(a.Next(), b.Next()) << "draw count differs at " << n << " " << k;
  }
}

TEST(RngTest, SampleIndicesDistinctAndInRange) {
  Rng rng(41);
  const auto picked = rng.SampleIndices(100, 10);
  EXPECT_EQ(picked.size(), 10u);
  std::set<size_t> unique(picked.begin(), picked.end());
  EXPECT_EQ(unique.size(), 10u);
  for (size_t i : picked) EXPECT_LT(i, 100u);
}

TEST(RngTest, SampleIndicesEdgeCases) {
  const std::vector<size_t> all = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  Rng rng(43);
  EXPECT_TRUE(rng.SampleIndices(0, 0).empty());
  EXPECT_TRUE(rng.SampleIndices(0, 3).empty());
  EXPECT_EQ(rng.SampleIndices(10, 10), all);
  EXPECT_EQ(rng.SampleIndices(10, 11), all);
  EXPECT_EQ(rng.SampleIndices(4, 10), (std::vector<size_t>{0, 1, 2, 3}));

  // k = 0 draws nothing.
  Rng fresh(43);
  Rng untouched(43);
  EXPECT_TRUE(untouched.SampleIndices(10, 0).empty());
  EXPECT_EQ(untouched.Next(), fresh.Next());

  const auto one = rng.SampleIndices(10, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_LT(one[0], 10u);

  auto all_but_one = rng.SampleIndices(10, 9);
  ASSERT_EQ(all_but_one.size(), 9u);
  std::sort(all_but_one.begin(), all_but_one.end());
  EXPECT_EQ(std::adjacent_find(all_but_one.begin(), all_but_one.end()),
            all_but_one.end());
  EXPECT_LT(all_but_one.back(), 10u);
}

TEST(RngTest, SampleIndicesLargeKDistinctAndLinear) {
  Rng rng(47);
  const auto picked = rng.SampleIndices(60000, 50000);
  ASSERT_EQ(picked.size(), 50000u);
  std::vector<bool> seen(60000, false);
  for (size_t i : picked) {
    ASSERT_LT(i, 60000u);
    ASSERT_FALSE(seen[i]) << "repeated index " << i;
    seen[i] = true;
  }

  // Ten times the picks may cost about ten times as much; a duplicate
  // check that scans the picks would cost a hundred times as much.
  const auto best_seconds = [](size_t n, size_t k) {
    double best = 1e9;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      Rng timed(seed);
      const auto start = std::chrono::steady_clock::now();
      const size_t size = timed.SampleIndices(n, k).size();
      const std::chrono::duration<double> took =
          std::chrono::steady_clock::now() - start;
      EXPECT_EQ(size, k);
      best = std::min(best, took.count());
    }
    return best;
  };
  const double small = best_seconds(6000, 5000);
  const double large = best_seconds(60000, 50000);
  EXPECT_LT(large, 40 * small) << "5000 picks: " << small
                               << " s, 50000 picks: " << large << " s";
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(47);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(ZipfTest, ProbabilitiesSumToOne) {
  ZipfDistribution zipf(50, 1.0);
  double total = 0.0;
  for (size_t i = 0; i < zipf.size(); ++i) total += zipf.Probability(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, MonotoneDecreasing) {
  ZipfDistribution zipf(20, 0.8);
  for (size_t i = 1; i < zipf.size(); ++i) {
    EXPECT_GT(zipf.Probability(i - 1), zipf.Probability(i));
  }
}

TEST(ZipfTest, SampleFrequenciesMatchProbabilities) {
  ZipfDistribution zipf(5, 1.0);
  Rng rng(53);
  std::vector<int> counts(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(&rng)];
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, zipf.Probability(i), 0.01);
  }
}

TEST(ZipfTest, SingleElement) {
  ZipfDistribution zipf(1, 2.0);
  Rng rng(59);
  EXPECT_EQ(zipf.Sample(&rng), 0u);
  EXPECT_DOUBLE_EQ(zipf.Probability(0), 1.0);
}

}  // namespace
}  // namespace egp
