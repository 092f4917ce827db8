// Histogram: a Prometheus-style distribution of durations over upper
// bucket bounds given as a parameter, recorded with relaxed atomics.
//
// One type backs every histogram family on /metrics: request latency
// and event-loop lag (server/metrics.h's kLatencyBounds) and lock waits
// (lock_stats.h's kLockWaitBounds). Recording takes no lock and never
// allocates, because lock waits are recorded inside Mutex::Lock; the
// constructor is constexpr, so lock_stats.cc's static site table stays
// constant-initialized. Like lock_stats.h, which includes it, this
// header must stay dependency-free.
#ifndef EGP_COMMON_HISTOGRAM_H_
#define EGP_COMMON_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

namespace egp {

class Histogram {
 public:
  /// The most finite bounds a histogram may have; +Inf is implicit.
  static constexpr size_t kMaxBounds = 12;

  /// `bounds`: ascending upper bucket bounds in seconds, alive for as
  /// long as the histogram (a constexpr array, in practice).
  template <size_t N>
  constexpr explicit Histogram(const double (&bounds)[N]) : bounds_(bounds) {
    static_assert(N <= kMaxBounds, "raise Histogram::kMaxBounds");
  }

  /// Records one observation; a negative one counts as 0.
  void Observe(double seconds);
  /// Records one observation in nanoseconds, which the sum keeps exact.
  void ObserveNanos(uint64_t nanos);

  struct Snapshot {
    std::span<const double> bounds;
    /// cumulative[i] counts observations <= bounds[i].
    std::array<uint64_t, kMaxBounds> cumulative{};
    uint64_t count = 0;  // every observation, +Inf included
    double sum_seconds = 0.0;

    /// Value below which `q` (0..1) of observations fall, estimated by
    /// linear interpolation inside the winning bucket; an empty
    /// histogram gives 0.
    double Quantile(double q) const;
  };
  /// Buckets, count and sum as of now. Reads race recording, but the
  /// count is the sum of the buckets read, so a scrape always sees a
  /// monotone histogram whose +Inf bucket equals its count; only the sum
  /// may be a few observations off.
  Snapshot snapshot() const;

 private:
  void Record(double seconds, uint64_t nanos);

  std::span<const double> bounds_;
  std::array<std::atomic<uint64_t>, kMaxBounds + 1> buckets_{};
  std::atomic<uint64_t> sum_nanos_{0};
};

}  // namespace egp

#endif  // EGP_COMMON_HISTOGRAM_H_
