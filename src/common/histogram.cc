#include "common/histogram.h"

namespace egp {

void Histogram::Observe(double seconds) {
  if (seconds < 0) seconds = 0;
  Record(seconds, static_cast<uint64_t>(seconds * 1e9));
}

void Histogram::ObserveNanos(uint64_t nanos) {
  Record(static_cast<double>(nanos) * 1e-9, nanos);
}

void Histogram::Record(double seconds, uint64_t nanos) {
  size_t bucket = bounds_.size();  // +Inf
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (seconds <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  uint64_t running = 0;
  for (size_t i = 0; i < bounds_.size(); ++i) {
    running += buckets_[i].load(std::memory_order_relaxed);
    snap.cumulative[i] = running;
  }
  snap.count =
      running + buckets_[bounds_.size()].load(std::memory_order_relaxed);
  snap.sum_seconds =
      static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  return snap;
}

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const double rank = q * static_cast<double>(count);
  uint64_t previous = 0;
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (static_cast<double>(cumulative[i]) >= rank) {
      const uint64_t in_bucket = cumulative[i] - previous;
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double upper = bounds[i];
      if (in_bucket == 0) return upper;
      const double frac =
          (rank - static_cast<double>(previous)) / static_cast<double>(in_bucket);
      return lower + (upper - lower) * frac;
    }
    previous = cumulative[i];
  }
  return bounds.back();  // fell in +Inf: report the largest finite bound
}

}  // namespace egp
