// The monotonic clock, and a wall-clock timer for the performance
// experiments (Figs. 8–9). Dependency-free, so the lowest layers (the
// lock telemetry under every Mutex) can include it.
#ifndef EGP_COMMON_TIMER_H_
#define EGP_COMMON_TIMER_H_

#include <time.h>

#include <chrono>
#include <cstdint>

namespace egp {

/// CLOCK_MONOTONIC now, in nanoseconds: the base of request traces, lock
/// telemetry and cache ages, where sub-millisecond phases need the
/// resolution.
inline int64_t MonotonicNanos() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// CLOCK_MONOTONIC now, in milliseconds: the base of every socket
/// deadline and of the event loop's per-connection timers.
inline int64_t MonotonicMillis() { return MonotonicNanos() / 1'000'000; }

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace egp

#endif  // EGP_COMMON_TIMER_H_
