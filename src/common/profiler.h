// In-process sampling CPU profiler, always compiled in, activated on
// demand (server --profiler flag + GET /v1/debug/profile, or the
// Start/Stop API directly).
//
// How it works: each long-lived thread registers itself
// (Profiler::RegisterCurrentThread — ThreadPool workers, the epoll loop
// thread, and tool main()s do this). Start(hz) arms one POSIX per-thread
// timer per registered thread on that thread's CPU-time clock
// (timer_create(CLOCK_THREAD_CPUTIME_ID, SIGEV_THREAD_ID)), so SIGPROF
// fires `hz` times per *CPU-second consumed by that thread* — idle
// threads cost nothing and get no samples. Where per-thread timers are
// unavailable the profiler falls back to a process-wide
// setitimer(ITIMER_PROF).
//
// The SIGPROF handler is the delicate part and obeys strict
// async-signal-safety rules (audited; see the handler comment in
// profiler.cc): it only reads two thread_locals, calls backtrace() into
// a pre-allocated per-thread sample ring (primed at Start so libgcc is
// already loaded — no lazy dlopen/malloc in the handler), tags the
// sample with the thread's current TracePhase (common/trace.h), and
// publishes with a release store. No allocation, no locks, no EGP_LOG,
// errno saved and restored.
//
// Stop() disarms the timers, drains the rings, symbolizes offline
// (dladdr + __cxa_demangle — executables link -rdynamic so egp symbols
// resolve), and returns folded-stack text ready for flamegraph.pl, one
// line per unique stack:
//
//   prepare;egp::Engine::State::Build;egp::ComputeNonKeyEntropy 127
//
// with the phase name as the synthetic root frame, so flamegraphs split
// CPU by request phase (read/admission/handler/prepare/discover/sample).
#ifndef EGP_COMMON_PROFILER_H_
#define EGP_COMMON_PROFILER_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace egp {

/// One collected profile window, symbolized and folded.
struct ProfileResult {
  /// Folded stacks: "phase;root;...;leaf count\n" per unique stack,
  /// sorted by descending count. Feed to flamegraph.pl verbatim.
  std::string folded;
  uint64_t samples = 0;  // samples aggregated into `folded`
  uint64_t dropped = 0;  // samples lost to a full ring during the window
  int hz = 0;            // sampling rate the window ran at
  double seconds = 0;    // wall length of the window (Collect) or 0
  int threads = 0;       // registered threads sampled
};

/// Cumulative counters for /metrics.
struct ProfilerStats {
  bool active = false;
  uint64_t windows_total = 0;  // completed Start/Stop windows
  uint64_t samples_total = 0;
  uint64_t dropped_total = 0;
  int registered_threads = 0;
};

/// Process-wide singleton; all methods are thread-safe. At most one
/// window runs at a time (concurrent Start/Collect returns Unavailable).
class Profiler {
 public:
  static constexpr int kMinHz = 1;
  static constexpr int kMaxHz = 1000;
  static constexpr int kDefaultHz = 99;
  static constexpr double kMaxWindowSeconds = 60.0;

  static Profiler& Global();

  /// Adds the calling thread to the set of profiled threads; idempotent.
  /// Cheap when no window is active. The thread unregisters itself
  /// automatically at exit. Call from every long-lived worker.
  static void RegisterCurrentThread();

  /// Arms timers on every registered thread at `hz` samples per
  /// CPU-second. Fails if a window is already active, hz is out of
  /// [kMinHz, kMaxHz], or no thread has registered.
  Status Start(int hz);

  /// Disarms, drains, symbolizes, folds. Fails if not started.
  Result<ProfileResult> Stop();

  /// Start + sleep(seconds) + Stop, the /v1/debug/profile shape.
  /// `seconds` must be in (0, kMaxWindowSeconds].
  Result<ProfileResult> Collect(double seconds, int hz);

  bool active() const;
  ProfilerStats stats() const;

 private:
  Profiler() = default;
};

}  // namespace egp

#endif  // EGP_COMMON_PROFILER_H_
