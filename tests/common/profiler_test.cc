// The sampling CPU profiler (common/profiler.h): window lifecycle,
// parameter validation, sample capture on a busy thread, phase roots in
// the folded output, drop accounting, and the CPU cost of a live window.
//
// The whole suite is skipped under ThreadSanitizer: TSan intercepts
// signal delivery and (by design) flags backtrace() from a SIGPROF
// handler, while the server-suite TSan runs cover the lock/metrics
// integration. The real signal path is exercised by the plain and
// ASan/UBSan builds plus the CI server smoke.
#include "common/profiler.h"

#include <time.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/stat_util.h"
#include "common/trace.h"
#include "gtest/gtest.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define EGP_TSAN 1
#endif
#endif

namespace egp {
namespace {

#ifndef EGP_TSAN

/// Spins a worker that burns CPU inside a TracePhase until told to stop.
class BusyThread {
 public:
  explicit BusyThread(TracePhase phase)
      : thread_([this, phase] {
          Profiler::RegisterCurrentThread();
          registered_.store(true);
          const ScopedTracePhase scoped(phase);
          volatile double sink = 1.0;
          while (!done_.load(std::memory_order_relaxed)) {
            for (int i = 1; i < 2048; ++i) sink = sink * 1.0000001 + i;
          }
        }) {
    while (!registered_.load()) std::this_thread::yield();
  }
  ~BusyThread() {
    done_.store(true);
    thread_.join();
  }

 private:
  std::atomic<bool> done_{false};
  std::atomic<bool> registered_{false};
  std::thread thread_;
};

TEST(ProfilerTest, StartRejectsBadHz) {
  Profiler::RegisterCurrentThread();
  EXPECT_EQ(Profiler::Global().Start(0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Profiler::Global().Start(Profiler::kMaxHz + 1).code(),
            StatusCode::kInvalidArgument);
}

TEST(ProfilerTest, StopWithoutStartFails) {
  const auto result = Profiler::Global().Stop();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ProfilerTest, CollectRejectsBadWindow) {
  Profiler::RegisterCurrentThread();
  EXPECT_EQ(Profiler::Global().Collect(0.0, 99).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Profiler::Global()
                .Collect(Profiler::kMaxWindowSeconds + 1, 99)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ProfilerTest, CollectCapturesBusyThreadWithPhaseRoot) {
  BusyThread busy(TracePhase::kDiscover);
  // 500 Hz over 300 ms of a spinning thread: expect plenty of samples
  // even on a loaded CI machine (the timer counts the thread's own
  // CPU time, so other load does not starve it).
  const auto result = Profiler::Global().Collect(0.3, 500);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->samples, 0u);
  EXPECT_EQ(result->hz, 500);
  EXPECT_GT(result->threads, 0);
  EXPECT_FALSE(result->folded.empty());
  // Folded lines are "phase;frames... count"; the busy thread's samples
  // carry its TracePhase as the synthetic root.
  EXPECT_NE(result->folded.find("discover;"), std::string::npos)
      << result->folded;
  // Every line ends in a positive count.
  size_t start = 0;
  while (start < result->folded.size()) {
    size_t end = result->folded.find('\n', start);
    if (end == std::string::npos) end = result->folded.size();
    const std::string line = result->folded.substr(start, end - start);
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::stoull(line.substr(space + 1)), 0u) << line;
    start = end + 1;
  }
}

int64_t ThreadCpuNanos() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<int64_t>(now.tv_sec) * 1'000'000'000 + now.tv_nsec;
}

/// CPU time this thread spends on a fixed spin loop (about 0.12 s in an
/// optimized build).
double FixedLoopCpuSeconds() {
  const int64_t start = ThreadCpuNanos();
  volatile double sink = 1.0;
  for (int i = 1; i < 25'000'000; ++i) sink = sink * 1.0000001 + i;
  return static_cast<double>(ThreadCpuNanos() - start) * 1e-9;
}

TEST(ProfilerTest, WindowCostsTheSampledThreadAtMostTenPercent) {
  // The overhead gate: a live 99 Hz window may cost the thread it
  // samples at most 10% CPU. SIGPROF runs on that thread, so its CPU
  // clock holds the whole cost of the window, and unlike wall time it
  // does not move when other load takes the core. Pairs alternate which
  // side runs first (ABBA), so drift on the box hits both sides alike.
  Profiler::RegisterCurrentThread();
  constexpr int kPairs = 6;
  std::vector<double> plain;
  std::vector<double> profiled;
  uint64_t samples = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    for (int side = 0; side < 2; ++side) {
      if ((pair + side) % 2 == 0) {
        plain.push_back(FixedLoopCpuSeconds());
        continue;
      }
      ASSERT_TRUE(Profiler::Global().Start(Profiler::kDefaultHz).ok());
      profiled.push_back(FixedLoopCpuSeconds());
      const auto result = Profiler::Global().Stop();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      samples += result->samples;
    }
  }
  EXPECT_GT(samples, 0u);
  EXPECT_LE(Median(profiled), 1.10 * Median(plain))
      << "profiled median " << Median(profiled) << " s vs unprofiled "
      << Median(plain) << " s";
}

TEST(ProfilerTest, SecondStartWhileActiveIsUnavailable) {
  BusyThread busy(TracePhase::kHandler);
  ASSERT_TRUE(Profiler::Global().Start(99).ok());
  EXPECT_EQ(Profiler::Global().Start(99).code(), StatusCode::kUnavailable);
  EXPECT_TRUE(Profiler::Global().active());
  const auto result = Profiler::Global().Stop();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(Profiler::Global().active());
}

TEST(ProfilerTest, StatsAccumulateAcrossWindows) {
  BusyThread busy(TracePhase::kSample);
  const ProfilerStats before = Profiler::Global().stats();
  const auto result = Profiler::Global().Collect(0.1, 200);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ProfilerStats after = Profiler::Global().stats();
  EXPECT_EQ(after.windows_total, before.windows_total + 1);
  EXPECT_GE(after.samples_total, before.samples_total + result->samples);
  EXPECT_FALSE(after.active);
  EXPECT_GT(after.registered_threads, 0);
}

TEST(ProfilerTest, ThreadExitDuringWindowIsSafe) {
  // A registered thread dying mid-window must not crash the handler or
  // the drain (its ring is torn down by its own TLS destructor).
  ASSERT_TRUE(Profiler::Global().Start(500).ok());
  {
    BusyThread busy(TracePhase::kPrepare);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }  // joins (and unregisters) while the window is active
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto result = Profiler::Global().Stop();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

#endif  // !EGP_TSAN

TEST(TracePhaseTest, ScopedPhaseNestsAndRestores) {
  EXPECT_EQ(CurrentTracePhase(), TracePhase::kIdle);
  {
    ScopedTracePhase outer(TracePhase::kHandler);
    EXPECT_EQ(CurrentTracePhase(), TracePhase::kHandler);
    {
      ScopedTracePhase inner(TracePhase::kPrepare);
      EXPECT_EQ(CurrentTracePhase(), TracePhase::kPrepare);
    }
    EXPECT_EQ(CurrentTracePhase(), TracePhase::kHandler);
  }
  EXPECT_EQ(CurrentTracePhase(), TracePhase::kIdle);
}

TEST(TracePhaseTest, PhaseNamesAreStable) {
  EXPECT_STREQ(TracePhaseName(TracePhase::kIdle), "idle");
  EXPECT_STREQ(TracePhaseName(TracePhase::kPrepare), "prepare");
  EXPECT_STREQ(TracePhaseName(TracePhase::kDiscover), "discover");
  EXPECT_STREQ(TracePhaseName(TracePhase::kFlush), "flush");
}

}  // namespace
}  // namespace egp
