#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

namespace egp {
namespace {

TEST(ThreadsTest, AtLeastOne) {
  EXPECT_GE(HardwareThreads(), 1u);
  EXPECT_GE(Threads(), 1u);
}

TEST(ThreadsTest, EnvOverrideWinsAndInvalidFallsBack) {
  ASSERT_EQ(setenv("EGP_THREADS", "3", 1), 0);
  EXPECT_EQ(Threads(), 3u);
  ASSERT_EQ(setenv("EGP_THREADS", "999999", 1), 0);
  EXPECT_EQ(Threads(), 256u);  // clamped
  ASSERT_EQ(setenv("EGP_THREADS", "0", 1), 0);
  EXPECT_EQ(Threads(), HardwareThreads());
  ASSERT_EQ(setenv("EGP_THREADS", "banana", 1), 0);
  EXPECT_EQ(Threads(), HardwareThreads());
  ASSERT_EQ(unsetenv("EGP_THREADS"), 0);
  EXPECT_EQ(Threads(), HardwareThreads());
}

TEST(ThreadPoolTest, ZeroParallelismClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.parallelism(), 1u);
  int runs = 0;
  ParallelFor(&pool, 0, 4, [&runs](size_t) { ++runs; });
  EXPECT_EQ(runs, 4);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (unsigned parallelism : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(parallelism);
    for (size_t grain : {size_t{1}, size_t{3}, size_t{16}}) {
      for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{7},
                       size_t{64}, size_t{500}, size_t{1000}}) {
        std::vector<std::atomic<int>> hits(n);
        ParallelFor(
            &pool, 0, n, [&hits](size_t i) { ++hits[i]; }, grain);
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(hits[i].load(), 1)
              << "index " << i << " of " << n << " at parallelism "
              << parallelism << ", grain " << grain;
        }
      }
    }
  }
}

TEST(ParallelForTest, NullPoolRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const auto& range : {std::pair<size_t, size_t>{5, 10}, {0, 10}}) {
    const size_t begin = range.first;
    const size_t end = range.second;
    size_t count = 0;
    size_t sum = 0;
    ParallelFor(nullptr, begin, end, [&](size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      EXPECT_GE(i, begin);
      EXPECT_LT(i, end);
      ++count;
      sum += i;
    });
    EXPECT_EQ(count, end - begin);
    EXPECT_EQ(sum, (begin + end - 1) * (end - begin) / 2);
  }
}

TEST(ParallelForTest, SlowChunkDoesNotHoldBackTheRest) {
  // Index 0 waits until every other index has run, which only other
  // runners can do: chunks are claimed, not dealt out in advance (dealt
  // out, 1..15 would wait behind index 0 until the timeout).
  ThreadPool pool(4);
  constexpr size_t kN = 64;
  std::atomic<size_t> others{0};
  ParallelFor(&pool, 0, kN, [&others](size_t i) {
    if (i != 0) {
      ++others;
      return;
    }
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (others.load() < kN - 1 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    EXPECT_EQ(others.load(), kN - 1);
  });
}

TEST(ParallelForTest, EmptyAndReversedRangesAreNoOps) {
  ThreadPool pool(4);
  int runs = 0;
  ParallelFor(&pool, 3, 3, [&runs](size_t) { ++runs; });
  ParallelFor(&pool, 5, 2, [&runs](size_t) { ++runs; });
  EXPECT_EQ(runs, 0);
}

TEST(ParallelForTest, OneElementRange) {
  ThreadPool pool(4);
  std::vector<size_t> seen;
  ParallelFor(&pool, 41, 42, [&seen](size_t i) { seen.push_back(i); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 41u);
}

TEST(ParallelForTest, ChunksPartitionTheRange) {
  // Grain-sized chunks, the last one shorter; a range shorter than two
  // grains is one inline chunk.
  using Chunks = std::vector<std::pair<size_t, size_t>>;
  ThreadPool pool(3);
  for (const auto& [end, grain, expected] :
       {std::tuple{size_t{10}, size_t{4}, Chunks{{0, 4}, {4, 8}, {8, 10}}},
        std::tuple{size_t{10}, size_t{1}, Chunks{{0, 1}, {1, 2}, {2, 3},
                                                 {3, 4}, {4, 5}, {5, 6},
                                                 {6, 7}, {7, 8}, {8, 9},
                                                 {9, 10}}},
        std::tuple{size_t{7}, size_t{4}, Chunks{{0, 7}}}}) {
    Chunks chunks;
    std::mutex mu;
    ParallelForChunks(
        &pool, 0, end,
        [&](size_t lo, size_t hi) {
          std::lock_guard<std::mutex> lock(mu);
          chunks.emplace_back(lo, hi);
        },
        grain);
    std::sort(chunks.begin(), chunks.end());
    EXPECT_EQ(chunks, expected) << "grain " << grain;
  }
}

TEST(ParallelForTest, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 0, 100,
                  [](size_t i) {
                    if (i == 37) throw std::runtime_error("boom at 37");
                  }),
      std::runtime_error);
  // All chunks completed (no detached stragglers): the pool stays usable.
  std::atomic<size_t> sum{0};
  ParallelFor(&pool, 0, 100, [&sum](size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ParallelForTest, ExceptionFromLowestChunkWins) {
  // Multiple chunks throw; the error from the lowest failing index is the
  // one the caller sees, independent of scheduling. At grain 8 the low
  // throw sits mid-chunk, after indices of its chunk that succeeded.
  struct Case {
    size_t n;
    size_t grain;
    size_t low;
    size_t high_from;
  };
  ThreadPool pool(4);
  for (const Case& c : {Case{100, 1, 0, 90}, Case{64, 1, 3, 50},
                        Case{100, 8, 13, 50}}) {
    for (int round = 0; round < 8; ++round) {
      try {
        ParallelFor(
            &pool, 0, c.n,
            [&c](size_t i) {
              if (i == c.low) throw std::runtime_error("low");
              if (i >= c.high_from) throw std::runtime_error("high");
            },
            c.grain);
        FAIL() << "expected an exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "low") << "grain " << c.grain;
      }
    }
  }
}

TEST(ParallelForTest, SerialExceptionAlsoPropagates) {
  EXPECT_THROW(ParallelFor(nullptr, 0, 3,
                           [](size_t) { throw std::runtime_error("serial"); }),
               std::runtime_error);
}

TEST(ParallelForTest, NestedCallIsRejected) {
  ThreadPool pool(4);
  for (size_t n : {size_t{4}, size_t{8}}) {
    EXPECT_THROW(ParallelFor(&pool, 0, n,
                             [&pool](size_t) {
                               ParallelFor(&pool, 0, 2, [](size_t) {});
                             }),
                 std::logic_error);
  }
  // The serial (null-pool) path enforces the same contract.
  EXPECT_THROW(ParallelFor(nullptr, 0, 1,
                           [](size_t) {
                             ParallelFor(nullptr, 0, 1, [](size_t) {});
                           }),
               std::logic_error);
  // And the pool survives the rejection.
  std::atomic<int> runs{0};
  ParallelFor(&pool, 0, 8, [&runs](size_t) { ++runs; });
  EXPECT_EQ(runs.load(), 8);
}

TEST(ThreadPoolTest, SharedPoolUnderContentionAndShutdown) {
  // Several caller threads hammer one pool with overlapping ParallelFors;
  // the pool must serve them all and then shut down cleanly (workers
  // drain queued chunks, nobody hangs). TSan runs this suite too.
  constexpr int kCallers = 4;
  constexpr int kRounds = 50;
  std::vector<std::atomic<uint64_t>> sums(kCallers);
  {
    ThreadPool pool(4);
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&pool, &sums, c] {
        for (int r = 0; r < kRounds; ++r) {
          ParallelFor(&pool, 0, 64,
                      [&sums, c](size_t i) { sums[c] += i; });
        }
      });
    }
    for (std::thread& t : callers) t.join();
  }  // pool destroyed immediately after the last call returns
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(sums[c].load(), uint64_t{2016} * kRounds);
  }
}

TEST(ThreadPoolTest, ImmediateShutdownWithoutWork) {
  for (int i = 0; i < 100; ++i) {
    ThreadPool pool(8);  // construct + destruct churn
  }
}

}  // namespace
}  // namespace egp
