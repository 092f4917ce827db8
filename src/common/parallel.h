// Parallel loops for the scoring pipeline and the catalog load.
//
// The PreparedSchema build is dominated by embarrassingly parallel loops
// (per-(relationship, direction) entropy, per-source BFS, per-type
// candidate sorts, random-walk rows). ThreadPool + ParallelFor run those
// loops across a fixed set of worker threads: the caller and the workers
// claim grain-sized chunks of the index range from one shared counter
// until none is left, so a loop whose per-index cost is skewed (one
// relationship owning most of the edges) balances across the runners,
// and a uniform one pays one atomic increment per chunk. Scheduling
// decides only which runner takes a chunk. A body that writes only
// index-owned slots, each in a fixed order, therefore produces
// bit-identical results at any thread count, which the determinism
// regression suite (tests/core/prepare_determinism_test.cc) locks in.
//
// Conventions:
//   - A null pool, parallelism 1, or a range shorter than two grains
//     runs body(begin, end) inline on the caller: the serial path has no
//     pool overhead at all.
//   - ThreadPool(n) provides n-way parallelism using n-1 workers; the
//     calling thread claims chunks beside them.
//   - An exception thrown by the body ends its chunk; the runner claims
//     on. The exception from the lowest failing chunk (which holds the
//     lowest failing index) is rethrown on the caller after every runner
//     stopped, and the pool stays usable.
//   - Nesting is rejected: calling ParallelFor from inside a ParallelFor
//     body throws std::logic_error, on the inline path too. Scoring
//     loops are flat by design; silent serialization would hide an
//     architectural mistake.
#ifndef EGP_COMMON_PARALLEL_H_
#define EGP_COMMON_PARALLEL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"

namespace egp {

/// Hardware concurrency, at least 1.
unsigned HardwareThreads();

/// Upper bound on any requested parallelism (ThreadPool construction,
/// EGP_THREADS, EngineOptions::threads): beyond this, extra OS threads
/// only add scheduling overhead, and unclamped user input could fail
/// thread creation outright.
inline constexpr unsigned kMaxThreads = 256;

/// Default parallelism: the EGP_THREADS environment variable when set to a
/// positive integer (clamped to kMaxThreads), otherwise HardwareThreads().
/// Read on every call so tests and long-lived processes can re-point it.
unsigned Threads();

class ThreadPool {
 public:
  /// n-way parallelism: spawns n-1 workers (clamped to [1, kMaxThreads];
  /// a 1-parallel pool has no workers and ParallelFor runs inline).
  explicit ThreadPool(unsigned parallelism = Threads());

  /// Joins all workers once they have run every queued task (see Submit
  /// for a 1-parallel pool). Outstanding ParallelFor calls must have
  /// returned.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The n of construction: workers + the participating caller.
  unsigned parallelism() const { return parallelism_; }

  /// Enqueues a task for a worker thread: the primitive under
  /// ParallelFor and the one the HTTP server runs its handlers with.
  /// A 1-parallel pool has no worker, so a task submitted to it never
  /// runs and is dropped at destruction. A task that lets an exception
  /// escape terminates the process.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  const unsigned parallelism_;
  Mutex mu_{"threadpool.queue"};
  CondVar work_available_;
  std::deque<std::function<void()>> queue_ EGP_GUARDED_BY(mu_);
  bool stopping_ EGP_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

/// Runs body(chunk_begin, chunk_end) over [begin, end) cut into chunks of
/// `grain` indices ([begin, begin + grain), [begin + grain, begin +
/// 2·grain), ...; the last may be shorter). The caller and up to
/// min(parallelism, (end - begin) / grain) - 1 workers claim the chunks
/// in index order from one shared counter. `grain` (default 1) is the
/// fewest indices worth a runner: loops whose per-index work is tiny
/// (e.g. one power-iteration row) set it so short ranges run inline
/// instead of paying cross-thread dispatch per call.
void ParallelForChunks(ThreadPool* pool, size_t begin, size_t end,
                       const std::function<void(size_t, size_t)>& body,
                       size_t grain = 1);

/// The parallel loop: runs body(i) for every i in [begin, end), in index
/// order within each chunk of ParallelForChunks.
template <typename Body>
void ParallelFor(ThreadPool* pool, size_t begin, size_t end, Body&& body,
                 size_t grain = 1) {
  ParallelForChunks(
      pool, begin, end,
      [&body](size_t chunk_begin, size_t chunk_end) {
        for (size_t i = chunk_begin; i < chunk_end; ++i) {
          body(i);
        }
      },
      grain);
}

}  // namespace egp

#endif  // EGP_COMMON_PARALLEL_H_
