#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <stdexcept>

#include "common/profiler.h"

namespace egp {
namespace {

/// Set while a thread executes a ParallelFor chunk (worker or caller);
/// used to reject nested parallel regions deterministically.
thread_local bool tls_in_parallel_body = false;

struct ParallelBodyGuard {
  ParallelBodyGuard() { tls_in_parallel_body = true; }
  ~ParallelBodyGuard() { tls_in_parallel_body = false; }
};

}  // namespace

unsigned HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

unsigned Threads() {
  if (const char* env = std::getenv("EGP_THREADS")) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<unsigned>(
          std::min<unsigned long>(parsed, kMaxThreads));
    }
  }
  return HardwareThreads();
}

ThreadPool::ThreadPool(unsigned parallelism)
    : parallelism_(std::clamp(parallelism, 1u, kMaxThreads)) {
  workers_.reserve(parallelism_ - 1);
  for (unsigned i = 1; i < parallelism_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    queue_.push_back(std::move(task));
  }
  work_available_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  // Pool workers run PreparedSchema builds — the CPU-heavy phase the
  // sampling profiler most needs to see.
  Profiler::RegisterCurrentThread();
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && queue_.empty()) work_available_.Wait(mu_);
      // Drain the queue even when stopping: runners belong to
      // ParallelFor calls that are blocked waiting for them.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ParallelForChunks(ThreadPool* pool, size_t begin, size_t end,
                       const std::function<void(size_t, size_t)>& body,
                       size_t grain) {
  if (begin >= end) return;
  if (tls_in_parallel_body) {
    throw std::logic_error(
        "ParallelFor may not be nested inside a ParallelFor body");
  }
  grain = std::max<size_t>(grain, 1);
  const size_t n = end - begin;
  const size_t runners =
      pool == nullptr ? 1 : std::min<size_t>(pool->parallelism(), n / grain);
  if (runners <= 1) {
    ParallelBodyGuard guard;
    body(begin, end);
    return;
  }

  // One synchronous batch: the caller and runners - 1 workers claim
  // chunks until none is left, then the caller waits for the workers. A
  // chunk whose body throws is recorded (the lowest chunk wins, so
  // failure reporting is as deterministic as the results) and its
  // runner claims on.
  //
  // The batch lives on the caller's stack and workers hold plain
  // references: a worker's final touch of the batch (and of any captured
  // exception) is its locked decrement, which happens-before the caller
  // observing remaining == 0 — so the batch, and the exception object
  // the caller rethrows, are never destroyed from a worker.
  const size_t chunks = n / grain + (n % grain != 0 ? 1 : 0);
  struct Batch {
    Batch(size_t runners, size_t chunks)
        : remaining(runners), error_chunk(chunks) {}
    std::atomic<size_t> next_chunk{0};
    Mutex mu;
    CondVar done;
    size_t remaining EGP_GUARDED_BY(mu);
    size_t error_chunk EGP_GUARDED_BY(mu);
    std::exception_ptr error EGP_GUARDED_BY(mu);
  };
  Batch batch(runners, chunks);

  const auto run = [&batch, &body, begin, end, grain, chunks] {
    {
      ParallelBodyGuard guard;
      for (;;) {
        const size_t c =
            batch.next_chunk.fetch_add(1, std::memory_order_relaxed);
        if (c >= chunks) break;
        const size_t chunk_begin = begin + c * grain;
        try {
          body(chunk_begin, chunk_begin + std::min(grain, end - chunk_begin));
        } catch (...) {
          MutexLock lock(&batch.mu);
          if (c < batch.error_chunk) {
            batch.error_chunk = c;
            batch.error = std::current_exception();
          }
        }
      }
    }
    MutexLock lock(&batch.mu);
    if (--batch.remaining == 0) batch.done.NotifyAll();
  };

  // A Submit failure (queue allocation under memory pressure) costs only
  // parallelism: the runners that launched and the caller claim every
  // chunk, so account for the missing runners and proceed.
  size_t launched = 0;
  try {
    for (; launched + 1 < runners; ++launched) {
      pool->Submit([&run] { run(); });
    }
  } catch (...) {
    MutexLock lock(&batch.mu);
    batch.remaining -= runners - 1 - launched;
  }
  run();

  std::exception_ptr error;
  {
    MutexLock lock(&batch.mu);
    while (batch.remaining != 0) batch.done.Wait(batch.mu);
    error = std::move(batch.error);
  }
  if (error) std::rethrow_exception(std::move(error));
}

}  // namespace egp
