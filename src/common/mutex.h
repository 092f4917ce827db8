// The annotated locking primitives for the whole codebase: egp::Mutex,
// egp::MutexLock, and egp::CondVar — thin wrappers over std::mutex /
// std::condition_variable that carry Clang Thread Safety Analysis
// annotations (common/thread_annotations.h), so locking discipline is
// checked at compile time on every clang build.
//
// This header is the ONLY place naked std::mutex and
// std::condition_variable may appear; tools/lint_invariants.py enforces
// that. Everything else declares
//
//   Mutex mu_;
//   int value_ EGP_GUARDED_BY(mu_);
//
// and locks with `MutexLock lock(&mu_);`. Condition waits are explicit
// while-loops over CondVar::Wait/WaitUntil rather than predicate
// lambdas: the analysis checks the loop body in the surrounding
// (annotated) function, whereas a lambda predicate would be analyzed
// out of context and flag every guarded read inside it.
//
// Because every lock in the tree goes through this one class, it is
// also the contention-telemetry choke point: a Mutex constructed with a
// site label (`Mutex mu_{"engine.prepared_cache"};`) records wait times
// on contended acquisitions and 1-in-N sampled hold times into
// common/lock_stats.h, surfaced as egp_mutex_* metrics and
// /v1/debug/locks. Unlabeled mutexes pay one branch per Lock/Unlock.
// The telemetry is always on: the uncontended path costs what a plain
// lock() costs, and only a contended or sampled acquisition reads the
// clock.
#ifndef EGP_COMMON_MUTEX_H_
#define EGP_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/lock_stats.h"
#include "common/thread_annotations.h"

namespace egp {

class CondVar;

/// An exclusive lock. Non-recursive, like the std::mutex underneath.
class EGP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// Labeled constructor: contention at this lock is recorded under
  /// `site` (a string literal) in lock_stats. Telemetry-free if the
  /// site table is full.
  explicit Mutex(const char* site) : site_(RegisterLockSite(site)) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() EGP_ACQUIRE() {
    // try_lock first: on the uncontended path this is the same atomic
    // exchange a plain lock() starts with, so the fast path stays fast
    // and only genuine contention pays for a second clock read.
    if (mu_.try_lock()) {
      AfterAcquire();
      return;
    }
    if (site_ != nullptr) {
      const int64_t wait_start = MonotonicNanos();
      mu_.lock();
      RecordLockWait(site_, MonotonicNanos() - wait_start);
    } else {
      mu_.lock();
    }
    AfterAcquire();
  }

  void Unlock() EGP_RELEASE() {
    BeforeRelease();
    mu_.unlock();
  }

  bool TryLock() EGP_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    AfterAcquire();
    return true;
  }

 private:
  friend class CondVar;

  // Both run strictly inside the critical section (after acquiring /
  // before releasing mu_), so hold_start_ns_ is effectively guarded by
  // the mutex itself.
  void AfterAcquire() {
    hold_start_ns_ = 0;
    if (site_ != nullptr && ShouldSampleHold(site_)) {
      hold_start_ns_ = MonotonicNanos();
    }
  }
  void BeforeRelease() {
    if (hold_start_ns_ != 0) {
      RecordLockHold(site_, MonotonicNanos() - hold_start_ns_);
      hold_start_ns_ = 0;
    }
  }

  std::mutex mu_;
  LockSite* const site_ = nullptr;
  int64_t hold_start_ns_ = 0;  // nonzero only while a sampled hold runs
};

/// RAII scope: acquires on construction, releases on destruction.
class EGP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) EGP_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() EGP_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable for egp::Mutex. All waits require the mutex held
/// (EGP_REQUIRES) and hold it again on return; spurious wakeups are
/// possible, so callers loop:
///
///   MutexLock lock(&mu_);
///   while (!ready_) cv_.Wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits, and reacquires before returning.
  /// A sampled hold segment ends at the wait (the lock is genuinely
  /// released) and a fresh sampling decision runs on reacquisition.
  void Wait(Mutex& mu) EGP_REQUIRES(mu) {
    mu.BeforeRelease();
    // Adopt the externally held lock for the wait, then hand ownership
    // back (release()) so the caller's MutexLock remains the one owner.
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
    mu.AfterAcquire();
  }

  /// Waits until notified or `deadline` (steady_clock — deadline paths
  /// never use the wall clock) passes. Returns false on timeout, true
  /// when notified (possibly spuriously): re-check the condition either
  /// way.
  bool WaitUntil(Mutex& mu, std::chrono::steady_clock::time_point deadline)
      EGP_REQUIRES(mu) {
    mu.BeforeRelease();
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    mu.AfterAcquire();
    return status == std::cv_status::no_timeout;
  }

  /// WaitUntil with a relative budget from now.
  bool WaitFor(Mutex& mu, std::chrono::milliseconds timeout)
      EGP_REQUIRES(mu) {
    return WaitUntil(mu, std::chrono::steady_clock::now() + timeout);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace egp

#endif  // EGP_COMMON_MUTEX_H_
