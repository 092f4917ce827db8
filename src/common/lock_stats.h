// Site-labeled lock-contention telemetry, the data plane behind
// egp::Mutex's instrumentation (common/mutex.h) and the server's
// /v1/debug/locks + egp_mutex_* metrics.
//
// A "site" is one named lock in the source tree ("engine.prepared_cache",
// "http.completions", ...). Mutexes constructed with a site label record,
// per site:
//
//   - contentions: acquisitions that found the lock held and had to wait,
//     with the wait time in a Histogram (egp_mutex_wait_seconds)
//   - sampled hold times: 1 in kHoldSamplePeriod acquisitions measure
//     lock-held duration, so the cost on the hot path is a counter bump
//
// Everything here is lock-free by construction — it runs inside
// Mutex::Lock/Unlock, so taking a lock to record lock stats would be
// somewhere between slow and deadlock. The registry is a fixed array of
// slots claimed by CAS; counters are relaxed atomics (per-event ordering
// does not matter, totals do); snapshots read whatever is current.
//
// This header is included by common/mutex.h and must therefore stay
// dependency-free: no mutex.h, no logging, nothing that locks.
#ifndef EGP_COMMON_LOCK_STATS_H_
#define EGP_COMMON_LOCK_STATS_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/timer.h"  // MonotonicNanos times waits and holds

namespace egp {

/// Upper bucket bounds (seconds) for the wait-time histogram, chosen to
/// bracket "invisible" (sub-microsecond futex handoff) through "the
/// server is in trouble" (a second-long convoy). +Inf is implicit.
inline constexpr double kLockWaitBounds[] = {1e-6, 1e-5, 1e-4,
                                             1e-3, 1e-2, 1e-1, 1.0};

/// One acquisition in kHoldSamplePeriod measures hold time.
inline constexpr uint64_t kHoldSamplePeriod = 64;

/// One registered lock site. All counters are cumulative since process
/// start; padded-ish by virtue of being per-site structs in a static
/// array (false sharing between sites is acceptable — contended paths
/// are already paying a futex).
struct LockSite {
  std::atomic<const char*> name{nullptr};
  std::atomic<uint64_t> acquisitions{0};  // all Lock()/TryLock() successes
  std::atomic<uint64_t> contentions{0};   // acquisitions that waited
  Histogram wait{kLockWaitBounds};        // wait times and their total
  std::atomic<uint64_t> max_wait_nanos{0};
  std::atomic<uint64_t> hold_samples{0};  // acquisitions with timed hold
  std::atomic<uint64_t> hold_nanos{0};    // total nanos across samples
  std::atomic<uint64_t> max_hold_nanos{0};
};

/// Registers (or finds, by pointer-or-string equality) the site named
/// `name` and returns its slot, or nullptr when the fixed table is full
/// (the mutex then degrades to an unlabeled one — never an error).
/// `name` must outlive the process (string literals, in practice).
LockSite* RegisterLockSite(const char* name);

/// Records one contended acquisition that waited `wait_nanos`.
void RecordLockWait(LockSite* site, int64_t wait_nanos);

/// Records one sampled hold of `hold_nanos`.
void RecordLockHold(LockSite* site, int64_t hold_nanos);

/// Counts the acquisition and decides whether this one times its hold.
bool ShouldSampleHold(LockSite* site);

/// Point-in-time copy of one site, for /metrics and /v1/debug/locks.
struct LockSiteSnapshot {
  const char* name = nullptr;
  uint64_t acquisitions = 0;
  uint64_t contentions = 0;
  Histogram::Snapshot wait;  // wait.sum_seconds is the total wait
  double max_wait_seconds = 0;
  uint64_t hold_samples = 0;
  double hold_seconds = 0;
  double max_hold_seconds = 0;
};

/// All registered sites, in registration order.
std::vector<LockSiteSnapshot> SnapshotLockSites();

}  // namespace egp

#endif  // EGP_COMMON_LOCK_STATS_H_
