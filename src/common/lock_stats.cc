#include "common/lock_stats.h"

#include <time.h>

#include <cstring>

namespace egp {
namespace {

// Fixed table: global Mutex objects register during static
// initialization, so this must be constant-initialized (zero atomics)
// with no dynamic allocation and no guard variable.
constexpr size_t kMaxLockSites = 128;
constinit LockSite g_sites[kMaxLockSites];
std::atomic<size_t> g_site_count{0};

void UpdateMax(std::atomic<uint64_t>& slot, uint64_t value) {
  uint64_t seen = slot.load(std::memory_order_relaxed);
  while (value > seen &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

LockSite* RegisterLockSite(const char* name) {
  if (name == nullptr) return nullptr;
  // Dedup by name so every Engine (each with its own cache Mutex) shares
  // one "engine.prepared_cache" slot. Linear scan: registration happens
  // once per Mutex construction, not per acquisition.
  const size_t count = g_site_count.load(std::memory_order_acquire);
  for (size_t i = 0; i < count; ++i) {
    const char* existing = g_sites[i].name.load(std::memory_order_acquire);
    if (existing != nullptr &&
        (existing == name || std::strcmp(existing, name) == 0)) {
      return &g_sites[i];
    }
  }
  // Claim the next slot. Two racing registrations of the same name may
  // burn two slots — harmless (both record under the same label).
  const size_t slot = g_site_count.fetch_add(1, std::memory_order_acq_rel);
  if (slot >= kMaxLockSites) {
    g_site_count.store(kMaxLockSites, std::memory_order_release);
    return nullptr;  // table full: degrade to unlabeled
  }
  g_sites[slot].name.store(name, std::memory_order_release);
  return &g_sites[slot];
}

int64_t LockStatsNanos() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void RecordLockWait(LockSite* site, int64_t wait_nanos) {
  if (wait_nanos < 0) wait_nanos = 0;
  const auto nanos = static_cast<uint64_t>(wait_nanos);
  site->contentions.fetch_add(1, std::memory_order_relaxed);
  site->wait.ObserveNanos(nanos);
  UpdateMax(site->max_wait_nanos, nanos);
}

void RecordLockHold(LockSite* site, int64_t hold_nanos) {
  if (hold_nanos < 0) hold_nanos = 0;
  const auto nanos = static_cast<uint64_t>(hold_nanos);
  site->hold_samples.fetch_add(1, std::memory_order_relaxed);
  site->hold_nanos.fetch_add(nanos, std::memory_order_relaxed);
  UpdateMax(site->max_hold_nanos, nanos);
}

bool ShouldSampleHold(LockSite* site) {
  const uint64_t n = site->acquisitions.fetch_add(1, std::memory_order_relaxed);
  return n % kHoldSamplePeriod == 0;
}

std::vector<LockSiteSnapshot> SnapshotLockSites() {
  std::vector<LockSiteSnapshot> out;
  const size_t count = g_site_count.load(std::memory_order_acquire);
  const size_t n = count < kMaxLockSites ? count : kMaxLockSites;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const LockSite& site = g_sites[i];
    const char* name = site.name.load(std::memory_order_acquire);
    if (name == nullptr) continue;  // slot claimed but not yet named
    LockSiteSnapshot snap;
    snap.name = name;
    snap.acquisitions = site.acquisitions.load(std::memory_order_relaxed);
    snap.contentions = site.contentions.load(std::memory_order_relaxed);
    snap.wait = site.wait.snapshot();
    snap.max_wait_seconds =
        static_cast<double>(
            site.max_wait_nanos.load(std::memory_order_relaxed)) *
        1e-9;
    snap.hold_samples = site.hold_samples.load(std::memory_order_relaxed);
    snap.hold_seconds =
        static_cast<double>(site.hold_nanos.load(std::memory_order_relaxed)) *
        1e-9;
    snap.max_hold_seconds =
        static_cast<double>(
            site.max_hold_nanos.load(std::memory_order_relaxed)) *
        1e-9;
    out.push_back(snap);
  }
  return out;
}

}  // namespace egp
