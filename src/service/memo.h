// egp::Memo — compute each key's value once and share it with every
// caller.
//
// The first caller for a key inserts a future under the lock and computes
// outside it; later callers for that key wait on the future, and callers
// for other keys proceed. A failure, a returned error or a thrown
// exception, erases the caller's own insert before it fulfils the future:
// a listed entry is always either building or holding a value, and the
// next call for the key computes again. Callers already waiting get the
// same error or exception, never a broken promise.
//
// With a capacity, an insert beyond it evicts the least-recently-used
// entry. A caller waiting on an evicted entry keeps its own copy of the
// future, so eviction never strands it. That is also why a failing call
// erases its insert by generation, not by key: after an eviction another
// call may have inserted the key again, and that entry must survive.
//
// This header is the only place std::promise and std::future may appear
// (the once-fill rule in tools/lint_invariants.py), so every fill in the
// tree shares this one failure path.
#ifndef EGP_SERVICE_MEMO_H_
#define EGP_SERVICE_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/timer.h"

namespace egp {

template <typename Key, typename Value, typename Less = std::less<Key>>
class Memo {
 public:
  using Ptr = std::shared_ptr<const Value>;

  /// `lock_site` labels the lock's contention telemetry (a string
  /// literal); `capacity` bounds the entries, 0 meaning unbounded.
  Memo(const char* lock_site, size_t capacity)
      : capacity_(capacity), mu_(lock_site) {}

  /// The value for `key`: the memoized one, or `compute()` (which returns
  /// Result<Value>) run now, outside the lock. `*hit`, unless `hit` is
  /// null, says whether an entry was found, built or still building. A
  /// hit moves the entry's recency; a miss may evict.
  template <typename Compute>
  Result<Ptr> Get(const Key& key, Compute&& compute, bool* hit)
      EGP_EXCLUDES(mu_) {
    std::optional<std::promise<Result<Ptr>>> promise;
    std::shared_future<Result<Ptr>> future;
    uint64_t generation = 0;
    {
      MutexLock lock(&mu_);
      const auto it = entries_.find(key);
      if (hit != nullptr) *hit = it != entries_.end();
      if (it != entries_.end()) {
        ++hits_;
        Entry& entry = it->second;
        entry.last_used = ++tick_;
        ++entry.hits;
        entry.last_used_ns = MonotonicNanos();
        if (entry.value != nullptr) return entry.value;
        future = entry.future;
      } else {
        ++misses_;
        promise.emplace();
        Entry entry;
        entry.future = promise->get_future().share();
        generation = entry.last_used = ++tick_;
        entry.generation = generation;
        entry.inserted_ns = entry.last_used_ns = MonotonicNanos();
        entries_.emplace(key, std::move(entry));
        if (capacity_ > 0 && entries_.size() > capacity_) {
          EvictLeastRecentlyUsed();
        }
      }
    }
    if (!promise) return future.get();

    Result<Ptr> result = Status::Internal("unset");
    try {
      Result<Value> computed = compute();
      result = computed.ok() ? Result<Ptr>(std::make_shared<const Value>(
                                   std::move(computed).value()))
                             : Result<Ptr>(computed.status());
    } catch (...) {
      Settle(key, generation, nullptr);
      promise->set_exception(std::current_exception());
      throw;
    }
    Settle(key, generation, result.ok() ? result.value() : nullptr);
    promise->set_value(result);
    return result;
  }

  /// True when `key`'s value is built. A pure probe: no counter or
  /// recency moves.
  bool Ready(const Key& key) const EGP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    const auto it = entries_.find(key);
    return it != entries_.end() && it->second.value != nullptr;
  }

  /// Counters are cumulative since construction; `entries` is the
  /// current size. A failure's erased insert counts as a miss only.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
  };
  Stats stats() const EGP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return Stats{hits_, misses_, evictions_, entries_.size()};
  }

  /// What Entries() lists of one entry.
  struct Info {
    Ptr value;               // null while the entry is building
    uint64_t last_used = 0;  // recency tick: larger is more recent
    uint64_t hits = 0;
    int64_t inserted_ns = 0;   // MonotonicNanos
    int64_t last_used_ns = 0;  // == inserted_ns when never hit
  };
  /// The current entries, in key order.
  std::vector<std::pair<Key, Info>> Entries() const EGP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return std::vector<std::pair<Key, Info>>(entries_.begin(), entries_.end());
  }

 private:
  struct Entry : Info {
    std::shared_future<Result<Ptr>> future;
    uint64_t generation = 0;  // the tick of the insert, for Settle
  };

  // Ends this call's insert, if eviction left it in place: it holds
  // `value`, or is erased when `value` is null (a failure).
  void Settle(const Key& key, uint64_t generation, Ptr value)
      EGP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    const auto it = entries_.find(key);
    if (it == entries_.end() || it->second.generation != generation) return;
    if (value != nullptr) {
      it->second.value = std::move(value);
    } else {
      entries_.erase(it);
    }
  }

  void EvictLeastRecentlyUsed() EGP_REQUIRES(mu_) {
    auto lru = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < lru->second.last_used) lru = it;
    }
    entries_.erase(lru);
    ++evictions_;
  }

  const size_t capacity_;
  // Every call writes the lock and the counters after it, so they start
  // a cache line of their own, apart from the owner's read-mostly fields.
  alignas(64) mutable Mutex mu_;
  std::map<Key, Entry, Less> entries_ EGP_GUARDED_BY(mu_);
  uint64_t tick_ EGP_GUARDED_BY(mu_) = 0;
  uint64_t hits_ EGP_GUARDED_BY(mu_) = 0;
  uint64_t misses_ EGP_GUARDED_BY(mu_) = 0;
  uint64_t evictions_ EGP_GUARDED_BY(mu_) = 0;
};

}  // namespace egp

#endif  // EGP_SERVICE_MEMO_H_
