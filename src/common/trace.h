// Request-scoped trace context for the serving subsystem.
//
// A RequestTrace rides along with one HTTP exchange from accept to the
// final flushed byte, accumulating a per-phase timing breakdown (read,
// pool-queue wait, admission wait, handler compute, serialize, flush)
// plus whatever the layers underneath contribute (Engine prepare/score
// phase timings, prepared-cache hit). The transport owns the object and
// finalizes it; everything below the transport reaches the in-flight
// trace through a thread-local pointer (CurrentRequestTrace), so the
// service layer needs no API change to annotate a request.
//
// This lives in common/ (not server/) on purpose: the layering DAG lets
// service/ and store/ include common/ but not server/, and both need to
// write into the active trace.
#ifndef EGP_COMMON_TRACE_H_
#define EGP_COMMON_TRACE_H_

#include <cstdint>
#include <string>

#include "common/mutex.h"
#include "common/rng.h"

namespace egp {

/// CLOCK_MONOTONIC now, in nanoseconds — the fine-grained sibling of the
/// millisecond deadline clock; sub-millisecond phases (serialize, flush
/// on loopback) need the resolution.
int64_t MonotonicNanos();

/// One request's trace: identity, phase timings (seconds), sizes, and
/// outcome. All fields are plain values; the object is only ever touched
/// by one thread at a time (loop thread -> pool thread -> loop thread,
/// each handoff through a synchronizing queue).
struct RequestTrace {
  /// 16 lowercase hex chars when generated; verbatim client value when
  /// the request carried X-Request-Id.
  std::string id;
  std::string method;
  std::string path;
  std::string dataset;  // filled by the API layer once resolved

  /// "ok", "shed" (admission 503), "error" (other 4xx/5xx),
  /// "parse_error", "read_timeout" (408), "write_timeout", "disconnect"
  /// (peer gone before the response flushed).
  std::string outcome = "ok";
  int status = 0;

  uint64_t bytes_in = 0;   // request head + body bytes
  uint64_t bytes_out = 0;  // serialized response bytes

  // Phase breakdown. read + queue + admission + handler + serialize +
  // flush ~= total (handler_seconds excludes the admission wait).
  double read_seconds = 0;       // first byte owed -> request parsed
  double queue_seconds = 0;      // dispatch -> handler start (pool wait)
  double admission_seconds = 0;  // waiting for a cold-build slot
  double handler_seconds = 0;    // handler compute, minus admission wait
  double serialize_seconds = 0;  // response -> outbox bytes
  double flush_seconds = 0;      // outbox -> socket fully flushed
  double total_seconds = 0;      // request start -> finalized

  // Engine detail (filled via CurrentRequestTrace by service/).
  bool cache_hit = false;
  double prepare_seconds = 0;
  double discover_seconds = 0;
  double sample_seconds = 0;
  double prepare_key_seconds = 0;
  double prepare_nonkey_seconds = 0;
  double prepare_distance_seconds = 0;
  double prepare_candidate_sort_seconds = 0;

  // Bookkeeping (monotonic ns); not serialized.
  int64_t start_ns = 0;     // connection began owing this request
  int64_t dispatch_ns = 0;  // parse complete, handed to the pool
};

/// The trace of the request this thread is currently handling, or
/// nullptr outside a traced handler. Layers below the transport use this
/// to annotate without plumbing a parameter through every signature.
RequestTrace* CurrentRequestTrace();

/// What this thread is doing *right now*, at request-phase granularity.
/// Maintained by ScopedTracePhase at the same places the RequestTrace
/// phase timers run, but independent of any RequestTrace: the sampling
/// profiler (common/profiler.h) reads it from its SIGPROF handler to
/// tag each CPU sample, so flamegraphs split by phase.
///
/// kIdle is the resting state (event-loop wait, pool queue wait, any
/// thread outside a phase scope).
enum class TracePhase : uint8_t {
  kIdle = 0,
  kRead,
  kAdmission,
  kHandler,
  kPrepare,
  kDiscover,
  kSample,
  kSerialize,
  kFlush,
};
inline constexpr int kTracePhaseCount = 9;

/// Stable lowercase name ("idle", "read", ...) for folded-stack output
/// and tests. Out-of-range values map to "idle".
const char* TracePhaseName(TracePhase phase);

/// This thread's current phase. Async-signal-safe by construction: a
/// plain thread_local read with no lazy initialization (the profiler's
/// signal handler calls this).
TracePhase CurrentTracePhase();

/// RAII scope setting this thread's phase; restores the previous phase
/// (phases nest — prepare/discover/sample run inside handler).
class ScopedTracePhase {
 public:
  explicit ScopedTracePhase(TracePhase phase);
  ~ScopedTracePhase();
  ScopedTracePhase(const ScopedTracePhase&) = delete;
  ScopedTracePhase& operator=(const ScopedTracePhase&) = delete;

 private:
  TracePhase previous_;
};

/// RAII scope installing `trace` as this thread's current trace;
/// restores the previous value (normally nullptr) on destruction.
class ScopedRequestTrace {
 public:
  explicit ScopedRequestTrace(RequestTrace* trace);
  ~ScopedRequestTrace();
  ScopedRequestTrace(const ScopedRequestTrace&) = delete;
  ScopedRequestTrace& operator=(const ScopedRequestTrace&) = delete;

 private:
  RequestTrace* previous_;
};

/// Thread-safe generator of 16-hex-char trace IDs, deterministic from
/// its seed (the repo-wide reproducibility rule: no entropy sources).
class TraceIdGenerator {
 public:
  explicit TraceIdGenerator(uint64_t seed = 0x7261636554726163ull);

  std::string Next();

 private:
  Mutex mu_{"trace_ids"};
  Rng rng_ EGP_GUARDED_BY(mu_);
};

}  // namespace egp

#endif  // EGP_COMMON_TRACE_H_
