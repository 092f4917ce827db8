// HttpServer: the transport half of the serving subsystem — a single
// epoll (level-triggered) event-loop thread plus a ThreadPool used ONLY
// for handler compute.
//
// Architecture (the ROADMAP's "event-loop serving core" layer):
//   * one loop thread owns every connection: it accepts, does all
//     non-blocking reads and writes, and arms one deadline timer per
//     connection (a lazy-deletion min-heap; epoll_wait's timeout is the
//     nearest deadline). No thread ever blocks on a socket.
//   * when a full request has been parsed, the connection is taken out
//     of epoll and the handler runs as one ThreadPool task; the finished
//     response comes back to the loop over a completion queue + wakeup
//     pipe and is flushed non-blockingly. A slow or stalled client
//     therefore costs one idle connection object, never a pinned worker
//     — tail latency survives trickle-readers and trickle-writers.
//   * deadlines are whole-exchange budgets on the CLOCK_MONOTONIC base:
//     read_timeout_ms bounds receiving one complete request (408 if it
//     expires mid-request, a silent close if the connection was idle
//     between keep-alive requests), write_timeout_ms bounds flushing one
//     complete response (expiry disconnects). Progress does not restart
//     either clock.
//   * in-flight connections are bounded: beyond the cap the loop queues
//     an immediate 503 on the new connection as just another
//     non-blocking write — a slow rejected client can no longer stall
//     accepting (it used to block the accept thread).
//   * Shutdown() (or a byte on shutdown_fd(), which is the only
//     async-signal-safe way in) stops accepting, closes idle keep-alive
//     connections (between requests, with no unread bytes in the
//     socket), lets each in-flight exchange finish with
//     Connection: close, and Wait() returns once the loop exits — a
//     graceful drain.
//
// The handler runs on pool threads concurrently: it must be thread-safe
// (PreviewService is; the Engine it wraps was built for this).
#ifndef EGP_SERVER_HTTP_SERVER_H_
#define EGP_SERVER_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/parallel.h"
#include "common/result.h"
#include "common/trace.h"
#include "server/http.h"
#include "server/metrics.h"
#include "server/socket.h"

namespace egp {

struct HttpServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the result from port().
  uint16_t port = 0;
  /// Handler compute threads. 0 resolves to max(2, egp::Threads()). 1
  /// runs one handler at a time, still off the loop thread, so reads,
  /// writes, deadlines and connection-cap 503s never wait for a handler.
  unsigned workers = 0;
  /// In-flight connection cap (accepted, not yet closed). Beyond it new
  /// connections get an immediate non-blocking 503. Must be >= 1.
  size_t max_connections = 256;
  /// Total budget for reading one complete request (and for keep-alive
  /// idle time between requests). Expiry mid-request answers 408;
  /// between requests it closes silently. Absolute deadline: trickled
  /// bytes do not restart the clock.
  int read_timeout_ms = 10'000;
  /// Total budget for flushing one complete response; expiry
  /// disconnects. Absolute deadline, as above.
  int write_timeout_ms = 10'000;
  /// Requests served on one connection before it is closed.
  size_t max_requests_per_connection = 1'000;
  HttpParserLimits limits;
  /// Every request is traced: it gets a RequestTrace whose ID is taken
  /// from the X-Request-Id header, else generated by TraceIdGenerator
  /// (deterministic by design); the ID is echoed as X-Request-Id on the
  /// response. This receives each finalized trace on the event-loop
  /// thread (access log + flight recorder wiring). Must be fast and
  /// non-blocking; may be empty.
  std::function<void(const RequestTrace&)> trace_sink;
};

/// Counters for /metrics and tests; all monotone since Start().
struct HttpServerStats {
  uint64_t accepted_connections = 0;
  uint64_t rejected_connections = 0;  // 503 at the connection cap
  uint64_t handled_requests = 0;      // responses queued (any status)
  uint64_t parse_errors = 0;          // 4xx/5xx from the parser itself
  uint64_t timed_out_connections = 0;  // read or write deadline expiries
  uint64_t accept_overloads = 0;  // accept() hit EMFILE/ENFILE/ENOBUFS
  uint64_t overload_sheds = 0;    // connections answered 503 via the
                                  // emergency fd during an overload
};

/// Event-loop introspection for /metrics: how the loop itself is doing,
/// as opposed to what it served (HttpServerStats). All cheap to scrape.
struct HttpServerRuntimeStats {
  /// Duration of one event-processing pass (epoll wake -> back to
  /// epoll_wait): the latency tax every ready event pays before the
  /// loop gets back to waiting.
  Histogram::Snapshot loop_lag;
  size_t connections_reading = 0;
  size_t connections_handling = 0;
  size_t connections_writing = 0;
  size_t timer_heap_depth = 0;        // incl. lazily-deleted stale entries
  size_t completion_queue_depth = 0;  // handler results awaiting the loop
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Binds, spawns the worker pool and the event-loop thread. The
  /// returned server is already serving.
  static Result<std::unique_ptr<HttpServer>> Start(
      Handler handler, const HttpServerOptions& options);

  /// Destructor shuts down and drains if the caller didn't.
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The bound port (the actual one when options.port was 0).
  uint16_t port() const { return port_; }
  const std::string& host() const { return host_; }

  /// Begins a graceful drain: stop accepting, finish in-flight
  /// exchanges, close. Safe to call from any thread, and idempotent.
  /// NOT async-signal-safe — from a signal handler, write a byte to
  /// shutdown_fd() instead.
  void Shutdown();

  /// Write end of the self-pipe the event loop polls; write(2) one byte
  /// to trigger the same drain as Shutdown(). Valid for the server's
  /// lifetime.
  int shutdown_fd() const { return shutdown_pipe_write_.get(); }

  /// Blocks until the drain completes (all connections closed, loop
  /// thread exited). Returns immediately if already drained.
  void Wait();

  /// True once Shutdown()/shutdown_fd() has been triggered.
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  HttpServerStats stats() const;
  HttpServerRuntimeStats runtime_stats() const;

 private:
  /// Per-connection state, owned and touched by the loop thread only.
  struct Connection {
    UniqueFd fd;
    uint64_t generation = 0;  // guards timer/completion entries across fd reuse
    enum class Phase : uint8_t { kReading, kHandling, kWriting } phase =
        Phase::kReading;
    HttpRequestParser parser;
    // The response being written: its serialized head, then its body
    // (moved in from the handler's response, empty for HEAD). `sent`
    // counts the bytes of both already written.
    std::string head;
    std::string body;
    size_t sent = 0;
    bool counted = false;   // admitted (counts against max_connections)
    bool close_after_write = false;
    bool request_was_head = false;
    bool request_keep_alive = false;
    bool timed_out_counted = false;  // at most one stats_ tick per conn
    size_t served = 0;      // requests dispatched on this connection
    int64_t deadline_ms = kNoDeadline;  // armed absolute deadline
    bool in_epoll = false;
    uint32_t epoll_events = 0;
    /// Trace of the in-flight request (null between requests and on a
    /// connection-cap 503). shared_ptr: the pool-thread task holds a
    /// reference while it fills in the handler-side timings (the loop
    /// thread does not touch it during kHandling; the completion queue's
    /// mutex orders the handoff back).
    std::shared_ptr<RequestTrace> trace;
    int64_t request_start_ns = 0;  // began owing the current request
    int64_t flush_start_ns = 0;    // response fully serialized

    Connection(UniqueFd fd_in, uint64_t generation_in,
               const HttpParserLimits& limits)
        : fd(std::move(fd_in)), generation(generation_in), parser(limits) {}
  };

  /// A finished handler result on its way back to the loop thread.
  struct Completion {
    int fd = -1;
    uint64_t generation = 0;
    HttpResponse response;
  };

  struct TimerEntry {
    int64_t deadline_ms = 0;
    int fd = -1;
    uint64_t generation = 0;
    bool operator>(const TimerEntry& other) const {
      return deadline_ms > other.deadline_ms;
    }
  };

  HttpServer() = default;

  void Loop();
  void AcceptPending();
  void HandleAcceptOverload();
  void PauseAccepting(int pause_ms);
  void MaybeResumeAccepting(int64_t now_ms);
  void BeginDrain();
  void OnReadable(Connection* conn);
  void OnWritable(Connection* conn);
  void OnDeadline(Connection* conn);
  void DispatchRequest(Connection* conn);
  void CompleteRequest(Connection* conn, HttpResponse& response);
  void FailParse(Connection* conn);
  void SendResponse(Connection* conn, HttpResponse& response, bool keep,
                    bool omit_body);
  static void QueueResponse(Connection* conn, HttpResponse& response,
                            bool keep, bool omit_body);
  void BeginTrace(Connection* conn, const HttpRequest* request,
                  std::string_view outcome, int status);
  void FinishTrace(Connection* conn);
  void SetPhase(Connection* conn, Connection::Phase phase);
  void FlushOutbox(Connection* conn);
  void BeginNextRequest(Connection* conn);
  void CloseConnection(Connection* conn);
  void ArmDeadline(Connection* conn, int timeout_ms);
  void SetEpoll(Connection* conn, uint32_t events);
  bool TimerEntryLive(const TimerEntry& entry) const;
  int NextTimeoutMillis();
  void ExpireDeadlines();
  void DrainCompletions();
  HttpResponse RunHandler(const HttpRequest& request, RequestTrace* trace);
  void PushCompletion(Completion completion);

  std::string host_;
  uint16_t port_ = 0;
  HttpServerOptions options_;
  Handler handler_;

  UniqueFd epoll_fd_;
  UniqueFd listen_fd_;
  /// Reserved descriptor (open on /dev/null) released during an EMFILE
  /// accept storm so one pending connection can still be accepted and
  /// shed with a 503 instead of dangling in the backlog.
  UniqueFd emergency_fd_;
  UniqueFd shutdown_pipe_read_;
  UniqueFd shutdown_pipe_write_;
  UniqueFd wakeup_pipe_read_;
  UniqueFd wakeup_pipe_write_;

  std::unique_ptr<ThreadPool> pool_;  // handler compute only

  std::atomic<bool> draining_{false};

  // ---- Introspection (atomics: written by the loop thread, scraped by
  // any thread via runtime_stats()).
  TraceIdGenerator trace_ids_;
  Histogram loop_lag_{kLatencyBounds};
  std::atomic<size_t> phase_counts_[3]{};  // indexed by Connection::Phase
  std::atomic<size_t> timer_depth_{0};

  // ---- Loop-thread state (no locking: one owner).
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  size_t admitted_connections_ = 0;  // excludes 503-reject writers
  /// While an fd-exhaustion storm persists the listen fd leaves epoll
  /// (level-triggered readiness would hot-spin the loop) until
  /// accept_resume_ms_; ExpireDeadlines re-arms it.
  bool accept_paused_ = false;
  int64_t accept_resume_ms_ = kNoDeadline;
  uint64_t next_generation_ = 0;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      timers_;

  // ---- Cross-thread state.
  mutable Mutex completion_mu_{"http.completions"};
  std::vector<Completion> completions_ EGP_GUARDED_BY(completion_mu_);

  mutable Mutex mu_{"http.stats"};  // stats + loop lifecycle flags
  CondVar idle_;      // loop_exited_ flipped
  /// Thread spawned (stays false when Start fails early). Written once
  /// by Start before the thread exists, then read-only — but guarded
  /// anyway so the proof does not rest on "Start happens-before Wait".
  bool loop_started_ EGP_GUARDED_BY(mu_) = false;
  bool loop_exited_ EGP_GUARDED_BY(mu_) = false;
  HttpServerStats stats_ EGP_GUARDED_BY(mu_);

  Mutex join_mu_;  // serializes loop_thread_.join() across Wait() callers
  std::thread loop_thread_ EGP_GUARDED_BY(join_mu_);
};

}  // namespace egp

#endif  // EGP_SERVER_HTTP_SERVER_H_
