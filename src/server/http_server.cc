#include "server/http_server.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "common/fault.h"
#include "common/posix.h"
#include "common/profiler.h"

namespace egp {
namespace {

/// One epoll_wait batch. Level-triggered epoll re-reports anything left
/// unconsumed, so a small batch only costs extra wakeups, never lost
/// events.
constexpr int kMaxEvents = 64;

/// How long accepting stays paused after an fd-exhaustion storm the
/// emergency-fd shed could not absorb.
constexpr int kAcceptOverloadPauseMs = 100;

/// listen(2) backlog for the kernel's accept queue.
constexpr int kListenBacklog = 128;

bool IsResourceExhaustion(int err) {
  return err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM;
}

}  // namespace

Result<std::unique_ptr<HttpServer>> HttpServer::Start(
    Handler handler, const HttpServerOptions& options) {
  if (!handler) return Status::InvalidArgument("null handler");
  if (options.max_connections == 0) {
    return Status::InvalidArgument("max_connections must be >= 1");
  }
  if (options.read_timeout_ms <= 0 || options.write_timeout_ms <= 0) {
    return Status::InvalidArgument("timeouts must be positive");
  }

  // unique_ptr because the loop thread captures `this`: the server must
  // never move.
  std::unique_ptr<HttpServer> server(new HttpServer());
  server->options_ = options;
  server->handler_ = std::move(handler);
  server->host_ = options.host;

  EGP_ASSIGN_OR_RETURN(
      server->listen_fd_,
      ListenTcp(options.host, options.port, kListenBacklog, &server->port_));
  // The loop accepts until EAGAIN; a connection that is gone by the time
  // we accept it must not block the whole loop.
  SetNonBlocking(server->listen_fd_.get());

  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) return Status::IOError("epoll_create1 failed");
  server->epoll_fd_ = UniqueFd(epoll_fd);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    return Status::IOError("pipe2: failed to create shutdown pipe");
  }
  server->shutdown_pipe_read_ = UniqueFd(pipe_fds[0]);
  server->shutdown_pipe_write_ = UniqueFd(pipe_fds[1]);
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    return Status::IOError("pipe2: failed to create wakeup pipe");
  }
  server->wakeup_pipe_read_ = UniqueFd(pipe_fds[0]);
  server->wakeup_pipe_write_ = UniqueFd(pipe_fds[1]);

  // Best effort: without the spare, an EMFILE storm falls back to
  // pausing the accept path instead of shedding.
  server->emergency_fd_ =
      UniqueFd(PosixOpen("/dev/null", O_RDONLY | O_CLOEXEC));

  const int static_fds[3] = {server->listen_fd_.get(),
                             server->shutdown_pipe_read_.get(),
                             server->wakeup_pipe_read_.get()};
  for (const int fd : static_fds) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return Status::IOError("epoll_ctl: failed to register fd");
    }
  }

  const unsigned workers =
      options.workers == 0 ? std::max(2u, Threads()) : options.workers;
  // ThreadPool(n) supplies n-1 worker threads; the loop thread never
  // participates, so ask for workers+1 to get `workers` real threads.
  server->pool_ = std::make_unique<ThreadPool>(workers + 1);
  {
    MutexLock lock(&server->mu_);
    server->loop_started_ = true;  // before spawn: Wait() keys off this
  }
  {
    MutexLock join_lock(&server->join_mu_);
    server->loop_thread_ = std::thread([s = server.get()] { s->Loop(); });
  }
  return server;
}

HttpServer::~HttpServer() {
  Shutdown();
  Wait();
  // The loop exits only once every connection closed, which implies every
  // handler task completed; pool destruction joins idle workers.
  pool_.reset();
}

void HttpServer::Shutdown() {
  draining_.store(true, std::memory_order_release);
  // Wake the event loop. A full pipe is impossible here (one byte per
  // Shutdown call, drained by the loop), but even EAGAIN would be fine:
  // draining_ is already visible.
  const char byte = 'q';
  [[maybe_unused]] const ssize_t n =
      PosixWrite(shutdown_pipe_write_.get(), &byte, 1);
}

void HttpServer::Wait() {
  {
    // A server whose Start failed before the loop thread spawned has
    // nothing to wait for (its destructor still runs this path).
    MutexLock lock(&mu_);
    while (!loop_exited_ && loop_started_) idle_.Wait(mu_);
  }
  // Serialize the join so concurrent Wait() callers (say, the owner and
  // the destructor) can't race on the thread object.
  MutexLock join_lock(&join_mu_);
  if (loop_thread_.joinable()) loop_thread_.join();
}

HttpServerStats HttpServer::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

HttpServerRuntimeStats HttpServer::runtime_stats() const {
  HttpServerRuntimeStats stats;
  stats.loop_lag = loop_lag_.snapshot();
  stats.connections_reading = phase_counts_[0].load(std::memory_order_relaxed);
  stats.connections_handling =
      phase_counts_[1].load(std::memory_order_relaxed);
  stats.connections_writing = phase_counts_[2].load(std::memory_order_relaxed);
  stats.timer_heap_depth = timer_depth_.load(std::memory_order_relaxed);
  {
    MutexLock lock(&completion_mu_);
    stats.completion_queue_depth = completions_.size();
  }
  return stats;
}

void HttpServer::SetPhase(Connection* conn, Connection::Phase phase) {
  phase_counts_[static_cast<size_t>(conn->phase)].fetch_sub(
      1, std::memory_order_relaxed);
  conn->phase = phase;
  phase_counts_[static_cast<size_t>(phase)].fetch_add(
      1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Event loop. Everything below runs on the loop thread unless noted.

void HttpServer::Loop() {
  // The loop thread carries read/serialize/flush work — profile it.
  Profiler::RegisterCurrentThread();
  epoll_event events[kMaxEvents];
  for (;;) {
    const int timeout_ms = NextTimeoutMillis();
    int n;
    const FaultOutcome fault = FaultCheck("epoll.wait");
    if (fault.kind == FaultOutcome::Kind::kErrno) {
      errno = fault.err;
      n = -1;
    } else {
      n = ::epoll_wait(epoll_fd_.get(), events, kMaxEvents, timeout_ms);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll on our own fds failing is unrecoverable
    }
    // Loop lag: how long this pass keeps the loop away from epoll_wait —
    // the queueing delay every other ready event is paying right now.
    const int64_t pass_start_ns = MonotonicNanos();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t mask = events[i].events;
      if (fd == shutdown_pipe_read_.get()) {
        char buf[64];
        while (PosixRead(fd, buf, sizeof(buf)) > 0) {
        }
        BeginDrain();
        continue;
      }
      if (fd == wakeup_pipe_read_.get()) {
        char buf[64];
        while (PosixRead(fd, buf, sizeof(buf)) > 0) {
        }
        DrainCompletions();
        continue;
      }
      if (fd == listen_fd_.get()) {
        AcceptPending();
        continue;
      }
      // A connection event. The connection may have been closed earlier
      // in this same batch (completion or sibling event) — and the fd
      // even reused by a fresh accept; the phase checks inside the
      // handlers make a misdelivered stale event harmless.
      const auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      Connection* conn = it->second.get();
      if ((mask & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0 &&
          conn->phase == Connection::Phase::kReading) {
        // EPOLLHUP/ERR while reading: recv() reports the EOF or error.
        OnReadable(conn);
      } else if ((mask & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0 &&
                 conn->phase == Connection::Phase::kWriting) {
        OnWritable(conn);
      }
    }
    ExpireDeadlines();
    // Completions are also drained inline (not just on wakeup bytes) so a
    // wakeup write that raced with this pass can't strand a response
    // until the next unrelated event.
    DrainCompletions();
    loop_lag_.Observe(
        static_cast<double>(MonotonicNanos() - pass_start_ns) * 1e-9);
    timer_depth_.store(timers_.size(), std::memory_order_relaxed);
    if (draining_.load(std::memory_order_acquire) && connections_.empty()) {
      break;
    }
  }

  {
    MutexLock lock(&mu_);
    loop_exited_ = true;
  }
  idle_.NotifyAll();
}

void HttpServer::AcceptPending() {
  if (draining_.load(std::memory_order_acquire)) return;
  for (;;) {
    const int raw = PosixAccept4(listen_fd_.get(),
                                 SOCK_NONBLOCK | SOCK_CLOEXEC,
                                 "socket.accept");
    if (raw < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // The handshake died before we got to it; the next one may be fine.
      if (errno == ECONNABORTED || errno == EPROTO) continue;
      if (IsResourceExhaustion(errno)) {
        // Out of descriptors (or kernel memory). Left alone this would
        // hot-spin: the backlog stays readable under level-triggered
        // epoll while accept() keeps failing.
        HandleAcceptOverload();
        return;
      }
      return;  // anything else: leave the backlog for the next wakeup
    }
    auto conn = std::make_unique<Connection>(UniqueFd(raw),
                                             ++next_generation_,
                                             options_.limits);
    Connection* c = conn.get();
    connections_.emplace(raw, std::move(conn));
    phase_counts_[static_cast<size_t>(c->phase)].fetch_add(
        1, std::memory_order_relaxed);
    c->request_start_ns = MonotonicNanos();

    if (admitted_connections_ >= options_.max_connections) {
      // Backpressure: queue a 503 as a plain non-blocking write. A slow
      // rejected peer costs one connection object on a short deadline —
      // it can no longer stall the accept path (the old thread-per-
      // connection design blocked the accept thread right here).
      {
        MutexLock lock(&mu_);
        ++stats_.rejected_connections;
      }
      HttpResponse response;
      response.status = 503;
      response.body = JsonErrorBody(503, "server at connection capacity");
      response.headers.emplace_back("Retry-After", "1");
      SetPhase(c, Connection::Phase::kWriting);
      c->close_after_write = true;
      QueueResponse(c, response, /*keep=*/false, /*omit_body=*/false);
      ArmDeadline(c, std::min(1'000, options_.write_timeout_ms));
      FlushOutbox(c);  // may close c
      continue;
    }

    ++admitted_connections_;
    c->counted = true;
    {
      MutexLock lock(&mu_);
      ++stats_.accepted_connections;
    }
    ArmDeadline(c, options_.read_timeout_ms);
    SetEpoll(c, EPOLLIN);
  }
}

void HttpServer::HandleAcceptOverload() {
  {
    MutexLock lock(&mu_);
    ++stats_.accept_overloads;
  }
  bool shed = false;
  if (emergency_fd_.valid()) {
    // Release the reserved descriptor, use the freed slot to accept one
    // pending connection, answer it 503, close it, and re-arm the spare.
    // The client gets a real answer instead of hanging in the backlog
    // until its own timeout.
    emergency_fd_.Reset();
    const int raw = PosixAccept4(listen_fd_.get(),
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (raw >= 0) {
      UniqueFd conn(raw);
      // Counted before the answer goes out, so a client that has read
      // its 503 also sees the shed in stats().
      {
        MutexLock lock(&mu_);
        ++stats_.rejected_connections;
        ++stats_.overload_sheds;
      }
      HttpResponse response;
      response.status = 503;
      response.body = JsonErrorBody(503, "server out of file descriptors");
      response.headers.emplace_back("Retry-After", "1");
      const std::string bytes =
          SerializeResponse(response, /*keep_alive=*/false);
      // One best-effort non-blocking write; holding the connection for a
      // slow reader would defeat the point of shedding it.
      (void)PosixSend(conn.get(), bytes.data(), bytes.size(), MSG_NOSIGNAL);
      shed = true;
    }
    emergency_fd_ = UniqueFd(PosixOpen("/dev/null", O_RDONLY | O_CLOEXEC));
  }
  if (!shed || !emergency_fd_.valid()) {
    // Could not shed (or could not re-arm the spare): back off so the
    // always-readable listen fd doesn't spin the loop.
    PauseAccepting(kAcceptOverloadPauseMs);
  }
}

void HttpServer::PauseAccepting(int pause_ms) {
  if (accept_paused_ || !listen_fd_.valid()) return;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, listen_fd_.get(), nullptr);
  accept_paused_ = true;
  accept_resume_ms_ = MonotonicMillis() + pause_ms;
}

void HttpServer::MaybeResumeAccepting(int64_t now_ms) {
  if (!accept_paused_ || now_ms < accept_resume_ms_) return;
  accept_paused_ = false;
  accept_resume_ms_ = kNoDeadline;
  if (!listen_fd_.valid()) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_.get();
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, listen_fd_.get(), &ev);
  // Level-triggered: a still-pending backlog re-reports on the next
  // epoll_wait; nothing more to do here.
}

void HttpServer::BeginDrain() {
  draining_.store(true, std::memory_order_release);
  if (listen_fd_.valid()) {
    // ENOENT when accepting was paused (already deleted) is harmless.
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, listen_fd_.get(), nullptr);
    listen_fd_.Reset();  // new connects fail immediately
  }
  accept_paused_ = false;
  accept_resume_ms_ = kNoDeadline;
  // Idle keep-alive connections close now; anything mid-exchange finishes
  // its current request (with Connection: close — CompleteRequest and
  // BeginNextRequest both observe draining_). A connection is idle only
  // when its socket holds no unread bytes either: a request whose first
  // bytes arrived before the loop read them is in flight, and the next
  // pass reads it.
  std::vector<Connection*> idle;
  for (const auto& [fd, conn] : connections_) {
    char byte = 0;
    if (conn->phase == Connection::Phase::kReading &&
        conn->parser.AtMessageBoundary() &&
        PosixRecv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT) <= 0) {
      idle.push_back(conn.get());
    }
  }
  for (Connection* conn : idle) CloseConnection(conn);
}

void HttpServer::OnReadable(Connection* conn) {
  const ScopedTracePhase profiled_phase(TracePhase::kRead);
  char buf[16 * 1024];
  for (;;) {
    const ssize_t n =
        PosixRecv(conn->fd.get(), buf, sizeof(buf), 0, "socket.recv");
    if (n > 0) {
      const HttpRequestParser::State state =
          conn->parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
      if (state == HttpRequestParser::State::kComplete) {
        DispatchRequest(conn);
        return;
      }
      if (state == HttpRequestParser::State::kError) {
        FailParse(conn);
        return;
      }
      continue;  // kNeedMore: keep reading until EAGAIN
    }
    if (n == 0) {  // peer closed
      CloseConnection(conn);
      return;
    }
    // EINTR is retried inside PosixRecv.
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConnection(conn);
    return;
  }
}

void HttpServer::OnWritable(Connection* conn) { FlushOutbox(conn); }

void HttpServer::OnDeadline(Connection* conn) {
  switch (conn->phase) {
    case Connection::Phase::kReading: {
      if (conn->counted && !conn->timed_out_counted) {
        conn->timed_out_counted = true;
        MutexLock lock(&mu_);
        ++stats_.timed_out_connections;
      }
      if (conn->parser.AtMessageBoundary()) {
        // Idle between keep-alive requests: just an idle close.
        CloseConnection(conn);
        return;
      }
      // Mid-request gets a 408; silence would leave the client guessing.
      BeginTrace(conn, nullptr, "read_timeout", 408);
      HttpResponse timeout;
      timeout.status = 408;
      timeout.body = JsonErrorBody(408, "timed out reading request");
      SendResponse(conn, timeout, /*keep=*/false, /*omit_body=*/false);
      return;
    }
    case Connection::Phase::kWriting: {
      if (conn->counted && !conn->timed_out_counted) {
        conn->timed_out_counted = true;
        MutexLock lock(&mu_);
        ++stats_.timed_out_connections;
      }
      // A connection-cap 503 is written without a trace.
      if (conn->trace != nullptr) conn->trace->outcome = "write_timeout";
      CloseConnection(conn);
      return;
    }
    case Connection::Phase::kHandling:
      // Unreachable: dispatch disarms the deadline, and TimerEntryLive
      // filters the stale heap entry.
      return;
  }
}

void HttpServer::DispatchRequest(Connection* conn) {
  const size_t message_bytes = conn->parser.message_bytes();
  // shared_ptr because ThreadPool::Submit takes std::function, which
  // demands copyable captures.
  auto request = std::make_shared<HttpRequest>(conn->parser.Take());
  ++conn->served;
  SetPhase(conn, Connection::Phase::kHandling);
  conn->request_was_head = request->method == "HEAD";
  conn->request_keep_alive =
      request->KeepAlive() &&
      conn->served < options_.max_requests_per_connection;
  conn->deadline_ms = kNoDeadline;  // no I/O deadline while computing
  // Out of epoll entirely: a level-triggered EPOLLIN (or a peer hangup)
  // would otherwise busy-loop the poll while the handler runs.
  SetEpoll(conn, 0);

  BeginTrace(conn, request.get(), "ok", 0);
  conn->trace->bytes_in = message_bytes;

  const int fd = conn->fd.get();
  const uint64_t generation = conn->generation;
  // The task shares the trace with the connection: the pool thread owns
  // its handler-side fields until the completion is queued (the
  // completion mutex orders the handback).
  pool_->Submit([this, fd, generation, request, trace = conn->trace] {
    PushCompletion(
        Completion{fd, generation, RunHandler(*request, trace.get())});
  });
}

void HttpServer::BeginTrace(Connection* conn, const HttpRequest* request,
                            std::string_view outcome, int status) {
  auto trace = std::make_shared<RequestTrace>();
  const std::string* id =
      request != nullptr ? request->FindHeader("X-Request-Id") : nullptr;
  trace->id = id != nullptr && !id->empty() ? *id : trace_ids_.Next();
  if (request != nullptr) {
    trace->method = request->method;
    trace->path = std::string(request->Path());
  }
  trace->outcome = std::string(outcome);
  trace->status = status;
  trace->start_ns = conn->request_start_ns;
  const int64_t now_ns = MonotonicNanos();
  trace->dispatch_ns = now_ns;
  trace->read_seconds =
      static_cast<double>(now_ns - conn->request_start_ns) * 1e-9;
  conn->trace = std::move(trace);
}

void HttpServer::FinishTrace(Connection* conn) {
  if (conn->trace == nullptr) return;  // a connection-cap 503 has none
  RequestTrace& trace = *conn->trace;
  const int64_t now_ns = MonotonicNanos();
  if (conn->flush_start_ns != 0) {
    trace.flush_seconds =
        static_cast<double>(now_ns - conn->flush_start_ns) * 1e-9;
  }
  trace.total_seconds = static_cast<double>(now_ns - trace.start_ns) * 1e-9;
  // Transport-level outcomes ("parse_error", "shed", ...) were set at
  // their source; a plain error status is classified here.
  if (trace.outcome == "ok" && trace.status >= 400) trace.outcome = "error";
  if (options_.trace_sink) options_.trace_sink(trace);
  conn->trace.reset();
  conn->flush_start_ns = 0;
}

HttpResponse HttpServer::RunHandler(const HttpRequest& request,
                                    RequestTrace* trace) {
  // Runs on a pool thread.
  const int64_t start_ns = MonotonicNanos();
  trace->queue_seconds =
      static_cast<double>(start_ns - trace->dispatch_ns) * 1e-9;
  const ScopedRequestTrace scope(trace);
  const ScopedTracePhase profiled_phase(TracePhase::kHandler);
  HttpResponse response;
  try {
    response = handler_(request);
  } catch (const std::exception& e) {
    response.status = 500;
    response.body =
        JsonErrorBody(500, std::string("handler error: ") + e.what());
    response.close_connection = true;
  } catch (...) {
    response.status = 500;
    response.body = JsonErrorBody(500, "handler error");
    response.close_connection = true;
  }
  // The admission wait is reported as its own phase, not as handler
  // compute.
  trace->handler_seconds =
      static_cast<double>(MonotonicNanos() - start_ns) * 1e-9 -
      trace->admission_seconds;
  return response;
}

void HttpServer::PushCompletion(Completion completion) {
  // Pool thread → loop thread handoff.
  {
    MutexLock lock(&completion_mu_);
    completions_.push_back(std::move(completion));
  }
  // EAGAIN (pipe full) is fine: a full pipe is already readable, so the
  // loop is waking up regardless and drains the queue inline.
  const char byte = 'c';
  [[maybe_unused]] const ssize_t n =
      PosixWrite(wakeup_pipe_write_.get(), &byte, 1);
}

void HttpServer::DrainCompletions() {
  std::vector<Completion> batch;
  {
    MutexLock lock(&completion_mu_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    const auto it = connections_.find(completion.fd);
    if (it == connections_.end() ||
        it->second->generation != completion.generation ||
        it->second->phase != Connection::Phase::kHandling) {
      // The loop never closes a kHandling connection, so this is only
      // reachable through fd-reuse races; drop the orphan.
      continue;
    }
    CompleteRequest(it->second.get(), completion.response);
  }
}

void HttpServer::CompleteRequest(Connection* conn, HttpResponse& response) {
  {
    MutexLock lock(&mu_);
    ++stats_.handled_requests;
  }
  const bool keep = conn->request_keep_alive && !response.close_connection &&
                    !draining_.load(std::memory_order_acquire);
  // HEAD gets the head only; Content-Length still describes the body the
  // corresponding GET would have sent.
  SendResponse(conn, response, keep, /*omit_body=*/conn->request_was_head);
}

void HttpServer::FailParse(Connection* conn) {
  {
    MutexLock lock(&mu_);
    ++stats_.parse_errors;
    ++stats_.handled_requests;
  }
  BeginTrace(conn, nullptr, "parse_error", conn->parser.error_status());
  HttpResponse error;
  error.status = conn->parser.error_status();
  error.body =
      JsonErrorBody(conn->parser.error_status(), conn->parser.error_message());
  SendResponse(conn, error, /*keep=*/false, /*omit_body=*/false);
}

void HttpServer::SendResponse(Connection* conn, HttpResponse& response,
                              bool keep, bool omit_body) {
  const ScopedTracePhase profiled_phase(TracePhase::kSerialize);
  SetPhase(conn, Connection::Phase::kWriting);
  conn->close_after_write = !keep || response.close_connection;
  RequestTrace& trace = *conn->trace;
  trace.status = response.status;
  response.headers.emplace_back("X-Request-Id", trace.id);
  const int64_t serialize_start_ns = MonotonicNanos();
  QueueResponse(conn, response, keep, omit_body);
  const int64_t flush_start_ns = MonotonicNanos();
  trace.serialize_seconds =
      static_cast<double>(flush_start_ns - serialize_start_ns) * 1e-9;
  trace.bytes_out = conn->head.size() + conn->body.size();
  conn->flush_start_ns = flush_start_ns;
  // One absolute budget for the whole response: progress (a trickle-
  // reading peer taking a byte at a time) does not restart it.
  ArmDeadline(conn, options_.write_timeout_ms);
  FlushOutbox(conn);
}

void HttpServer::QueueResponse(Connection* conn, HttpResponse& response,
                               bool keep, bool omit_body) {
  conn->head = SerializeHead(response, keep);
  if (omit_body) {
    conn->body.clear();
  } else {
    conn->body = std::move(response.body);
  }
  conn->sent = 0;
}

void HttpServer::FlushOutbox(Connection* conn) {
  const ScopedTracePhase profiled_phase(TracePhase::kFlush);
  std::string& head = conn->head;
  std::string& body = conn->body;
  while (conn->sent < head.size() + body.size()) {
    // One sendmsg for what is left of the head and of the body, so a
    // partial write may end anywhere in either.
    iovec parts[2] = {};
    size_t count = 0;
    if (conn->sent < head.size()) {
      parts[count++] = {head.data() + conn->sent, head.size() - conn->sent};
    }
    const size_t body_sent = conn->sent - std::min(conn->sent, head.size());
    if (body_sent < body.size()) {
      parts[count++] = {body.data() + body_sent, body.size() - body_sent};
    }
    const ssize_t n = PosixSendmsg(conn->fd.get(), {parts, count},
                                   MSG_NOSIGNAL, "socket.send");
    if (n > 0) {
      conn->sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      SetEpoll(conn, EPOLLOUT);  // resume when the socket drains
      return;
    }
    CloseConnection(conn);  // peer reset mid-response
    return;
  }
  // Fully flushed: the request is over — finalize and emit its trace
  // before the connection moves on (or goes away).
  FinishTrace(conn);
  if (conn->close_after_write) {
    CloseConnection(conn);
    return;
  }
  BeginNextRequest(conn);
}

void HttpServer::BeginNextRequest(Connection* conn) {
  if (draining_.load(std::memory_order_acquire)) {
    // Raced with drain after the keep-alive response was serialized.
    CloseConnection(conn);
    return;
  }
  SetPhase(conn, Connection::Phase::kReading);
  conn->request_start_ns = MonotonicNanos();
  conn->head.clear();
  std::string().swap(conn->body);  // frees the sent body now
  conn->sent = 0;
  ArmDeadline(conn, options_.read_timeout_ms);
  SetEpoll(conn, EPOLLIN);
  // A pipelined request may already be buffered in the parser.
  const HttpRequestParser::State state = conn->parser.Continue();
  if (state == HttpRequestParser::State::kComplete) {
    DispatchRequest(conn);
  } else if (state == HttpRequestParser::State::kError) {
    FailParse(conn);
  }
}

void HttpServer::CloseConnection(Connection* conn) {
  SetEpoll(conn, 0);
  if (conn->trace != nullptr) {
    // A live trace here means the exchange never completed; unless a more
    // specific outcome was already recorded, the peer went away.
    if (conn->trace->outcome == "ok") conn->trace->outcome = "disconnect";
    FinishTrace(conn);
  }
  phase_counts_[static_cast<size_t>(conn->phase)].fetch_sub(
      1, std::memory_order_relaxed);
  if (conn->counted) --admitted_connections_;
  connections_.erase(conn->fd.get());  // destroys conn, closes the fd
}

void HttpServer::ArmDeadline(Connection* conn, int timeout_ms) {
  conn->deadline_ms = DeadlineAfterMillis(timeout_ms);
  if (conn->deadline_ms == kNoDeadline) return;
  // Lazy deletion: re-arming just pushes a fresh entry; stale ones are
  // filtered by TimerEntryLive when they surface.
  timers_.push(TimerEntry{conn->deadline_ms, conn->fd.get(),
                          conn->generation});
}

void HttpServer::SetEpoll(Connection* conn, uint32_t events) {
  if (events == 0) {
    if (conn->in_epoll) {
      ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, conn->fd.get(), nullptr);
      conn->in_epoll = false;
      conn->epoll_events = 0;
    }
    return;
  }
  if (conn->in_epoll && conn->epoll_events == events) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = conn->fd.get();
  const int op = conn->in_epoll ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (::epoll_ctl(epoll_fd_.get(), op, conn->fd.get(), &ev) != 0) {
    // Only plausible for a dead fd; the close path tolerates that too.
    CloseConnection(conn);
    return;
  }
  conn->in_epoll = true;
  conn->epoll_events = events;
}

bool HttpServer::TimerEntryLive(const TimerEntry& entry) const {
  const auto it = connections_.find(entry.fd);
  return it != connections_.end() &&
         it->second->generation == entry.generation &&
         it->second->deadline_ms == entry.deadline_ms;
}

int HttpServer::NextTimeoutMillis() {
  while (!timers_.empty() && !TimerEntryLive(timers_.top())) {
    timers_.pop();
  }
  int64_t next = kNoDeadline;
  if (!timers_.empty()) next = timers_.top().deadline_ms;
  if (accept_paused_ &&
      (next == kNoDeadline || accept_resume_ms_ < next)) {
    next = accept_resume_ms_;
  }
  if (next == kNoDeadline) return -1;  // epoll_wait blocks until an event
  const int64_t remaining = next - MonotonicMillis();
  if (remaining <= 0) return 0;
  return static_cast<int>(std::min<int64_t>(remaining, 60'000));
}

void HttpServer::ExpireDeadlines() {
  const int64_t now = MonotonicMillis();
  MaybeResumeAccepting(now);
  for (;;) {
    while (!timers_.empty() && !TimerEntryLive(timers_.top())) {
      timers_.pop();
    }
    if (timers_.empty() || timers_.top().deadline_ms > now) return;
    const TimerEntry entry = timers_.top();
    timers_.pop();
    OnDeadline(connections_.find(entry.fd)->second.get());
  }
}

}  // namespace egp
