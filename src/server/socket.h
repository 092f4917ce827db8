// Thin POSIX TCP layer for the serving subsystem: RAII descriptors,
// listener/connect helpers, and deadline-based timed I/O. No third-party
// network dependency — everything sits directly on <sys/socket.h>.
//
// All timed I/O here is budgeted against an *absolute* CLOCK_MONOTONIC
// deadline, not a per-poll-iteration stall allowance. A peer that
// trickles one byte per poll window therefore cannot extend a "timed"
// operation past its total budget (that restart-the-clock bug is exactly
// how slow clients used to pin workers forever). The convenience
// timeout_ms entry points convert to a deadline exactly once, on entry.
#ifndef EGP_SERVER_SOCKET_H_
#define EGP_SERVER_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/timer.h"  // MonotonicMillis, the deadline base

namespace egp {

/// Owns one file descriptor; closes it on destruction. Movable.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.Release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Reset();

 private:
  int fd_ = -1;
};

/// Outcome of one timed I/O step.
enum class IoStatus : uint8_t {
  kOk = 0,    // made progress (bytes transferred)
  kEof,       // orderly shutdown from the peer (recv only)
  kTimeout,   // the deadline passed before the operation completed
  kError,     // socket error (errno captured)
};

struct [[nodiscard]] IoResult {
  IoStatus status = IoStatus::kOk;
  size_t bytes = 0;  // transferred this call (kOk; partial on kTimeout too)
  int error = 0;     // errno for kError
};

/// No-deadline sentinel: wait forever.
inline constexpr int64_t kNoDeadline = -1;

/// `timeout_ms` from now as an absolute deadline (negative → kNoDeadline).
int64_t DeadlineAfterMillis(int timeout_ms);

/// A listening IPv4 TCP socket bound to host:port (REUSEADDR set).
/// `port` 0 binds an ephemeral port; `bound_port` receives the actual
/// one. `host` must be a dotted-quad address ("127.0.0.1", "0.0.0.0").
Result<UniqueFd> ListenTcp(const std::string& host, uint16_t port,
                           int backlog, uint16_t* bound_port);

/// Accepts one pending connection (the caller polled for readiness);
/// sets TCP_NODELAY so small request/response exchanges aren't Nagled.
Result<UniqueFd> AcceptConnection(int listen_fd);

/// Connects to host:port with a handshake timeout. TCP_NODELAY set.
Result<UniqueFd> ConnectTcp(const std::string& host, uint16_t port,
                            int timeout_ms);

/// Makes `fd` non-blocking (best effort). Connections from
/// AcceptConnection/ConnectTcp already are; this is for descriptors
/// created elsewhere (listen sockets feeding an event loop, pipes).
void SetNonBlocking(int fd);

/// Receives up to `len` bytes, waiting at most `timeout_ms` from now (-1
/// waits forever) for the first byte.
IoResult RecvSome(int fd, char* buf, size_t len, int timeout_ms);

/// Sends all of `data` within a total budget of `timeout_ms` from now (-1
/// waits forever). The budget bounds the WHOLE send: partial progress
/// never restarts the clock. On kTimeout, `bytes` reports how much was
/// sent.
IoResult SendAll(int fd, std::string_view data, int timeout_ms);

/// Blocks until `fd` is readable or `timeout_ms` expires. Used by
/// test clients and tools.
IoResult WaitReadable(int fd, int timeout_ms);

}  // namespace egp

#endif  // EGP_SERVER_SOCKET_H_
