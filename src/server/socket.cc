#include "server/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>

#include "common/fault.h"
#include "common/posix.h"

namespace egp {
namespace {

Status ErrnoStatus(const std::string& what, int err) {
  return Status::IOError(what + ": " + std::strerror(err));
}

void SetNoDelay(int fd) {
  int one = 1;
  // Best effort: latency tuning, not correctness.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void SetCloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

/// poll() for `events` until the absolute deadline, retrying on EINTR
/// with the *remaining* budget — the clock never restarts, so neither a
/// signal storm nor a trickling peer can stretch the wait past the
/// deadline. kNoDeadline waits forever.
IoResult PollUntil(int fd, short events, int64_t deadline_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  for (;;) {
    int wait_ms = -1;
    if (deadline_ms != kNoDeadline) {
      const int64_t remaining = deadline_ms - MonotonicMillis();
      if (remaining <= 0) return IoResult{IoStatus::kTimeout, 0, 0};
      wait_ms = static_cast<int>(std::min<int64_t>(remaining, INT_MAX));
    }
    pfd.revents = 0;
    const int n = ::poll(&pfd, 1, wait_ms);
    if (n > 0) return IoResult{IoStatus::kOk, 0, 0};
    if (n == 0) return IoResult{IoStatus::kTimeout, 0, 0};
    if (errno != EINTR) return IoResult{IoStatus::kError, 0, errno};
  }
}

}  // namespace

int64_t DeadlineAfterMillis(int timeout_ms) {
  return timeout_ms < 0 ? kNoDeadline : MonotonicMillis() + timeout_ms;
}

void UniqueFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

/// Connections must be non-blocking: the timed I/O below is poll + a
/// non-blocking syscall per step. On a *blocking* socket, send() past
/// POLLOUT can still park the thread until the peer drains its window —
/// which would let a stalled reader defeat the write deadline entirely.
void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

Result<UniqueFd> ListenTcp(const std::string& host, uint16_t port,
                           int backlog, uint16_t* bound_port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: '" + host + "'");
  }

  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket", errno);
  SetCloexec(fd.get());
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  if (::bind(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return ErrnoStatus("bind " + host + ":" + std::to_string(port), errno);
  }
  if (::listen(fd.get(), backlog) != 0) {
    return ErrnoStatus("listen", errno);
  }
  if (bound_port != nullptr) {
    struct sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<struct sockaddr*>(&bound),
                      &len) != 0) {
      return ErrnoStatus("getsockname", errno);
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

Result<UniqueFd> AcceptConnection(int listen_fd) {
  const int fd = PosixAccept4(listen_fd, SOCK_CLOEXEC, "socket.accept");
  if (fd < 0) return ErrnoStatus("accept", errno);
  UniqueFd conn(fd);
  SetNoDelay(fd);
  SetNonBlocking(fd);
  return conn;
}

Result<UniqueFd> ConnectTcp(const std::string& host, uint16_t port,
                            int timeout_ms) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: '" + host + "'");
  }

  const FaultOutcome fault = FaultCheck("socket.connect");
  if (fault.kind == FaultOutcome::Kind::kErrno ||
      fault.kind == FaultOutcome::Kind::kFail) {
    const int err =
        fault.kind == FaultOutcome::Kind::kErrno ? fault.err : EIO;
    return ErrnoStatus("connect " + host + ":" + std::to_string(port), err);
  }

  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!fd.valid()) return ErrnoStatus("socket", errno);
  SetCloexec(fd.get());

  if (::connect(fd.get(), reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      return ErrnoStatus("connect " + host + ":" + std::to_string(port),
                         errno);
    }
    const IoResult wait =
        PollUntil(fd.get(), POLLOUT, DeadlineAfterMillis(timeout_ms));
    if (wait.status == IoStatus::kTimeout) {
      return Status::IOError("connect " + host + ":" + std::to_string(port) +
                             ": timed out");
    }
    if (wait.status == IoStatus::kError) {
      return ErrnoStatus("connect poll", wait.error);
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
      return ErrnoStatus("getsockopt", errno);
    }
    if (so_error != 0) {
      return ErrnoStatus("connect " + host + ":" + std::to_string(port),
                         so_error);
    }
  }

  // Stays non-blocking: all I/O on it goes through the timed helpers.
  SetNoDelay(fd.get());
  return fd;
}

IoResult RecvSome(int fd, char* buf, size_t len, int timeout_ms) {
  const int64_t deadline_ms = DeadlineAfterMillis(timeout_ms);
  for (;;) {
    const IoResult wait = PollUntil(fd, POLLIN, deadline_ms);
    if (wait.status != IoStatus::kOk) return wait;
    const ssize_t n = PosixRecv(fd, buf, len, 0, "socket.recv");
    if (n > 0) return IoResult{IoStatus::kOk, static_cast<size_t>(n), 0};
    if (n == 0) return IoResult{IoStatus::kEof, 0, 0};
    // EAGAIN after POLLIN is a spurious wakeup on a non-blocking socket:
    // re-poll (against the same deadline) rather than spin. EINTR is
    // retried inside PosixRecv.
    if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return IoResult{IoStatus::kError, 0, errno};
  }
}

IoResult SendAll(int fd, std::string_view data, int timeout_ms) {
  const int64_t deadline_ms = DeadlineAfterMillis(timeout_ms);
  size_t sent = 0;
  while (sent < data.size()) {
    const IoResult wait = PollUntil(fd, POLLOUT, deadline_ms);
    if (wait.status != IoStatus::kOk) {
      return IoResult{wait.status, sent, wait.error};
    }
    const ssize_t n = PosixSend(fd, data.data() + sent, data.size() - sent,
                                MSG_NOSIGNAL, "socket.send");
    if (n >= 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return IoResult{IoStatus::kError, sent, errno};
  }
  return IoResult{IoStatus::kOk, sent, 0};
}

IoResult WaitReadable(int fd, int timeout_ms) {
  return PollUntil(fd, POLLIN, DeadlineAfterMillis(timeout_ms));
}

}  // namespace egp
