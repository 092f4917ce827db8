// EINTR-correct wrappers over the raw POSIX calls the repo performs,
// with fault-injection sites built in.
//
// Every wrapper retries EINTR internally — injected (via a fault
// schedule) or real — so callers never hand-roll the retry loop; the
// lint_invariants.py `naked-syscall` rule forbids the raw calls
// everywhere outside this header. Callers still handle EAGAIN,
// EWOULDBLOCK, and every other errno themselves: only the
// interrupted-retry is absorbed here.
//
// Passing a `site` name arms the call for fault injection (see
// common/fault.h). Injection emulates the syscall's own contract —
// err:X returns -1 with errno=X (and an injected EINTR therefore
// exercises this header's retry loop, not a special path); short:N
// clamps the transfer length before the real call runs.
#ifndef EGP_COMMON_POSIX_H_
#define EGP_COMMON_POSIX_H_

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <span>
#include <vector>

#include "common/fault.h"

namespace egp {
namespace posix_internal {

/// Applies an armed outcome to a syscall about to run. Returns true when
/// the call is preempted entirely (*result and errno already set);
/// kShort only clamps *len and lets the real syscall run.
inline bool Preempt(const char* site, ssize_t* result, size_t* len) {
  const FaultOutcome fault = FaultCheck(site);
  switch (fault.kind) {
    case FaultOutcome::Kind::kNone:
      return false;
    case FaultOutcome::Kind::kShort:
      if (len != nullptr && *len > 1) {
        *len = std::min(*len, std::max<size_t>(1, fault.len));
      }
      return false;
    case FaultOutcome::Kind::kErrno:
      errno = fault.err;
      *result = -1;
      return true;
    case FaultOutcome::Kind::kFail:
      errno = EIO;
      *result = -1;
      return true;
  }
  return false;
}

}  // namespace posix_internal

inline ssize_t PosixRead(int fd, void* buf, size_t count,
                         const char* site = nullptr) {
  for (;;) {
    size_t take = count;
    ssize_t n = 0;
    if (site == nullptr || !posix_internal::Preempt(site, &n, &take)) {
      n = ::read(fd, buf, take);
    }
    if (n >= 0 || errno != EINTR) return n;
  }
}

inline ssize_t PosixWrite(int fd, const void* buf, size_t count,
                          const char* site = nullptr) {
  for (;;) {
    size_t take = count;
    ssize_t n = 0;
    if (site == nullptr || !posix_internal::Preempt(site, &n, &take)) {
      n = ::write(fd, buf, take);
    }
    if (n >= 0 || errno != EINTR) return n;
  }
}

inline ssize_t PosixRecv(int fd, void* buf, size_t len, int flags,
                         const char* site = nullptr) {
  for (;;) {
    size_t take = len;
    ssize_t n = 0;
    if (site == nullptr || !posix_internal::Preempt(site, &n, &take)) {
      n = ::recv(fd, buf, take, flags);
    }
    if (n >= 0 || errno != EINTR) return n;
  }
}

inline ssize_t PosixSend(int fd, const void* buf, size_t len, int flags,
                         const char* site = nullptr) {
  for (;;) {
    size_t take = len;
    ssize_t n = 0;
    if (site == nullptr || !posix_internal::Preempt(site, &n, &take)) {
      n = ::send(fd, buf, take, flags);
    }
    if (n >= 0 || errno != EINTR) return n;
  }
}

/// sendmsg of the vectors `iov`, in order, with no address or control
/// data. A short fault clamps the bytes offered across all the vectors,
/// as it clamps send's length.
inline ssize_t PosixSendmsg(int fd, std::span<const iovec> iov, int flags,
                            const char* site = nullptr) {
  size_t total = 0;
  for (const iovec& v : iov) total += v.iov_len;
  for (;;) {
    size_t take = total;
    ssize_t n = 0;
    if (site == nullptr || !posix_internal::Preempt(site, &n, &take)) {
      std::vector<iovec> clamped;  // only under a short fault
      std::span<const iovec> offer = iov;
      if (take < total) {
        for (const iovec& v : iov) {
          if (take == 0) break;
          clamped.push_back({v.iov_base, std::min(v.iov_len, take)});
          take -= clamped.back().iov_len;
        }
        offer = clamped;
      }
      msghdr message{};
      // sendmsg only reads the vectors.
      message.msg_iov = const_cast<iovec*>(offer.data());
      message.msg_iovlen = offer.size();
      n = ::sendmsg(fd, &message, flags);
    }
    if (n >= 0 || errno != EINTR) return n;
  }
}

/// accept4 with a null peer address (nobody here reads it).
inline int PosixAccept4(int fd, int flags, const char* site = nullptr) {
  for (;;) {
    ssize_t n = 0;
    if (site == nullptr || !posix_internal::Preempt(site, &n, nullptr)) {
      n = ::accept4(fd, nullptr, nullptr, flags);
    }
    if (n >= 0 || errno != EINTR) return static_cast<int>(n);
  }
}

inline int PosixFsync(int fd, const char* site = nullptr) {
  for (;;) {
    ssize_t n = 0;
    if (site == nullptr || !posix_internal::Preempt(site, &n, nullptr)) {
      n = ::fsync(fd);
    }
    if (n >= 0 || errno != EINTR) return static_cast<int>(n);
  }
}

inline int PosixOpen(const char* path, int flags, mode_t mode = 0,
                     const char* site = nullptr) {
  for (;;) {
    ssize_t n = 0;
    if (site == nullptr || !posix_internal::Preempt(site, &n, nullptr)) {
      n = ::open(path, flags, mode);
    }
    if (n >= 0 || errno != EINTR) return static_cast<int>(n);
  }
}

}  // namespace egp

#endif  // EGP_COMMON_POSIX_H_
