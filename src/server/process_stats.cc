#include "server/process_stats.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdlib>

#include "common/posix.h"
#include "common/timer.h"

namespace egp {
namespace {

/// Uptime anchor: captured at static initialization, i.e. process start
/// for practical purposes (before main runs).
const int64_t g_start_ns = MonotonicNanos();

uint64_t ReadResidentBytes() {
  const int fd = PosixOpen("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  char buf[128];
  const ssize_t n = PosixRead(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  // statm: size resident shared text lib data dt (pages).
  char* end = nullptr;
  (void)std::strtoull(buf, &end, 10);  // total program size: skip
  if (end == nullptr) return 0;
  const unsigned long long resident = std::strtoull(end, nullptr, 10);
  const long page = ::sysconf(_SC_PAGESIZE);
  return resident * static_cast<uint64_t>(page > 0 ? page : 4096);
}

uint64_t CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  uint64_t count = 0;
  while (struct dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    ++count;
  }
  ::closedir(dir);
  // The opendir fd itself is in the listing; don't count it.
  return count > 0 ? count - 1 : 0;
}

}  // namespace

ProcessStats ReadProcessStats() {
  ProcessStats stats;
  stats.resident_bytes = ReadResidentBytes();
  stats.open_fds = CountOpenFds();
  stats.uptime_seconds =
      static_cast<double>(MonotonicNanos() - g_start_ns) * 1e-9;
  return stats;
}

}  // namespace egp
