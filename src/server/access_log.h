// Structured JSON-lines access logging: one self-contained JSON object
// per completed request, built from the transport's RequestTrace. The
// line carries the full phase breakdown (read/queue/admission/handler/
// serialize/flush), byte counts, Engine timings, and the outcome — the
// per-request causality that /metrics aggregates away.
//
// Lines are level-gated through the process log level: a normal request
// logs at INFO, and a request slower than `slow_request_ms` is promoted
// to WARNING (so `--log-level warning` keeps exactly the slow-request
// forensics and drops the rest).
#ifndef EGP_SERVER_ACCESS_LOG_H_
#define EGP_SERVER_ACCESS_LOG_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "common/mutex.h"
#include "common/result.h"
#include "common/trace.h"
#include "io/json_writer.h"

namespace egp {

/// The access-log JSON document for one trace (no trailing newline).
/// `level` ("info"/"warning"), when non-empty, is included as a field —
/// the access log sets it; the flight-recorder endpoint leaves it out.
std::string RequestTraceToJson(const RequestTrace& trace,
                               std::string_view level = {});
/// The same document, written as the next value of `out`.
void RequestTraceToJson(const RequestTrace& trace, std::string_view level,
                        JsonWriter* out);

struct AccessLogOptions {
  /// Destination: a file path (append mode) or the literal "stderr".
  std::string path = "stderr";
  /// Requests with total latency above this are logged at WARNING
  /// instead of INFO. Negative: never promote.
  double slow_request_ms = -1.0;
};

/// Thread-safe JSON-lines sink; one instance per server process.
class AccessLog {
 public:
  static Result<std::unique_ptr<AccessLog>> Open(
      const AccessLogOptions& options);
  ~AccessLog();

  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  /// Emits one line for `trace`, subject to the process log level.
  void Write(const RequestTrace& trace);

  /// Lines actually written (post level-gating); for tests.
  uint64_t lines_written() const;

 private:
  AccessLog(std::FILE* stream, bool owns_stream,
            const AccessLogOptions& options)
      : options_(options), stream_(stream), owns_stream_(owns_stream) {}

  const AccessLogOptions options_;
  mutable Mutex mu_{"access_log"};
  std::FILE* stream_ EGP_GUARDED_BY(mu_);
  const bool owns_stream_;
  uint64_t lines_ EGP_GUARDED_BY(mu_) = 0;
};

}  // namespace egp

#endif  // EGP_SERVER_ACCESS_LOG_H_
