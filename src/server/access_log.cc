#include "server/access_log.h"

#include <cerrno>
#include <cstring>

#include "common/logging.h"

namespace egp {
namespace {

/// Member `key`: `seconds` in milliseconds, 6 significant digits (enough
/// for sub-microsecond phases).
void MillisMember(JsonWriter* out, std::string_view key, double seconds) {
  out->Key(key).Double(seconds * 1e3, 6);
}

}  // namespace

void RequestTraceToJson(const RequestTrace& trace, std::string_view level,
                        JsonWriter* out) {
  out->BeginObject().Key("id").String(trace.id);
  if (!level.empty()) out->Key("level").String(level);
  out->Key("method").String(trace.method);
  out->Key("path").String(trace.path);
  out->Key("dataset").String(trace.dataset);
  out->Key("status").Int(trace.status);
  out->Key("outcome").String(trace.outcome);
  out->Key("cacheHit").Bool(trace.cache_hit);
  out->Key("bytesIn").Uint(trace.bytes_in);
  out->Key("bytesOut").Uint(trace.bytes_out);
  MillisMember(out, "totalMs", trace.total_seconds);
  out->Key("phases").BeginObject();
  MillisMember(out, "readMs", trace.read_seconds);
  MillisMember(out, "queueMs", trace.queue_seconds);
  MillisMember(out, "admissionMs", trace.admission_seconds);
  MillisMember(out, "handlerMs", trace.handler_seconds);
  MillisMember(out, "serializeMs", trace.serialize_seconds);
  MillisMember(out, "flushMs", trace.flush_seconds);
  out->EndObject().Key("engine").BeginObject();
  MillisMember(out, "prepareMs", trace.prepare_seconds);
  MillisMember(out, "discoverMs", trace.discover_seconds);
  MillisMember(out, "sampleMs", trace.sample_seconds);
  out->Key("prepare").BeginObject();
  MillisMember(out, "keyMs", trace.prepare_key_seconds);
  MillisMember(out, "nonkeyMs", trace.prepare_nonkey_seconds);
  MillisMember(out, "distanceMs", trace.prepare_distance_seconds);
  MillisMember(out, "candidateSortMs", trace.prepare_candidate_sort_seconds);
  out->EndObject().EndObject().EndObject();
}

std::string RequestTraceToJson(const RequestTrace& trace,
                               std::string_view level) {
  std::string out;
  JsonWriter json(&out);
  RequestTraceToJson(trace, level, &json);
  return out;
}

Result<std::unique_ptr<AccessLog>> AccessLog::Open(
    const AccessLogOptions& options) {
  std::FILE* stream = nullptr;
  bool owns = false;
  if (options.path == "stderr") {
    stream = stderr;
  } else {
    stream = std::fopen(options.path.c_str(), "ae");
    if (stream == nullptr) {
      return Status::IOError("cannot open access log '" + options.path +
                             "': " + std::strerror(errno));
    }
    owns = true;
  }
  return std::unique_ptr<AccessLog>(new AccessLog(stream, owns, options));
}

AccessLog::~AccessLog() {
  MutexLock lock(&mu_);
  if (owns_stream_ && stream_ != nullptr) std::fclose(stream_);
  stream_ = nullptr;
}

void AccessLog::Write(const RequestTrace& trace) {
  const bool slow = options_.slow_request_ms >= 0 &&
                    trace.total_seconds * 1e3 >= options_.slow_request_ms;
  const LogLevel level = slow ? LogLevel::kWarning : LogLevel::kInfo;
  if (level < GetLogLevel()) return;
  std::string line = RequestTraceToJson(trace, slow ? "warning" : "info");
  line += "\n";
  MutexLock lock(&mu_);
  if (stream_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), stream_);
  // Flushed per line so a tailing operator (or the smoke test) sees the
  // trace as soon as the request finishes, not at buffer granularity.
  std::fflush(stream_);
  ++lines_;
}

uint64_t AccessLog::lines_written() const {
  MutexLock lock(&mu_);
  return lines_;
}

}  // namespace egp
