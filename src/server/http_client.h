// Minimal blocking HTTP/1.1 client over the same socket layer the server
// uses. Exists for the subsystem's own consumers — the load generator
// and the end-to-end tests — not as a general client: it speaks exactly
// the dialect egp_server emits (Content-Length framed responses,
// keep-alive).
#ifndef EGP_SERVER_HTTP_CLIENT_H_
#define EGP_SERVER_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "server/socket.h"

namespace egp {

/// Retry policy for HttpClient::Request. The default (max_attempts 1)
/// keeps the historical fail-fast behavior; callers that want
/// resilience opt in. Independent of the always-on stale-keep-alive
/// reconnect (a pooled connection the server already closed is replayed
/// once transparently — that retry is a correctness fix, not policy).
struct HttpRetryOptions {
  /// Total attempts per Request() call; 1 disables retries. Idempotent
  /// requests (GET/HEAD) retry on any transport error; POST/PUT retry
  /// only when the *connect* failed (the request can't have reached the
  /// server).
  int max_attempts = 1;
  /// Exponential backoff between attempts: base, doubling, capped.
  int base_backoff_ms = 50;
  int max_backoff_ms = 2'000;
  /// Deterministic jitter stream: the same seed replays the same
  /// backoff sequence (tests assert on it).
  uint64_t jitter_seed = 1;
  /// Also retry 503 responses, honoring Retry-After (capped at
  /// max_backoff_ms). Off by default: a shed is a semantic answer.
  bool retry_on_503 = false;
};

struct HttpClientResponse {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// What the server negotiated; when false the client reconnects before
  /// the next request.
  bool keep_alive = false;

  const std::string* FindHeader(std::string_view name) const;
};

class HttpClient {
 public:
  /// All stall budgets (connect, read, write) in one knob; the client is
  /// a test/bench tool, not a tunable surface.
  HttpClient(std::string host, uint16_t port, int timeout_ms = 10'000)
      : host_(std::move(host)), port_(port), timeout_ms_(timeout_ms) {}

  /// One request/response exchange. Connects lazily, reuses the
  /// connection while the server keeps it alive, reconnects after a
  /// close. An empty `content_type` omits the header.
  Result<HttpClientResponse> Request(std::string_view method,
                                     std::string_view target,
                                     std::string_view body = {},
                                     std::string_view content_type =
                                         "application/json");

  Result<HttpClientResponse> Get(std::string_view target) {
    return Request("GET", target, {}, {});
  }
  Result<HttpClientResponse> Post(std::string_view target,
                                  std::string_view body) {
    return Request("POST", target, body);
  }

  /// Drops the connection (next Request reconnects).
  void Disconnect() { fd_.Reset(); }
  bool connected() const { return fd_.valid(); }

  /// Slow-client simulation (loadgen's --trickle-* flags): when `bytes`
  /// is non-zero, request bytes go out in `bytes`-sized chunks with
  /// `interval_ms` of sleep between chunks. 0 restores normal sends.
  void SetTrickle(size_t bytes, int interval_ms) {
    trickle_bytes_ = bytes;
    trickle_interval_ms_ = interval_ms;
  }

  /// Sends raw bytes on the (possibly newly opened) connection and
  /// reads one response — for tests that need malformed requests. No
  /// retries, no transparent reconnect.
  Result<HttpClientResponse> RawExchange(std::string_view bytes);

  void set_retry_options(const HttpRetryOptions& options) {
    retry_ = options;
    jitter_state_ = options.jitter_seed == 0 ? 1 : options.jitter_seed;
  }
  const HttpRetryOptions& retry_options() const { return retry_; }

  /// Stale-pool reconnects performed (keep-alive connection found dead
  /// on reuse, replayed transparently).
  uint64_t transparent_reconnects() const { return transparent_reconnects_; }
  /// Policy retries performed (per HttpRetryOptions).
  uint64_t retries() const { return retries_; }

 private:
  Status EnsureConnected();
  Status SendBytes(std::string_view bytes);
  /// `*stale_candidate` is set when the failure looked like a dead
  /// keep-alive connection: closed/reset before a single response byte
  /// arrived (never on timeouts or malformed responses).
  Result<HttpClientResponse> ReadResponse(bool* stale_candidate);
  Result<HttpClientResponse> ExchangeOnce(std::string_view bytes,
                                          bool* connect_failure);
  void BackoffSleep(int attempt, int64_t min_wait_ms);

  std::string host_;
  uint16_t port_;
  int timeout_ms_;
  size_t trickle_bytes_ = 0;
  int trickle_interval_ms_ = 0;
  HttpRetryOptions retry_;
  uint64_t jitter_state_ = 1;
  uint64_t transparent_reconnects_ = 0;
  uint64_t retries_ = 0;
  UniqueFd fd_;
  std::string leftover_;  // bytes past the previous response
};

}  // namespace egp

#endif  // EGP_SERVER_HTTP_CLIENT_H_
