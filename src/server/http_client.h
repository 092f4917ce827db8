// Minimal blocking HTTP/1.1 client over the same socket layer the server
// uses. Exists for the subsystem's own consumers — the load generator
// and the end-to-end tests — not as a general client: it speaks exactly
// the dialect egp_server emits (Content-Length framed responses,
// keep-alive). It fails fast: a refused connect, a 503 or a response cut
// off mid-way surfaces to the caller as is. The one replay is a
// correctness fix, not a policy: a pooled keep-alive connection the
// server already closed is retried once on a fresh connection.
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
  /// transparent reconnect.
  Result<HttpClientResponse> RawExchange(std::string_view bytes);

  /// Stale-pool reconnects performed (keep-alive connection found dead
  /// on reuse, replayed transparently).
  uint64_t transparent_reconnects() const { return transparent_reconnects_; }

 private:
  Status EnsureConnected();
  Status SendBytes(std::string_view bytes);
  /// `*stale_candidate` is set when the failure looked like a dead
  /// keep-alive connection: closed/reset before a single response byte
  /// arrived (never on timeouts or malformed responses).
  Result<HttpClientResponse> ReadResponse(bool* stale_candidate);

  std::string host_;
  uint16_t port_;
  int timeout_ms_;
  size_t trickle_bytes_ = 0;
  int trickle_interval_ms_ = 0;
  uint64_t transparent_reconnects_ = 0;
  UniqueFd fd_;
  std::string leftover_;  // bytes past the previous response
};

}  // namespace egp

#endif  // EGP_SERVER_HTTP_CLIENT_H_
