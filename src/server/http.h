// HTTP/1.1 message handling for the serving subsystem: an incremental,
// limit-enforcing request parser and response serialization. Transport
// (sockets, timeouts, threading) lives in http_server.h; this layer is
// pure bytes → message and is unit-tested in isolation.
//
// Scope: the subset of RFC 9112 a JSON API server needs. Content-Length
// bodies only (Transfer-Encoding is answered with 501), no multi-line
// header folding (400, as the RFC now demands), one strict space in the
// request line. Every hard limit maps to the proper status code so
// hostile input degrades into a clean error response, never into
// unbounded buffering.
#ifndef EGP_SERVER_HTTP_H_
#define EGP_SERVER_HTTP_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace egp {

struct HttpRequest {
  std::string method;   // "GET", "POST", ... (token, upper-case by spec)
  std::string target;   // origin-form, e.g. "/v1/preview?x=1"
  int minor_version = 1;  // HTTP/1.<minor>: 0 or 1
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First header with that name, case-insensitively; nullptr if absent.
  const std::string* FindHeader(std::string_view name) const;
  /// Path part of the target (before '?').
  std::string_view Path() const;
  /// Query part (after '?'), or empty.
  std::string_view Query() const;
  /// Whether the connection should stay open after this exchange
  /// (HTTP/1.1 defaults to keep-alive, 1.0 to close; the Connection
  /// header overrides either way).
  bool KeepAlive() const;
};

struct HttpParserLimits {
  size_t max_body_bytes = 4 * 1024 * 1024;
};

/// Incremental request parser: feed it bytes as they arrive; it says when
/// a full request is ready. One instance parses a whole keep-alive
/// connection: after Take(), leftover bytes (pipelined requests) carry
/// over into the next parse.
class HttpRequestParser {
 public:
  enum class State { kNeedMore, kComplete, kError };
  /// Request line + headers, including the blank line.
  static constexpr size_t kMaxHeadBytes = 16 * 1024;

  explicit HttpRequestParser(const HttpParserLimits& limits = {})
      : limits_(limits) {}

  /// Consumes `data`; returns the parser state. After kComplete, call
  /// Take() before feeding again. After kError, the connection is
  /// poisoned: see error_status() for the response to send before close.
  State Feed(std::string_view data);

  /// Parse again from bytes already buffered (pipelining): equivalent to
  /// Feed("") but explicit at call sites.
  State Continue() { return Feed({}); }

  /// Moves the completed request out and resets for the next one on the
  /// same connection.
  HttpRequest Take();

  /// For kError: the HTTP status code that describes the fault (400
  /// malformed, 413 body too large, 431 head too large, 501
  /// Transfer-Encoding, 505 unsupported version).
  int error_status() const { return error_status_; }
  const std::string& error_message() const { return error_message_; }

  /// True when no bytes of a next request have arrived yet — the clean
  /// point to close an idle keep-alive connection.
  bool AtMessageBoundary() const {
    return state_ == State::kNeedMore && buffer_.empty() && !head_done_;
  }

  /// Wire bytes consumed by the message being parsed (head incl. the
  /// blank line, plus body so far). Read before Take(), which resets it;
  /// feeds RequestTrace::bytes_in.
  size_t message_bytes() const { return message_bytes_; }

 private:
  State Fail(int status, std::string message);
  State ParseHead();

  HttpParserLimits limits_;
  State state_ = State::kNeedMore;
  std::string buffer_;       // unconsumed input
  bool head_done_ = false;   // request line + headers parsed
  size_t body_needed_ = 0;   // Content-Length remaining to buffer
  size_t message_bytes_ = 0;  // consumed bytes of the current message
  HttpRequest request_;
  int error_status_ = 0;
  std::string error_message_;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra headers (name, value); Content-Length/-Type and Connection are
  /// emitted automatically.
  std::vector<std::pair<std::string, std::string>> headers;
  /// Force Connection: close regardless of what the client asked for.
  bool close_connection = false;
};

/// Canonical reason phrase ("OK", "Not Found", ...).
std::string_view HttpStatusReason(int status);

/// True when the comma-separated token list `value` (an RFC 9110 list
/// header value like Connection's) contains `token`, case-insensitively
/// and ignoring optional whitespace around elements. "close, TE"
/// contains "close"; "closet" does not.
bool HeaderListContainsToken(std::string_view value, std::string_view token);

/// The API's uniform error document: {"error":{"status":...,
/// "message":...}} with full JSON escaping. Shared by the transport
/// (parse/timeout errors) and the API layer so clients parse one shape.
std::string JsonErrorBody(int status, std::string_view message);

/// The status line and headers, through the blank line. Content-Length
/// describes response.body, which is not copied: the server sends the
/// body after the head from where it lies (or, for a HEAD request, not
/// at all). `keep_alive` reflects the negotiated connection state
/// (response.close_connection overrides it to false).
std::string SerializeHead(const HttpResponse& response, bool keep_alive);

/// Full response bytes: SerializeHead, then the body.
std::string SerializeResponse(const HttpResponse& response, bool keep_alive);

}  // namespace egp

#endif  // EGP_SERVER_HTTP_H_
