#include "server/http.h"

#include <algorithm>
#include <cctype>

#include "common/strings.h"
#include "io/json_writer.h"

namespace egp {
namespace {

/// RFC 9110 token characters (method and header names).
bool IsTokenChar(char c) {
  if (std::isalnum(static_cast<unsigned char>(c))) return true;
  switch (c) {
    case '!':
    case '#':
    case '$':
    case '%':
    case '&':
    case '\'':
    case '*':
    case '+':
    case '-':
    case '.':
    case '^':
    case '_':
    case '`':
    case '|':
    case '~':
      return true;
    default:
      return false;
  }
}

bool IsToken(std::string_view s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), IsTokenChar);
}

std::string_view TrimOws(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// SerializeHead's bytes, appended to `*out`.
void AppendHead(const HttpResponse& response, bool keep_alive,
                std::string* out) {
  const bool keep = keep_alive && !response.close_connection;
  *out += "HTTP/1.1 ";
  *out += std::to_string(response.status);
  *out += ' ';
  *out += HttpStatusReason(response.status);
  *out += "\r\n";
  if (!response.content_type.empty()) {
    *out += "Content-Type: ";
    *out += response.content_type;
    *out += "\r\n";
  }
  *out += "Content-Length: ";
  *out += std::to_string(response.body.size());
  *out += "\r\n";
  *out += keep ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : response.headers) {
    *out += name;
    *out += ": ";
    *out += value;
    *out += "\r\n";
  }
  *out += "\r\n";
}

}  // namespace

std::string JsonErrorBody(int status, std::string_view message) {
  std::string body;
  JsonWriter json(&body);
  json.BeginObject().Key("error").BeginObject().Key("status").Int(status);
  json.Key("message").String(message).EndObject().EndObject();
  return body;
}

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (EqualsIgnoreCase(key, name)) return &value;
  }
  return nullptr;
}

std::string_view HttpRequest::Path() const {
  const std::string_view t = target;
  const size_t q = t.find('?');
  return q == std::string_view::npos ? t : t.substr(0, q);
}

std::string_view HttpRequest::Query() const {
  const std::string_view t = target;
  const size_t q = t.find('?');
  return q == std::string_view::npos ? std::string_view() : t.substr(q + 1);
}

bool HeaderListContainsToken(std::string_view value, std::string_view token) {
  // RFC 9110 §5.6.1 list syntax: elements separated by commas, OWS
  // around each, empty elements ignored.
  while (!value.empty()) {
    const size_t comma = value.find(',');
    const std::string_view element =
        TrimOws(value.substr(0, comma == std::string_view::npos
                                    ? value.size()
                                    : comma));
    if (EqualsIgnoreCase(element, token)) return true;
    if (comma == std::string_view::npos) break;
    value.remove_prefix(comma + 1);
  }
  return false;
}

bool HttpRequest::KeepAlive() const {
  // Connection is a comma-separated token list (RFC 9110 §7.6.1):
  // "Connection: close, TE" closes just like "Connection: close".
  // close wins over keep-alive when a confused client sends both.
  const std::string* connection = FindHeader("Connection");
  if (connection != nullptr) {
    if (HeaderListContainsToken(*connection, "close")) return false;
    if (HeaderListContainsToken(*connection, "keep-alive")) return true;
  }
  return minor_version >= 1;
}

HttpRequestParser::State HttpRequestParser::Fail(int status,
                                                 std::string message) {
  state_ = State::kError;
  error_status_ = status;
  error_message_ = std::move(message);
  return state_;
}

HttpRequestParser::State HttpRequestParser::Feed(std::string_view data) {
  if (state_ == State::kError) return state_;
  buffer_.append(data);

  if (!head_done_) {
    // Wait for the blank line, bounding how much head we will buffer.
    const size_t head_end = buffer_.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      if (buffer_.size() > kMaxHeadBytes) {
        return Fail(431, "request head exceeds " +
                             std::to_string(kMaxHeadBytes) + " bytes");
      }
      state_ = State::kNeedMore;
      return state_;
    }
    if (head_end + 4 > kMaxHeadBytes) {
      return Fail(431, "request head exceeds " +
                           std::to_string(kMaxHeadBytes) + " bytes");
    }
    const State parsed = ParseHead();
    if (parsed == State::kError) return parsed;
  }

  if (body_needed_ > 0) {
    const size_t take = std::min(body_needed_, buffer_.size());
    request_.body.append(buffer_, 0, take);
    buffer_.erase(0, take);
    body_needed_ -= take;
    message_bytes_ += take;
  }
  state_ = body_needed_ == 0 ? State::kComplete : State::kNeedMore;
  return state_;
}

HttpRequestParser::State HttpRequestParser::ParseHead() {
  const size_t head_end = buffer_.find("\r\n\r\n");
  const std::string_view head =
      std::string_view(buffer_).substr(0, head_end + 2);

  // ---- Request line: METHOD SP TARGET SP HTTP/1.x CRLF
  const size_t line_end = head.find("\r\n");
  std::string_view line = head.substr(0, line_end);
  if (line.find('\n') != std::string_view::npos ||
      line.find('\r') != std::string_view::npos) {
    return Fail(400, "bare CR or LF in request line");
  }
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) {
    return Fail(400, "malformed request line");
  }
  const std::string_view method = line.substr(0, sp1);
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = line.substr(sp2 + 1);
  if (!IsToken(method)) return Fail(400, "malformed method");
  if (target.empty() || target.find(' ') != std::string_view::npos) {
    return Fail(400, "malformed request target");
  }
  // Origin-form only ("/path"); asterisk-form tolerated for OPTIONS.
  if (target[0] != '/' && target != "*") {
    return Fail(400, "request target must be origin-form");
  }
  if (version == "HTTP/1.1") {
    request_.minor_version = 1;
  } else if (version == "HTTP/1.0") {
    request_.minor_version = 0;
  } else if (version.rfind("HTTP/", 0) == 0) {
    return Fail(505, "unsupported protocol version '" +
                         std::string(version) + "'");
  } else {
    return Fail(400, "malformed request line");
  }
  request_.method = std::string(method);
  request_.target = std::string(target);

  // ---- Headers
  size_t pos = line_end + 2;
  while (pos < head.size()) {
    const size_t eol = head.find("\r\n", pos);
    std::string_view field = head.substr(pos, eol - pos);
    pos = eol + 2;
    if (field.find('\n') != std::string_view::npos ||
        field.find('\r') != std::string_view::npos) {
      return Fail(400, "bare CR or LF in header field");
    }
    if (field.empty()) break;
    if (field[0] == ' ' || field[0] == '\t') {
      return Fail(400, "obsolete header line folding");
    }
    const size_t colon = field.find(':');
    if (colon == std::string_view::npos) {
      return Fail(400, "header field without ':'");
    }
    const std::string_view name = field.substr(0, colon);
    if (!IsToken(name)) return Fail(400, "malformed header name");
    const std::string_view value = TrimOws(field.substr(colon + 1));
    request_.headers.emplace_back(std::string(name), std::string(value));
  }

  // ---- Body framing
  if (request_.FindHeader("Transfer-Encoding") != nullptr) {
    return Fail(501, "Transfer-Encoding is not supported");
  }
  size_t content_length = 0;
  bool have_length = false;
  for (const auto& [name, value] : request_.headers) {
    if (!EqualsIgnoreCase(name, "Content-Length")) continue;
    if (value.empty() ||
        !std::all_of(value.begin(), value.end(),
                     [](char c) { return c >= '0' && c <= '9'; }) ||
        value.size() > 18) {
      return Fail(400, "malformed Content-Length");
    }
    const size_t parsed = std::stoull(value);
    if (have_length && parsed != content_length) {
      return Fail(400, "conflicting Content-Length headers");
    }
    content_length = parsed;
    have_length = true;
  }
  if (content_length > limits_.max_body_bytes) {
    return Fail(413, "request body exceeds " +
                         std::to_string(limits_.max_body_bytes) + " bytes");
  }

  buffer_.erase(0, head_end + 4);
  head_done_ = true;
  message_bytes_ = head_end + 4;
  body_needed_ = content_length;
  request_.body.reserve(content_length);
  return State::kNeedMore;
}

HttpRequest HttpRequestParser::Take() {
  HttpRequest request = std::move(request_);
  request_ = HttpRequest{};
  head_done_ = false;
  body_needed_ = 0;
  message_bytes_ = 0;
  state_ = State::kNeedMore;
  return request;
}

std::string_view HttpStatusReason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 204:
      return "No Content";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 413:
      return "Content Too Large";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    case 505:
      return "HTTP Version Not Supported";
    default:
      return status >= 200 && status < 300 ? "OK" : "Error";
  }
}

std::string SerializeHead(const HttpResponse& response, bool keep_alive) {
  std::string head;
  head.reserve(256);
  AppendHead(response, keep_alive, &head);
  return head;
}

std::string SerializeResponse(const HttpResponse& response, bool keep_alive) {
  std::string out;
  out.reserve(256 + response.body.size());
  AppendHead(response, keep_alive, &out);
  out += response.body;
  return out;
}

}  // namespace egp
