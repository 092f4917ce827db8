#include "server/http_client.h"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/strings.h"
#include "server/http.h"

namespace egp {

const std::string* HttpClientResponse::FindHeader(
    std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (EqualsIgnoreCase(key, name)) return &value;
  }
  return nullptr;
}

Status HttpClient::EnsureConnected() {
  if (fd_.valid()) return Status::OK();
  leftover_.clear();
  EGP_ASSIGN_OR_RETURN(fd_, ConnectTcp(host_, port_, timeout_ms_));
  return Status::OK();
}

Status HttpClient::SendBytes(std::string_view bytes) {
  if (trickle_bytes_ == 0) {
    const IoResult sent = SendAll(fd_.get(), bytes, timeout_ms_);
    if (sent.status != IoStatus::kOk) {
      fd_.Reset();
      return Status::IOError("send failed");
    }
    return Status::OK();
  }
  // Trickle mode: each chunk gets the full timeout (the point is to be
  // slow on purpose, not to time ourselves out).
  for (size_t offset = 0; offset < bytes.size();
       offset += trickle_bytes_) {
    if (offset > 0 && trickle_interval_ms_ > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(trickle_interval_ms_));
    }
    const IoResult sent = SendAll(
        fd_.get(), bytes.substr(offset, trickle_bytes_), timeout_ms_);
    if (sent.status != IoStatus::kOk) {
      fd_.Reset();
      return Status::IOError("send failed");
    }
  }
  return Status::OK();
}

Result<HttpClientResponse> HttpClient::Request(std::string_view method,
                                               std::string_view target,
                                               std::string_view body,
                                               std::string_view content_type) {
  std::string request;
  request.reserve(128 + body.size());
  request.append(method).append(" ").append(target).append(" HTTP/1.1\r\n");
  request.append("Host: ").append(host_).append("\r\n");
  if (!content_type.empty()) {
    request.append("Content-Type: ").append(content_type).append("\r\n");
  }
  if (!body.empty() || method == "POST" || method == "PUT") {
    request.append("Content-Length: ")
        .append(std::to_string(body.size()))
        .append("\r\n");
  }
  request.append("\r\n").append(body);

  // Two passes at most: a pooled keep-alive connection the server has
  // meanwhile closed (ECONNRESET/EPIPE on the write, or EOF before any
  // response byte) is replayed once on a fresh connection. A failure on
  // a fresh connection is real and surfaces.
  for (int pass = 0; pass < 2; ++pass) {
    const bool reused = fd_.valid();
    EGP_RETURN_IF_ERROR(EnsureConnected());
    const Status sent = SendBytes(request);  // resets fd_ on failure
    if (!sent.ok()) {
      if (reused && pass == 0) {
        ++transparent_reconnects_;
        continue;
      }
      return sent;
    }
    bool stale_candidate = false;
    auto response = ReadResponse(&stale_candidate);
    if (!response.ok()) {
      fd_.Reset();
      if (reused && stale_candidate && pass == 0) {
        ++transparent_reconnects_;
        continue;
      }
      return response;
    }
    if (!response->keep_alive) fd_.Reset();
    return response;
  }
  return Status::Internal("unreachable: reconnect pass fell through");
}

Result<HttpClientResponse> HttpClient::RawExchange(std::string_view bytes) {
  EGP_RETURN_IF_ERROR(EnsureConnected());
  EGP_RETURN_IF_ERROR(SendBytes(bytes));
  bool ignored = false;
  auto response = ReadResponse(&ignored);
  if (!response.ok() || !response->keep_alive) fd_.Reset();
  return response;
}

Result<HttpClientResponse> HttpClient::ReadResponse(bool* stale_candidate) {
  std::string buffer = std::move(leftover_);
  leftover_.clear();
  char chunk[16 * 1024];

  // ---- Head
  size_t head_end;
  while ((head_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    if (buffer.size() > 64 * 1024) {
      return Status::Corruption("response head too large");
    }
    const IoResult r = RecvSome(fd_.get(), chunk, sizeof(chunk), timeout_ms_);
    if (r.status == IoStatus::kTimeout) {
      return Status::IOError("timed out reading response head");
    }
    if (r.status != IoStatus::kOk) {
      // Close/reset before a single response byte is the signature of a
      // pooled connection the server reaped; anything later is a real
      // mid-response failure.
      if (buffer.empty()) *stale_candidate = true;
      return Status::IOError("connection closed mid-response");
    }
    buffer.append(chunk, r.bytes);
  }

  HttpClientResponse response;
  const std::string_view head = std::string_view(buffer).substr(0, head_end);
  const size_t line_end = head.find("\r\n");
  const std::string_view status_line =
      head.substr(0, line_end == std::string_view::npos ? head.size()
                                                        : line_end);
  // "HTTP/1.1 200 OK"
  if (status_line.size() < 12 || status_line.substr(0, 7) != "HTTP/1.") {
    return Status::Corruption("malformed status line");
  }
  const int minor_version = status_line[7] == '0' ? 0 : 1;
  response.status = 0;
  for (size_t i = 9; i < 12 && i < status_line.size(); ++i) {
    const char c = status_line[i];
    if (c < '0' || c > '9') return Status::Corruption("malformed status code");
    response.status = response.status * 10 + (c - '0');
  }

  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view field = head.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = field.find(':');
    if (colon == std::string_view::npos) continue;
    std::string_view value = field.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    response.headers.emplace_back(std::string(field.substr(0, colon)),
                                  std::string(value));
  }

  // ---- Body (Content-Length framing; that's all egp_server emits).
  size_t content_length = 0;
  if (const std::string* value = response.FindHeader("Content-Length")) {
    char* end = nullptr;
    content_length = std::strtoull(value->c_str(), &end, 10);
    if (end == value->c_str() || *end != '\0') {
      return Status::Corruption("malformed Content-Length");
    }
  }
  buffer.erase(0, head_end + 4);
  while (buffer.size() < content_length) {
    const IoResult r = RecvSome(fd_.get(), chunk, sizeof(chunk), timeout_ms_);
    if (r.status == IoStatus::kTimeout) {
      return Status::IOError("timed out reading response body");
    }
    if (r.status != IoStatus::kOk) {
      return Status::IOError("connection closed mid-body");
    }
    buffer.append(chunk, r.bytes);
  }
  response.body = buffer.substr(0, content_length);
  leftover_ = buffer.substr(content_length);

  // Connection is a token list (RFC 9110); an HTTP/1.1 response without
  // the header defaults to keep-alive, HTTP/1.0 to close.
  const std::string* connection = response.FindHeader("Connection");
  if (connection != nullptr &&
      HeaderListContainsToken(*connection, "close")) {
    response.keep_alive = false;
  } else if (connection != nullptr &&
             HeaderListContainsToken(*connection, "keep-alive")) {
    response.keep_alive = true;
  } else {
    response.keep_alive = minor_version >= 1;
  }
  return response;
}

}  // namespace egp
