// Deadline semantics of the socket layer. The central regression here:
// timed I/O is budgeted against an absolute deadline, so a peer that
// keeps making one byte of progress per poll window can NOT extend an
// operation past its total budget (the restart-the-clock bug that let
// slow clients pin server workers indefinitely). Also covers the
// HttpClient response connection semantics (RFC 9110 token lists,
// HTTP/1.1 default keep-alive) against canned server bytes.
#include "server/socket.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "server/http_client.h"

namespace egp {
namespace {

/// A connected AF_UNIX stream pair with deliberately small buffers so
/// writes block quickly.
struct SocketPair {
  UniqueFd a;
  UniqueFd b;
};

SocketPair MakePair(int buffer_bytes = 4096) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  for (const int fd : fds) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buffer_bytes,
                 sizeof(buffer_bytes));
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buffer_bytes,
                 sizeof(buffer_bytes));
    // The timed helpers require non-blocking fds (poll + non-blocking
    // syscall per step) — a blocking send() would park in the kernel
    // past any deadline.
    SetNonBlocking(fd);
  }
  return SocketPair{UniqueFd(fds[0]), UniqueFd(fds[1])};
}

TEST(DeadlineTest, DeadlineAfterMillisMapsNegativeToNoDeadline) {
  EXPECT_EQ(DeadlineAfterMillis(-1), kNoDeadline);
  const int64_t before = MonotonicMillis();
  const int64_t deadline = DeadlineAfterMillis(250);
  EXPECT_GE(deadline, before + 250);
  EXPECT_LE(deadline, MonotonicMillis() + 250);
}

TEST(DeadlineTest, RecvSomeReturnsAtTheDeadline) {
  SocketPair pair = MakePair();
  char buf[64];
  const int64_t start = MonotonicMillis();
  const IoResult r = RecvSome(pair.a.get(), buf, sizeof(buf), 200);
  const int64_t elapsed = MonotonicMillis() - start;
  EXPECT_EQ(r.status, IoStatus::kTimeout);
  EXPECT_GE(elapsed, 150);
  EXPECT_LE(elapsed, 2'000);  // generous: CI boxes stall
}

// THE regression test for the deadline bug: a peer that reads a trickle
// of bytes — each read makes the blocked sender writable again, i.e.
// "progress" — must not reset SendAll's clock. Under the old
// per-poll-iteration timeout, every sliver of progress restarted the
// full budget and this send ran until the peer stopped humoring it;
// with an absolute deadline it returns kTimeout on schedule with a
// partial byte count.
TEST(DeadlineTest, TricklingPeerCannotExtendSendAllPastItsBudget) {
  SocketPair pair = MakePair();
  std::atomic<bool> stop{false};
  std::thread trickler([&] {
    char byte;
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (::recv(pair.b.get(), &byte, 1, MSG_DONTWAIT) < 0 &&
          errno != EAGAIN && errno != EWOULDBLOCK) {
        return;
      }
    }
  });

  const std::string payload(4 * 1024 * 1024, 'x');
  const int64_t start = MonotonicMillis();
  const IoResult sent = SendAll(pair.a.get(), payload, /*timeout_ms=*/400);
  const int64_t elapsed = MonotonicMillis() - start;
  stop.store(true, std::memory_order_release);
  trickler.join();

  EXPECT_EQ(sent.status, IoStatus::kTimeout);
  EXPECT_LT(sent.bytes, payload.size());  // partial progress is reported
  EXPECT_GE(elapsed, 350);
  // ~10 trickle reads fit in the budget; with the restart bug each one
  // re-armed 400 ms and this send ran for minutes. Allow generous CI
  // scheduling slack while staying far below the buggy behavior.
  EXPECT_LE(elapsed, 5'000);
}

TEST(DeadlineTest, SendAllWithoutDeadlineCompletes) {
  SocketPair pair = MakePair();
  std::thread drainer([fd = pair.b.get()] {
    char buf[16 * 1024];
    size_t total = 0;
    while (total < 1024 * 1024) {
      const IoResult r = RecvSome(fd, buf, sizeof(buf), 5'000);
      if (r.status != IoStatus::kOk) return;
      total += r.bytes;
    }
  });
  const std::string payload(1024 * 1024, 'y');
  const IoResult sent = SendAll(pair.a.get(), payload, /*timeout_ms=*/-1);
  drainer.join();
  EXPECT_EQ(sent.status, IoStatus::kOk);
  EXPECT_EQ(sent.bytes, payload.size());
}

// ---------------------------------------------------------------------------
// HttpClient response connection semantics, against canned bytes.
// ---------------------------------------------------------------------------

/// Serves exactly `response_bytes` to the first connection, after
/// reading the request head, then holds the socket open until asked to
/// stop (Content-Length framing must suffice — EOF is not the signal).
Result<HttpClientResponse> ExchangeWithCannedServer(
    const std::string& response_bytes) {
  uint16_t port = 0;
  auto listener = ListenTcp("127.0.0.1", 0, 4, &port);
  EXPECT_TRUE(listener.ok());
  std::atomic<bool> done{false};
  std::thread server([&listener, &response_bytes, &done] {
    if (WaitReadable(listener->get(), 5'000).status != IoStatus::kOk) return;
    auto conn = AcceptConnection(listener->get());
    if (!conn.ok()) return;
    std::string request;
    char buf[4096];
    while (request.find("\r\n\r\n") == std::string::npos) {
      const IoResult r = RecvSome(conn->get(), buf, sizeof(buf), 5'000);
      if (r.status != IoStatus::kOk) return;
      request.append(buf, r.bytes);
    }
    // Best-effort: the test asserts on the client side, not this send.
    (void)SendAll(conn->get(), response_bytes, 5'000);
    while (!done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  HttpClient client("127.0.0.1", port, 5'000);
  auto response = client.Get("/probe");
  done.store(true, std::memory_order_release);
  server.join();
  return response;
}

TEST(HttpClientConnectionTest, Http11WithoutConnectionHeaderKeepsAlive) {
  const auto response = ExchangeWithCannedServer(
      "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, "hi");
  EXPECT_TRUE(response->keep_alive);  // HTTP/1.1 default is keep-alive
}

TEST(HttpClientConnectionTest, Http10WithoutConnectionHeaderCloses) {
  const auto response = ExchangeWithCannedServer(
      "HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->keep_alive);
}

TEST(HttpClientConnectionTest, CloseTokenInConnectionListCloses) {
  // "close" buried in an RFC 9110 token list must count — substring-less
  // parsing ("closet") must not.
  const auto response = ExchangeWithCannedServer(
      "HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close, TE\r\n\r\n");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->keep_alive);
}

TEST(HttpClientConnectionTest, KeepAliveTokenOverridesHttp10Default) {
  const auto response = ExchangeWithCannedServer(
      "HTTP/1.0 200 OK\r\nContent-Length: 0\r\n"
      "Connection: Keep-Alive\r\n\r\n");  // case-insensitive
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->keep_alive);
}

}  // namespace
}  // namespace egp
