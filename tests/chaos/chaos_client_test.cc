// HttpClient under faults: transparent replay over a stale keep-alive
// connection, and fail-fast everywhere else (a refused connect, a 503, a
// response that died mid-body).
#include "server/http_client.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "server/http_server.h"
#include "server/socket.h"

namespace egp {
namespace {

using namespace std::chrono_literals;

/// A scripted one-thread HTTP "server": for each entry in `scripts`, it
/// accepts one connection, reads until it has seen `\r\n\r\n`, writes
/// the scripted bytes verbatim, and closes (or keeps the socket open
/// for the next script entry when `keep_open` marks it). Lets tests
/// speak protocol violations a real HttpServer never would.
class ScriptedServer {
 public:
  struct Exchange {
    std::string response;  // raw bytes to write after one request
    bool keep_open = false;  // serve the next exchange on this socket
  };

  explicit ScriptedServer(std::vector<Exchange> script)
      : script_(std::move(script)) {
    auto listener = ListenTcp("127.0.0.1", 0, 8, &port_);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    listener_ = std::move(listener).value();
    thread_ = std::thread([this] { Run(); });
  }

  ~ScriptedServer() {
    // Wake the thread out of WaitAccept without invalidating the fd it
    // is concurrently reading (Reset() here raced the server thread's
    // listener_.get()); the UniqueFd closes after the join.
    ::shutdown(listener_.get(), SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
  }

  uint16_t port() const { return port_; }
  int exchanges_served() const {
    return served_.load(std::memory_order_acquire);
  }

 private:
  void Run() {
    UniqueFd conn;
    for (const Exchange& exchange : script_) {
      if (!conn.valid()) {
        auto accepted = WaitAccept();
        if (!accepted.ok()) return;
        conn = std::move(accepted).value();
      }
      std::string request;
      char buf[1024];
      while (request.find("\r\n\r\n") == std::string::npos) {
        const IoResult got = RecvSome(conn.get(), buf, sizeof buf, 5'000);
        if (got.status != IoStatus::kOk) return;
        request.append(buf, got.bytes);
      }
      (void)SendAll(conn.get(), exchange.response, 5'000);
      served_.fetch_add(1, std::memory_order_release);
      if (!exchange.keep_open) conn.Reset();
    }
  }

  Result<UniqueFd> WaitAccept() {
    const IoResult ready = WaitReadable(listener_.get(), 5'000);
    if (ready.status != IoStatus::kOk) {
      return Status::IOError("listener closed or timed out");
    }
    return AcceptConnection(listener_.get());
  }

  std::vector<Exchange> script_;
  uint16_t port_ = 0;
  UniqueFd listener_;
  std::thread thread_;
  std::atomic<int> served_{0};
};

std::string SmallResponse(const std::string& body,
                          bool keep_alive,
                          const std::string& extra_headers = {}) {
  return "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
         "Content-Length: " + std::to_string(body.size()) + "\r\n" +
         extra_headers +
         (keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n") +
         "\r\n" + body;
}

TEST(ChaosClientTest, StaleKeepAliveConnectionIsReplayedTransparently) {
  // Exchange 1 promises keep-alive but the server closes the socket
  // anyway (a server-side idle timeout, from the client's view). The
  // client's second request finds the pooled connection dead before any
  // response byte and must replay it on a fresh connection, because no
  // response was ever in flight.
  ScriptedServer server({
      {SmallResponse("one", /*keep_alive=*/true), /*keep_open=*/false},
      {SmallResponse("two", /*keep_alive=*/true), /*keep_open=*/true},
  });
  HttpClient client("127.0.0.1", server.port(), 5'000);

  const auto first = client.Get("/a");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->body, "one");
  EXPECT_TRUE(first->keep_alive);
  EXPECT_TRUE(client.connected());  // pooled — and already dead

  // Give the scripted server time to close; the client must not notice
  // until it tries to reuse the connection.
  std::this_thread::sleep_for(50ms);

  const auto second = client.Get("/b");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->body, "two");
  EXPECT_EQ(client.transparent_reconnects(), 1u);
}

TEST(ChaosClientTest, RefusedConnectFailsFast) {
  // Every connect is refused by injection; the client tries once.
  ASSERT_TRUE(ConfigureFaults("socket.connect=err:ECONNREFUSED").ok());
  HttpClient client("127.0.0.1", 1, 200);  // port never dialed: injection
  const auto response = client.Get("/");
  const std::string report = FaultReport();
  ClearFaults();
  EXPECT_FALSE(response.ok());
  EXPECT_NE(report.find("calls=1 injected=1"), std::string::npos) << report;
  EXPECT_EQ(client.transparent_reconnects(), 0u);
}

TEST(ChaosClientTest, ShedIsSurfacedAsIs) {
  // A 503 is a semantic answer: the client returns it, Retry-After and
  // all, and does not ask again.
  std::atomic<int> hits{0};
  auto started = HttpServer::Start(
      [&hits](const HttpRequest&) {
        hits.fetch_add(1);
        HttpResponse response;
        response.status = 503;
        response.headers.emplace_back("Retry-After", "0");
        return response;
      },
      HttpServerOptions{});
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  auto server = std::move(started).value();

  HttpClient client("127.0.0.1", server->port(), 5'000);
  const auto shed = client.Get("/");
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status, 503);
  EXPECT_NE(shed->FindHeader("Retry-After"), nullptr);
  EXPECT_EQ(hits.load(), 1);
}

TEST(ChaosClientTest, MidBodyCloseIsAnError) {
  // The server dies mid-body (headers promise 5 bytes, only 2 arrive
  // before close). Bytes did arrive, so this is not a stale-pool case:
  // the request may have been applied, and replaying it could apply it
  // twice. GET and POST alike fail, on the one exchange.
  const std::string truncated =
      "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
      "Content-Length: 5\r\nConnection: keep-alive\r\n\r\nhe";
  for (const char* method : {"GET", "POST"}) {
    ScriptedServer server({
        {truncated, /*keep_open=*/false},
        {SmallResponse("hello", /*keep_alive=*/false), /*keep_open=*/false},
    });
    HttpClient client("127.0.0.1", server.port(), 2'000);
    const auto response = client.Request(method, "/job", "{}");
    EXPECT_FALSE(response.ok()) << method;
    EXPECT_EQ(client.transparent_reconnects(), 0u) << method;
    EXPECT_EQ(server.exchanges_served(), 1) << method;
  }
}

}  // namespace
}  // namespace egp
