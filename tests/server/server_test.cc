// HttpServer end-to-end over real sockets on loopback: keep-alive,
// concurrency, malformed requests, slow clients, backpressure, and
// graceful drain. Uses a trivial echo-style handler so transport
// behaviour is isolated from the preview API (api_test covers that);
// one suite at the end wires the real PreviewService through.
#include "server/http_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "datagen/paper_example.h"
#include "server/api.h"
#include "server/http_client.h"

namespace egp {
namespace {

using namespace std::chrono_literals;

HttpServerOptions FastOptions() {
  HttpServerOptions options;
  options.workers = 4;
  options.read_timeout_ms = 2000;
  options.write_timeout_ms = 2000;
  return options;
}

std::unique_ptr<HttpServer> StartEcho(
    const HttpServerOptions& options = FastOptions()) {
  auto server = HttpServer::Start(
      [](const HttpRequest& request) {
        HttpResponse response;
        response.body = "{\"method\":\"" + request.method +
                        "\",\"target\":\"" + std::string(request.Path()) +
                        "\",\"bytes\":" + std::to_string(request.body.size()) +
                        "}";
        return response;
      },
      options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(server).value();
}

TEST(HttpServerTest, ServesAndKeepsAlive) {
  auto server = StartEcho();
  HttpClient client("127.0.0.1", server->port());

  const auto first = client.Get("/a");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->status, 200);
  EXPECT_EQ(first->body, "{\"method\":\"GET\",\"target\":\"/a\",\"bytes\":0}");
  EXPECT_TRUE(first->keep_alive);
  ASSERT_TRUE(client.connected());  // the connection survived

  const auto second = client.Post("/b", "12345");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->body,
            "{\"method\":\"POST\",\"target\":\"/b\",\"bytes\":5}");

  const HttpServerStats stats = server->stats();
  EXPECT_EQ(stats.accepted_connections, 1u);  // both rode one connection
  EXPECT_EQ(stats.handled_requests, 2u);
}

TEST(HttpServerTest, ConcurrentClients) {
  auto server = StartEcho();
  constexpr int kClients = 8;
  constexpr int kRequests = 25;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&server, &ok_count] {
      HttpClient client("127.0.0.1", server->port());
      for (int r = 0; r < kRequests; ++r) {
        const auto response = client.Post("/x", "req");
        if (response.ok() && response->status == 200 &&
            response->body.find("\"bytes\":3") != std::string::npos) {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(ok_count.load(), kClients * kRequests);
  EXPECT_EQ(server->stats().handled_requests,
            static_cast<uint64_t>(kClients * kRequests));
}

TEST(HttpServerTest, MalformedRequestGets400AndClose) {
  auto server = StartEcho();
  HttpClient client("127.0.0.1", server->port());
  const auto response = client.RawExchange("NOT A REQUEST\r\n\r\n");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 400);
  EXPECT_FALSE(response->keep_alive);
  EXPECT_NE(response->body.find("\"error\""), std::string::npos);
  EXPECT_EQ(server->stats().parse_errors, 1u);
}

TEST(HttpServerTest, OversizedBodyGets413) {
  HttpServerOptions options = FastOptions();
  options.limits.max_body_bytes = 64;
  auto server = StartEcho(options);
  HttpClient client("127.0.0.1", server->port());
  const auto response =
      client.Post("/x", std::string(100, 'a'));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 413);
}

TEST(HttpServerTest, SlowClientTimesOutWith408) {
  HttpServerOptions options = FastOptions();
  options.read_timeout_ms = 300;  // fast test
  auto server = StartEcho(options);
  HttpClient client("127.0.0.1", server->port());
  // Half a request, then silence: the server must cut us off rather
  // than pin a worker forever.
  const auto response = client.RawExchange("POST /x HTTP/1.1\r\nContent-");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 408);
  EXPECT_EQ(server->stats().timed_out_connections, 1u);
}

TEST(HttpServerTest, ConnectionCapRejectsWith503) {
  HttpServerOptions options = FastOptions();
  options.max_connections = 1;
  auto server = StartEcho(options);

  // First client occupies the only slot with a half-sent request.
  HttpClient holder("127.0.0.1", server->port());
  auto hold = std::thread([&holder] {
    // Sends a partial request then waits: RawExchange blocks reading the
    // 408 the server sends at read-timeout.
    const auto response = holder.RawExchange("POST /x HTTP/1.1\r\nA: b");
    (void)response;
  });
  // Wait until the server has actually accepted the holder.
  for (int i = 0; i < 200 && server->stats().accepted_connections == 0; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_EQ(server->stats().accepted_connections, 1u);

  HttpClient rejected("127.0.0.1", server->port());
  const auto response = rejected.Get("/x");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 503);
  EXPECT_GE(server->stats().rejected_connections, 1u);
  hold.join();
}

TEST(HttpServerTest, GracefulDrainFinishesInFlightRequests) {
  std::atomic<bool> in_handler{false};
  std::atomic<bool> release{false};
  auto server = HttpServer::Start(
      [&](const HttpRequest&) {
        in_handler.store(true);
        while (!release.load()) std::this_thread::sleep_for(1ms);
        HttpResponse response;
        response.body = "{\"done\":true}";
        return response;
      },
      FastOptions());
  ASSERT_TRUE(server.ok());

  Result<HttpClientResponse> slow_response = Status::Internal("unset");
  std::thread requester([&] {
    HttpClient client("127.0.0.1", (*server)->port());
    slow_response = client.Get("/slow");
  });
  while (!in_handler.load()) std::this_thread::sleep_for(1ms);

  // Drain while the request is mid-handler: Shutdown must wait for it.
  (*server)->Shutdown();
  EXPECT_TRUE((*server)->draining());
  std::this_thread::sleep_for(20ms);
  release.store(true);
  (*server)->Wait();
  requester.join();

  ASSERT_TRUE(slow_response.ok()) << slow_response.status().ToString();
  EXPECT_EQ(slow_response->status, 200);
  EXPECT_EQ(slow_response->body, "{\"done\":true}");
  // Drained: the response was sent with Connection: close.
  EXPECT_FALSE(slow_response->keep_alive);

  // New connections are refused after the drain.
  HttpClient late("127.0.0.1", (*server)->port(), 500);
  EXPECT_FALSE(late.Get("/x").ok());
}

TEST(HttpServerTest, ShutdownFdTriggersDrain) {
  auto server = StartEcho();
  const char byte = 'x';
  ASSERT_EQ(::write(server->shutdown_fd(), &byte, 1), 1);
  server->Wait();  // returns ⇔ the drain ran
  EXPECT_TRUE(server->draining());
}

TEST(HttpServerTest, HandlerExceptionBecomes500) {
  auto server = HttpServer::Start(
      [](const HttpRequest&) -> HttpResponse {
        throw std::runtime_error("boom");
      },
      FastOptions());
  ASSERT_TRUE(server.ok());
  HttpClient client("127.0.0.1", (*server)->port());
  const auto response = client.Get("/x");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 500);
  EXPECT_NE(response->body.find("boom"), std::string::npos);
}

TEST(HttpServerTest, StartFailureReturnsErrorWithoutHanging) {
  auto first = StartEcho();
  HttpServerOptions options = FastOptions();
  options.port = first->port();  // already bound
  auto second = HttpServer::Start(
      [](const HttpRequest&) { return HttpResponse{}; }, options);
  ASSERT_FALSE(second.ok());  // and destroying the failed server is fine
  EXPECT_NE(second.status().message().find("bind"), std::string::npos);
}

TEST(HttpServerTest, HeadResponsesCarryNoBody) {
  auto server = StartEcho();
  auto conn = ConnectTcp("127.0.0.1", server->port(), 2000);
  ASSERT_TRUE(conn.ok());
  ASSERT_EQ(SendAll(conn->get(),
                    "HEAD /h HTTP/1.1\r\nConnection: close\r\n\r\n", 2000)
                .status,
            IoStatus::kOk);
  // Connection: close lets us read to EOF: everything the server sends.
  std::string response;
  char buf[4096];
  for (;;) {
    const IoResult r = RecvSome(conn->get(), buf, sizeof(buf), 2000);
    if (r.status != IoStatus::kOk) break;
    response.append(buf, r.bytes);
  }
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  // Content-Length names the GET body size, but no body follows.
  EXPECT_NE(response.find("Content-Length: "), std::string::npos);
  EXPECT_EQ(response.find("Content-Length: 0"), std::string::npos);
  EXPECT_EQ(response.substr(response.size() - 4), "\r\n\r\n");
  EXPECT_EQ(response.find("\"method\""), std::string::npos);
}

TEST(HttpServerTest, InlineModeServesWithoutWorkers) {
  HttpServerOptions options = FastOptions();
  options.workers = 1;  // connections served on the accept thread
  auto server = StartEcho(options);
  HttpClient client("127.0.0.1", server->port());
  const auto response = client.Get("/inline");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
}

TEST(HttpServerTest, SlowReaderGets408WhileOthersAreServed) {
  // A trickling client must cost the server one idle connection, not a
  // pinned worker: while it dribbles header bytes, other clients keep
  // getting served, and at the read deadline it gets its 408. (Under the
  // old thread-per-connection transport each byte of progress restarted
  // the read budget, so this client could hold its worker forever.)
  HttpServerOptions options = FastOptions();
  options.read_timeout_ms = 600;
  auto server = StartEcho(options);

  auto conn = ConnectTcp("127.0.0.1", server->port(), 2000);
  ASSERT_TRUE(conn.ok());
  const int64_t start = MonotonicMillis();
  std::thread trickler([fd = conn->get()] {
    // One header byte per 50 ms: steady progress, never a full request.
    const std::string_view head = "POST /x HTTP/1.1\r\nX-Slow: yes\r\n";
    for (char c : head) {
      if (SendAll(fd, std::string_view(&c, 1), 1000).status != IoStatus::kOk) {
        return;
      }
      std::this_thread::sleep_for(50ms);
    }
  });

  // Meanwhile well-behaved clients are unaffected. Scoped so the
  // keep-alive connection closes before it could idle out itself (an
  // idle reap at the message boundary also counts as timed out).
  {
    HttpClient fast("127.0.0.1", server->port());
    for (int i = 0; i < 5; ++i) {
      const auto response = fast.Get("/fast");
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(response->status, 200);
    }
  }

  // The trickler's total read budget expires despite its progress.
  std::string answer;
  char buf[4096];
  for (;;) {
    const IoResult r = RecvSome(conn->get(), buf, sizeof(buf), 3000);
    if (r.status != IoStatus::kOk) break;
    answer.append(buf, r.bytes);
  }
  trickler.join();
  const int64_t elapsed = MonotonicMillis() - start;
  EXPECT_NE(answer.find("HTTP/1.1 408"), std::string::npos);
  EXPECT_GE(elapsed, 500);
  EXPECT_LE(elapsed, 5000);  // bounded by the deadline, not the trickle
  EXPECT_EQ(server->stats().timed_out_connections, 1u);
}

TEST(HttpServerTest, TricklingClientsNeverDelayWellBehavedOnes) {
  // The slow-client gate. Trickling clients outnumber the workers, and
  // each sends a whole POST 16 bytes per 50 ms. Were a trickler to hold a
  // worker while it sends (or while its request runs), a well-behaved
  // request would wait up to one trickled request's send time; the gate
  // allows half of that. The send time is the server's own read time for
  // a trickled request, from its trace.
  constexpr int kTricklers = 8;
  HttpServerOptions options = FastOptions();
  options.workers = 2;
  // Written by the loop thread; read after server.reset() joins it.
  std::vector<double> trickled_read_seconds;
  options.trace_sink = [&trickled_read_seconds](const RequestTrace& trace) {
    if (trace.path == "/trickled") {
      trickled_read_seconds.push_back(trace.read_seconds);
    }
  };
  auto server = StartEcho(options);

  std::atomic<int> trickled_2xx{0};
  std::atomic<int> tricklers_done{0};
  std::vector<std::thread> tricklers;
  for (int i = 0; i < kTricklers; ++i) {
    tricklers.emplace_back([&server, &trickled_2xx, &tricklers_done] {
      HttpClient client("127.0.0.1", server->port());
      client.SetTrickle(16, 50);
      const auto response = client.Post("/trickled", std::string(48, 't'));
      if (response.ok() && response->status / 100 == 2) ++trickled_2xx;
      ++tricklers_done;
    });
  }
  // Well-behaved traffic for as long as any trickler is sending or being
  // served.
  int requests = 0;
  int requests_2xx = 0;
  int64_t max_ns = 0;
  {
    HttpClient client("127.0.0.1", server->port());
    while (tricklers_done.load() < kTricklers) {
      const int64_t start_ns = MonotonicNanos();
      const auto response = client.Get("/fast");
      max_ns = std::max(max_ns, MonotonicNanos() - start_ns);
      ++requests;
      if (response.ok() && response->status / 100 == 2) ++requests_2xx;
    }
  }
  for (std::thread& trickler : tricklers) trickler.join();
  server.reset();

  EXPECT_EQ(trickled_2xx.load(), kTricklers);
  EXPECT_EQ(requests_2xx, requests);
  EXPECT_GE(requests, 200);
  ASSERT_EQ(trickled_read_seconds.size(), static_cast<size_t>(kTricklers));
  const double send_ms = *std::min_element(trickled_read_seconds.begin(),
                                           trickled_read_seconds.end()) *
                         1e3;
  // 144 request bytes are 9 chunks: 8 sleeps of 50 ms.
  EXPECT_GE(send_ms, 300);
  const double max_ms = static_cast<double>(max_ns) * 1e-6;
  EXPECT_LT(max_ms, send_ms / 2)
      << requests << " well-behaved requests; one trickled send took "
      << send_ms << " ms";
}

TEST(HttpServerTest, SlowResponseReaderIsCutOffAtTheWriteDeadline) {
  // A client that requests a large response and then never reads it
  // stalls the send once the socket buffers fill. The write deadline is
  // a budget on the WHOLE response: the server must drop the connection
  // at the deadline instead of nursing it along.
  HttpServerOptions options = FastOptions();
  options.write_timeout_ms = 500;
  auto server = HttpServer::Start(
      [](const HttpRequest&) {
        HttpResponse response;
        response.content_type = "application/octet-stream";
        response.body.assign(32 * 1024 * 1024, 'z');  // >> socket buffers
        return response;
      },
      options);
  ASSERT_TRUE(server.ok());

  auto conn = ConnectTcp("127.0.0.1", (*server)->port(), 2000);
  ASSERT_TRUE(conn.ok());
  ASSERT_EQ(SendAll(conn->get(), "GET /big HTTP/1.1\r\n\r\n", 2000).status,
            IoStatus::kOk);
  // Read nothing. The server must give up on its own schedule.
  const int64_t start = MonotonicMillis();
  while ((*server)->stats().timed_out_connections == 0 &&
         MonotonicMillis() - start < 5000) {
    std::this_thread::sleep_for(10ms);
  }
  const int64_t elapsed = MonotonicMillis() - start;
  EXPECT_EQ((*server)->stats().timed_out_connections, 1u);
  EXPECT_GE(elapsed, 400);
  EXPECT_LE(elapsed, 5000);
}

TEST(HttpServerTest, RejectsStayPromptWhileSlowRejectedClientsLinger) {
  // 503s at the connection cap are non-blocking writes on the event
  // loop: a pile of rejected clients that never read their 503 must not
  // delay either new rejects or the admitted connection.
  HttpServerOptions options = FastOptions();
  options.max_connections = 1;
  auto server = StartEcho(options);

  HttpClient holder("127.0.0.1", server->port());
  auto hold = std::thread([&holder] {
    const auto response = holder.RawExchange("POST /x HTTP/1.1\r\nA: b");
    (void)response;
  });
  for (int i = 0; i < 200 && server->stats().accepted_connections == 0; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_EQ(server->stats().accepted_connections, 1u);

  // Ten connections that never read their 503 (and never send a byte).
  std::vector<UniqueFd> lingerers;
  for (int i = 0; i < 10; ++i) {
    auto conn = ConnectTcp("127.0.0.1", server->port(), 2000);
    ASSERT_TRUE(conn.ok());
    lingerers.push_back(std::move(conn).value());
  }
  // A well-behaved client still gets its 503 promptly.
  const int64_t start = MonotonicMillis();
  HttpClient polite("127.0.0.1", server->port());
  const auto response = polite.Get("/x");
  const int64_t elapsed = MonotonicMillis() - start;
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 503);
  EXPECT_NE(response->FindHeader("Retry-After"), nullptr);
  EXPECT_LE(elapsed, 1000);
  EXPECT_GE(server->stats().rejected_connections, 11u);
  EXPECT_EQ(server->stats().accepted_connections, 1u);
  hold.join();
}

TEST(HttpServerTest, DrainLetsAMidReadRequestFinish) {
  // Shutdown during the *read* phase of an exchange (not just
  // mid-handler): the in-flight request may finish arriving, is served,
  // and the response carries Connection: close.
  auto server = StartEcho();
  auto conn = ConnectTcp("127.0.0.1", server->port(), 2000);
  ASSERT_TRUE(conn.ok());
  ASSERT_EQ(SendAll(conn->get(),
                    "POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nab", 2000)
                .status,
            IoStatus::kOk);
  for (int i = 0; i < 200 && server->stats().accepted_connections == 0; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  server->Shutdown();
  std::this_thread::sleep_for(30ms);  // let the drain pass run
  ASSERT_EQ(SendAll(conn->get(), "cde", 2000).status, IoStatus::kOk);

  std::string answer;
  char buf[4096];
  for (;;) {
    const IoResult r = RecvSome(conn->get(), buf, sizeof(buf), 3000);
    if (r.status != IoStatus::kOk) break;
    answer.append(buf, r.bytes);
  }
  EXPECT_NE(answer.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(answer.find("\"bytes\":5"), std::string::npos);
  EXPECT_NE(answer.find("Connection: close"), std::string::npos);
  server->Wait();
}

TEST(HttpServerTest, PipelinedRequestsAreServedInOrder) {
  // Two requests in one write: the event loop must serve both from its
  // parser buffer (the second arrives before the first response is out).
  auto server = StartEcho();
  auto conn = ConnectTcp("127.0.0.1", server->port(), 2000);
  ASSERT_TRUE(conn.ok());
  ASSERT_EQ(SendAll(conn->get(),
                    "GET /first HTTP/1.1\r\n\r\n"
                    "GET /second HTTP/1.1\r\nConnection: close\r\n\r\n",
                    2000)
                .status,
            IoStatus::kOk);
  std::string answer;
  char buf[4096];
  for (;;) {
    const IoResult r = RecvSome(conn->get(), buf, sizeof(buf), 3000);
    if (r.status != IoStatus::kOk) break;
    answer.append(buf, r.bytes);
  }
  const size_t first = answer.find("\"target\":\"/first\"");
  const size_t second = answer.find("\"target\":\"/second\"");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_EQ(server->stats().handled_requests, 2u);
  EXPECT_EQ(server->stats().accepted_connections, 1u);
}

// ---------------------------------------------------------------------------
// The real API over the real transport.
// ---------------------------------------------------------------------------

TEST(HttpServerTest, ServesPreviewServiceEndToEnd) {
  std::vector<std::pair<std::string, Engine>> engines;
  engines.emplace_back("paper", Engine::FromGraph(BuildPaperExampleGraph()));
  auto catalog = DatasetCatalog::FromEngines(std::move(engines));
  ASSERT_TRUE(catalog.ok());
  PreviewService service(std::move(catalog).value(), "test");
  auto server = HttpServer::Start(
      [&service](const HttpRequest& request) {
        return service.Handle(request);
      },
      FastOptions());
  ASSERT_TRUE(server.ok());
  service.AttachServer(server->get());

  constexpr int kClients = 4;
  std::vector<std::string> bodies(kClients);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&server, &bodies, t] {
      HttpClient client("127.0.0.1", (*server)->port());
      const auto response = client.Post(
          "/v1/preview", R"({"k":2,"n":6,"sample":{"rows":2,"seed":5}})");
      if (response.ok() && response->status == 200) {
        bodies[static_cast<size_t>(t)] = response->body;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Concurrent identical requests: all succeed, all byte-identical
  // except the volatile fields — compare through the stable prefix
  // (everything before "timings").
  for (int t = 0; t < kClients; ++t) {
    ASSERT_FALSE(bodies[static_cast<size_t>(t)].empty()) << "client " << t;
  }
  auto stable = [](const std::string& body) {
    return body.substr(0, body.find(",\"cacheHit\""));
  };
  for (int t = 1; t < kClients; ++t) {
    EXPECT_EQ(stable(bodies[0]), stable(bodies[static_cast<size_t>(t)]));
  }
  EXPECT_NE(bodies[0].find("\"score\":84"), std::string::npos);

  // /metrics over the wire includes the transport gauges.
  HttpClient client("127.0.0.1", (*server)->port());
  const auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find("egp_http_connections_accepted_total"),
            std::string::npos);
}

}  // namespace
}  // namespace egp
