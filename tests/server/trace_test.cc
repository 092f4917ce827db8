// End-to-end request tracing over the real event loop: X-Request-Id
// propagation, the per-phase breakdown, the trace_sink handoff, the
// flight-recorder debug endpoint, and the access-log JSON lines. The
// shed and trickle cases exercise the outcome taxonomy the runbook
// keys on ("shed", nonzero read_seconds).
#include "common/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/mutex.h"
#include "datagen/paper_example.h"
#include "server/access_log.h"
#include "server/admission.h"
#include "server/api.h"
#include "server/flight_recorder.h"
#include "server/http_client.h"
#include "server/http_server.h"

namespace egp {
namespace {

using namespace std::chrono_literals;

/// Collects finalized traces from the server's trace_sink (which runs
/// on the event-loop thread) for the test thread to inspect.
class TraceCollector {
 public:
  void Add(const RequestTrace& trace) {
    MutexLock lock(&mu_);
    traces_.push_back(trace);
  }

  /// Blocks until at least `n` traces arrived (bounded wait: tests must
  /// fail, not hang, when the sink never fires).
  std::vector<RequestTrace> WaitFor(size_t n) {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    for (;;) {
      {
        MutexLock lock(&mu_);
        if (traces_.size() >= n) return traces_;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        MutexLock lock(&mu_);
        return traces_;
      }
      std::this_thread::sleep_for(2ms);
    }
  }

 private:
  Mutex mu_;
  std::vector<RequestTrace> traces_ EGP_GUARDED_BY(mu_);
};

/// One serving stack: PreviewService over the paper-example graph,
/// HttpServer with flight recorder + collector wired into the trace
/// sink — the same shape tools/egp_server.cc assembles.
struct TracedServer {
  // Declaration order matters: the server must be destroyed first
  // (stopping the loop thread, and with it the trace_sink) while the
  // sink's targets below it are still alive.
  std::unique_ptr<PreviewService> service;
  FlightRecorder recorder{16};
  TraceCollector collector;
  std::unique_ptr<HttpServer> server;

  uint16_t port() const { return server->port(); }
};

std::unique_ptr<TracedServer> StartTracedServer(
    const AdmissionOptions& admission = AdmissionOptions()) {
  auto traced = std::make_unique<TracedServer>();
  std::vector<std::pair<std::string, Engine>> engines;
  engines.emplace_back("paper", Engine::FromGraph(BuildPaperExampleGraph()));
  auto catalog = DatasetCatalog::FromEngines(std::move(engines));
  EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
  traced->service = std::make_unique<PreviewService>(
      std::move(catalog).value(), "test", admission);

  HttpServerOptions options;
  options.workers = 2;
  options.read_timeout_ms = 5000;
  options.write_timeout_ms = 5000;
  TracedServer* raw = traced.get();
  options.trace_sink = [raw](const RequestTrace& trace) {
    raw->recorder.Record(trace);
    raw->collector.Add(trace);
  };
  auto server = HttpServer::Start(
      [raw](const HttpRequest& request) {
        return raw->service->Handle(request);
      },
      options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  traced->server = std::move(server).value();
  traced->service->AttachServer(traced->server.get());
  traced->service->AttachFlightRecorder(&traced->recorder);
  return traced;
}

constexpr std::string_view kPreviewBody =
    R"({"k":2,"n":6,"sample":{"rows":2,"seed":5}})";

std::string RequestWithId(std::string_view id) {
  std::string request = "POST /v1/preview HTTP/1.1\r\n";
  request += "Content-Type: application/json\r\n";
  request += "X-Request-Id: ";
  request += id;
  request += "\r\nContent-Length: ";
  request += std::to_string(kPreviewBody.size());
  request += "\r\n\r\n";
  request += kPreviewBody;
  return request;
}

double PhaseSum(const RequestTrace& trace) {
  return trace.read_seconds + trace.queue_seconds + trace.admission_seconds +
         trace.handler_seconds + trace.serialize_seconds +
         trace.flush_seconds;
}

TEST(TraceTest, EchoesClientRequestIdWithFullPhaseBreakdown) {
  auto traced = StartTracedServer();
  HttpClient client("127.0.0.1", traced->port());

  const auto response = client.RawExchange(RequestWithId("trace-test-foo"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  const std::string* echoed = response->FindHeader("X-Request-Id");
  ASSERT_NE(echoed, nullptr);
  EXPECT_EQ(*echoed, "trace-test-foo");

  const auto traces = traced->collector.WaitFor(1);
  ASSERT_EQ(traces.size(), 1u);
  const RequestTrace& trace = traces[0];
  EXPECT_EQ(trace.id, "trace-test-foo");
  EXPECT_EQ(trace.method, "POST");
  EXPECT_EQ(trace.path, "/v1/preview");
  EXPECT_EQ(trace.dataset, "paper");
  EXPECT_EQ(trace.status, 200);
  EXPECT_EQ(trace.outcome, "ok");
  EXPECT_GT(trace.bytes_in, kPreviewBody.size());
  EXPECT_GT(trace.bytes_out, 0u);

  // Every phase is a real measurement (>= 0) and the breakdown accounts
  // for the total: the only untimed gap is the completion-queue handback
  // to the loop thread, so the sum can fall short of total only by
  // scheduling noise, and can never exceed it.
  EXPECT_GE(trace.read_seconds, 0.0);
  EXPECT_GE(trace.queue_seconds, 0.0);
  EXPECT_GE(trace.admission_seconds, 0.0);
  EXPECT_GT(trace.handler_seconds, 0.0);
  EXPECT_GE(trace.serialize_seconds, 0.0);
  EXPECT_GE(trace.flush_seconds, 0.0);
  EXPECT_GT(trace.total_seconds, 0.0);
  const double sum = PhaseSum(trace);
  EXPECT_LE(sum, trace.total_seconds * 1.01 + 1e-6);
  EXPECT_LT(trace.total_seconds - sum, 0.25);

  // The Engine annotated the same trace through CurrentRequestTrace.
  EXPECT_GT(trace.discover_seconds + trace.prepare_seconds +
                trace.sample_seconds,
            0.0);
}

TEST(TraceTest, GeneratesUniqueIdsAndServesThemFromDebugEndpoint) {
  auto traced = StartTracedServer();
  HttpClient client("127.0.0.1", traced->port());

  for (int i = 0; i < 3; ++i) {
    const auto response =
        client.Post("/v1/preview", kPreviewBody);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, 200);
    const std::string* id = response->FindHeader("X-Request-Id");
    ASSERT_NE(id, nullptr);
    EXPECT_EQ(id->size(), 16u);
    for (const char c : *id) {
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
          << "non-hex trace id char in " << *id;
    }
  }
  const auto traces = traced->collector.WaitFor(3);
  ASSERT_GE(traces.size(), 3u);
  EXPECT_NE(traces[0].id, traces[1].id);
  EXPECT_NE(traces[1].id, traces[2].id);
  EXPECT_NE(traces[0].id, traces[2].id);

  // The flight recorder serves the same traces back, newest first.
  const auto debug = client.Get("/v1/debug/requests");
  ASSERT_TRUE(debug.ok());
  ASSERT_EQ(debug->status, 200);
  EXPECT_NE(debug->body.find("\"recorded\":"), std::string::npos);
  EXPECT_NE(debug->body.find("\"capacity\":16"), std::string::npos);
  for (const RequestTrace& trace : traces) {
    EXPECT_NE(debug->body.find("\"id\":\"" + trace.id + "\""),
              std::string::npos)
        << "trace " << trace.id << " missing from /v1/debug/requests";
  }

  // Filters: an absurd min_ms excludes everything; garbage is a 400.
  const auto filtered = client.Get("/v1/debug/requests?min_ms=1000000");
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->status, 200);
  EXPECT_NE(filtered->body.find("\"requests\":[]"), std::string::npos);
  const auto bad = client.Get("/v1/debug/requests?min_ms=abc");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);
  const auto bad_status = client.Get("/v1/debug/requests?status=42");
  ASSERT_TRUE(bad_status.ok());
  EXPECT_EQ(bad_status->status, 400);
}

TEST(TraceTest, ShedRequestIsTracedAsShed) {
  AdmissionOptions admission;
  admission.max_cold_inflight = 1;
  admission.max_cold_queue = 0;  // shed immediately: deterministic test
  admission.queue_timeout_ms = 50;
  admission.retry_after_seconds = 7;
  auto traced = StartTracedServer(admission);

  // Occupy the only cold-build slot, as a concurrent build would; the
  // unprepared measure configuration below is then shed with 503.
  AdmissionController::Ticket slot =
      traced->service->admission().AcquireCold();
  ASSERT_TRUE(slot.admitted());

  HttpClient client("127.0.0.1", traced->port());
  const auto shed = client.Post("/v1/preview", R"({"k":2,"n":6})");
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status, 503);
  ASSERT_NE(shed->FindHeader("X-Request-Id"), nullptr);

  const auto traces = traced->collector.WaitFor(1);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].status, 503);
  EXPECT_EQ(traces[0].outcome, "shed");
  EXPECT_GE(traces[0].admission_seconds, 0.0);

  // The shed trace is filterable by status on the debug endpoint.
  const auto debug = client.Get("/v1/debug/requests?status=503");
  ASSERT_TRUE(debug.ok());
  EXPECT_NE(debug->body.find("\"outcome\":\"shed\""), std::string::npos);
}

TEST(TraceTest, TrickledRequestAccruesReadTime) {
  auto traced = StartTracedServer();
  HttpClient client("127.0.0.1", traced->port());
  client.SetTrickle(16, 20);  // drip the request: ~8 chunks, 20ms apart

  const auto response = client.Post("/v1/preview", kPreviewBody);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);

  const auto traces = traced->collector.WaitFor(1);
  ASSERT_EQ(traces.size(), 1u);
  // The request needed several trickle intervals to arrive, and all of
  // that waiting lands in the read phase (not in handler or queue).
  EXPECT_GT(traces[0].read_seconds, 0.02);
  EXPECT_GT(traces[0].total_seconds, traces[0].handler_seconds);
}

// ---------------------------------------------------------------------------
// Access-log serialization (no server needed: the sink formats traces).
// ---------------------------------------------------------------------------

RequestTrace SampleTrace() {
  RequestTrace trace;
  trace.id = "cafe012345678901";
  trace.method = "POST";
  trace.path = "/v1/preview";
  trace.dataset = "paper";
  trace.status = 200;
  trace.bytes_in = 120;
  trace.bytes_out = 640;
  trace.read_seconds = 0.001;
  trace.queue_seconds = 0.0005;
  trace.admission_seconds = 0.0;
  trace.handler_seconds = 0.01;
  trace.serialize_seconds = 0.0002;
  trace.flush_seconds = 0.0001;
  trace.total_seconds = 0.0118;
  trace.cache_hit = true;
  trace.discover_seconds = 0.009;
  return trace;
}

TEST(TraceTest, RequestTraceToJsonCarriesTheDocumentedSchema) {
  const std::string json = RequestTraceToJson(SampleTrace(), "info");
  for (const char* field :
       {"\"id\":\"cafe012345678901\"", "\"level\":\"info\"",
        "\"method\":\"POST\"", "\"path\":\"/v1/preview\"",
        "\"dataset\":\"paper\"", "\"status\":200", "\"outcome\":\"ok\"",
        "\"cacheHit\":true", "\"bytesIn\":120", "\"bytesOut\":640",
        "\"totalMs\":", "\"phases\":{", "\"readMs\":", "\"queueMs\":",
        "\"admissionMs\":", "\"handlerMs\":", "\"serializeMs\":",
        "\"flushMs\":", "\"engine\":{", "\"prepareMs\":",
        "\"discoverMs\":", "\"sampleMs\":"}) {
    EXPECT_NE(json.find(field), std::string::npos)
        << "missing " << field << " in " << json;
  }
  // Without a level the field is omitted (flight-recorder form).
  EXPECT_EQ(RequestTraceToJson(SampleTrace()).find("\"level\""),
            std::string::npos);
}

TEST(TraceTest, AccessLogWritesLevelGatedLines) {
  const std::string path =
      ::testing::TempDir() + "/egp_access_log_test.jsonl";
  std::remove(path.c_str());
  AccessLogOptions options;
  options.path = path;
  options.slow_request_ms = 5.0;  // the 11.8ms sample promotes to warning
  auto log = AccessLog::Open(options);
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  RequestTrace slow = SampleTrace();
  (*log)->Write(slow);  // 11.8ms >= 5ms -> warning line
  RequestTrace fast = SampleTrace();
  fast.id = "fast000000000001";
  fast.total_seconds = 0.001;
  (*log)->Write(fast);  // info line
  SetLogLevel(LogLevel::kWarning);
  RequestTrace gated = SampleTrace();
  gated.id = "gated00000000001";
  gated.total_seconds = 0.001;
  (*log)->Write(gated);  // info < warning -> suppressed
  SetLogLevel(saved);
  EXPECT_EQ((*log)->lines_written(), 2u);

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  EXPECT_NE(contents.find("\"id\":\"cafe012345678901\""), std::string::npos);
  EXPECT_NE(contents.find("\"level\":\"warning\""), std::string::npos);
  EXPECT_NE(contents.find("\"id\":\"fast000000000001\""), std::string::npos);
  EXPECT_EQ(contents.find("gated00000000001"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace egp
