// A response goes out as its serialized head and its body, in one
// sendmsg of two vectors, resumed after a partial write wherever it
// ended. These tests push a preview body of several hundred KB through
// short writes of the `socket.send` fault site that end inside the
// head, exactly at its end and one byte past it, and require the client
// to read exactly SerializeResponse's bytes. They also check that a
// HEAD request still gets the GET's Content-Length and no body, that
// the trace's bytes_out counts head and body, and that a write timeout
// with body bytes still unsent ends as write_timeout.
//
// Client and server share one in-process fault registry, so the client
// here sends with a bare PosixSend (no fault site): only the server's
// sends meet the schedule.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/posix.h"
#include "common/strings.h"
#include "common/trace.h"
#include "datagen/generator.h"
#include "server/access_log.h"
#include "server/api.h"
#include "server/http.h"
#include "server/http_server.h"
#include "server/socket.h"
#include "tests/testing/trace_collector.h"

namespace egp {
namespace {

using testing_util::TraceCollector;

/// A sampled /v1/preview response on a generated basketball graph,
/// computed once: every request below is answered with a copy of it,
/// so the bytes each should receive are known in advance.
const HttpResponse& SampledPreview() {
  static const HttpResponse* const response = [] {
    GeneratorOptions options;
    options.scale = 0.1;
    auto domain = GenerateDomainByName("basketball", options);
    EGP_CHECK(domain.ok()) << domain.status().ToString();
    std::vector<std::pair<std::string, Engine>> engines;
    engines.emplace_back("basketball",
                         Engine::FromGraph(std::move(domain->graph)));
    auto catalog = DatasetCatalog::FromEngines(std::move(engines));
    EGP_CHECK(catalog.ok()) << catalog.status().ToString();
    PreviewService service(std::move(catalog).value(), "test");
    HttpRequest request;
    request.method = "POST";
    request.target = "/v1/preview";
    request.body = R"({"k":4,"n":8,"sample":{"rows":100,"seed":3}})";
    return new HttpResponse(service.Handle(request));
  }();
  return *response;
}

/// The response the server sends for a request with id `id`: the
/// handler's, plus the X-Request-Id it echoes.
HttpResponse Expected(const std::string& id) {
  HttpResponse response = SampledPreview();
  response.headers.emplace_back("X-Request-Id", id);
  return response;
}

/// The length of that response's head under Connection: close.
size_t HeadSize(const std::string& id) {
  return SerializeHead(Expected(id), /*keep_alive=*/false).size();
}

/// How many times the armed socket.send rules fired, from FaultReport's
/// "injected=N" fields.
size_t Injected() {
  const std::string report = FaultReport();
  size_t total = 0;
  for (size_t at = report.find("injected="); at != std::string::npos;
       at = report.find("injected=", at + 1)) {
    total += std::stoul(report.substr(at + 9));
  }
  return total;
}

class PartialWriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(SampledPreview().status, 200) << SampledPreview().body;
    ASSERT_GT(SampledPreview().body.size(), 256u * 1024);
  }

  void TearDown() override {
    ClearFaults();
    server_.reset();  // stops the loop thread before the collector goes
  }

  void Start(int write_timeout_ms = 5'000) {
    HttpServerOptions options;
    options.workers = 2;
    options.read_timeout_ms = 5'000;
    options.write_timeout_ms = write_timeout_ms;
    TraceCollector* collector = &collector_;
    options.trace_sink = [collector](const RequestTrace& trace) {
      collector->Add(trace);
    };
    auto server = HttpServer::Start(
        [](const HttpRequest&) { return SampledPreview(); }, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  /// Sends `method` with id `id` and Connection: close, then reads to
  /// EOF: every byte the server sent.
  std::string Exchange(const std::string& method, const std::string& id) {
    auto conn = ConnectTcp("127.0.0.1", server_->port(), 5'000);
    EXPECT_TRUE(conn.ok()) << conn.status().ToString();
    if (!conn.ok()) return {};
    const std::string request = method + " /v1/preview HTTP/1.1\r\n" +
                                "X-Request-Id: " + id +
                                "\r\nConnection: close\r\n\r\n";
    const ssize_t sent = PosixSend(conn->get(), request.data(),
                                   request.size(), MSG_NOSIGNAL);
    EXPECT_EQ(sent, static_cast<ssize_t>(request.size()));
    std::string received;
    char buffer[64 * 1024];
    for (;;) {
      const IoResult read =
          RecvSome(conn->get(), buffer, sizeof(buffer), 5'000);
      if (read.status != IoStatus::kOk) break;
      received.append(buffer, read.bytes);
    }
    return received;
  }

  TraceCollector collector_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(PartialWriteTest, ShortWritesAroundTheHeadEndStillDeliverEveryByte) {
  Start();
  const size_t head = HeadSize("short-0000");
  ASSERT_GT(head, 100u);
  for (const size_t len : {head / 2, head - 1, head, head + 1}) {
    SCOPED_TRACE(StrFormat("short:%zu, head %zu", len, head));
    const std::string id = StrFormat("short-%04zu", len);
    ASSERT_EQ(HeadSize(id), head);
    // The first send is cut at `len`; the rest resumes from there.
    ASSERT_TRUE(
        ConfigureFaults(StrFormat("socket.send=short:%zu@1", len)).ok());
    const std::string wire = SerializeResponse(Expected(id), false);
    EXPECT_TRUE(Exchange("GET", id) == wire) << "bytes differ";
    EXPECT_EQ(Injected(), 1u);
    const auto trace = collector_.WaitForId(id);
    ASSERT_TRUE(trace.has_value());
    EXPECT_EQ(trace->outcome, "ok");
    EXPECT_EQ(trace->bytes_out, wire.size());
    ClearFaults();
  }
}

TEST_F(PartialWriteTest, EverySendCutShortStillDeliversEveryByte) {
  Start();
  // Every send is cut one byte short of the head's length, so each
  // partial write ends somewhere new: inside the head, then across the
  // boundary, then inside the body, over thousands of sends.
  const size_t head = HeadSize("every");
  ASSERT_TRUE(
      ConfigureFaults(StrFormat("socket.send=short:%zu", head - 1)).ok());
  const std::string wire = SerializeResponse(Expected("every"), false);
  EXPECT_TRUE(Exchange("GET", "every") == wire) << "bytes differ";
  EXPECT_GE(Injected(), wire.size() / (head - 1));
  const auto trace = collector_.WaitForId("every");
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->bytes_out, wire.size());
}

TEST_F(PartialWriteTest, HeadGetsTheGetsContentLengthAndNoBody) {
  Start();
  const size_t head = HeadSize("head");
  ASSERT_TRUE(
      ConfigureFaults(StrFormat("socket.send=short:%zu@1", head / 2)).ok());
  const std::string wire = SerializeHead(Expected("head"), false);
  ASSERT_EQ(wire.size(), head);
  EXPECT_EQ(Exchange("HEAD", "head"), wire);
  EXPECT_EQ(Injected(), 1u);
  EXPECT_NE(wire.find(StrFormat("Content-Length: %zu\r\n",
                                SampledPreview().body.size())),
            std::string::npos);
  const auto trace = collector_.WaitForId("head");
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->bytes_out, head);  // what was sent: the head alone
}

TEST_F(PartialWriteTest, BytesOutCountsHeadAndBodyInTheAccessLog) {
  Start();
  const std::string wire = SerializeResponse(Expected("log"), false);
  EXPECT_TRUE(Exchange("GET", "log") == wire) << "bytes differ";
  const auto trace = collector_.WaitForId("log");
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->bytes_out, wire.size());
  // The access log and /v1/debug/requests render the trace this way.
  EXPECT_NE(RequestTraceToJson(*trace).find(
                StrFormat("\"bytesOut\":%zu", wire.size())),
            std::string::npos);
}

TEST_F(PartialWriteTest, WriteTimeoutWithBodyBytesPendingEndsAsWriteTimeout) {
  Start(/*write_timeout_ms=*/300);
  // The head and one body byte go out; every later send would block.
  const size_t head = HeadSize("stall");
  ASSERT_TRUE(ConfigureFaults(StrFormat(
                  "socket.send=short:%zu@1;socket.send=err:EAGAIN@2+",
                  head + 1))
                  .ok());
  const std::string wire = SerializeResponse(Expected("stall"), false);
  EXPECT_EQ(Exchange("GET", "stall"), wire.substr(0, head + 1));
  EXPECT_GE(Injected(), 2u);
  const auto trace = collector_.WaitForId("stall");
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->outcome, "write_timeout");
  EXPECT_EQ(trace->bytes_out, wire.size());
  EXPECT_EQ(server_->stats().timed_out_connections, 1u);
}

}  // namespace
}  // namespace egp
