// The /metrics exposition text, pinned. A PreviewService over two
// datasets, with a started HttpServer and a FlightRecorder attached,
// serves a fixed request sequence; then GET /metrics is compared with
// tests/server/testdata/metrics_golden.txt after every sample value is
// replaced by V and the egp_mutex_* sample lines are dropped (which lock
// sites exist depends on what the process has touched). What remains
// pins the family order, the HELP and TYPE lines, every label set and
// every histogram bound.
//
// On a mismatch the test writes the masked text it got to
// metrics_golden.actual.txt in its working directory.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/lock_stats.h"
#include "datagen/paper_example.h"
#include "io/ntriples.h"
#include "server/api.h"
#include "server/http.h"

namespace egp {
namespace {

HttpRequest Request(std::string method, std::string target,
                    std::string body = {}) {
  HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  request.body = std::move(body);
  return request;
}

PreviewService TwoDatasetService() {
  std::vector<std::pair<std::string, Engine>> engines;
  engines.emplace_back("paper", Engine::FromGraph(BuildPaperExampleGraph()));
  auto sample = ReadNTriplesFile(EGP_SAMPLE_NT);
  EXPECT_TRUE(sample.ok()) << sample.status().ToString();
  engines.emplace_back("sample", Engine::FromGraph(std::move(sample).value()));
  auto catalog = DatasetCatalog::FromEngines(std::move(engines));
  EXPECT_TRUE(catalog.ok());
  return PreviewService(std::move(catalog).value(), "golden");
}

/// `text` with each sample's value replaced by V and the egp_mutex_*
/// samples dropped; HELP and TYPE lines are kept as they are.
std::string Mask(const std::string& text) {
  std::istringstream in(text);
  std::string masked;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] != '#') {
      if (line.rfind("egp_mutex_", 0) == 0) continue;
      line = line.substr(0, line.rfind(' ') + 1) + "V";
    }
    masked += line + "\n";
  }
  return masked;
}

/// Every /metrics line that carries `label`.
std::vector<std::string> LinesWith(const std::string& text,
                                   const std::string& label) {
  std::istringstream in(text);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(label) != std::string::npos) lines.push_back(line);
  }
  return lines;
}

TEST(MetricsGoldenTest, ExpositionTextMatchesGolden) {
  PreviewService service = TwoDatasetService();
  FlightRecorder recorder(8);
  service.AttachFlightRecorder(&recorder);
  auto server = HttpServer::Start(
      [&service](const HttpRequest& request) {
        return service.Handle(request);
      },
      HttpServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  service.AttachServer(server->get());

  EXPECT_EQ(service
                .Handle(Request("POST", "/v1/preview",
                                R"({"dataset":"paper","k":2,"n":4})"))
                .status,
            200);
  EXPECT_EQ(service
                .Handle(Request(
                    "POST", "/v1/preview",
                    R"({"dataset":"paper","algorithm":"dp","tight":1})"))
                .status,
            400);
  EXPECT_EQ(service
                .Handle(Request(
                    "POST", "/v1/suggest",
                    R"({"dataset":"sample","budget":{"widthChars":80}})"))
                .status,
            200);
  EXPECT_EQ(
      service.Handle(Request("POST", "/v1/preview", R"({"dataset":"nope"})"))
          .status,
      404);

  const HttpResponse metrics = service.Handle(Request("GET", "/metrics"));
  ASSERT_EQ(metrics.status, 200);
  const std::string actual = Mask(metrics.body);

  std::ifstream in(EGP_METRICS_GOLDEN_FILE);
  ASSERT_TRUE(in.good()) << "cannot read " << EGP_METRICS_GOLDEN_FILE;
  std::stringstream golden;
  golden << in.rdbuf();
  if (actual != golden.str()) {
    std::ofstream("metrics_golden.actual.txt") << actual;
  }
  EXPECT_EQ(actual, golden.str())
      << "masked /metrics differs from " << EGP_METRICS_GOLDEN_FILE
      << "; got metrics_golden.actual.txt";
}

TEST(MetricsGoldenTest, LockWaitHistogramLines) {
  LockSite* site = RegisterLockSite("metrics_golden_test.waits");
  ASSERT_NE(site, nullptr);
  RecordLockWait(site, 500);
  RecordLockWait(site, 5'000);
  RecordLockWait(site, 2'000'000'000);

  PreviewService service = TwoDatasetService();
  const HttpResponse metrics = service.Handle(Request("GET", "/metrics"));
  ASSERT_EQ(metrics.status, 200);
  const std::string s = "{site=\"metrics_golden_test.waits\"";
  const std::vector<std::string> expected = {
      "egp_mutex_acquisitions_total" + s + "} 0",
      "egp_mutex_contentions_total" + s + "} 3",
      "egp_mutex_wait_seconds_bucket" + s + ",le=\"1e-06\"} 1",
      "egp_mutex_wait_seconds_bucket" + s + ",le=\"1e-05\"} 2",
      "egp_mutex_wait_seconds_bucket" + s + ",le=\"0.0001\"} 2",
      "egp_mutex_wait_seconds_bucket" + s + ",le=\"0.001\"} 2",
      "egp_mutex_wait_seconds_bucket" + s + ",le=\"0.01\"} 2",
      "egp_mutex_wait_seconds_bucket" + s + ",le=\"0.1\"} 2",
      "egp_mutex_wait_seconds_bucket" + s + ",le=\"1\"} 2",
      "egp_mutex_wait_seconds_bucket" + s + ",le=\"+Inf\"} 3",
      "egp_mutex_wait_seconds_sum" + s + "} 2.0000055",
      "egp_mutex_wait_seconds_count" + s + "} 3",
  };
  EXPECT_EQ(LinesWith(metrics.body, "site=\"metrics_golden_test.waits\""),
            expected);
}

}  // namespace
}  // namespace egp
