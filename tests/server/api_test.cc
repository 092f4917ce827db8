// PreviewService: JSON request mapping, routing, error statuses, and the
// bit-identity of served previews with in-process Engine results — all
// without a socket (the transport is covered by server_test).
#include "server/api.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/profiler.h"
#include "common/strings.h"
#include "datagen/paper_example.h"
#include "io/json_export.h"
#include "io/ntriples.h"

namespace egp {
namespace {

PreviewService MakeService() {
  std::vector<std::pair<std::string, Engine>> engines;
  engines.emplace_back("paper", Engine::FromGraph(BuildPaperExampleGraph()));
  auto catalog = DatasetCatalog::FromEngines(std::move(engines));
  EXPECT_TRUE(catalog.ok());
  return PreviewService(std::move(catalog).value(), "test");
}

HttpRequest Post(std::string_view target, std::string body) {
  HttpRequest request;
  request.method = "POST";
  request.target = std::string(target);
  request.body = std::move(body);
  return request;
}

HttpRequest Get(std::string_view target) {
  HttpRequest request;
  request.method = "GET";
  request.target = std::string(target);
  return request;
}

// ---------------------------------------------------------------------------
// Request JSON mapping
// ---------------------------------------------------------------------------

TEST(ParsePreviewRequestTest, DefaultsMatchPreviewRequest) {
  const auto parsed = ParsePreviewRequestJson(*ParseJson("{}"));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->dataset.empty());
  EXPECT_EQ(parsed->request.size.k, 2u);
  EXPECT_EQ(parsed->request.size.n, 6u);
  EXPECT_EQ(parsed->request.distance.mode, DistanceMode::kNone);
  EXPECT_EQ(parsed->request.measures.key, "coverage");
  EXPECT_EQ(parsed->request.algorithm, "auto");
  EXPECT_EQ(parsed->request.sample_rows, 0u);
}

TEST(ParsePreviewRequestTest, ParsesTheFullSurface) {
  const auto parsed = ParsePreviewRequestJson(*ParseJson(R"({
    "dataset": "paper",
    "k": 3, "n": 5, "diverse": 2,
    "measures": {"key": "randomwalk", "nonkey": "entropy",
                 "walk": {"smoothing": 0.001, "maxIterations": 100,
                          "tolerance": 1e-9}},
    "algorithm": "apriori",
    "sample": {"rows": 4, "seed": 99, "strategy": "frequency",
               "mergeMultiway": true}
  })"));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->dataset, "paper");
  EXPECT_EQ(parsed->request.size.k, 3u);
  EXPECT_EQ(parsed->request.size.n, 5u);
  EXPECT_EQ(parsed->request.distance.mode, DistanceMode::kDiverse);
  EXPECT_EQ(parsed->request.distance.d, 2u);
  EXPECT_EQ(parsed->request.measures.key, "randomwalk");
  EXPECT_EQ(parsed->request.measures.nonkey, "entropy");
  EXPECT_DOUBLE_EQ(parsed->request.measures.walk.smoothing, 0.001);
  EXPECT_EQ(parsed->request.measures.walk.max_iterations, 100);
  EXPECT_EQ(parsed->request.algorithm, "apriori");
  EXPECT_EQ(parsed->request.sample_rows, 4u);
  EXPECT_EQ(parsed->request.sample_seed, 99u);
  EXPECT_EQ(parsed->request.sample_strategy,
            SamplingStrategy::kFrequencyWeighted);
  EXPECT_TRUE(parsed->request.merge_multiway_columns);
}

TEST(ParsePreviewRequestTest, BudgetModeParses) {
  const auto parsed = ParsePreviewRequestJson(*ParseJson(R"({
    "budget": {"widthChars": 100, "heightRows": 30},
    "suggestedDistance": "tight"
  })"));
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->request.budget.has_value());
  EXPECT_EQ(parsed->request.budget->width_chars, 100u);
  EXPECT_EQ(parsed->request.suggested_distance, DistanceMode::kTight);
}

TEST(ParsePreviewRequestTest, RejectsBadShapes) {
  for (const char* bad : {
           R"([1,2])",                                   // not an object
           R"({"k": 0})",                                // zero k
           R"({"n": -3})",                               // negative n
           R"({"k": 2.5})",                              // non-integer
           R"({"k": "2"})",                              // wrong kind
           R"({"tight": 1, "diverse": 1})",              // exclusive
           R"({"tight": 0})",                            // zero distance
           R"({"budget": {"widthChars": 10}, "k": 2})",  // budget+explicit
           R"({"suggestedDistance": "tight"})",          // needs budget
           R"({"algoritm": "dp"})",                      // unknown field
           R"({"sample": {"rows": -1}})",                // negative rows
           R"({"sample": {"strategy": "best"}})",        // unknown strategy
           R"({"measures": {"walk": {"smoothing": -1}}})",
           R"({"budget": {"widthChars": 0}})",
       }) {
    const auto doc = ParseJson(bad);
    ASSERT_TRUE(doc.ok()) << bad;
    EXPECT_FALSE(ParsePreviewRequestJson(*doc).ok()) << bad;
  }
}

TEST(ParseSuggestRequestTest, ParsesBudgetAndMeasures) {
  const auto parsed = ParseSuggestRequestJson(*ParseJson(R"({
    "budget": {"widthChars": 80, "heightRows": 24},
    "measures": {"key": "randomwalk"}
  })"));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->budget.width_chars, 80u);
  EXPECT_EQ(parsed->measures.key, "randomwalk");
  EXPECT_FALSE(ParseSuggestRequestJson(*ParseJson(R"({"k": 2})")).ok());
}

// ---------------------------------------------------------------------------
// Routing + serving
// ---------------------------------------------------------------------------

TEST(PreviewServiceTest, HealthzAndDatasets) {
  PreviewService service = MakeService();
  const HttpResponse health = service.Handle(Get("/healthz"));
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);

  const HttpResponse datasets = service.Handle(Get("/v1/datasets"));
  EXPECT_EQ(datasets.status, 200);
  EXPECT_NE(datasets.body.find("\"name\":\"paper\""), std::string::npos);
  // Operators can see what a catalog serves: per-dataset counts and the
  // storage kind ("memory" for FromEngines catalogs, "nt"/"egt"/
  // "snapshot" for disk loads).
  EXPECT_NE(datasets.body.find("\"storage\":\"memory\""),
            std::string::npos);
  EXPECT_NE(datasets.body.find("\"entities\":"), std::string::npos);
  EXPECT_NE(datasets.body.find("\"relationships\":"), std::string::npos);
  EXPECT_NE(datasets.body.find("\"entityTypes\":"), std::string::npos);
  EXPECT_NE(datasets.body.find("\"relationshipTypes\":"),
            std::string::npos);
}

TEST(PreviewServiceTest, ServedPreviewIsBitIdenticalToEngine) {
  PreviewService service = MakeService();
  const HttpResponse response = service.Handle(
      Post("/v1/preview", R"({"k":2,"n":6,"sample":{"rows":3,"seed":11}})"));
  ASSERT_EQ(response.status, 200) << response.body;

  // In-process golden: same request through the Engine directly.
  const Engine engine = Engine::FromGraph(BuildPaperExampleGraph());
  PreviewRequest request;
  request.size = {2, 6};
  request.sample_rows = 3;
  request.sample_seed = 11;
  const auto served = engine.Preview(request);
  ASSERT_TRUE(served.ok());
  EXPECT_DOUBLE_EQ(served->score, 84.0);  // §4's worked optimum

  const std::string preview_json =
      "\"preview\":" + PreviewToJson(*served->prepared, served->preview);
  EXPECT_NE(response.body.find(preview_json), std::string::npos)
      << "server preview JSON diverges from in-process export";
  const std::string materialized_json =
      "\"materialized\":" +
      MaterializedPreviewToJson(*engine.graph(), served->materialized);
  EXPECT_NE(response.body.find(materialized_json), std::string::npos)
      << "server materialized JSON diverges from in-process export";
  EXPECT_NE(response.body.find("\"score\":84"), std::string::npos);
  EXPECT_NE(response.body.find("\"algorithm\":\"dp\""), std::string::npos);
}

TEST(PreviewServiceTest, SuggestMatchesEngine) {
  PreviewService service = MakeService();
  const HttpResponse response = service.Handle(
      Post("/v1/suggest", R"({"budget":{"widthChars":90,"heightRows":28}})"));
  ASSERT_EQ(response.status, 200) << response.body;

  const Engine engine = Engine::FromGraph(BuildPaperExampleGraph());
  DisplayBudget budget;
  budget.width_chars = 90;
  budget.height_rows = 28;
  const auto suggestion = engine.Suggest(budget);
  ASSERT_TRUE(suggestion.ok());
  EXPECT_NE(
      response.body.find("\"k\":" + std::to_string(suggestion->size.k)),
      std::string::npos);
  EXPECT_NE(
      response.body.find("\"n\":" + std::to_string(suggestion->size.n)),
      std::string::npos);
}

TEST(PreviewServiceTest, ErrorStatuses) {
  PreviewService service = MakeService();
  // Malformed JSON body → 400 with parse context.
  EXPECT_EQ(service.Handle(Post("/v1/preview", "{")).status, 400);
  // Unknown dataset → 404.
  EXPECT_EQ(
      service.Handle(Post("/v1/preview", R"({"dataset":"nope"})")).status,
      404);
  // Unknown measure → 400 (bad parameter, not bad URL).
  EXPECT_EQ(service
                .Handle(Post("/v1/preview",
                             R"({"measures":{"key":"wat"}})"))
                .status,
            400);
  // DP with a distance constraint → 400 (Engine InvalidArgument).
  EXPECT_EQ(service
                .Handle(Post("/v1/preview",
                             R"({"algorithm":"dp","tight":2})"))
                .status,
            400);
  // Wrong method → 405; unknown path → 404.
  EXPECT_EQ(service.Handle(Get("/v1/preview")).status, 405);
  EXPECT_EQ(service.Handle(Post("/healthz", "{}")).status, 405);
  EXPECT_EQ(service.Handle(Get("/wat")).status, 404);
}

// An entity type with no relationships has an all-zero transition row
// unless the random walk is smoothed. Unsmoothed, that is a bad request
// (400), not an abort: the server keeps serving, a repeat gets the same
// answer, and other measure configurations still work.
TEST(PreviewServiceTest, UnsmoothedWalkOverAnIsolatedTypeIsABadRequest) {
  std::istringstream text(
      "<alice> a <RESEARCHER> .\n<bob> a <RESEARCHER> .\n"
      "<mit> a <UNIVERSITY> .\n<p1> a <PAPER> .\n"
      "<alice> <affiliated_with> <mit> .\n<bob> <affiliated_with> <mit> .\n"
      "<alice> <author_of> <p1> .\n<bob> <author_of> <p1> .\n"
      "<lonely> a <ISOLATED> .\n");
  auto graph = ReadNTriples(text);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  std::vector<std::pair<std::string, Engine>> engines;
  engines.emplace_back("isolated", Engine::FromGraph(std::move(graph).value()));
  auto catalog = DatasetCatalog::FromEngines(std::move(engines));
  ASSERT_TRUE(catalog.ok());
  PreviewService service(std::move(catalog).value(), "test");

  const std::string unsmoothed =
      R"({"k":2,"n":4,"measures":{"key":"randomwalk","walk":{"smoothing":0}}})";
  for (int attempt = 0; attempt < 2; ++attempt) {
    const HttpResponse response =
        service.Handle(Post("/v1/preview", unsmoothed));
    EXPECT_EQ(response.status, 400) << response.body;
    EXPECT_NE(response.body.find("smoothing must be > 0 when an entity type "
                                 "has no relationships (type 'ISOLATED'"),
              std::string::npos)
        << response.body;
  }
  EXPECT_EQ(service.Handle(Get("/healthz")).status, 200);
  const HttpResponse smoothed = service.Handle(
      Post("/v1/preview", R"({"k":2,"n":4,"measures":{"key":"randomwalk",)"
                          R"("walk":{"smoothing":0.01}}})"));
  EXPECT_EQ(smoothed.status, 200) << smoothed.body;
  const HttpResponse coverage =
      service.Handle(Post("/v1/preview", R"({"k":2,"n":4})"));
  EXPECT_EQ(coverage.status, 200) << coverage.body;
  EXPECT_EQ(service.Handle(Post("/v1/preview", unsmoothed)).status, 400);
}

TEST(PreviewServiceTest, MetricsReflectServedRequests) {
  PreviewService service = MakeService();
  service.Handle(Post("/v1/preview", R"({"k":2,"n":4})"));
  service.Handle(Post("/v1/preview", R"({"k":3,"n":4})"));  // cache hit
  service.Handle(Post("/v1/preview", "{"));                 // 400
  const HttpResponse metrics = service.Handle(Get("/metrics"));
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find(
                "egp_http_requests_total{endpoint=\"/v1/preview\","
                "status=\"200\"} 2"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find(
                "egp_http_requests_total{endpoint=\"/v1/preview\","
                "status=\"400\"} 1"),
            std::string::npos);
  EXPECT_NE(
      metrics.body.find("egp_prepared_cache_hits_total{dataset=\"paper\"} 1"),
      std::string::npos);
  EXPECT_NE(metrics.body.find(
                "egp_prepared_cache_misses_total{dataset=\"paper\"} 1"),
            std::string::npos);
  EXPECT_EQ(metrics.content_type.rfind("text/plain", 0), 0u);
}

TEST(PreviewServiceTest, CacheHitFlagAppearsInResponse) {
  PreviewService service = MakeService();
  const HttpResponse cold =
      service.Handle(Post("/v1/preview", R"({"k":2,"n":6})"));
  EXPECT_NE(cold.body.find("\"cacheHit\":false"), std::string::npos);
  const HttpResponse warm =
      service.Handle(Post("/v1/preview", R"({"k":3,"n":4})"));
  EXPECT_NE(warm.body.find("\"cacheHit\":true"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Cost-based admission: cold (schema-building) previews are gated, hot
// (cache-hit) ones pass under the flat connection cap.
// ---------------------------------------------------------------------------

const std::string* FindHeader(const HttpResponse& response,
                              std::string_view name) {
  for (const auto& [key, value] : response.headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

TEST(PreviewServiceTest, ColdRequestsShedWith503WhileHotOnesServe) {
  AdmissionOptions admission;
  admission.max_cold_inflight = 1;
  admission.max_cold_queue = 0;  // shed immediately: deterministic test
  admission.queue_timeout_ms = 50;
  admission.retry_after_seconds = 7;
  std::vector<std::pair<std::string, Engine>> engines;
  engines.emplace_back("paper", Engine::FromGraph(BuildPaperExampleGraph()));
  auto catalog = DatasetCatalog::FromEngines(std::move(engines));
  ASSERT_TRUE(catalog.ok());
  PreviewService service(std::move(catalog).value(), "test", admission);

  // Occupy the only cold-build slot, as a concurrent build would.
  AdmissionController::Ticket slot = service.admission().AcquireCold();
  ASSERT_TRUE(slot.admitted());

  // An unprepared measure configuration is cold → shed with Retry-After.
  const HttpResponse shed =
      service.Handle(Post("/v1/preview", R"({"k":2,"n":6})"));
  EXPECT_EQ(shed.status, 503);
  EXPECT_NE(shed.body.find("cold preview capacity"), std::string::npos);
  const std::string* retry_after = FindHeader(shed, "Retry-After");
  ASSERT_NE(retry_after, nullptr);
  EXPECT_EQ(*retry_after, "7");

  // Slot freed → the same request is admitted and builds the schema.
  slot = AdmissionController::Ticket();
  const HttpResponse built =
      service.Handle(Post("/v1/preview", R"({"k":2,"n":6})"));
  EXPECT_EQ(built.status, 200);

  // Now the configuration is prepared: the request is hot and serves
  // even while the cold slot is busy again.
  slot = service.admission().AcquireCold();
  ASSERT_TRUE(slot.admitted());
  const HttpResponse hot =
      service.Handle(Post("/v1/preview", R"({"k":3,"n":4})"));
  EXPECT_EQ(hot.status, 200);

  const AdmissionStats stats = service.admission().stats();
  EXPECT_EQ(stats.cold_shed, 1u);
  EXPECT_EQ(stats.cold_admitted, 3u);  // two manual slots + the build
  EXPECT_EQ(stats.hot_admitted, 1u);
  EXPECT_EQ(stats.cold_inflight, 1u);  // the still-held manual slot

  // The gate is visible on /metrics (queue depths included).
  const HttpResponse metrics = service.Handle(Get("/metrics"));
  EXPECT_NE(metrics.body.find("egp_admission_cold_shed_total 1"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("egp_admission_hot_total"), std::string::npos);
  EXPECT_NE(metrics.body.find("egp_admission_cold_queue_depth 0"),
            std::string::npos);
}

TEST(PreviewServiceTest, ColdRequestsQueueForAFreedSlot) {
  AdmissionOptions admission;
  admission.max_cold_inflight = 1;
  admission.max_cold_queue = 4;
  admission.queue_timeout_ms = 2'000;
  std::vector<std::pair<std::string, Engine>> engines;
  engines.emplace_back("paper", Engine::FromGraph(BuildPaperExampleGraph()));
  auto catalog = DatasetCatalog::FromEngines(std::move(engines));
  ASSERT_TRUE(catalog.ok());
  PreviewService service(std::move(catalog).value(), "test", admission);

  AdmissionController::Ticket slot = service.admission().AcquireCold();
  ASSERT_TRUE(slot.admitted());
  std::thread releaser([&slot] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    slot = AdmissionController::Ticket();  // free the slot
  });
  // Queues (rather than sheds), gets the slot once freed, serves 200.
  const HttpResponse queued =
      service.Handle(Post("/v1/preview", R"({"k":2,"n":6})"));
  releaser.join();
  EXPECT_EQ(queued.status, 200);
  const AdmissionStats stats = service.admission().stats();
  EXPECT_EQ(stats.cold_queued, 1u);
  EXPECT_EQ(stats.cold_shed, 0u);
}

// ---------------------------------------------------------------------------
// Observability endpoints: per-dataset metrics, debug filters, lock and
// cache introspection, and the profiler endpoint's gating.
// ---------------------------------------------------------------------------

TEST(PreviewServiceTest, PerDatasetMetricsOnResolvedRequestsOnly) {
  PreviewService service = MakeService();
  service.Handle(Post("/v1/preview", R"({"dataset":"paper","k":2,"n":4})"));
  // Unknown dataset: resolution fails, so no dataset label is minted.
  service.Handle(Post("/v1/preview", R"({"dataset":"nope","k":2,"n":4})"));
  const HttpResponse metrics = service.Handle(Get("/metrics"));
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find(
                "egp_requests_total{dataset=\"paper\",status=\"200\"} 1"),
            std::string::npos)
      << metrics.body;
  EXPECT_EQ(metrics.body.find("dataset=\"nope\""), std::string::npos);
  EXPECT_NE(metrics.body.find("egp_dataset_request_duration_seconds_count{"
                              "dataset=\"paper\"} 1"),
            std::string::npos);
  // The lock-site families are always present once any labeled mutex
  // has been constructed.
  EXPECT_NE(metrics.body.find("egp_mutex_contentions_total{site="),
            std::string::npos);
  EXPECT_NE(metrics.body.find(
                "# TYPE egp_mutex_wait_seconds histogram"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("# TYPE egp_profiler_windows_total counter"),
            std::string::npos);
}

TEST(PreviewServiceTest, DebugRequestsLimitAndDatasetFilters) {
  PreviewService service = MakeService();
  FlightRecorder recorder(16);
  service.AttachFlightRecorder(&recorder);
  for (int i = 0; i < 5; ++i) {
    RequestTrace trace;
    trace.id = "t" + std::to_string(i);
    trace.status = 200;
    trace.dataset = i % 2 == 0 ? "paper" : "other";
    trace.total_seconds = 0.001;
    recorder.Record(trace);
  }

  const HttpResponse limited =
      service.Handle(Get("/v1/debug/requests?limit=2"));
  ASSERT_EQ(limited.status, 200);
  EXPECT_NE(limited.body.find("\"t4\""), std::string::npos);
  EXPECT_NE(limited.body.find("\"t3\""), std::string::npos);
  EXPECT_EQ(limited.body.find("\"t2\""), std::string::npos);

  const HttpResponse filtered =
      service.Handle(Get("/v1/debug/requests?dataset=paper"));
  ASSERT_EQ(filtered.status, 200);
  EXPECT_NE(filtered.body.find("\"t0\""), std::string::npos);
  EXPECT_NE(filtered.body.find("\"t4\""), std::string::npos);
  EXPECT_EQ(filtered.body.find("\"t1\""), std::string::npos);

  // Garbage is rejected loudly, not coerced.
  EXPECT_EQ(service.Handle(Get("/v1/debug/requests?limit=abc")).status, 400);
  EXPECT_EQ(service.Handle(Get("/v1/debug/requests?limit=-1")).status, 400);
  EXPECT_EQ(service.Handle(Get("/v1/debug/requests?limit=2x")).status, 400);
}

TEST(PreviewServiceTest, DebugQueryParametersAtTheirBounds) {
  PreviewService service = MakeService();
  FlightRecorder recorder(4);
  service.AttachFlightRecorder(&recorder);
  service.EnableProfiler(99);
  const auto error = [](const std::string& message) {
    return "{\"error\":{\"status\":400,\"message\":\"" + message + "\"}}";
  };
  const std::string limit = error("limit must be a non-negative integer");
  const std::string status = error("status must be an HTTP status code");
  const std::string min_ms = error("min_ms must be a number >= 0");
  const std::string seconds = error("seconds must be a number in (0, 60]");
  const std::string hz = error("hz must be an integer in [1, 1000]");
  const std::vector<std::pair<std::string, std::string>> rejected = {
      {"/v1/debug/requests?limit=5x", limit},
      {"/v1/debug/requests?status=600", status},
      {"/v1/debug/requests?min_ms=-1", min_ms},
      {"/v1/debug/requests?min_ms=nan", min_ms},
      {"/v1/debug/profile?seconds=0", seconds},
      {"/v1/debug/profile?seconds=nan", seconds},
      {"/v1/debug/profile?seconds=" +
           StrFormat("%.17g", std::nextafter(Profiler::kMaxWindowSeconds,
                                             2 * Profiler::kMaxWindowSeconds)),
       seconds},
      {"/v1/debug/profile?hz=" + std::to_string(Profiler::kMinHz - 1), hz},
      {"/v1/debug/profile?hz=" + std::to_string(Profiler::kMaxHz + 1), hz},
  };
  for (const auto& [target, body] : rejected) {
    const HttpResponse response = service.Handle(Get(target));
    EXPECT_EQ(response.status, 400) << target;
    EXPECT_EQ(response.body, body) << target;
  }
  for (const char* target :
       {"/v1/debug/requests?status=100", "/v1/debug/requests?status=599",
        "/v1/debug/requests?min_ms=0", "/v1/debug/requests?limit=0"}) {
    EXPECT_EQ(service.Handle(Get(target)).status, 200) << target;
  }
}

TEST(PreviewServiceTest, DebugLocksListsLabeledSites) {
  PreviewService service = MakeService();
  service.Handle(Post("/v1/preview", R"({"k":2,"n":4})"));
  const HttpResponse response = service.Handle(Get("/v1/debug/locks"));
  ASSERT_EQ(response.status, 200);
  // Sites touched by the request path above must be present.
  EXPECT_NE(response.body.find("\"metrics.requests\""), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"engine.prepared_cache\""),
            std::string::npos);
  EXPECT_NE(response.body.find("\"acquisitions\""), std::string::npos);
  EXPECT_NE(response.body.find("\"waitSeconds\""), std::string::npos);
}

TEST(PreviewServiceTest, DebugCacheShowsPreparedEntries) {
  PreviewService service = MakeService();
  const HttpResponse empty = service.Handle(Get("/v1/debug/cache"));
  ASSERT_EQ(empty.status, 200);
  EXPECT_NE(empty.body.find("\"dataset\":\"paper\""), std::string::npos);
  EXPECT_NE(empty.body.find("\"entries\":[]"), std::string::npos);

  service.Handle(Post("/v1/preview", R"({"k":2,"n":4})"));
  service.Handle(Post("/v1/preview", R"({"k":3,"n":4})"));  // cache hit
  const HttpResponse warm = service.Handle(Get("/v1/debug/cache"));
  ASSERT_EQ(warm.status, 200);
  EXPECT_NE(warm.body.find("\"measures\":\"key=coverage nonkey=coverage"),
            std::string::npos)
      << warm.body;
  EXPECT_NE(warm.body.find("\"ready\":true"), std::string::npos);
  EXPECT_NE(warm.body.find("\"hits\":1"), std::string::npos);
  EXPECT_NE(warm.body.find("\"approxBytes\":"), std::string::npos);
}

TEST(PreviewServiceTest, ProfileEndpointGatedBehindFlag) {
  PreviewService service = MakeService();
  const HttpResponse disabled =
      service.Handle(Get("/v1/debug/profile?seconds=1"));
  EXPECT_EQ(disabled.status, 503);
  EXPECT_NE(disabled.body.find("--profiler"), std::string::npos);

  service.EnableProfiler(99);
  // Parameter validation happens before any window starts.
  EXPECT_EQ(service.Handle(Get("/v1/debug/profile?seconds=abc")).status,
            400);
  EXPECT_EQ(service.Handle(Get("/v1/debug/profile?seconds=0")).status, 400);
  EXPECT_EQ(service.Handle(Get("/v1/debug/profile?seconds=61")).status, 400);
  EXPECT_EQ(service.Handle(Get("/v1/debug/profile?hz=0")).status, 400);
  EXPECT_EQ(service.Handle(Get("/v1/debug/profile?hz=1001")).status, 400);
  EXPECT_EQ(service.Handle(Get("/v1/debug/profile?hz=9x")).status, 400);
}

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define EGP_TEST_TSAN 1
#endif
#endif
#ifndef EGP_TEST_TSAN
// Skipped under TSan: the SIGPROF handler's backtrace() is outside what
// TSan supports; the signal path is covered by the plain and ASan runs.
TEST(PreviewServiceTest, ProfileEndpointCollectsWhenEnabled) {
  PreviewService service = MakeService();
  service.EnableProfiler(99);
  Profiler::RegisterCurrentThread();
  const HttpResponse response =
      service.Handle(Get("/v1/debug/profile?seconds=0.1&hz=100"));
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(response.content_type.rfind("text/plain", 0), 0u);
  const std::string* samples = FindHeader(response, "X-Egp-Profile-Samples");
  ASSERT_NE(samples, nullptr);
  const std::string* hz = FindHeader(response, "X-Egp-Profile-Hz");
  ASSERT_NE(hz, nullptr);
  EXPECT_EQ(*hz, "100");
}
#endif

}  // namespace
}  // namespace egp
