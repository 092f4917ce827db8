// ServerMetrics: latency-histogram bucketing/quantiles and Prometheus
// rendering.
#include "server/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace egp {
namespace {

TEST(LatencyHistogramTest, BucketsAndCount) {
  Histogram histogram(kLatencyBounds);
  histogram.Observe(0.0001);  // <= 0.0005, first bucket
  histogram.Observe(0.003);   // <= 0.005
  histogram.Observe(0.003);
  histogram.Observe(99.0);    // +Inf
  const auto snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.cumulative[0], 1u);          // <= 0.5ms
  EXPECT_EQ(snap.cumulative[3], 3u);          // <= 5ms
  EXPECT_EQ(snap.cumulative.back(), 3u);      // <= 10s (the 99s is beyond)
  EXPECT_NEAR(snap.sum_seconds, 99.0061, 1e-3);
}

TEST(LatencyHistogramTest, QuantilesInterpolate) {
  Histogram histogram(kLatencyBounds);
  for (int i = 0; i < 100; ++i) histogram.Observe(0.002);  // (0.001, 0.0025]
  const auto snap = histogram.snapshot();
  const double p50 = snap.Quantile(0.5);
  EXPECT_GT(p50, 0.001);
  EXPECT_LE(p50, 0.0025);
  EXPECT_EQ(Histogram::Snapshot{}.Quantile(0.5), 0.0);
}

TEST(LatencyHistogramTest, ConcurrentObserversDontLose) {
  Histogram histogram(kLatencyBounds);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < 1000; ++i) histogram.Observe(0.001);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(histogram.snapshot().count, 4000u);
}

TEST(ServerMetricsTest, CountsByEndpointAndStatus) {
  ServerMetrics metrics;
  metrics.RecordRequest("/v1/preview", 200, 0.001);
  metrics.RecordRequest("/v1/preview", 200, 0.002);
  metrics.RecordRequest("/v1/preview", 400, 0.0001);
  metrics.RecordRequest("/healthz", 200, 0.00005);
  EXPECT_EQ(metrics.total_requests(), 4u);

  const auto counts = metrics.request_counts();
  ASSERT_EQ(counts.size(), 3u);  // (preview,200) (preview,400) (healthz,200)
  uint64_t preview_ok = 0;
  for (const auto& rc : counts) {
    if (rc.endpoint == "/v1/preview" && rc.status == 200) {
      preview_ok = rc.count;
    }
  }
  EXPECT_EQ(preview_ok, 2u);
}

TEST(ServerMetricsTest, PrometheusTextShape) {
  ServerMetrics metrics;
  metrics.RecordRequest("/v1/preview", 200, 0.001);
  const std::string text = metrics.PrometheusText();
  EXPECT_NE(text.find("# TYPE egp_http_requests_total counter"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "egp_http_requests_total{endpoint=\"/v1/preview\",status=\"200\"} "
          "1"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE egp_http_request_duration_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("egp_http_request_duration_seconds_bucket{le=\"+Inf\"} "
                      "1"),
            std::string::npos);
  EXPECT_NE(text.find("egp_http_request_duration_seconds_count 1"),
            std::string::npos);
}

}  // namespace
}  // namespace egp
