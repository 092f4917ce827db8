// Request metrics for the serving subsystem: per-endpoint counters and
// latency histograms, and the writer that renders every /metrics family
// in the Prometheus text exposition format.
//
// Lock-light by design: Observe() on a histogram is a couple of
// relaxed atomic increments (serving-path cost ~nothing); only the
// per-(endpoint, status) counter map takes a mutex, and that map is tiny
// and hit once per request.
#ifndef EGP_SERVER_METRICS_H_
#define EGP_SERVER_METRICS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/mutex.h"

namespace egp {

/// Upper bounds (seconds) of the request-latency and event-loop-lag
/// histograms: 500µs .. 10s in roughly 2.5× steps — wide enough for a
/// cache-hit preview (sub-ms) and a cold multi-second prepare on a big
/// graph.
inline constexpr double kLatencyBounds[] = {
    0.0005, 0.001, 0.0025, 0.005, 0.010, 0.025,
    0.050,  0.100, 0.250,  0.500, 1.0,   10.0};

/// Writes Prometheus text exposition families into a string: a family's
/// name is given once, to Family(), which writes its HELP and TYPE lines;
/// the Sample() calls that follow write its samples under them. The
/// exposition-grammar ctest rejects samples missing either header.
class MetricsWriter {
 public:
  explicit MetricsWriter(std::string* out) : out_(out) {}

  /// Starts family `name` of `type` ("counter", "gauge", "histogram").
  MetricsWriter& Family(std::string_view name, std::string_view type,
                        std::string_view help);

  /// One sample of the current family. `labels` is the label list
  /// without braces (`dataset="paper"`), or empty. A histogram writes
  /// one series: a `_bucket` sample per bound and +Inf, then `_sum` and
  /// `_count`, all carrying `labels`.
  MetricsWriter& Sample(uint64_t value, std::string_view labels = {});
  MetricsWriter& Sample(double value, std::string_view labels = {});
  MetricsWriter& Sample(const Histogram::Snapshot& histogram,
                        std::string_view labels = {});

  /// A family with one unlabeled integer sample.
  struct Scalar {
    std::string_view name;
    std::string_view type;
    std::string_view help;
    uint64_t value = 0;
  };
  /// Writes each family in order, header then sample.
  void Scalars(std::initializer_list<Scalar> families);

 private:
  /// `<family><suffix>{<labels>} <value>`, braces only around labels.
  void Line(std::string_view suffix, std::string_view labels,
            std::string_view value);

  std::string* out_;
  std::string family_;
};

/// All metrics the server exports. One instance per server, shared by
/// worker threads.
class ServerMetrics {
 public:
  /// Records one served request. `endpoint` should be the route label
  /// ("/v1/preview"), not the raw target (no per-query-string series).
  void RecordRequest(std::string_view endpoint, int status, double seconds);

  /// Records one dataset-scoped request (preview/suggest after dataset
  /// resolution) under egp_requests_total{dataset=,status=} plus a
  /// per-dataset latency histogram. Dataset names come from the catalog
  /// (a bounded set), so per-dataset series cannot explode.
  void RecordDataset(std::string_view dataset, int status, double seconds);

  struct RequestCount {
    std::string endpoint;
    int status = 0;
    uint64_t count = 0;
  };
  std::vector<RequestCount> request_counts() const;

  struct DatasetCount {
    std::string dataset;
    int status = 0;
    uint64_t count = 0;
  };
  std::vector<DatasetCount> dataset_counts() const;
  std::vector<std::pair<std::string, Histogram::Snapshot>> dataset_latency()
      const;

  uint64_t total_requests() const;

  /// The Prometheus exposition text for everything recorded here. The
  /// caller appends its own families (Engine cache stats, connection
  /// counters) with a MetricsWriter.
  std::string PrometheusText() const;

 private:
  mutable Mutex mu_{"metrics.requests"};
  std::map<std::pair<std::string, int>, uint64_t> counts_ EGP_GUARDED_BY(mu_);
  std::map<std::pair<std::string, int>, uint64_t> dataset_counts_
      EGP_GUARDED_BY(mu_);
  // unique_ptr: a Histogram is an array of atomics (immovable), and
  // Observe() must run outside mu_ — the pointer is stable across
  // rehashing inserts of other datasets.
  std::map<std::string, std::unique_ptr<Histogram>> dataset_latency_
      EGP_GUARDED_BY(mu_);
  Histogram latency_{kLatencyBounds};
};

}  // namespace egp

#endif  // EGP_SERVER_METRICS_H_
