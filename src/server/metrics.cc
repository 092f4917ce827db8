#include "server/metrics.h"

#include "common/strings.h"

namespace egp {

void ServerMetrics::RecordRequest(std::string_view endpoint, int status,
                                  double seconds) {
  latency_.Observe(seconds);
  MutexLock lock(&mu_);
  ++counts_[{std::string(endpoint), status}];
}

void ServerMetrics::RecordDataset(std::string_view dataset, int status,
                                  double seconds) {
  Histogram* histogram = nullptr;
  {
    MutexLock lock(&mu_);
    ++dataset_counts_[{std::string(dataset), status}];
    auto& slot = dataset_latency_[std::string(dataset)];
    if (slot == nullptr) slot = std::make_unique<Histogram>(kLatencyBounds);
    histogram = slot.get();
  }
  histogram->Observe(seconds);  // atomics only; no need to hold mu_
}

std::vector<ServerMetrics::DatasetCount> ServerMetrics::dataset_counts()
    const {
  MutexLock lock(&mu_);
  std::vector<DatasetCount> out;
  out.reserve(dataset_counts_.size());
  for (const auto& [key, count] : dataset_counts_) {
    out.push_back(DatasetCount{key.first, key.second, count});
  }
  return out;
}

std::vector<std::pair<std::string, Histogram::Snapshot>>
ServerMetrics::dataset_latency() const {
  MutexLock lock(&mu_);
  std::vector<std::pair<std::string, Histogram::Snapshot>> out;
  out.reserve(dataset_latency_.size());
  for (const auto& [dataset, histogram] : dataset_latency_) {
    out.emplace_back(dataset, histogram->snapshot());
  }
  return out;
}

std::vector<ServerMetrics::RequestCount> ServerMetrics::request_counts()
    const {
  MutexLock lock(&mu_);
  std::vector<RequestCount> out;
  out.reserve(counts_.size());
  for (const auto& [key, count] : counts_) {
    out.push_back(RequestCount{key.first, key.second, count});
  }
  return out;
}

uint64_t ServerMetrics::total_requests() const {
  MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& [key, count] : counts_) total += count;
  return total;
}

MetricsWriter& MetricsWriter::Family(std::string_view name,
                                     std::string_view type,
                                     std::string_view help) {
  family_ = name;
  out_->append("# HELP ").append(name).append(" ").append(help).append("\n");
  out_->append("# TYPE ").append(name).append(" ").append(type).append("\n");
  return *this;
}

void MetricsWriter::Line(std::string_view suffix, std::string_view labels,
                         std::string_view value) {
  out_->append(family_).append(suffix);
  if (!labels.empty()) out_->append("{").append(labels).append("}");
  out_->append(" ").append(value).append("\n");
}

MetricsWriter& MetricsWriter::Sample(uint64_t value, std::string_view labels) {
  Line("", labels, std::to_string(value));
  return *this;
}

MetricsWriter& MetricsWriter::Sample(double value, std::string_view labels) {
  Line("", labels, StrFormat("%.9g", value));
  return *this;
}

MetricsWriter& MetricsWriter::Sample(const Histogram::Snapshot& histogram,
                                     std::string_view labels) {
  const std::string prefix =
      labels.empty() ? std::string() : std::string(labels) + ",";
  for (size_t i = 0; i < histogram.bounds.size(); ++i) {
    Line("_bucket", prefix + StrFormat("le=\"%g\"", histogram.bounds[i]),
         std::to_string(histogram.cumulative[i]));
  }
  Line("_bucket", prefix + "le=\"+Inf\"", std::to_string(histogram.count));
  Line("_sum", labels, StrFormat("%.9g", histogram.sum_seconds));
  Line("_count", labels, std::to_string(histogram.count));
  return *this;
}

void MetricsWriter::Scalars(std::initializer_list<Scalar> families) {
  for (const Scalar& family : families) {
    Family(family.name, family.type, family.help).Sample(family.value);
  }
}

std::string ServerMetrics::PrometheusText() const {
  std::string out;
  out.reserve(2048);
  MetricsWriter metrics(&out);

  metrics.Family("egp_http_requests_total", "counter",
                 "Requests served, by endpoint and status.");
  for (const RequestCount& rc : request_counts()) {
    metrics.Sample(rc.count, "endpoint=\"" + rc.endpoint + "\",status=\"" +
                                 std::to_string(rc.status) + "\"");
  }
  metrics
      .Family("egp_http_request_duration_seconds", "histogram",
              "End-to-end request handling latency.")
      .Sample(latency_.snapshot());

  // Dataset-scoped series appear once the first dataset request lands;
  // a headed family with zero series would fail the exposition-grammar
  // check, so both families are written only when non-empty.
  const auto by_dataset = dataset_counts();
  if (!by_dataset.empty()) {
    metrics.Family("egp_requests_total", "counter",
                   "Dataset-scoped requests, by dataset and status.");
    for (const DatasetCount& dc : by_dataset) {
      metrics.Sample(dc.count, "dataset=\"" + dc.dataset + "\",status=\"" +
                                   std::to_string(dc.status) + "\"");
    }
  }
  const auto dataset_histograms = dataset_latency();
  if (!dataset_histograms.empty()) {
    metrics.Family("egp_dataset_request_duration_seconds", "histogram",
                   "Dataset-scoped request latency, by dataset.");
    for (const auto& [dataset, histogram] : dataset_histograms) {
      metrics.Sample(histogram, "dataset=\"" + dataset + "\"");
    }
  }
  return out;
}

}  // namespace egp
