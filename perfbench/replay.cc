#include "perfbench/replay.h"

#include <time.h>

#include <chrono>
#include <fstream>

#include "io/json_parser.h"
#include "server/api.h"

namespace perfbench {
namespace {

using egp::JsonValue;

bool SameJson(const JsonValue& a, const JsonValue& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case JsonValue::Kind::kNull:
      return true;
    case JsonValue::Kind::kBool:
      return a.bool_value() == b.bool_value();
    case JsonValue::Kind::kNumber:
      return a.number_value() == b.number_value();
    case JsonValue::Kind::kString:
      return a.string_value() == b.string_value();
    case JsonValue::Kind::kArray: {
      if (a.array().size() != b.array().size()) return false;
      for (size_t i = 0; i < a.array().size(); ++i) {
        if (!SameJson(a.array()[i], b.array()[i])) return false;
      }
      return true;
    }
    case JsonValue::Kind::kObject: {
      if (a.object().size() != b.object().size()) return false;
      for (size_t i = 0; i < a.object().size(); ++i) {
        if (a.object()[i].first != b.object()[i].first ||
            !SameJson(a.object()[i].second, b.object()[i].second)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

/// The top-level members of a preview body, minus the run-dependent ones.
std::vector<const JsonValue::Member*> StableMembers(const JsonValue& doc) {
  std::vector<const JsonValue::Member*> members;
  for (const JsonValue::Member& member : doc.object()) {
    if (member.first == "timings" || member.first == "cacheHit") continue;
    members.push_back(&member);
  }
  return members;
}

}  // namespace

egp::Result<std::vector<StreamEntry>> ReadStream(const std::string& path) {
  std::ifstream in(path);
  if (!in) return egp::Status::IOError("cannot read stream file " + path);
  std::vector<StreamEntry> entries;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields;
    size_t start = 0;
    for (int i = 0; i < 4; ++i) {
      const size_t tab = line.find('\t', start);
      if (tab == std::string::npos) break;
      fields.push_back(line.substr(start, tab - start));
      start = tab + 1;
    }
    if (fields.size() != 4) {
      return egp::Status::InvalidArgument("malformed stream line: " + line);
    }
    StreamEntry entry;
    entry.phase = fields[0];
    entry.cls = fields[1];
    entry.at_us = std::stoll(fields[2]);
    entry.verify = fields[3] == "1";
    entry.body = line.substr(start);
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::vector<StreamEntry> Phase(const std::vector<StreamEntry>& entries,
                               std::string_view phase) {
  std::vector<StreamEntry> out;
  for (const StreamEntry& entry : entries) {
    if (entry.phase == phase) out.push_back(entry);
  }
  return out;
}

egp::Result<std::vector<egp::DatasetSpec>> ParseSpecs(
    const std::vector<std::string>& flags) {
  std::vector<egp::DatasetSpec> specs;
  for (const std::string& flag : flags) {
    egp::DatasetSpec spec;
    EGP_ASSIGN_OR_RETURN(spec, egp::ParseDatasetSpec(flag));
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) {
    return egp::Status::InvalidArgument("at least one --dataset is required");
  }
  return specs;
}

egp::Result<std::string> ExpectedBody(const egp::DatasetCatalog& catalog,
                                      std::string_view request_body) {
  JsonValue doc;
  EGP_ASSIGN_OR_RETURN(doc, egp::ParseJson(request_body));
  egp::ParsedPreviewRequest parsed;
  EGP_ASSIGN_OR_RETURN(parsed, egp::ParsePreviewRequestJson(doc));
  const egp::Engine* engine = catalog.Find(parsed.dataset);
  if (engine == nullptr) {
    return egp::Status::NotFound("no dataset '" + parsed.dataset + "'");
  }
  egp::PreviewResponse response;
  EGP_ASSIGN_OR_RETURN(response, engine->Preview(parsed.request));
  return egp::PreviewResponseToJson(*engine, parsed.dataset, response,
                                    parsed.request.sample_rows > 0);
}

egp::Result<bool> SameBody(std::string_view a, std::string_view b) {
  JsonValue left;
  EGP_ASSIGN_OR_RETURN(left, egp::ParseJson(a));
  JsonValue right;
  EGP_ASSIGN_OR_RETURN(right, egp::ParseJson(b));
  if (!left.is_object() || !right.is_object()) return false;
  const auto left_members = StableMembers(left);
  const auto right_members = StableMembers(right);
  if (left_members.size() != right_members.size()) return false;
  for (size_t i = 0; i < left_members.size(); ++i) {
    if (left_members[i]->first != right_members[i]->first ||
        !SameJson(left_members[i]->second, right_members[i]->second)) {
      return false;
    }
  }
  return true;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double CalibrationMillis() {
  const int64_t start = NowNs();
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const int64_t end = NowNs();
  // Keep the loop observable so the optimizer cannot drop it.
  volatile uint64_t sink = x;
  (void)sink;
  return static_cast<double>(end - start) * 1e-6;
}

}  // namespace perfbench
