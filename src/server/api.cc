#include "server/api.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <type_traits>

#include "common/lock_stats.h"
#include "common/profiler.h"
#include "common/strings.h"
#include "common/timer.h"
#include "common/trace.h"
#include "io/json_export.h"
#include "io/json_writer.h"
#include "server/access_log.h"
#include "server/process_stats.h"

namespace egp {
namespace {

HttpResponse JsonErrorResponse(int status, std::string_view message) {
  HttpResponse response;
  response.status = status;
  response.body = JsonErrorBody(status, message);
  return response;
}

const char* DistanceModeName(DistanceMode mode) {
  switch (mode) {
    case DistanceMode::kTight:
      return "tight";
    case DistanceMode::kDiverse:
      return "diverse";
    case DistanceMode::kNone:
      break;
  }
  return "none";
}

/// HTTP status for an Engine/parse error. NotFound here means a bad
/// *parameter* (unknown measure name, say), not a bad URL — still the
/// client's request, so 400. (An unknown *dataset* is resource-shaped
/// and mapped to 404 at the ResolveDataset call sites instead.)
int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kFailedPrecondition:
      return 409;
    case StatusCode::kUnimplemented:
      return 501;
    case StatusCode::kUnavailable:
      return 503;
    default:
      return 500;
  }
}

/// Status for a request body that failed to parse: a malformed body is
/// the client's fault (400), but an I/O or internal failure while
/// parsing (fault injection, allocation) is ours (500).
int HttpStatusForBody(const Status& status) {
  switch (status.code()) {
    case StatusCode::kIOError:
    case StatusCode::kInternal:
      return 500;
    default:
      return 400;
  }
}

/// Status mapping for ResolveDataset: there NotFound really is a missing
/// resource.
int HttpStatusForDataset(const Status& status) {
  return status.code() == StatusCode::kNotFound ? 404
                                                : HttpStatusFor(status);
}

// ---------------------------------------------------------------------------
// Field coercion: JSON numbers are doubles; integer-valued fields must
// actually be integers, and every field must have the right kind.
// ---------------------------------------------------------------------------

Status WrongKind(const char* key, std::string_view want,
                 const JsonValue& got) {
  return Status::InvalidArgument("field \"" + std::string(key) +
                                 "\" must be a " + std::string(want) +
                                 ", got " + std::string(JsonKindName(
                                     got.kind())));
}

/// Rejects any member not in `allowed` — typos fail loudly.
Status CheckAllowedKeys(const JsonValue& obj,
                        std::initializer_list<std::string_view> allowed,
                        const char* context) {
  for (const auto& [key, value] : obj.object()) {
    bool known = false;
    for (const std::string_view name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::string names;
      for (const std::string_view name : allowed) {
        if (!names.empty()) names += ", ";
        names += name;
      }
      return Status::InvalidArgument("unknown field \"" + key + "\" in " +
                                     context + " (allowed: " + names + ")");
    }
  }
  return Status::OK();
}

Result<int64_t> IntField(const JsonValue& obj, const char* key, int64_t dflt,
                         int64_t min, int64_t max) {
  const JsonValue* field = obj.Find(key);
  if (field == nullptr) return dflt;
  if (!field->is_number()) return WrongKind(key, "number", *field);
  const double value = field->number_value();
  if (std::floor(value) != value || std::abs(value) > 9.007199254740992e15) {
    return Status::InvalidArgument("field \"" + std::string(key) +
                                   "\" must be an integer");
  }
  const int64_t integer = static_cast<int64_t>(value);
  if (integer < min || integer > max) {
    return Status::InvalidArgument(
        "field \"" + std::string(key) + "\" must be in [" +
        std::to_string(min) + ", " + std::to_string(max) + "], got " +
        std::to_string(integer));
  }
  return integer;
}

Result<double> DoubleField(const JsonValue& obj, const char* key,
                           double dflt) {
  const JsonValue* field = obj.Find(key);
  if (field == nullptr) return dflt;
  if (!field->is_number()) return WrongKind(key, "number", *field);
  return field->number_value();
}

Result<std::string> StringField(const JsonValue& obj, const char* key,
                                const std::string& dflt) {
  const JsonValue* field = obj.Find(key);
  if (field == nullptr) return dflt;
  if (!field->is_string()) return WrongKind(key, "string", *field);
  return field->string_value();
}

Result<bool> BoolField(const JsonValue& obj, const char* key, bool dflt) {
  const JsonValue* field = obj.Find(key);
  if (field == nullptr) return dflt;
  if (!field->is_bool()) return WrongKind(key, "bool", *field);
  return field->bool_value();
}

Status ParseMeasures(const JsonValue& doc, MeasureSelection* measures) {
  const JsonValue* field = doc.Find("measures");
  if (field == nullptr) return Status::OK();
  if (!field->is_object()) return WrongKind("measures", "object", *field);
  EGP_RETURN_IF_ERROR(
      CheckAllowedKeys(*field, {"key", "nonkey", "walk"}, "\"measures\""));
  EGP_ASSIGN_OR_RETURN(measures->key,
                       StringField(*field, "key", measures->key));
  EGP_ASSIGN_OR_RETURN(measures->nonkey,
                       StringField(*field, "nonkey", measures->nonkey));
  if (const JsonValue* walk = field->Find("walk")) {
    if (!walk->is_object()) return WrongKind("walk", "object", *walk);
    EGP_RETURN_IF_ERROR(CheckAllowedKeys(
        *walk, {"smoothing", "maxIterations", "tolerance"}, "\"walk\""));
    EGP_ASSIGN_OR_RETURN(measures->walk.smoothing,
                         DoubleField(*walk, "smoothing",
                                     measures->walk.smoothing));
    if (!(measures->walk.smoothing >= 0) ||
        !std::isfinite(measures->walk.smoothing)) {
      return Status::InvalidArgument("\"smoothing\" must be finite and >= 0");
    }
    int64_t iterations = 0;
    EGP_ASSIGN_OR_RETURN(iterations,
                         IntField(*walk, "maxIterations",
                                  measures->walk.max_iterations, 1, 1000000));
    measures->walk.max_iterations = static_cast<int>(iterations);
    EGP_ASSIGN_OR_RETURN(measures->walk.tolerance,
                         DoubleField(*walk, "tolerance",
                                     measures->walk.tolerance));
    if (!(measures->walk.tolerance >= 0) ||
        !std::isfinite(measures->walk.tolerance)) {
      return Status::InvalidArgument("\"tolerance\" must be finite and >= 0");
    }
  }
  return Status::OK();
}

/// A Prometheus label pair, `name="value"`.
std::string Label(std::string_view name, std::string_view value) {
  std::string label(name);
  label.append("=\"").append(value).append("\"");
  return label;
}

/// Value of `key` in an application/x-www-form-urlencoded query string,
/// or empty. No percent-decoding: the debug endpoint's parameters are
/// plain numbers.
std::string_view QueryParam(std::string_view query, std::string_view key) {
  while (!query.empty()) {
    const size_t amp = query.find('&');
    const std::string_view pair =
        query.substr(0, amp == std::string_view::npos ? query.size() : amp);
    const size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
    if (amp == std::string_view::npos) break;
    query.remove_prefix(amp + 1);
  }
  return {};
}

/// Reads query parameter `key` into `*value` when it is present: the
/// whole value must parse (strtod for double, base-10 strtol for long)
/// to a number in [min, max]. False for a malformed or out-of-range
/// value; an absent one leaves `*value` as it is.
template <typename T>
bool QueryNumber(std::string_view query, std::string_view key, T min, T max,
                 T* value) {
  const std::string_view raw = QueryParam(query, key);
  if (raw.empty()) return true;
  const std::string text(raw);
  char* end = nullptr;
  T parsed{};
  if constexpr (std::is_same_v<T, double>) {
    parsed = std::strtod(text.c_str(), &end);
  } else {
    parsed = std::strtol(text.c_str(), &end, 10);
  }
  if (end != text.c_str() + text.size() || !(parsed >= min && parsed <= max)) {
    return false;
  }
  *value = parsed;
  return true;
}

Result<DisplayBudget> ParseBudget(const JsonValue& field) {
  if (!field.is_object()) return WrongKind("budget", "object", field);
  EGP_RETURN_IF_ERROR(CheckAllowedKeys(
      field, {"widthChars", "heightRows", "columnWidth", "rowsPerTable"},
      "\"budget\""));
  DisplayBudget budget;
  int64_t value = 0;
  EGP_ASSIGN_OR_RETURN(
      value, IntField(field, "widthChars", budget.width_chars, 1, 1000000));
  budget.width_chars = static_cast<uint32_t>(value);
  EGP_ASSIGN_OR_RETURN(
      value, IntField(field, "heightRows", budget.height_rows, 1, 1000000));
  budget.height_rows = static_cast<uint32_t>(value);
  EGP_ASSIGN_OR_RETURN(
      value, IntField(field, "columnWidth", budget.column_width, 1, 10000));
  budget.column_width = static_cast<uint32_t>(value);
  EGP_ASSIGN_OR_RETURN(
      value,
      IntField(field, "rowsPerTable", budget.rows_per_table, 1, 10000));
  budget.rows_per_table = static_cast<uint32_t>(value);
  return budget;
}

}  // namespace

Result<ParsedPreviewRequest> ParsePreviewRequestJson(const JsonValue& doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  EGP_RETURN_IF_ERROR(CheckAllowedKeys(
      doc,
      {"dataset", "k", "n", "tight", "diverse", "budget",
       "suggestedDistance", "measures", "algorithm", "sample"},
      "the request"));

  ParsedPreviewRequest parsed;
  EGP_ASSIGN_OR_RETURN(parsed.dataset, StringField(doc, "dataset", ""));
  PreviewRequest& request = parsed.request;

  const bool has_budget = doc.Find("budget") != nullptr;
  const bool has_explicit = doc.Find("k") != nullptr ||
                            doc.Find("n") != nullptr ||
                            doc.Find("tight") != nullptr ||
                            doc.Find("diverse") != nullptr;
  if (has_budget && has_explicit) {
    return Status::InvalidArgument(
        "\"budget\" (advisor mode) excludes explicit \"k\"/\"n\"/"
        "\"tight\"/\"diverse\" constraints");
  }
  if (doc.Find("suggestedDistance") != nullptr && !has_budget) {
    return Status::InvalidArgument(
        "\"suggestedDistance\" only applies with \"budget\"");
  }
  if (doc.Find("tight") != nullptr && doc.Find("diverse") != nullptr) {
    return Status::InvalidArgument("\"tight\" and \"diverse\" are exclusive");
  }

  if (has_budget) {
    EGP_ASSIGN_OR_RETURN(request.budget, ParseBudget(*doc.Find("budget")));
    std::string mode;
    EGP_ASSIGN_OR_RETURN(mode, StringField(doc, "suggestedDistance", "none"));
    if (mode == "none") {
      request.suggested_distance = DistanceMode::kNone;
    } else if (mode == "tight") {
      request.suggested_distance = DistanceMode::kTight;
    } else if (mode == "diverse") {
      request.suggested_distance = DistanceMode::kDiverse;
    } else {
      return Status::InvalidArgument(
          "\"suggestedDistance\" must be none, tight, or diverse");
    }
  } else {
    int64_t value = 0;
    EGP_ASSIGN_OR_RETURN(value, IntField(doc, "k", request.size.k, 1,
                                         1u << 20));
    request.size.k = static_cast<uint32_t>(value);
    EGP_ASSIGN_OR_RETURN(value, IntField(doc, "n", request.size.n, 1,
                                         1u << 20));
    request.size.n = static_cast<uint32_t>(value);
    if (doc.Find("tight") != nullptr) {
      EGP_ASSIGN_OR_RETURN(value, IntField(doc, "tight", 0, 1, 1u << 20));
      request.distance = DistanceConstraint::Tight(
          static_cast<uint32_t>(value));
    } else if (doc.Find("diverse") != nullptr) {
      EGP_ASSIGN_OR_RETURN(value, IntField(doc, "diverse", 0, 1, 1u << 20));
      request.distance = DistanceConstraint::Diverse(
          static_cast<uint32_t>(value));
    }
  }

  EGP_RETURN_IF_ERROR(ParseMeasures(doc, &request.measures));
  EGP_ASSIGN_OR_RETURN(request.algorithm,
                       StringField(doc, "algorithm", request.algorithm));

  if (const JsonValue* sample = doc.Find("sample")) {
    if (!sample->is_object()) return WrongKind("sample", "object", *sample);
    EGP_RETURN_IF_ERROR(CheckAllowedKeys(
        *sample, {"rows", "seed", "strategy", "mergeMultiway"},
        "\"sample\""));
    int64_t value = 0;
    EGP_ASSIGN_OR_RETURN(value, IntField(*sample, "rows", 0, 0, 100000));
    request.sample_rows = static_cast<size_t>(value);
    EGP_ASSIGN_OR_RETURN(
        value, IntField(*sample, "seed", 42, 0, 9007199254740992));
    request.sample_seed = static_cast<uint64_t>(value);
    std::string strategy;
    EGP_ASSIGN_OR_RETURN(strategy,
                         StringField(*sample, "strategy", "random"));
    if (strategy == "random") {
      request.sample_strategy = SamplingStrategy::kRandom;
    } else if (strategy == "frequency") {
      request.sample_strategy = SamplingStrategy::kFrequencyWeighted;
    } else {
      return Status::InvalidArgument(
          "\"strategy\" must be random or frequency");
    }
    EGP_ASSIGN_OR_RETURN(request.merge_multiway_columns,
                         BoolField(*sample, "mergeMultiway", false));
  }
  return parsed;
}

Result<ParsedSuggestRequest> ParseSuggestRequestJson(const JsonValue& doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  EGP_RETURN_IF_ERROR(CheckAllowedKeys(doc, {"dataset", "budget", "measures"},
                                       "the request"));
  ParsedSuggestRequest parsed;
  EGP_ASSIGN_OR_RETURN(parsed.dataset, StringField(doc, "dataset", ""));
  if (const JsonValue* budget = doc.Find("budget")) {
    EGP_ASSIGN_OR_RETURN(parsed.budget, ParseBudget(*budget));
  }
  EGP_RETURN_IF_ERROR(ParseMeasures(doc, &parsed.measures));
  return parsed;
}

std::string PreviewResponseToJson(const Engine& engine,
                                  const std::string& dataset,
                                  const PreviewResponse& response,
                                  bool include_materialized) {
  std::string out;
  JsonWriter json(&out);
  json.BeginObject().Key("dataset").String(dataset);
  json.Key("algorithm").String(response.algorithm);
  json.Key("constraints").BeginObject().Key("k").Uint(response.size.k);
  json.Key("n").Uint(response.size.n);
  json.Key("distance").BeginObject();
  json.Key("mode").String(DistanceModeName(response.distance.mode));
  json.Key("d").Uint(response.distance.d).EndObject().EndObject();
  if (!response.rationale.empty()) {
    json.Key("rationale").String(response.rationale);
  }
  json.Key("cacheHit").Bool(response.prepared_cache_hit);
  json.Key("score").Double(response.score);
  json.Key("preview");
  PreviewToJson(*response.prepared, response.preview, &json);
  if (include_materialized && engine.graph() != nullptr) {
    json.Key("materialized");
    MaterializedPreviewToJson(*engine.graph(), response.materialized, &json);
  }
  json.Key("stats").BeginObject();
  json.Key("subsetsEnumerated").Uint(response.stats.subsets_enumerated);
  json.Key("subsetsScored").Uint(response.stats.subsets_scored);
  json.Key("truncated").Bool(response.stats.truncated).EndObject();
  json.Key("timings").BeginObject();
  json.Key("prepareSeconds").Double(response.prepare_seconds);
  json.Key("discoverSeconds").Double(response.discover_seconds);
  json.Key("sampleSeconds").Double(response.sample_seconds);
  const PrepareTimings& phases = response.prepare_timings;
  json.Key("preparePhases").BeginObject();
  json.Key("keySeconds").Double(phases.key_seconds);
  json.Key("nonkeySeconds").Double(phases.nonkey_seconds);
  json.Key("distanceSeconds").Double(phases.distance_seconds);
  json.Key("candidateSortSeconds").Double(phases.candidate_sort_seconds);
  json.Key("totalSeconds").Double(phases.total_seconds);
  json.EndObject().EndObject().EndObject();
  return out;
}

PreviewService::PreviewService(DatasetCatalog catalog, std::string version,
                               const AdmissionOptions& admission)
    : catalog_(std::move(catalog)),
      version_(std::move(version)),
      admission_(admission) {}

Result<const Engine*> PreviewService::ResolveDataset(
    const std::string& name, std::string* resolved_name) const {
  if (name.empty()) {
    const Engine* engine = catalog_.Default();
    if (engine == nullptr) {
      return Status::InvalidArgument(
          "\"dataset\" is required when several datasets are loaded (see "
          "GET /v1/datasets)");
    }
    *resolved_name = catalog_.default_name();
    return engine;
  }
  const Engine* engine = catalog_.Find(name);
  if (engine == nullptr) {
    // Distinguish "no such dataset" (404, client error) from "we know
    // it but it failed to load" (503, degraded server).
    if (const DatasetCatalog::FailedDataset* failed =
            catalog_.FindFailed(name)) {
      return Status::Unavailable("dataset '" + name +
                                 "' failed to load: " + failed->error);
    }
    return Status::NotFound("unknown dataset '" + name +
                            "' (see GET /v1/datasets)");
  }
  *resolved_name = name;
  return engine;
}

void PreviewService::EnableProfiler(int default_hz) {
  if (default_hz < Profiler::kMinHz) default_hz = Profiler::kDefaultHz;
  if (default_hz > Profiler::kMaxHz) default_hz = Profiler::kMaxHz;
  profiler_default_hz_.store(default_hz, std::memory_order_relaxed);
  profiler_enabled_.store(true, std::memory_order_release);
}

HttpResponse PreviewService::Handle(const HttpRequest& request) {
  Timer timer;
  std::string endpoint = "other";
  std::string dataset;
  HttpResponse response = Route(request, &endpoint, &dataset);
  response.headers.emplace_back("Server", "egp/" + version_);
  const double seconds = timer.ElapsedSeconds();
  metrics_.RecordRequest(endpoint, response.status, seconds);
  // Dataset-scoped series only for names that resolved against the
  // catalog — arbitrary client strings must not mint label values.
  if (!dataset.empty()) {
    metrics_.RecordDataset(dataset, response.status, seconds);
  }
  return response;
}

HttpResponse PreviewService::Route(const HttpRequest& request,
                                   std::string* endpoint,
                                   std::string* dataset) {
  const std::string_view path = request.Path();
  const bool get = request.method == "GET" || request.method == "HEAD";
  const bool post = request.method == "POST";

  if (path == "/healthz" || path == "/v1/datasets" || path == "/metrics" ||
      path == "/v1/preview" || path == "/v1/suggest" ||
      path == "/v1/debug/requests" || path == "/v1/debug/locks" ||
      path == "/v1/debug/cache" || path == "/v1/debug/profile") {
    *endpoint = std::string(path);
  }
  if (path == "/healthz") {
    if (!get) return JsonErrorResponse(405, "use GET /healthz");
    return HandleHealthz();
  }
  if (path == "/metrics") {
    if (!get) return JsonErrorResponse(405, "use GET /metrics");
    return HandleMetrics();
  }
  if (path == "/v1/debug/requests") {
    if (!get) return JsonErrorResponse(405, "use GET /v1/debug/requests");
    return HandleDebugRequests(request);
  }
  if (path == "/v1/debug/locks") {
    if (!get) return JsonErrorResponse(405, "use GET /v1/debug/locks");
    return HandleDebugLocks();
  }
  if (path == "/v1/debug/cache") {
    if (!get) return JsonErrorResponse(405, "use GET /v1/debug/cache");
    return HandleDebugCache();
  }
  if (path == "/v1/debug/profile") {
    if (!get) return JsonErrorResponse(405, "use GET /v1/debug/profile");
    return HandleDebugProfile(request);
  }
  if (path == "/v1/datasets") {
    if (!get) return JsonErrorResponse(405, "use GET /v1/datasets");
    return HandleDatasets();
  }
  if (path == "/v1/preview") {
    if (!post) return JsonErrorResponse(405, "use POST /v1/preview");
    return HandlePreview(request, dataset);
  }
  if (path == "/v1/suggest") {
    if (!post) return JsonErrorResponse(405, "use POST /v1/suggest");
    return HandleSuggest(request, dataset);
  }
  return JsonErrorResponse(
      404, "no such endpoint (have: GET /healthz, GET /metrics, GET "
           "/v1/datasets, POST /v1/preview, POST /v1/suggest)");
}

HttpResponse PreviewService::HandlePreview(const HttpRequest& request,
                                           std::string* dataset_out) {
  const auto doc = ParseJson(request.body);
  if (!doc.ok()) {
    return JsonErrorResponse(HttpStatusForBody(doc.status()),
                             doc.status().message());
  }
  const auto parsed = ParsePreviewRequestJson(*doc);
  if (!parsed.ok()) return JsonErrorResponse(400, parsed.status().message());

  std::string dataset;
  const auto engine = ResolveDataset(parsed->dataset, &dataset);
  if (!engine.ok()) {
    return JsonErrorResponse(HttpStatusForDataset(engine.status()),
                             engine.status().message());
  }
  *dataset_out = dataset;
  RequestTrace* trace = CurrentRequestTrace();
  if (trace != nullptr) trace->dataset = dataset;

  // Cost-based admission: a prepared measure configuration is hot
  // (discovery only — the flat connection cap bounds it); an unprepared
  // one is cold (a PreparedSchema build) and must take a bounded build
  // slot or be shed, so a burst of expensive requests can't starve the
  // cheap traffic behind it.
  AdmissionController::Ticket ticket;
  if ((*engine)->IsPrepared(parsed->request.measures)) {
    admission_.RecordHot();
  } else {
    const ScopedTracePhase profiled_phase(TracePhase::kAdmission);
    Timer admission_timer;
    ticket = admission_.AcquireCold();
    if (trace != nullptr) {
      trace->admission_seconds = admission_timer.ElapsedSeconds();
    }
    if (!ticket.admitted()) {
      if (trace != nullptr) trace->outcome = "shed";
      HttpResponse shed = JsonErrorResponse(
          503, "cold preview capacity exhausted (schema build slots and "
               "queue are full); retry shortly");
      shed.headers.emplace_back(
          "Retry-After",
          std::to_string(admission_.options().retry_after_seconds));
      return shed;
    }
  }

  const auto served = (*engine)->Preview(parsed->request);
  if (!served.ok()) {
    return JsonErrorResponse(HttpStatusFor(served.status()),
                             served.status().message());
  }
  HttpResponse response;
  response.body = PreviewResponseToJson(**engine, dataset, *served,
                                        parsed->request.sample_rows > 0);
  return response;
}

HttpResponse PreviewService::HandleSuggest(const HttpRequest& request,
                                           std::string* dataset_out) {
  const auto doc = ParseJson(request.body);
  if (!doc.ok()) {
    return JsonErrorResponse(HttpStatusForBody(doc.status()),
                             doc.status().message());
  }
  const auto parsed = ParseSuggestRequestJson(*doc);
  if (!parsed.ok()) return JsonErrorResponse(400, parsed.status().message());

  std::string dataset;
  const auto engine = ResolveDataset(parsed->dataset, &dataset);
  if (!engine.ok()) {
    return JsonErrorResponse(HttpStatusForDataset(engine.status()),
                             engine.status().message());
  }
  *dataset_out = dataset;
  const auto suggestion =
      (*engine)->Suggest(parsed->budget, parsed->measures);
  if (!suggestion.ok()) {
    return JsonErrorResponse(HttpStatusFor(suggestion.status()),
                             suggestion.status().message());
  }
  HttpResponse response;
  JsonWriter json(&response.body);
  json.BeginObject().Key("dataset").String(dataset);
  json.Key("k").Uint(suggestion->size.k);
  json.Key("n").Uint(suggestion->size.n);
  json.Key("tightD").Uint(suggestion->tight_d);
  json.Key("diverseD").Uint(suggestion->diverse_d);
  json.Key("rationale").String(suggestion->rationale).EndObject();
  return response;
}

HttpResponse PreviewService::HandleDatasets() const {
  HttpResponse response;
  JsonWriter json(&response.body);
  json.BeginObject().Key("datasets").BeginArray();
  for (const DatasetCatalog::Info& info : catalog_.infos()) {
    json.BeginObject().Key("name").String(info.name);
    json.Key("path").String(info.path);
    json.Key("storage").String(info.storage);
    json.Key("entities").Uint(info.entities);
    json.Key("relationships").Uint(info.relationships);
    json.Key("entityTypes").Uint(info.entity_types);
    json.Key("relationshipTypes").Uint(info.relationship_types);
    json.Key("status").String("loaded").EndObject();
  }
  for (const DatasetCatalog::FailedDataset& failed : catalog_.failed()) {
    json.BeginObject().Key("name").String(failed.name);
    json.Key("path").String(failed.path);
    json.Key("status").String("failed");
    json.Key("error").String(failed.error).EndObject();
  }
  json.EndArray().EndObject();
  return response;
}

HttpResponse PreviewService::HandleHealthz() const {
  // Degraded (some datasets failed to load) still answers 200: the
  // process is healthy and serving what it has — orchestrators should
  // not kill it. The body carries the detail.
  HttpResponse response;
  JsonWriter json(&response.body);
  json.BeginObject();
  json.Key("status").String(catalog_.degraded() ? "degraded" : "ok");
  json.Key("version").String(version_);
  json.Key("datasets").Uint(catalog_.size());
  if (catalog_.degraded()) {
    json.Key("failedDatasets").Uint(catalog_.failed().size());
    json.Key("failed").BeginArray();
    for (const DatasetCatalog::FailedDataset& failed : catalog_.failed()) {
      json.BeginObject().Key("name").String(failed.name);
      json.Key("error").String(failed.error).EndObject();
    }
    json.EndArray();
  }
  json.EndObject();
  return response;
}

HttpResponse PreviewService::HandleMetrics() const {
  std::string out = metrics_.PrometheusText();
  MetricsWriter metrics(&out);

  // One cache_stats() read per dataset: a scrape's hits, misses,
  // evictions and entries come from the same moment.
  std::vector<std::pair<std::string, Engine::CacheStats>> caches;
  for (const DatasetCatalog::Info& info : catalog_.infos()) {
    caches.emplace_back(Label("dataset", info.name),
                        catalog_.Find(info.name)->cache_stats());
  }
  metrics.Family("egp_prepared_cache_hits_total", "counter",
                 "Prepared-schema cache hits, by dataset.");
  for (const auto& [labels, stats] : caches) metrics.Sample(stats.hits, labels);
  metrics.Family("egp_prepared_cache_misses_total", "counter",
                 "Prepared-schema cache misses, by dataset.");
  for (const auto& [labels, stats] : caches) {
    metrics.Sample(stats.misses, labels);
  }
  metrics.Family("egp_prepared_cache_evictions_total", "counter",
                 "Prepared-schema cache evictions, by dataset.");
  for (const auto& [labels, stats] : caches) {
    metrics.Sample(stats.evictions, labels);
  }
  metrics.Family("egp_prepared_cache_entries", "gauge",
                 "Prepared schemas currently cached, by dataset.");
  for (const auto& [labels, stats] : caches) {
    metrics.Sample(stats.entries, labels);
  }

  const AdmissionStats admission = admission_.stats();
  metrics.Scalars({
      {"egp_catalog_datasets_loaded", "gauge",
       "Datasets serving from the catalog.", catalog_.size()},
      {"egp_catalog_datasets_failed", "gauge", "Datasets that failed to load.",
       catalog_.failed().size()},
      {"egp_admission_hot_total", "counter",
       "Previews admitted on the hot (cached) path.", admission.hot_admitted},
      {"egp_admission_cold_admitted_total", "counter",
       "Cold previews granted a build slot.", admission.cold_admitted},
      {"egp_admission_cold_queued_total", "counter",
       "Cold previews that waited in the build queue.", admission.cold_queued},
      {"egp_admission_cold_shed_total", "counter",
       "Cold previews shed with 503.", admission.cold_shed},
      {"egp_admission_cold_inflight", "gauge",
       "Cold builds currently holding a slot.", admission.cold_inflight},
      {"egp_admission_cold_queue_depth", "gauge",
       "Cold builds currently queued for a slot.", admission.cold_queue_depth},
  });

  if (const HttpServer* server = server_.load(std::memory_order_acquire)) {
    const HttpServerStats stats = server->stats();
    metrics.Scalars({
        {"egp_http_connections_accepted_total", "counter",
         "Connections accepted.", stats.accepted_connections},
        {"egp_http_connections_rejected_total", "counter",
         "Connections 503'd at the cap.", stats.rejected_connections},
        {"egp_http_connections_timed_out_total", "counter",
         "Connections closed by an I/O deadline.", stats.timed_out_connections},
        {"egp_http_parse_errors_total", "counter",
         "Requests rejected by the HTTP parser.", stats.parse_errors},
        {"egp_http_accept_overloads_total", "counter",
         "Accept failures from fd or memory exhaustion.",
         stats.accept_overloads},
        {"egp_http_overload_sheds_total", "counter",
         "Connections shed via the emergency descriptor.",
         stats.overload_sheds},
    });
    const HttpServerRuntimeStats runtime = server->runtime_stats();
    metrics
        .Family("egp_loop_lag_seconds", "histogram",
                "Event-loop pass duration (epoll wake until back to "
                "waiting).")
        .Sample(runtime.loop_lag);
    metrics
        .Family("egp_connections", "gauge",
                "Open connections by lifecycle phase.")
        .Sample(runtime.connections_reading, "phase=\"reading\"")
        .Sample(runtime.connections_handling, "phase=\"handling\"")
        .Sample(runtime.connections_writing, "phase=\"writing\"");
    metrics.Scalars({
        {"egp_timer_heap_depth", "gauge",
         "Deadline-timer heap entries (incl. stale).",
         runtime.timer_heap_depth},
        {"egp_completion_queue_depth", "gauge",
         "Handler results awaiting the event loop.",
         runtime.completion_queue_depth},
    });
  }

  if (const FlightRecorder* recorder =
          recorder_.load(std::memory_order_acquire)) {
    metrics.Scalars({{"egp_flight_recorder_traces_total", "counter",
                      "Request traces recorded (ring overwrites count).",
                      recorder->recorded()}});
  }

  const std::vector<LockSiteSnapshot> sites = SnapshotLockSites();
  if (!sites.empty()) {
    metrics.Family("egp_mutex_acquisitions_total", "counter",
                   "Labeled-mutex acquisitions, by site.");
    for (const LockSiteSnapshot& site : sites) {
      metrics.Sample(site.acquisitions, Label("site", site.name));
    }
    metrics.Family("egp_mutex_contentions_total", "counter",
                   "Acquisitions that found the lock held, by site.");
    for (const LockSiteSnapshot& site : sites) {
      metrics.Sample(site.contentions, Label("site", site.name));
    }
    metrics.Family("egp_mutex_wait_seconds", "histogram",
                   "Contended lock-wait time, by site.");
    for (const LockSiteSnapshot& site : sites) {
      metrics.Sample(site.wait, Label("site", site.name));
    }
  }

  const ProfilerStats prof = Profiler::Global().stats();
  const ProcessStats process = ReadProcessStats();
  metrics.Scalars({
      {"egp_profiler_windows_total", "counter", "Completed profiling windows.",
       prof.windows_total},
      {"egp_profiler_samples_total", "counter",
       "Stack samples captured across all windows.", prof.samples_total},
      {"egp_profiler_dropped_total", "counter",
       "Samples dropped to full per-thread rings.", prof.dropped_total},
      {"egp_profiler_active", "gauge",
       "1 while a profiling window is collecting.", prof.active},
      {"egp_profiler_threads", "gauge",
       "Threads registered for profiling signals.",
       static_cast<uint64_t>(prof.registered_threads)},
      {"egp_process_resident_bytes", "gauge",
       "Resident set size from /proc/self/statm.", process.resident_bytes},
      {"egp_process_open_fds", "gauge", "Open file descriptors.",
       process.open_fds},
  });
  metrics
      .Family("egp_process_uptime_seconds", "gauge",
              "Seconds since process start.")
      .Sample(process.uptime_seconds);

  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = std::move(out);
  return response;
}

HttpResponse PreviewService::HandleDebugRequests(
    const HttpRequest& request) const {
  const FlightRecorder* recorder =
      recorder_.load(std::memory_order_acquire);
  if (recorder == nullptr) {
    return JsonErrorResponse(503, "flight recorder not attached");
  }
  const std::string_view query = request.Query();
  FlightRecorder::Filter filter;
  if (!QueryNumber(query, "min_ms", 0.0, HUGE_VAL, &filter.min_ms)) {
    return JsonErrorResponse(400, "min_ms must be a number >= 0");
  }
  long status = 0;
  if (!QueryNumber(query, "status", 100L, 599L, &status)) {
    return JsonErrorResponse(400, "status must be an HTTP status code");
  }
  filter.status = static_cast<int>(status);
  long limit = 0;
  if (!QueryNumber(query, "limit", 0L, LONG_MAX, &limit)) {
    return JsonErrorResponse(400, "limit must be a non-negative integer");
  }
  filter.limit = static_cast<size_t>(limit);
  filter.dataset = std::string(QueryParam(query, "dataset"));

  HttpResponse response;
  JsonWriter json(&response.body);
  json.BeginObject().Key("recorded").Uint(recorder->recorded());
  json.Key("capacity").Uint(recorder->capacity());
  json.Key("requests").BeginArray();
  for (const RequestTrace& trace : recorder->Snapshot(filter)) {
    RequestTraceToJson(trace, {}, &json);
  }
  json.EndArray().EndObject();
  return response;
}

HttpResponse PreviewService::HandleDebugLocks() const {
  std::vector<LockSiteSnapshot> sites = SnapshotLockSites();
  std::sort(sites.begin(), sites.end(),
            [](const LockSiteSnapshot& a, const LockSiteSnapshot& b) {
              if (a.wait.sum_seconds != b.wait.sum_seconds) {
                return a.wait.sum_seconds > b.wait.sum_seconds;
              }
              return a.contentions > b.contentions;
            });
  HttpResponse response;
  JsonWriter json(&response.body);
  json.BeginObject().Key("sites").BeginArray();
  for (const LockSiteSnapshot& site : sites) {
    json.BeginObject().Key("site").String(site.name);
    json.Key("acquisitions").Uint(site.acquisitions);
    json.Key("contentions").Uint(site.contentions);
    json.Key("waitSeconds").Double(site.wait.sum_seconds);
    json.Key("maxWaitSeconds").Double(site.max_wait_seconds);
    json.Key("holdSamples").Uint(site.hold_samples);
    json.Key("holdSeconds").Double(site.hold_seconds);
    json.Key("maxHoldSeconds").Double(site.max_hold_seconds).EndObject();
  }
  json.EndArray().EndObject();
  return response;
}

HttpResponse PreviewService::HandleDebugCache() const {
  HttpResponse response;
  JsonWriter json(&response.body);
  json.BeginObject().Key("datasets").BeginArray();
  for (const DatasetCatalog::Info& info : catalog_.infos()) {
    const Engine* engine = catalog_.Find(info.name);
    if (engine == nullptr) continue;
    const Engine::CacheStats stats = engine->cache_stats();
    json.BeginObject().Key("dataset").String(info.name);
    json.Key("hits").Uint(stats.hits);
    json.Key("misses").Uint(stats.misses);
    json.Key("evictions").Uint(stats.evictions);
    json.Key("entries").BeginArray();
    for (const Engine::CacheEntryInfo& entry : engine->cache_entries()) {
      json.BeginObject().Key("measures").String(entry.measures);
      json.Key("ready").Bool(entry.ready);
      json.Key("building").Bool(entry.building);
      json.Key("hits").Uint(entry.hits);
      json.Key("ageSeconds").Double(entry.age_seconds);
      json.Key("idleSeconds").Double(entry.idle_seconds);
      json.Key("approxBytes").Uint(entry.approx_bytes).EndObject();
    }
    json.EndArray().EndObject();
  }
  json.EndArray().EndObject();
  return response;
}

HttpResponse PreviewService::HandleDebugProfile(
    const HttpRequest& request) const {
  if (!profiler_enabled_.load(std::memory_order_acquire)) {
    return JsonErrorResponse(
        503, "profiler disabled; start the server with --profiler");
  }
  const std::string_view query = request.Query();
  // (0, kMaxWindowSeconds]: the smallest positive double is the least
  // accepted value.
  double seconds = 2.0;
  if (!QueryNumber(query, "seconds", std::numeric_limits<double>::denorm_min(),
                   Profiler::kMaxWindowSeconds, &seconds)) {
    return JsonErrorResponse(
        400, StrFormat("seconds must be a number in (0, %g]",
                       Profiler::kMaxWindowSeconds));
  }
  long hz = profiler_default_hz_.load(std::memory_order_relaxed);
  if (!QueryNumber(query, "hz", long{Profiler::kMinHz},
                   long{Profiler::kMaxHz}, &hz)) {
    return JsonErrorResponse(400,
                             StrFormat("hz must be an integer in [%d, %d]",
                                       Profiler::kMinHz, Profiler::kMaxHz));
  }

  // Collect blocks this handler thread for the whole window; the event
  // loop keeps serving other requests meanwhile. Concurrent collections
  // are refused inside Collect (Unavailable → 503).
  const auto result =
      Profiler::Global().Collect(seconds, static_cast<int>(hz));
  if (!result.ok()) {
    return JsonErrorResponse(HttpStatusFor(result.status()),
                             result.status().message());
  }
  HttpResponse response;
  response.content_type = "text/plain; charset=utf-8";
  response.headers.emplace_back("X-Egp-Profile-Samples",
                                std::to_string(result->samples));
  response.headers.emplace_back("X-Egp-Profile-Dropped",
                                std::to_string(result->dropped));
  response.headers.emplace_back("X-Egp-Profile-Hz",
                                std::to_string(result->hz));
  response.headers.emplace_back("X-Egp-Profile-Seconds",
                                StrFormat("%g", result->seconds));
  response.headers.emplace_back("X-Egp-Profile-Threads",
                                std::to_string(result->threads));
  response.body = result->folded;
  return response;
}

}  // namespace egp
