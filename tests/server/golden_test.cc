// Response bodies, byte for byte. A fixed request set goes through
// PreviewService::Handle (plus the transport's JsonErrorBody and the
// access log's RequestTraceToJson), and every body is compared with
// tests/server/testdata/api_golden.tsv after its "timings" member (wall
// clock) is cut; the rest of a body is a pure function of the graph and
// the request. Every body must also pass the strict JSON parser.
//
// The golden file holds one record per line: name, status and body,
// tab-separated (a body never holds a raw tab or newline: JSON escapes
// them). On a mismatch the test writes what it got, in the same format,
// to api_golden.actual.tsv in its working directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "datagen/paper_example.h"
#include "graph/entity_graph_builder.h"
#include "io/json_parser.h"
#include "io/ntriples.h"
#include "server/access_log.h"
#include "server/api.h"
#include "server/http.h"

namespace egp {
namespace {

struct Record {
  std::string name;
  int status = 0;
  std::string body;
};

HttpRequest Request(std::string method, std::string target,
                    std::string body = {}) {
  HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  request.body = std::move(body);
  return request;
}

/// The JsonExportEdgeTest graph: a quote in a type name, a tab in a
/// relationship name, a newline and a backslash in entity names.
EntityGraph EscapableGraph() {
  EntityGraphBuilder b;
  const TypeId t = b.AddEntityType("TYPE \"QUOTED\"");
  const TypeId u = b.AddEntityType("OTHER");
  const RelTypeId rel = b.AddRelationshipType("has\ttab", t, u);
  const EntityId e1 = b.AddEntity("entity\nnewline");
  const EntityId e2 = b.AddEntity("back\\slash");
  b.AddEntityToType(e1, t);
  b.AddEntityToType(e2, u);
  EXPECT_TRUE(b.AddEdge(e1, rel, e2).ok());
  auto graph = b.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

/// `body` without its "timings" member (the last one of a preview body;
/// its values are numbers, so braces can be counted without a parser).
std::string CutTimings(const std::string& body) {
  const std::string marker = ",\"timings\":{";
  const size_t start = body.find(marker);
  if (start == std::string::npos) return body;
  int depth = 0;
  for (size_t i = start + marker.size() - 1; i < body.size(); ++i) {
    if (body[i] == '{') ++depth;
    if (body[i] == '}' && --depth == 0) {
      return body.substr(0, start) + body.substr(i + 1);
    }
  }
  return body;
}

class Recorder {
 public:
  void Add(const std::string& name, int status, const std::string& body) {
    EXPECT_TRUE(ParseJson(body).ok())
        << name << " is not strict JSON: " << body;
    EXPECT_EQ(body.find_first_of("\t\n"), std::string::npos) << name;
    records_.push_back({name, status, CutTimings(body)});
  }

  void Serve(PreviewService* service, const std::string& name,
             const HttpRequest& request) {
    const HttpResponse response = service->Handle(request);
    Add(name, response.status, response.body);
  }

  const std::vector<Record>& records() const { return records_; }

 private:
  std::vector<Record> records_;
};

void ServePreviews(PreviewService* service, Recorder* out) {
  const std::vector<std::pair<std::string, std::string>> requests = {
      {"dp", R"("algorithm":"dp","k":2,"n":4)"},
      {"bf", R"("algorithm":"bf","k":2,"n":5)"},
      {"apriori_tight", R"("algorithm":"apriori","k":2,"n":5,"tight":1)"},
      {"apriori_diverse",
       R"("algorithm":"apriori","k":3,"n":6,"diverse":2)"},
      {"beam_tight", R"("algorithm":"beam","k":2,"n":5,"tight":2)"},
      {"beam_diverse", R"("algorithm":"beam","k":2,"n":4,"diverse":1)"},
      {"budget_tight",
       R"("budget":{"widthChars":60,"heightRows":20},)"
       R"("suggestedDistance":"tight")"},
      {"budget_diverse",
       R"("budget":{"widthChars":60,"heightRows":20},)"
       R"("suggestedDistance":"diverse","sample":{"rows":2})"},
      {"budget", R"("budget":{"widthChars":120,"heightRows":40})"},
      {"rows0", R"("k":2,"n":5,"sample":{"rows":0})"},
      {"rows2_random", R"("k":2,"n":6,"sample":{"rows":2,"seed":7})"},
      {"rows50_frequency",
       R"("k":2,"n":6,"sample":{"rows":50,"seed":7,"strategy":"frequency"})"},
      {"rows2_random_merge",
       R"("k":3,"n":6,"sample":{"rows":2,"mergeMultiway":true})"},
      {"rows50_frequency_merge",
       R"("k":3,"n":6,"sample":{"rows":50,"strategy":"frequency",)"
       R"("mergeMultiway":true})"},
      {"walk_entropy",
       R"("k":2,"n":4,"measures":{"key":"randomwalk","nonkey":"entropy"},)"
       R"("sample":{"rows":2})"},
  };
  for (const char* dataset : {"paper", "sample", "escape"}) {
    for (const auto& [label, members] : requests) {
      out->Serve(service, std::string("preview/") + dataset + "/" + label,
                 Request("POST", "/v1/preview",
                         std::string("{\"dataset\":\"") + dataset + "\"," +
                             members + "}"));
    }
    out->Serve(service, std::string("suggest/") + dataset,
               Request("POST", "/v1/suggest",
                       std::string("{\"dataset\":\"") + dataset +
                           R"(","budget":{"widthChars":90,"heightRows":28}})"));
  }
}

RequestTrace FixedTrace() {
  RequestTrace trace;
  trace.id = "id\"with\\escapes";
  trace.method = "POST";
  trace.path = "/v1/preview";
  trace.dataset = "paper";
  trace.outcome = "shed";
  trace.status = 503;
  trace.bytes_in = 120;
  trace.bytes_out = 18446744073709551615u;
  trace.read_seconds = 1.5e-7;
  trace.queue_seconds = 0.0005;
  trace.admission_seconds = 0.0;
  trace.handler_seconds = 12.3456789;
  trace.serialize_seconds = 1e-12;
  trace.flush_seconds = 1234.5;
  trace.total_seconds = 0.0118;
  trace.cache_hit = true;
  trace.prepare_seconds = 1.0 / 3.0;
  trace.discover_seconds = 0.009;
  trace.sample_seconds = 2e-5;
  trace.prepare_key_seconds = 0.1;
  trace.prepare_nonkey_seconds = 1e6;
  trace.prepare_distance_seconds = 123456.7;
  trace.prepare_candidate_sort_seconds = 2.5e-9;
  return trace;
}

std::vector<Record> ServeAll() {
  Recorder out;

  // A catalog of three in-memory graphs: no default dataset.
  std::vector<std::pair<std::string, Engine>> engines;
  engines.emplace_back("paper", Engine::FromGraph(BuildPaperExampleGraph()));
  auto sample = ReadNTriplesFile(EGP_SAMPLE_NT);
  EXPECT_TRUE(sample.ok()) << sample.status().ToString();
  engines.emplace_back("sample", Engine::FromGraph(std::move(sample).value()));
  engines.emplace_back("escape", Engine::FromGraph(EscapableGraph()));
  auto catalog = DatasetCatalog::FromEngines(std::move(engines));
  EXPECT_TRUE(catalog.ok());
  PreviewService service(std::move(catalog).value(), "golden");

  ServePreviews(&service, &out);
  out.Serve(&service, "datasets", Request("GET", "/v1/datasets"));
  out.Serve(&service, "healthz/ok", Request("GET", "/healthz"));

  out.Serve(&service, "error/bad_json",
            Request("POST", "/v1/preview", R"({"k":)"));
  out.Serve(&service, "error/suggest_bad_json",
            Request("POST", "/v1/suggest", "[1,"));
  out.Serve(&service, "error/unknown_field",
            Request("POST", "/v1/preview", R"({"a\"b\\c\td":1})"));
  out.Serve(&service, "error/suggest_unknown_field",
            Request("POST", "/v1/suggest", R"({"k":2})"));
  out.Serve(&service, "error/unknown_dataset",
            Request("POST", "/v1/preview", R"({"dataset":"nope"})"));
  out.Serve(&service, "error/suggest_unknown_dataset",
            Request("POST", "/v1/suggest", R"({"dataset":"nope"})"));
  out.Serve(&service, "error/dataset_required",
            Request("POST", "/v1/preview", "{}"));
  out.Serve(&service, "error/unknown_measure",
            Request("POST", "/v1/preview",
                    R"({"dataset":"paper","measures":{"key":"wat"}})"));
  out.Serve(&service, "error/dp_with_distance",
            Request("POST", "/v1/preview",
                    R"({"dataset":"paper","algorithm":"dp","tight":2})"));
  out.Serve(&service, "error/infeasible",
            Request("POST", "/v1/preview",
                    R"({"dataset":"paper","k":99,"n":99})"));
  out.Serve(&service, "error/unknown_endpoint", Request("GET", "/wat"));
  for (const char* path :
       {"/healthz", "/metrics", "/v1/debug/requests", "/v1/debug/locks",
        "/v1/debug/cache", "/v1/debug/profile", "/v1/datasets"}) {
    out.Serve(&service, std::string("error/405") + path,
              Request("POST", path, "{}"));
  }
  out.Serve(&service, "error/405/v1/preview", Request("GET", "/v1/preview"));
  out.Serve(&service, "error/405/v1/suggest", Request("GET", "/v1/suggest"));
  out.Serve(&service, "error/no_recorder",
            Request("GET", "/v1/debug/requests"));
  out.Serve(&service, "error/profiler_disabled",
            Request("GET", "/v1/debug/profile"));

  // The flight recorder's endpoint, over fixed traces only.
  FlightRecorder recorder(4);
  recorder.Record(FixedTrace());
  RequestTrace second = FixedTrace();
  second.id = "second";
  second.status = 200;
  second.outcome = "ok";
  recorder.Record(second);
  service.AttachFlightRecorder(&recorder);
  out.Serve(&service, "debug/requests", Request("GET", "/v1/debug/requests"));
  out.Serve(&service, "debug/requests/status",
            Request("GET", "/v1/debug/requests?status=503"));
  out.Serve(&service, "error/debug_min_ms",
            Request("GET", "/v1/debug/requests?min_ms=x"));
  out.Serve(&service, "error/debug_status",
            Request("GET", "/v1/debug/requests?status=99"));
  out.Serve(&service, "error/debug_limit",
            Request("GET", "/v1/debug/requests?limit=-1"));
  service.EnableProfiler(99);
  out.Serve(&service, "error/profile_seconds",
            Request("GET", "/v1/debug/profile?seconds=abc"));
  out.Serve(&service, "error/profile_hz",
            Request("GET", "/v1/debug/profile?hz=0"));

  // Live debug bodies vary with time and lock traffic: strict-parsed only.
  for (const char* path : {"/v1/debug/requests", "/v1/debug/locks",
                           "/v1/debug/cache"}) {
    const HttpResponse live = service.Handle(Request("GET", path));
    EXPECT_EQ(live.status, 200) << path;
    EXPECT_TRUE(ParseJson(live.body).ok()) << path << ": " << live.body;
  }

  // A cold request shed at admission: 503.
  {
    AdmissionOptions admission;
    admission.max_cold_inflight = 1;
    admission.max_cold_queue = 0;
    std::vector<std::pair<std::string, Engine>> one;
    one.emplace_back("paper", Engine::FromGraph(BuildPaperExampleGraph()));
    auto single = DatasetCatalog::FromEngines(std::move(one));
    EXPECT_TRUE(single.ok());
    PreviewService shedding(std::move(single).value(), "golden", admission);
    AdmissionController::Ticket slot = shedding.admission().AcquireCold();
    EXPECT_TRUE(slot.admitted());
    out.Serve(&shedding, "error/shed",
              Request("POST", "/v1/preview", R"({"k":2,"n":6})"));
  }

  // A degraded catalog: one dataset loads, one fails with an error text
  // that needs escaping. Paths are relative to the working directory.
  {
    const std::string copy = "golden_sample.nt";
    {
      std::ifstream in(EGP_SAMPLE_NT);
      std::ofstream copied(copy);
      copied << in.rdbuf();
    }
    auto degraded = DatasetCatalog::Load(
        {{"sample", copy}, {"broken", "no such \"dir\"\\\t/x.nt"}});
    EXPECT_TRUE(degraded.ok()) << degraded.status().ToString();
    PreviewService service(std::move(degraded).value(), "golden");
    out.Serve(&service, "healthz/degraded", Request("GET", "/healthz"));
    out.Serve(&service, "datasets/degraded", Request("GET", "/v1/datasets"));
    out.Serve(&service, "error/failed_dataset",
              Request("POST", "/v1/preview", R"({"dataset":"broken"})"));
    out.Serve(&service, "error/suggest_failed_dataset",
              Request("POST", "/v1/suggest", R"({"dataset":"broken"})"));
  }

  // The transport's error bodies.
  out.Add("transport/capacity", 503,
          JsonErrorBody(503, "server at connection capacity"));
  out.Add("transport/timeout", 408,
          JsonErrorBody(408, "timed out reading request"));
  out.Add("transport/handler", 500,
          JsonErrorBody(500, "handler error: bad \"quote\"\n\x01\x1f\x7f"));
  out.Add("transport/empty", 400, JsonErrorBody(400, ""));

  // The access log and flight-recorder line for one fixed trace.
  out.Add("access_log/warning", 0, RequestTraceToJson(FixedTrace(), "warning"));
  out.Add("access_log/no_level", 0, RequestTraceToJson(FixedTrace()));
  out.Add("access_log/default", 0, RequestTraceToJson(RequestTrace{}, "info"));
  return out.records();
}

std::string Format(const std::vector<Record>& records) {
  std::string text;
  for (const Record& record : records) {
    text += record.name + "\t" + std::to_string(record.status) + "\t" +
            record.body + "\n";
  }
  return text;
}

std::vector<Record> ReadGolden() {
  std::ifstream in(EGP_GOLDEN_FILE);
  EXPECT_TRUE(in.good()) << "cannot read " << EGP_GOLDEN_FILE;
  std::vector<Record> records;
  std::string line;
  while (std::getline(in, line)) {
    const size_t a = line.find('\t');
    const size_t b = line.find('\t', a + 1);
    if (a == std::string::npos || b == std::string::npos) {
      ADD_FAILURE() << "malformed golden line: " << line;
      continue;
    }
    records.push_back({line.substr(0, a),
                       std::stoi(line.substr(a + 1, b - a - 1)),
                       line.substr(b + 1)});
  }
  return records;
}

TEST(ApiGoldenTest, BodiesMatchTheGoldenFileByteForByte) {
  const std::vector<Record> actual = ServeAll();
  const std::vector<Record> golden = ReadGolden();
  for (const Record& record : golden) {
    EXPECT_TRUE(ParseJson(record.body).ok())
        << "golden " << record.name << " is not strict JSON";
  }
  bool same = actual.size() == golden.size();
  EXPECT_EQ(actual.size(), golden.size());
  for (size_t i = 0; i < std::min(actual.size(), golden.size()); ++i) {
    const Record& got = actual[i];
    const Record& want = golden[i];
    if (got.name == want.name && got.status == want.status &&
        got.body == want.body) {
      continue;
    }
    same = false;
    size_t at = 0;
    while (at < got.body.size() && at < want.body.size() &&
           got.body[at] == want.body[at]) {
      ++at;
    }
    ADD_FAILURE() << "record " << i << " (" << want.name << ") differs"
                  << (got.name != want.name ? " in name: got " + got.name
                                            : std::string())
                  << (got.status != want.status
                          ? " in status: got " + std::to_string(got.status)
                          : std::string())
                  << " at byte " << at << "\n  want: "
                  << want.body.substr(at, 80)
                  << "\n  got:  " << got.body.substr(at, 80);
  }
  if (!same) {
    std::ofstream("api_golden.actual.tsv") << Format(actual);
    ADD_FAILURE() << "wrote the served bodies to api_golden.actual.tsv";
  }
}

}  // namespace
}  // namespace egp
