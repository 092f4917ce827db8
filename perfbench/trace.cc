// perfbench_trace: the serving benchmark's traced run. In one process it
// opens the workload's snapshots, builds the catalog, the PreviewService
// and an HttpServer on a loopback port, and replays the "replay" entries
// of a stream file one at a time, calling each layer's public function
// inside a span:
//
//   store.open    OpenSnapshot, three times per dataset
//   catalog.load  DatasetCatalog::Load, three times
//   request       one request through the layers, called one by one:
//     decode        ParseJson + ParsePreviewRequestJson
//     engine        the Engine's work, layer by layer:
//       prepare       Engine::Prepared (a fresh build on cold requests)
//       discover      DynamicProgramming / Apriori / BeamSearch Discover
//       sample        MaterializePreview
//     encode        PreviewResponseToJson
//     http.frame    SerializeResponse
//   engine.call   Engine::Preview, the oracle for the layer-by-layer path
//   transport     HttpClient round trip to the in-process server
//     handler       PreviewService::Handle, on the server's worker thread
//
// Spans live in memory and are written to --out when the replay ends,
// together with counts taken at the same boundaries:
//
//   S <id> <parent> <rid> <name> <label> <start_ns> <end_ns>
//   C <rid> <name> <value>
//   X <key> <value>              (run-level facts: fidelity, overhead)
//
// Each hot request is first served once untimed, so the timed paths
// compare at the same cache state. Layer fidelity: the layer-by-layer
// body must equal the Engine::Preview body, and the body the server sent
// must equal both (timings and cacheHit aside); every disagreement is
// counted as a mismatch.
//
// After the replay, the first hot replay entries run again in alternating
// rounds with spans off and on (ABBA order), which prices the tracing.
//
//   perfbench_trace --dataset name=path [...] --stream FILE --seconds S
//                   --out FILE
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/strings.h"
#include "core/apriori.h"
#include "core/beam_search.h"
#include "core/dynamic_programming.h"
#include "io/json_parser.h"
#include "perfbench/replay.h"
#include "server/api.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "store/snapshot_reader.h"

namespace perfbench {
namespace {

constexpr int kOverheadRequests = 64;

struct Span {
  int parent = -1;
  int64_t rid = -1;
  std::string name;
  std::string label;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct Count {
  int64_t rid = -1;
  std::string name;
  double value = 0;
};

/// In-memory span and count store. A disabled recorder keeps nothing and
/// reads no clock, which is the untraced side of the overhead rounds.
class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled) {}

  int Begin(const char* name, int64_t rid, int parent,
            std::string label = "-") {
    if (!enabled_) return -1;
    egp::MutexLock lock(&mu_);
    spans_.push_back(Span{parent, rid, name, std::move(label), NowNs(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int id) {
    if (id < 0) return;
    const int64_t now = NowNs();
    egp::MutexLock lock(&mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }

  void Add(int64_t rid, const char* name, double value) {
    if (!enabled_) return;
    egp::MutexLock lock(&mu_);
    counts_.push_back(Count{rid, name, value});
  }

  void Write(std::FILE* out) {
    egp::MutexLock lock(&mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "S %zu %d %lld %s %s %lld %lld\n", i, s.parent,
                   static_cast<long long>(s.rid), s.name.c_str(),
                   s.label.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    for (const Count& c : counts_) {
      std::fprintf(out, "C %lld %s %.17g\n", static_cast<long long>(c.rid),
                   c.name.c_str(), c.value);
    }
  }

 private:
  const bool enabled_;
  egp::Mutex mu_;
  std::vector<Span> spans_ EGP_GUARDED_BY(mu_);
  std::vector<Count> counts_ EGP_GUARDED_BY(mu_);
};

/// A span open for the lifetime of the scope.
class Scope {
 public:
  Scope(Recorder* recorder, const char* name, int64_t rid, int parent,
        std::string label = "-")
      : recorder_(recorder),
        id_(recorder->Begin(name, rid, parent, std::move(label))) {}
  ~Scope() { recorder_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }

 private:
  Recorder* recorder_;
  int id_;
};

/// What the in-process server's handler needs to attach its span to the
/// client's transport span. The replay is sequential, so one slot works.
struct HandlerContext {
  std::atomic<Recorder*> recorder{nullptr};
  std::atomic<int64_t> rid{-1};
  std::atomic<int> parent{-1};
};

struct Tally {
  size_t replayed = 0;
  size_t fidelity_mismatches = 0;
  size_t server_mismatches = 0;
};

std::string AlgorithmLabel(const std::string& algorithm,
                           const egp::DistanceConstraint& distance) {
  if (distance.mode == egp::DistanceMode::kTight) return algorithm + "_tight";
  if (distance.mode == egp::DistanceMode::kDiverse) {
    return algorithm + "_diverse";
  }
  return algorithm;
}

/// One replayed request: the layer-by-layer path, the Engine::Preview
/// oracle, then the same request over the transport.
egp::Status ReplayOne(const egp::DatasetCatalog& catalog,
                      const StreamEntry& entry, int64_t rid,
                      Recorder* recorder, HandlerContext* context,
                      egp::HttpClient* client, Tally* tally) {
  if (entry.cls == "hot") {
    // Serve a hot request once untimed, so the three timed paths below
    // all find the rows it samples equally warm in the CPU caches. A
    // cold request skips this: its first timed call is the build.
    const auto warm = ExpectedBody(catalog, entry.body);
    if (!warm.ok()) return warm.status();
  }
  std::string layered_body;
  egp::ParsedPreviewRequest parsed;
  const egp::Engine* engine = nullptr;
  {
    Scope request(recorder, "request", rid, -1, entry.cls);
    {
      Scope decode(recorder, "decode", rid, request.id());
      egp::JsonValue doc;
      EGP_ASSIGN_OR_RETURN(doc, egp::ParseJson(entry.body));
      EGP_ASSIGN_OR_RETURN(parsed, egp::ParsePreviewRequestJson(doc));
    }
    engine = catalog.Find(parsed.dataset);
    if (engine == nullptr) {
      return egp::Status::NotFound("no dataset '" + parsed.dataset + "'");
    }
    const egp::PreviewRequest& req = parsed.request;
    egp::PreviewResponse layered;
    layered.size = req.size;
    layered.distance = req.distance;
    {
      Scope engine_span(recorder, "engine", rid, request.id());
      {
        Scope prepare(recorder, "prepare", rid, engine_span.id(), entry.cls);
        const int64_t cpu_start = ProcessCpuNs();
        EGP_ASSIGN_OR_RETURN(layered.prepared, engine->Prepared(req.measures));
        recorder->Add(rid, "prepare.cpu_ns",
                      static_cast<double>(ProcessCpuNs() - cpu_start));
      }
      EGP_ASSIGN_OR_RETURN(layered.algorithm,
                           egp::CanonicalAlgorithmName(req.algorithm));
      if (layered.algorithm == "auto") {
        layered.algorithm =
            req.distance.mode == egp::DistanceMode::kNone ? "dp" : "apriori";
      }
      const egp::PreparedSchema& prepared = *layered.prepared;
      egp::Result<egp::Preview> preview = egp::Status::Internal("unset");
      {
        Scope discover(recorder, "discover", rid, engine_span.id(),
                       AlgorithmLabel(layered.algorithm, req.distance));
        if (layered.algorithm == "dp") {
          preview = egp::DynamicProgrammingDiscover(prepared, req.size);
        } else if (layered.algorithm == "apriori") {
          preview = egp::AprioriDiscover(prepared, req.size, req.distance,
                                         egp::AprioriOptions{},
                                         &layered.stats);
        } else if (layered.algorithm == "beam") {
          preview = egp::BeamSearchDiscover(prepared, req.size, req.distance,
                                            egp::BeamSearchOptions{},
                                            &layered.stats);
        } else {
          return egp::Status::InvalidArgument(
              "the benchmark replays dp, apriori and beam requests only");
        }
      }
      if (!preview.ok()) return preview.status();
      recorder->Add(rid, "discover.enumerated",
                    static_cast<double>(layered.stats.subsets_enumerated));
      recorder->Add(rid, "discover.scored",
                    static_cast<double>(layered.stats.subsets_scored));
      layered.preview = std::move(preview).value();
      layered.score = layered.preview.Score(prepared);
      if (req.sample_rows > 0) {
        egp::TupleSamplerOptions sampler;
        sampler.rows_per_table = req.sample_rows;
        sampler.seed = req.sample_seed;
        sampler.strategy = req.sample_strategy;
        sampler.merge_multiway_columns = req.merge_multiway_columns;
        {
          Scope sample(recorder, "sample", rid, engine_span.id());
          EGP_ASSIGN_OR_RETURN(
              layered.materialized,
              egp::MaterializePreview(*engine->graph(), prepared,
                                      layered.preview, sampler));
        }
        size_t cells = 0;
        for (const auto& table : layered.materialized.tables) {
          for (const auto& row : table.rows) cells += row.cells.size();
        }
        recorder->Add(rid, "sample.cells", static_cast<double>(cells));
      }
    }
    {
      Scope encode(recorder, "encode", rid, request.id());
      layered_body = egp::PreviewResponseToJson(*engine, parsed.dataset,
                                                layered, req.sample_rows > 0);
    }
    recorder->Add(rid, "encode.bytes", static_cast<double>(layered_body.size()));
    // The server builds its response body in place, so the body is moved
    // in, not copied inside the span.
    egp::HttpResponse response;
    response.body = std::move(layered_body);
    {
      Scope frame(recorder, "http.frame", rid, request.id());
      const std::string wire = egp::SerializeResponse(response, true);
      recorder->Add(rid, "http.frame.bytes", static_cast<double>(wire.size()));
    }
    layered_body = std::move(response.body);
  }

  // engine.call times Engine::Preview alone; the oracle body is encoded
  // outside it, so encode time counts once, in the encode span above.
  egp::PreviewResponse served;
  {
    Scope call(recorder, "engine.call", rid, -1, entry.cls);
    EGP_ASSIGN_OR_RETURN(served, engine->Preview(parsed.request));
  }
  const std::string oracle_body = egp::PreviewResponseToJson(
      *engine, parsed.dataset, served, parsed.request.sample_rows > 0);
  bool same = false;
  EGP_ASSIGN_OR_RETURN(same, SameBody(layered_body, oracle_body));
  if (!same) ++tally->fidelity_mismatches;

  egp::Result<egp::HttpClientResponse> response =
      egp::Status::Internal("unset");
  {
    Scope transport(recorder, "transport", rid, -1, entry.cls);
    context->rid.store(rid);
    context->parent.store(transport.id());
    response = client->Post("/v1/preview", entry.body);
  }
  if (!response.ok()) return response.status();
  if (response->status != 200) {
    return egp::Status::Internal("server answered " +
                                 std::to_string(response->status) + ": " +
                                 response->body.substr(0, 200));
  }
  EGP_ASSIGN_OR_RETURN(same, SameBody(response->body, oracle_body));
  if (!same) ++tally->server_mismatches;
  ++tally->replayed;
  return egp::Status::OK();
}

struct Options {
  std::vector<std::string> datasets;
  std::string stream;
  double seconds = 5;
  std::string out;
};

int Fail(const egp::Status& status) {
  std::fprintf(stderr, "perfbench_trace: %s\n", status.ToString().c_str());
  return 1;
}

int Run(const Options& options) {
  const auto stream = ReadStream(options.stream);
  if (!stream.ok()) return Fail(stream.status());
  const auto specs = ParseSpecs(options.datasets);
  if (!specs.ok()) return Fail(specs.status());
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);

  Recorder recorder(true);
  for (const egp::DatasetSpec& spec : *specs) {
    for (int rep = 0; rep < 3; ++rep) {
      Scope open(&recorder, "store.open", -1, -1, spec.name);
      const auto stored = egp::OpenSnapshot(spec.path);
      if (!stored.ok()) return Fail(stored.status());
    }
  }
  egp::Result<egp::DatasetCatalog> catalog = egp::Status::Internal("unset");
  for (int rep = 0; rep < 3; ++rep) {
    Scope load(&recorder, "catalog.load", -1, -1);
    catalog = egp::DatasetCatalog::Load(*specs);
    if (!catalog.ok()) return Fail(catalog.status());
  }

  egp::PreviewService service(std::move(catalog).value(), "perfbench");
  // Every recorder the server's handler may write to outlives the server.
  Recorder off(false);
  Recorder scratch(true);
  HandlerContext context;
  context.recorder.store(&off);
  auto server = egp::HttpServer::Start(
      [&service, &context](const egp::HttpRequest& request) {
        Recorder* spans = context.recorder.load();
        Scope handler(spans, "handler", context.rid.load(),
                      context.parent.load());
        return service.Handle(request);
      },
      egp::HttpServerOptions{});
  if (!server.ok()) return Fail(server.status());
  service.AttachServer(server->get());
  egp::HttpClient client("127.0.0.1", (*server)->port(), 60'000);

  // Warm the measure configurations the stream treats as hot, untraced.
  Tally warm;
  for (const StreamEntry& entry : Phase(*stream, "warmup")) {
    const egp::Status status = ReplayOne(service.catalog(), entry, -1, &off,
                                         &context, &client, &warm);
    if (!status.ok()) return Fail(status);
  }

  // The traced replay gets about three quarters of the time; the overhead
  // rounds the rest.
  const std::vector<StreamEntry> replay = Phase(*stream, "replay");
  const int64_t replay_end = NowNs() + (deadline - NowNs()) * 3 / 4;
  context.recorder.store(&recorder);
  Tally tally;
  for (size_t i = 0; i < replay.size() && NowNs() < replay_end; ++i) {
    const egp::Status status =
        ReplayOne(service.catalog(), replay[i], static_cast<int64_t>(i),
                  &recorder, &context, &client, &tally);
    if (!status.ok()) return Fail(status);
  }

  // Tracing overhead: the same hot requests with spans off (A) and on
  // (B), in ABBA rounds so drift on the box hits both sides alike.
  std::vector<StreamEntry> hot;
  for (const StreamEntry& entry : replay) {
    if (entry.cls == "hot" && hot.size() < kOverheadRequests) {
      hot.push_back(entry);
    }
  }
  int64_t traced_ns = 0;
  int64_t untraced_ns = 0;
  size_t overhead_requests = 0;
  Tally overhead;
  for (int round = 0; !hot.empty() && NowNs() < deadline; ++round) {
    for (int half = 0; half < 2; ++half) {
      const bool traced = (round + half) % 2 == 1;
      Recorder* spans = traced ? &scratch : &off;
      context.recorder.store(spans);
      const int64_t start = NowNs();
      for (const StreamEntry& entry : hot) {
        const egp::Status status = ReplayOne(service.catalog(), entry, 0,
                                             spans, &context, &client,
                                             &overhead);
        if (!status.ok()) return Fail(status);
      }
      (traced ? traced_ns : untraced_ns) += NowNs() - start;
    }
    overhead_requests += hot.size();
  }
  context.recorder.store(&off);
  (*server)->Shutdown();
  (*server)->Wait();

  std::FILE* out = std::fopen(options.out.c_str(), "w");
  if (out == nullptr) {
    return Fail(egp::Status::IOError("cannot write " + options.out));
  }
  recorder.Write(out);
  std::fprintf(out, "X replayed %zu\n", tally.replayed);
  std::fprintf(out, "X fidelity_mismatches %zu\n",
               tally.fidelity_mismatches + overhead.fidelity_mismatches);
  std::fprintf(out, "X server_mismatches %zu\n",
               tally.server_mismatches + overhead.server_mismatches);
  std::fprintf(out, "X overhead_requests %zu\n", overhead_requests);
  std::fprintf(out, "X traced_ns %lld\n", static_cast<long long>(traced_ns));
  std::fprintf(out, "X untraced_ns %lld\n",
               static_cast<long long>(untraced_ns));
  return std::fclose(out) == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench_trace: %s needs a value\n", argv[i]);
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--dataset") {
      options.datasets.push_back(value);
    } else if (arg == "--stream") {
      options.stream = value;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--out") {
      options.out = value;
    } else {
      std::fprintf(stderr, "perfbench_trace: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (options.stream.empty() || options.out.empty() || options.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench_trace --dataset name=path [...] --stream "
                 "FILE --seconds S --out FILE\n");
    return 2;
  }
  return perfbench::Run(options);
}
