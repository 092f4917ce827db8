// egp_server: the HTTP preview-serving daemon.
//
//   egp_server --dataset name=path [--dataset name2=path2 ...]
//              [--host H] [--port P] [--workers N] [--engine-threads N]
//              [--load-threads N] [--no-mmap]
//              [--max-connections N] [--read-timeout-ms N]
//              [--write-timeout-ms N] [--max-body-bytes N]
//              [--max-requests-per-connection N] [--cache-capacity N]
//              [--max-cold-builds N] [--max-cold-queue N]
//              [--cold-queue-timeout-ms N] [--retry-after-s N]
//              [--strict-load] [--faults SCHEDULE]
//              [--log-level LEVEL] [--access-log PATH|stderr]
//              [--slow-request-ms N] [--flight-recorder N]
//              [--profiler] [--profile-hz N]
//
// Serves the JSON API of src/server/api.h (POST /v1/preview, POST
// /v1/suggest, GET /v1/datasets, GET /healthz, GET /metrics, GET
// /v1/debug/requests, /v1/debug/locks, /v1/debug/cache, and — with
// --profiler — /v1/debug/profile) over the listener + worker-pool
// transport of src/server/http_server.h.
//
// --port 0 binds an ephemeral port; the chosen one is printed on the
// "listening" line (machine-parsed by the integration smoke test).
// SIGINT/SIGTERM trigger a graceful drain: stop accepting, finish
// in-flight requests, exit 0.
//
// Exit codes: 0 clean shutdown, 1 runtime failure, 2 bad usage.
#include <csignal>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "common/posix.h"
#include "common/profiler.h"
#include "server/access_log.h"
#include "server/api.h"
#include "server/catalog.h"
#include "server/flight_recorder.h"
#include "server/http_server.h"

#ifndef EGP_VERSION_STRING
#define EGP_VERSION_STRING "unknown"
#endif

namespace {

using namespace egp;

const char kUsage[] =
    "usage: egp_server --dataset name=path [--dataset name2=path2 ...]\n"
    "                  [--host H] [--port P] [--workers N]\n"
    "                  [--engine-threads N] [--load-threads N] [--no-mmap]\n"
    "                  [--max-connections N]\n"
    "                  [--read-timeout-ms N] [--write-timeout-ms N]\n"
    "                  [--max-body-bytes N]\n"
    "                  [--max-requests-per-connection N]\n"
    "                  [--cache-capacity N]\n"
    "                  [--max-cold-builds N] [--max-cold-queue N]\n"
    "                  [--cold-queue-timeout-ms N] [--retry-after-s N]\n"
    "                  [--strict-load] [--faults SCHEDULE]\n"
    "                  [--log-level LEVEL] [--access-log PATH|stderr]\n"
    "                  [--slow-request-ms N] [--flight-recorder N]\n"
    "                  [--profiler] [--profile-hz N]\n"
    "\n"
    "  --dataset name=path   load an entity graph (.egps snapshot, .nt,\n"
    "                        or .egt — detected by content) as 'name';\n"
    "                        repeat for a multi-dataset catalog\n"
    "  --load-threads N      concurrent dataset loads at startup\n"
    "                        (default: one per dataset up to hardware)\n"
    "  --no-mmap             open .egps snapshots with a plain read\n"
    "                        instead of the zero-copy mmap path\n"
    "  --host H              bind address (default 127.0.0.1)\n"
    "  --port P              TCP port; 0 picks an ephemeral one\n"
    "                        (default 8080)\n"
    "  --workers N           handler threads, off the event loop\n"
    "                        (default max(2, hardware); 1 = one\n"
    "                        handler at a time)\n"
    "  --engine-threads N    threads per PreparedSchema build (default\n"
    "                        hardware; 1 = serial)\n"
    "  --max-connections N   in-flight connection cap; beyond it new\n"
    "                        connections get 503 (default 256)\n"
    "  --read-timeout-ms N   per-request read stall budget (default\n"
    "                        10000)\n"
    "  --write-timeout-ms N  per-response write stall budget (default\n"
    "                        10000)\n"
    "  --max-body-bytes N    request body cap (default 4194304)\n"
    "  --max-requests-per-connection N\n"
    "                        keep-alive requests before close\n"
    "                        (default 1000)\n"
    "  --cache-capacity N    prepared-schema cache entries per dataset\n"
    "                        (default 16; 0 = unbounded)\n"
    "  --max-cold-builds N   concurrent cold /v1/preview requests\n"
    "                        (PreparedSchema builds); beyond it they\n"
    "                        queue (default 2; 0 = unlimited)\n"
    "  --max-cold-queue N    cold requests allowed to wait for a build\n"
    "                        slot; beyond it they are shed with 503\n"
    "                        (default 16)\n"
    "  --cold-queue-timeout-ms N\n"
    "                        max wait for a build slot before a 503\n"
    "                        (default 2000)\n"
    "  --retry-after-s N     Retry-After stamped on shed 503s\n"
    "                        (default 1)\n"
    "  --strict-load         exit 1 if any dataset fails to load (the\n"
    "                        default serves the healthy ones and reports\n"
    "                        'degraded' on /healthz)\n"
    "  --faults SCHEDULE     arm deterministic fault injection (see\n"
    "                        src/common/fault.h for the grammar); the\n"
    "                        EGP_FAULTS env var does the same, the flag\n"
    "                        wins\n"
    "  --log-level LEVEL     minimum log level: debug, info, warning, or\n"
    "                        error (default info); the EGP_LOG_LEVEL env\n"
    "                        var does the same, the flag wins\n"
    "  --access-log DEST     write one JSON line per completed request\n"
    "                        to DEST (a file path, appended, or the\n"
    "                        literal 'stderr'); off unless given\n"
    "  --slow-request-ms N   requests at or above N ms log at warning\n"
    "                        level instead of info (default: never)\n"
    "  --flight-recorder N   retain the last N request traces for GET\n"
    "                        /v1/debug/requests (default 256)\n"
    "  --profiler            arm GET /v1/debug/profile (the sampling CPU\n"
    "                        profiler); off by default — the endpoint\n"
    "                        then answers 503\n"
    "  --profile-hz N        sampling rate when /v1/debug/profile omits\n"
    "                        ?hz= (default 99)\n"
    "\n"
    "endpoints: POST /v1/preview, POST /v1/suggest, GET /v1/datasets,\n"
    "           GET /healthz, GET /metrics, GET /v1/debug/requests,\n"
    "           GET /v1/debug/locks, GET /v1/debug/cache,\n"
    "           GET /v1/debug/profile\n";

int UsageError(const std::string& message) {
  std::fprintf(stderr, "egp_server: %s\n%s", message.c_str(), kUsage);
  return 2;
}

/// The write end of the server's shutdown pipe, for the signal handler.
/// Plain volatile int: set once before handlers are installed.
volatile sig_atomic_t g_shutdown_fd = -1;

void OnTerminateSignal(int /*signum*/) {
  // write(2) is async-signal-safe; everything else happens on the main
  // thread after Wait() returns.
  if (g_shutdown_fd >= 0) {
    const char byte = 'q';
    // No fault site: this must stay async-signal-safe and reliable.
    [[maybe_unused]] ssize_t n = PosixWrite(g_shutdown_fd, &byte, 1);
  }
}

/// Strict flag scan. Every flag takes a value; --dataset repeats.
struct ServerArgs {
  std::vector<DatasetSpec> datasets;
  HttpServerOptions http;
  CatalogLoadOptions catalog;
  AdmissionOptions admission;
  std::string faults;
  bool faults_given = false;
  LogLevel log_level = LogLevel::kInfo;
  bool log_level_given = false;
  AccessLogOptions access_log;
  bool access_log_given = false;
  size_t flight_recorder = 256;
  bool profiler = false;
  int profile_hz = 99;
  bool ok = false;
  int exit_code = 0;
};

ServerArgs ParseArgs(int argc, char** argv) {
  ServerArgs args;
  args.http.port = 8080;
  long cache_capacity = 16;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      args.exit_code = 0;
      return args;
    }
    if (arg == "--version") {
      std::printf("egp_server %s\n", EGP_VERSION_STRING);
      args.exit_code = 0;
      return args;
    }
    if (arg.rfind("--", 0) != 0) {
      args.exit_code = UsageError("unexpected argument '" + arg + "'");
      return args;
    }
    if (arg == "--no-mmap") {
      args.catalog.snapshot.mode = SnapshotOpenOptions::Mode::kStream;
      continue;
    }
    if (arg == "--strict-load") {
      args.catalog.allow_partial = false;
      continue;
    }
    if (arg == "--profiler") {
      args.profiler = true;
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    const size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else {
      if (i + 1 >= argc) {
        args.exit_code = UsageError("flag '--" + name + "' needs a value");
        return args;
      }
      value = argv[++i];
    }

    auto parse_long = [&](long min, long max, long* out) -> bool {
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed < min ||
          parsed > max) {
        args.exit_code = UsageError(
            "flag '--" + name + "' expects an integer in [" +
            std::to_string(min) + ", " + std::to_string(max) + "], got '" +
            value + "'");
        return false;
      }
      *out = parsed;
      return true;
    };

    long parsed = 0;
    if (name == "dataset") {
      auto spec = ParseDatasetSpec(value);
      if (!spec.ok()) {
        args.exit_code = UsageError(spec.status().message());
        return args;
      }
      args.datasets.push_back(std::move(spec).value());
    } else if (name == "host") {
      args.http.host = value;
    } else if (name == "port") {
      if (!parse_long(0, 65535, &parsed)) return args;
      args.http.port = static_cast<uint16_t>(parsed);
    } else if (name == "workers") {
      if (!parse_long(1, kMaxThreads, &parsed)) return args;
      args.http.workers = static_cast<unsigned>(parsed);
    } else if (name == "engine-threads") {
      if (!parse_long(1, kMaxThreads, &parsed)) return args;
      args.catalog.engine.threads = static_cast<unsigned>(parsed);
    } else if (name == "load-threads") {
      if (!parse_long(1, kMaxThreads, &parsed)) return args;
      args.catalog.load_threads = static_cast<unsigned>(parsed);
    } else if (name == "max-connections") {
      if (!parse_long(1, 1 << 20, &parsed)) return args;
      args.http.max_connections = static_cast<size_t>(parsed);
    } else if (name == "read-timeout-ms") {
      if (!parse_long(1, 3600 * 1000, &parsed)) return args;
      args.http.read_timeout_ms = static_cast<int>(parsed);
    } else if (name == "write-timeout-ms") {
      if (!parse_long(1, 3600 * 1000, &parsed)) return args;
      args.http.write_timeout_ms = static_cast<int>(parsed);
    } else if (name == "max-body-bytes") {
      if (!parse_long(1, 1L << 30, &parsed)) return args;
      args.http.limits.max_body_bytes = static_cast<size_t>(parsed);
    } else if (name == "max-requests-per-connection") {
      if (!parse_long(1, 1L << 30, &parsed)) return args;
      args.http.max_requests_per_connection = static_cast<size_t>(parsed);
    } else if (name == "cache-capacity") {
      if (!parse_long(0, 1 << 20, &cache_capacity)) return args;
    } else if (name == "max-cold-builds") {
      if (!parse_long(0, 1 << 20, &parsed)) return args;
      args.admission.max_cold_inflight = static_cast<size_t>(parsed);
    } else if (name == "max-cold-queue") {
      if (!parse_long(0, 1 << 20, &parsed)) return args;
      args.admission.max_cold_queue = static_cast<size_t>(parsed);
    } else if (name == "cold-queue-timeout-ms") {
      if (!parse_long(0, 3600 * 1000, &parsed)) return args;
      args.admission.queue_timeout_ms = static_cast<int>(parsed);
    } else if (name == "retry-after-s") {
      if (!parse_long(0, 86400, &parsed)) return args;
      args.admission.retry_after_seconds = static_cast<int>(parsed);
    } else if (name == "faults") {
      args.faults = value;
      args.faults_given = true;
    } else if (name == "log-level") {
      if (!ParseLogLevel(value, &args.log_level)) {
        args.exit_code = UsageError(
            "flag '--log-level' expects debug, info, warning, or error, "
            "got '" + value + "'");
        return args;
      }
      args.log_level_given = true;
    } else if (name == "access-log") {
      if (value.empty()) {
        args.exit_code = UsageError(
            "flag '--access-log' expects a path or 'stderr'");
        return args;
      }
      args.access_log.path = value;
      args.access_log_given = true;
    } else if (name == "slow-request-ms") {
      if (!parse_long(0, 3600 * 1000, &parsed)) return args;
      args.access_log.slow_request_ms = static_cast<double>(parsed);
    } else if (name == "flight-recorder") {
      if (!parse_long(1, 1 << 20, &parsed)) return args;
      args.flight_recorder = static_cast<size_t>(parsed);
    } else if (name == "profile-hz") {
      if (!parse_long(Profiler::kMinHz, Profiler::kMaxHz, &parsed)) {
        return args;
      }
      args.profile_hz = static_cast<int>(parsed);
    } else {
      args.exit_code = UsageError("unknown flag '--" + name + "'");
      return args;
    }
  }

  if (args.datasets.empty()) {
    args.exit_code =
        UsageError("at least one --dataset name=path is required");
    return args;
  }
  args.catalog.engine.prepared_cache_capacity =
      static_cast<size_t>(cache_capacity);
  args.ok = true;
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  // EGP_LOG_LEVEL applies first; an explicit --log-level below wins.
  if (!InitLogLevelFromEnv()) {
    std::fprintf(stderr,
                 "egp_server: ignoring invalid EGP_LOG_LEVEL (expected "
                 "debug, info, warning, or error)\n");
  }
  ServerArgs args = ParseArgs(argc, argv);
  if (!args.ok) return args.exit_code;
  if (args.log_level_given) SetLogLevel(args.log_level);

  // --faults wins over EGP_FAULTS so a test harness env can be
  // overridden per invocation.
  const Status faults = args.faults_given ? ConfigureFaults(args.faults)
                                          : ConfigureFaultsFromEnv();
  if (!faults.ok()) {
    std::fprintf(stderr, "egp_server: %s\n", faults.ToString().c_str());
    return 2;
  }

  auto catalog = DatasetCatalog::Load(args.datasets, args.catalog);
  if (!catalog.ok()) {
    std::fprintf(stderr, "egp_server: %s\n",
                 catalog.status().ToString().c_str());
    return 1;
  }
  for (const DatasetCatalog::Info& info : catalog->infos()) {
    std::fprintf(stderr,
                 "loaded dataset '%s' from %s (%s) in %.1f ms: %zu "
                 "entities, %zu relationships, %zu types\n",
                 info.name.c_str(), info.path.c_str(), info.storage.c_str(),
                 info.load_seconds * 1e3, info.entities, info.relationships,
                 info.entity_types);
  }
  for (const DatasetCatalog::FailedDataset& failed : catalog->failed()) {
    std::fprintf(stderr,
                 "DEGRADED: dataset '%s' from %s failed to load: %s\n",
                 failed.name.c_str(), failed.path.c_str(),
                 failed.error.c_str());
  }

  PreviewService service(std::move(catalog).value(), EGP_VERSION_STRING,
                         args.admission);
  if (args.profiler) {
    // The main thread mostly sits in Wait(), but register it anyway so
    // startup work and signal handling show up when profiled.
    Profiler::RegisterCurrentThread();
    service.EnableProfiler(args.profile_hz);
  }

  // Observability wiring: every finished trace lands in the flight
  // recorder; the access log is opt-in. Both outlive the server (the
  // trace sink runs on the loop thread until the drain completes).
  FlightRecorder recorder(args.flight_recorder);
  std::unique_ptr<AccessLog> access_log;
  if (args.access_log_given) {
    auto opened = AccessLog::Open(args.access_log);
    if (!opened.ok()) {
      std::fprintf(stderr, "egp_server: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    access_log = std::move(opened).value();
  }
  args.http.trace_sink = [&recorder,
                          log = access_log.get()](const RequestTrace& trace) {
    recorder.Record(trace);
    if (log != nullptr) log->Write(trace);
  };

  auto server = HttpServer::Start(
      [&service](const HttpRequest& request) {
        return service.Handle(request);
      },
      args.http);
  if (!server.ok()) {
    std::fprintf(stderr, "egp_server: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  service.AttachServer(server->get());
  service.AttachFlightRecorder(&recorder);

  g_shutdown_fd = (*server)->shutdown_fd();
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnTerminateSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  // Machine-parsed by tests ("listening on HOST:PORT"); keep the shape.
  std::printf("egp_server %s listening on %s:%u (%zu dataset%s)\n",
              EGP_VERSION_STRING, (*server)->host().c_str(),
              static_cast<unsigned>((*server)->port()),
              service.catalog().size(),
              service.catalog().size() == 1 ? "" : "s");
  std::fflush(stdout);

  (*server)->Wait();
  const HttpServerStats stats = (*server)->stats();
  std::printf("drained: %llu connections accepted, %llu requests served\n",
              static_cast<unsigned long long>(stats.accepted_connections),
              static_cast<unsigned long long>(stats.handled_requests));
  return 0;
}
