// egp_loadgen: concurrent load generator for egp_server.
//
//   egp_loadgen [--host H] [--port P] [--connections N] [--requests M]
//               [--target /v1/preview] [--method POST]
//               [--body JSON | --body-file PATH] [--no-keepalive]
//               [--timeout-ms N] [--json]
//               [--slow-connections N] [--trickle-bytes B]
//               [--trickle-interval-ms I] [--abort-connections N]
//
// Opens N concurrent connections; each issues M requests back-to-back
// (keep-alive by default) and records per-request latency. Prints
// achieved throughput and the latency distribution; --json emits a
// machine-readable document instead.
//
// Slow-client mix: the first --slow-connections connections (default:
// all, when --trickle-bytes is given) send each request in B-byte
// chunks (--trickle-bytes, default 32 when only --slow-connections is
// given) with I ms of sleep between chunks (--trickle-interval-ms) —
// the misbehaving-client shape that must cost the server an idle
// connection, not a pinned worker. Besides the all-request figures, the
// well-behaved and the slow connections then get a latency summary
// each, so the slow clients cannot hide the well-behaved tail. The
// point of the flag in CI is that the run still exits 0 (every request
// completes, none 408s) while well-behaved connections stay fast.
//
// Rude-client mix: --abort-connections N adds N threads that each loop
// --requests times connecting, sending a *partial* request (complete
// headers, a Content-Length that never arrives), and slamming the
// connection shut with SO_LINGER(0) — an RST mid-request. The server
// must absorb these without crashing, leaking descriptors, or corrupting
// its stats; aborts are reported separately and never count as failures.
//
// The default body is a small POST /v1/preview request against the
// catalog's default dataset — point --body/--body-file elsewhere for
// other workloads.
//
// Exit codes: 0 all requests succeeded (HTTP 2xx), 1 any failure,
// 2 bad usage.
#include <sys/socket.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stat_util.h"
#include "common/timer.h"
#include "io/json_writer.h"
#include "server/http_client.h"
#include "server/socket.h"

namespace {

using namespace egp;

const char kUsage[] =
    "usage: egp_loadgen [--host H] [--port P] [--connections N]\n"
    "                   [--requests M] [--target T] [--method GET|POST]\n"
    "                   [--body JSON | --body-file PATH] [--no-keepalive]\n"
    "                   [--timeout-ms N] [--json]\n"
    "                   [--slow-connections N] [--trickle-bytes B]\n"
    "                   [--trickle-interval-ms I]\n"
    "                   [--abort-connections N]\n";

const char kDefaultBody[] =
    R"({"k":2,"n":4,"sample":{"rows":2,"seed":7}})";

int UsageError(const std::string& message) {
  std::fprintf(stderr, "egp_loadgen: %s\n%s", message.c_str(), kUsage);
  return 2;
}

struct WorkerResult {
  std::vector<double> latencies_ms;
  uint64_t failures = 0;       // transport errors
  uint64_t bad_statuses = 0;   // non-2xx responses
  // The worker's slowest completed request, with the server-echoed
  // X-Request-Id so the tail can be looked up in the access log and
  // GET /v1/debug/requests.
  double slowest_ms = -1.0;
  std::string slowest_request_id;
};

/// Count and distribution of one set of request latencies; all zero
/// when no request completed.
struct LatencySummary {
  uint64_t count = 0;
  double mean = 0, p50 = 0, p90 = 0, p99 = 0, max = 0;
};

LatencySummary SummarizeLatencies(const std::vector<double>& ms) {
  LatencySummary summary;
  summary.count = ms.size();
  if (ms.empty()) return summary;
  summary.mean = Mean(ms);
  summary.p50 = Quantile(ms, 0.50);
  summary.p90 = Quantile(ms, 0.90);
  summary.p99 = Quantile(ms, 0.99);
  summary.max = Quantile(ms, 1.0);
  return summary;
}

void PrintLatency(const LatencySummary& s) {
  std::printf("mean %.3f ms, p50 %.3f, p90 %.3f, p99 %.3f, max %.3f\n",
              s.mean, s.p50, s.p90, s.p99, s.max);
}

void WriteSummary(JsonWriter& json, const LatencySummary& s) {
  json.BeginObject()
      .Key("mean").Double(s.mean)
      .Key("p50").Double(s.p50)
      .Key("p90").Double(s.p90)
      .Key("p99").Double(s.p99)
      .Key("max").Double(s.max)
      .EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  long port = 8080;
  long connections = 8;
  long requests = 100;
  std::string target = "/v1/preview";
  std::string method = "POST";
  std::string body = kDefaultBody;
  bool keepalive = true;
  long timeout_ms = 30'000;
  bool json_output = false;
  long slow_connections = -1;  // -1: all connections, when trickling is on
  long trickle_bytes = 0;      // 0: no trickling
  long trickle_interval_ms = 25;
  long abort_connections = 0;  // RST-mid-request clients

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](std::string* out) -> bool {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    auto next_long = [&](long min, long max, long* out) -> bool {
      std::string value;
      if (!next_value(&value)) return false;
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed < min ||
          parsed > max) {
        return false;
      }
      *out = parsed;
      return true;
    };
    std::string value;
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--host") {
      if (!next_value(&host)) return UsageError("--host needs a value");
    } else if (arg == "--port") {
      if (!next_long(1, 65535, &port)) return UsageError("bad --port");
    } else if (arg == "--connections") {
      if (!next_long(1, 4096, &connections)) {
        return UsageError("bad --connections");
      }
    } else if (arg == "--requests") {
      if (!next_long(1, 10'000'000, &requests)) {
        return UsageError("bad --requests");
      }
    } else if (arg == "--target") {
      if (!next_value(&target)) return UsageError("--target needs a value");
    } else if (arg == "--method") {
      if (!next_value(&method)) return UsageError("--method needs a value");
      if (method != "GET" && method != "POST") {
        return UsageError("--method must be GET or POST");
      }
    } else if (arg == "--body") {
      if (!next_value(&body)) return UsageError("--body needs a value");
    } else if (arg == "--body-file") {
      if (!next_value(&value)) return UsageError("--body-file needs a value");
      std::ifstream in(value);
      if (!in) return UsageError("cannot read --body-file '" + value + "'");
      std::stringstream buffer;
      buffer << in.rdbuf();
      body = buffer.str();
    } else if (arg == "--no-keepalive") {
      keepalive = false;
    } else if (arg == "--timeout-ms") {
      if (!next_long(1, 3600 * 1000, &timeout_ms)) {
        return UsageError("bad --timeout-ms");
      }
    } else if (arg == "--json") {
      json_output = true;
    } else if (arg == "--slow-connections") {
      if (!next_long(0, 4096, &slow_connections)) {
        return UsageError("bad --slow-connections");
      }
    } else if (arg == "--trickle-bytes") {
      if (!next_long(1, 1 << 20, &trickle_bytes)) {
        return UsageError("bad --trickle-bytes");
      }
    } else if (arg == "--trickle-interval-ms") {
      if (!next_long(0, 60'000, &trickle_interval_ms)) {
        return UsageError("bad --trickle-interval-ms");
      }
    } else if (arg == "--abort-connections") {
      if (!next_long(0, 4096, &abort_connections)) {
        return UsageError("bad --abort-connections");
      }
    } else {
      return UsageError("unknown argument '" + arg + "'");
    }
  }
  if (method == "GET") body.clear();
  if (trickle_bytes == 0 && slow_connections > 0) trickle_bytes = 32;
  if (trickle_bytes == 0) {
    slow_connections = 0;
  } else if (slow_connections < 0 || slow_connections > connections) {
    slow_connections = connections;
  }

  std::vector<WorkerResult> results(static_cast<size_t>(connections));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(connections));
  Timer wall;
  for (long c = 0; c < connections; ++c) {
    workers.emplace_back([&, c] {
      WorkerResult& result = results[static_cast<size_t>(c)];
      HttpClient client(host, static_cast<uint16_t>(port),
                        static_cast<int>(timeout_ms));
      if (c < slow_connections) {
        client.SetTrickle(static_cast<size_t>(trickle_bytes),
                          static_cast<int>(trickle_interval_ms));
      }
      for (long r = 0; r < requests; ++r) {
        Timer timer;
        const auto response =
            method == "GET" ? client.Get(target)
                            : client.Post(target, body);
        if (!response.ok()) {
          ++result.failures;
          client.Disconnect();
          continue;
        }
        const double elapsed_ms = timer.ElapsedMillis();
        result.latencies_ms.push_back(elapsed_ms);
        if (elapsed_ms > result.slowest_ms) {
          result.slowest_ms = elapsed_ms;
          const std::string* id = response->FindHeader("X-Request-Id");
          result.slowest_request_id = id == nullptr ? "" : *id;
        }
        if (response->status < 200 || response->status >= 300) {
          ++result.bad_statuses;
        }
        if (!keepalive) client.Disconnect();
      }
    });
  }
  // RST clients run alongside the measured load: connect, send a request
  // head whose advertised body never arrives, then close with
  // SO_LINGER(0) so the kernel sends RST instead of FIN. The server sees
  // a reset mid-request on every one of these.
  std::vector<uint64_t> aborted_per_thread(
      static_cast<size_t>(abort_connections), 0);
  for (long c = 0; c < abort_connections; ++c) {
    workers.emplace_back([&, c] {
      const std::string partial =
          "POST " + target + " HTTP/1.1\r\nHost: " + host +
          "\r\nContent-Type: application/json\r\n"
          "Content-Length: 1048576\r\n\r\n{";
      for (long r = 0; r < requests; ++r) {
        auto conn = ConnectTcp(host, static_cast<uint16_t>(port),
                               static_cast<int>(timeout_ms));
        if (!conn.ok()) continue;
        (void)SendAll(conn->get(), partial, static_cast<int>(timeout_ms));
        struct linger lg;
        lg.l_onoff = 1;
        lg.l_linger = 0;
        ::setsockopt(conn->get(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
        conn->Reset();  // close() now fires the RST
        ++aborted_per_thread[static_cast<size_t>(c)];
      }
    });
  }

  for (std::thread& worker : workers) worker.join();
  const double wall_seconds = wall.ElapsedSeconds();

  // Latencies of all requests, and per class: [0] well-behaved
  // connections, [1] slow ones (the first slow_connections).
  std::vector<double> latencies, class_latencies[2];
  uint64_t failures = 0;
  uint64_t bad_statuses = 0;
  double slowest_ms = -1.0;
  std::string slowest_request_id;
  for (size_t c = 0; c < results.size(); ++c) {
    const WorkerResult& result = results[c];
    latencies.insert(latencies.end(), result.latencies_ms.begin(),
                     result.latencies_ms.end());
    std::vector<double>& by_class =
        class_latencies[c < static_cast<size_t>(slow_connections) ? 1 : 0];
    by_class.insert(by_class.end(), result.latencies_ms.begin(),
                    result.latencies_ms.end());
    failures += result.failures;
    bad_statuses += result.bad_statuses;
    if (result.slowest_ms > slowest_ms) {
      slowest_ms = result.slowest_ms;
      slowest_request_id = result.slowest_request_id;
    }
  }
  uint64_t aborted = 0;
  for (const uint64_t n : aborted_per_thread) aborted += n;
  const LatencySummary all = SummarizeLatencies(latencies);
  const LatencySummary well_behaved = SummarizeLatencies(class_latencies[0]);
  const LatencySummary slow = SummarizeLatencies(class_latencies[1]);
  const double rps = wall_seconds > 0
                         ? static_cast<double>(all.count) / wall_seconds
                         : 0.0;

  if (json_output) {
    std::string out;
    JsonWriter json(&out);
    json.BeginObject()
        .Key("connections").Int(connections)
        .Key("slow_connections").Int(slow_connections)
        .Key("abort_connections").Int(abort_connections)
        .Key("requests_per_connection").Int(requests)
        .Key("completed").Uint(all.count)
        .Key("failures").Uint(failures)
        .Key("bad_statuses").Uint(bad_statuses)
        .Key("aborted").Uint(aborted)
        .Key("wall_seconds").Double(wall_seconds)
        .Key("throughput_rps").Double(rps)
        .Key("latency_ms");
    WriteSummary(json, all);
    if (slow_connections > 0) {
      json.Key("classes").BeginObject();
      for (const auto& [name, summary] :
           {std::pair{"well_behaved", well_behaved}, std::pair{"slow", slow}}) {
        json.Key(name).BeginObject().Key("completed").Uint(summary.count);
        json.Key("latency_ms");
        WriteSummary(json, summary);
        json.EndObject();
      }
      json.EndObject();
    }
    json.Key("slowest_ms").Double(slowest_ms < 0 ? 0.0 : slowest_ms)
        .Key("slowest_request_id").String(slowest_request_id)
        .EndObject();
    std::printf("%s\n", out.c_str());
  } else {
    std::printf("%ld connection(s) x %ld request(s) -> %s %s\n", connections,
                requests, method.c_str(), target.c_str());
    if (slow_connections > 0) {
      std::printf("slow      : %ld connection(s) trickling %ld byte(s) "
                  "every %ld ms\n",
                  slow_connections, trickle_bytes, trickle_interval_ms);
    }
    if (abort_connections > 0) {
      std::printf("aborted   : %llu RST-mid-request connection(s) from %ld "
                  "thread(s)\n",
                  static_cast<unsigned long long>(aborted),
                  abort_connections);
    }
    std::printf("completed : %llu (%llu transport failure(s), %llu non-2xx)\n",
                static_cast<unsigned long long>(all.count),
                static_cast<unsigned long long>(failures),
                static_cast<unsigned long long>(bad_statuses));
    std::printf("wall      : %.3f s  (%.1f req/s)\n", wall_seconds, rps);
    std::printf("latency   : ");
    PrintLatency(all);
    if (slow_connections > 0) {
      for (const auto& [name, summary] :
           {std::pair{"well-behaved", well_behaved}, std::pair{"slow", slow}}) {
        std::printf("  %-12s: %llu request(s), ", name,
                    static_cast<unsigned long long>(summary.count));
        PrintLatency(summary);
      }
    }
    if (slowest_ms >= 0) {
      std::printf("slowest   : %.3f ms  X-Request-Id %s\n", slowest_ms,
                  slowest_request_id.empty() ? "(none)"
                                             : slowest_request_id.c_str());
    }
  }
  return failures == 0 && bad_statuses == 0 ? 0 : 1;
}
