// perfbench_loadgen: the serving benchmark's load generator. It drives a
// running egp_server over loopback from one process, with --threads
// threads that each own one keep-alive connection, through the phases of
// a stream file written by run.py:
//
//   closed  each connection sends its next request as soon as the last
//           one is answered, for --closed-seconds; the server's CPU time
//           is read from /proc/<pid>/stat at --windows evenly spaced
//           instants;
//   open    requests leave at their scheduled times (Poisson arrivals
//           made by run.py); whichever thread is free takes the next one,
//           so a stall shows as lateness instead of as fewer requests;
//   probe   one connection sends the probe requests one at a time.
//
// Every 2xx body goes through the strict JSON parser. The entries marked
// `verify` are compared afterwards with the in-process oracle
// (ExpectedBody). Raw records go to --out and run.py does the statistics:
//
//   calib <ms>
//   cpu <t_ns> <server utime+stime ticks>
//   closed <done_ns> <ok>
//   open <index> <scheduled_ns> <sent_ns> <done_ns> <ok>
//   probe <index> <latency_ns> <ok>
//   verify <compared> <mismatched>
//   fail <phase> <reason>        (the first few failures only)
//
//   perfbench_loadgen --port P --server-pid PID --stream FILE --threads N
//                    --closed-seconds S --windows W
//                    --dataset name=path [...] --out FILE
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/strings.h"
#include "io/json_parser.h"
#include "perfbench/replay.h"
#include "server/http_client.h"

namespace perfbench {
namespace {

constexpr size_t kMaxVerified = 256;
constexpr size_t kMaxFailuresLogged = 20;

struct Options {
  uint16_t port = 0;
  long server_pid = 0;
  std::string stream;
  int threads = 1;
  double closed_seconds = 0;
  int windows = 1;
  std::vector<std::string> datasets;
  std::string out;
};

/// utime + stime of `pid` in clock ticks, or -1 when unreadable.
int64_t ServerCpuTicks(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return -1;
  std::istringstream fields(stat.substr(paren + 1));
  std::string field;
  int64_t ticks = 0;
  // After the command name: state is field 3; utime and stime are 14, 15.
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index >= 14) ticks += std::stoll(field);
  }
  return ticks;
}

/// Everything the worker threads share: output records, failures, and the
/// bodies kept for the oracle comparison.
class Recorder {
 public:
  void Add(std::string line) {
    egp::MutexLock lock(&mu_);
    lines_.push_back(std::move(line));
  }

  void Fail(const char* phase, const std::string& reason) {
    egp::MutexLock lock(&mu_);
    if (failures_logged_ < kMaxFailuresLogged) {
      ++failures_logged_;
      lines_.push_back(std::string("fail ") + phase + " " + reason);
    }
  }

  /// Keeps the first body served for a verify entry (keyed by phase and
  /// index), up to kMaxVerified bodies in all.
  void Keep(const StreamEntry& entry, size_t index, const std::string& body) {
    if (!entry.verify) return;
    egp::MutexLock lock(&mu_);
    const std::string key = entry.phase + ":" + std::to_string(index);
    if (kept_.size() >= kMaxVerified || kept_.count(key) != 0) return;
    kept_.emplace(key, Kept{entry.body, body});
  }

  struct Kept {
    std::string request;
    std::string response;
  };

  std::vector<std::string> TakeLines() {
    egp::MutexLock lock(&mu_);
    return std::move(lines_);
  }
  std::map<std::string, Kept> TakeKept() {
    egp::MutexLock lock(&mu_);
    return std::move(kept_);
  }

 private:
  egp::Mutex mu_;
  std::vector<std::string> lines_ EGP_GUARDED_BY(mu_);
  size_t failures_logged_ EGP_GUARDED_BY(mu_) = 0;
  std::map<std::string, Kept> kept_ EGP_GUARDED_BY(mu_);
};

/// Sends one request and applies the per-response checks: a transport
/// error, a non-200 status and an unparseable body are failures.
bool Exchange(egp::HttpClient* client, const StreamEntry& entry, size_t index,
              const char* phase, Recorder* recorder) {
  const auto response = client->Post("/v1/preview", entry.body);
  if (!response.ok()) {
    client->Disconnect();
    recorder->Fail(phase, response.status().ToString());
    return false;
  }
  if (response->status != 200) {
    recorder->Fail(phase, "status " + std::to_string(response->status) +
                              ": " + response->body.substr(0, 200));
    return false;
  }
  if (!egp::ParseJson(response->body).ok()) {
    recorder->Fail(phase, "2xx body fails the strict JSON parser");
    return false;
  }
  recorder->Keep(entry, index, response->body);
  return true;
}

/// Runs `body(thread_index)` on `threads` threads, the calling thread
/// being one of them, so the process never runs more than `threads`.
template <typename Body>
void RunOnThreads(int threads, const Body& body) {
  std::vector<std::thread> spawned;
  for (int t = 1; t < threads; ++t) spawned.emplace_back(body, t);
  body(0);
  for (std::thread& thread : spawned) thread.join();
}

void ClosedLoop(const Options& options, const std::vector<StreamEntry>& pool,
                int64_t t0, Recorder* recorder) {
  if (pool.empty() || options.closed_seconds <= 0) return;
  const int64_t start = NowNs();
  const int64_t length = static_cast<int64_t>(options.closed_seconds * 1e9);
  const int windows = options.windows;
  auto boundary = [&](int w) { return start + length * w / windows; };
  recorder->Add(egp::StrFormat(
      "cpu %lld %lld", static_cast<long long>(start - t0),
      static_cast<long long>(ServerCpuTicks(options.server_pid))));
  std::atomic<int> next_window{1};
  std::atomic<size_t> next{0};

  RunOnThreads(options.threads, [&](int /*thread*/) {
    egp::HttpClient client("127.0.0.1", options.port, 60'000);
    std::vector<std::string> lines;
    while (true) {
      const size_t n = next.fetch_add(1, std::memory_order_relaxed);
      const size_t index = n % pool.size();
      const bool ok =
          Exchange(&client, pool[index], index, "closed", recorder);
      const int64_t done = NowNs();
      lines.push_back(egp::StrFormat("closed %lld %d",
                                     static_cast<long long>(done - t0),
                                     ok ? 1 : 0));
      // The first thread past a window boundary snapshots the server's
      // CPU time; run.py bins completions by these snapshot instants.
      int w = next_window.load();
      while (w <= windows && done >= boundary(w)) {
        if (next_window.compare_exchange_strong(w, w + 1)) {
          recorder->Add(egp::StrFormat(
              "cpu %lld %lld", static_cast<long long>(NowNs() - t0),
              static_cast<long long>(ServerCpuTicks(options.server_pid))));
          w = next_window.load();
        }
      }
      if (done >= start + length) break;
    }
    for (std::string& line : lines) recorder->Add(std::move(line));
  });
}

void OpenLoop(const Options& options, const std::vector<StreamEntry>& schedule,
              int64_t t0, Recorder* recorder) {
  if (schedule.empty()) return;
  // A short lead so every thread is waiting before the first send.
  const int64_t start = NowNs() + 2'000'000;
  std::atomic<size_t> next{0};
  RunOnThreads(options.threads, [&](int /*thread*/) {
    egp::HttpClient client("127.0.0.1", options.port, 60'000);
    std::vector<std::string> lines;
    while (true) {
      const size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= schedule.size()) break;
      const StreamEntry& entry = schedule[index];
      const int64_t scheduled = start + entry.at_us * 1000;
      const int64_t now = NowNs();
      if (now < scheduled) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(scheduled - now));
      }
      const int64_t sent = NowNs();
      const bool ok = Exchange(&client, entry, index, "open", recorder);
      const int64_t done = NowNs();
      lines.push_back(egp::StrFormat(
          "open %zu %lld %lld %lld %d", index,
          static_cast<long long>(scheduled - t0),
          static_cast<long long>(sent - t0), static_cast<long long>(done - t0),
          ok ? 1 : 0));
    }
    for (std::string& line : lines) recorder->Add(std::move(line));
  });
}

void Probe(const Options& options, const std::vector<StreamEntry>& probes,
           Recorder* recorder) {
  egp::HttpClient client("127.0.0.1", options.port, 60'000);
  for (size_t i = 0; i < probes.size(); ++i) {
    const int64_t sent = NowNs();
    const bool ok = Exchange(&client, probes[i], i, "probe", recorder);
    recorder->Add(egp::StrFormat("probe %zu %lld %d", i,
                                 static_cast<long long>(NowNs() - sent),
                                 ok ? 1 : 0));
  }
}

/// Compares every kept body with the in-process oracle.
egp::Status Verify(const Options& options, Recorder* recorder) {
  const auto kept = recorder->TakeKept();
  size_t mismatched = 0;
  if (!kept.empty()) {
    std::vector<egp::DatasetSpec> specs;
    EGP_ASSIGN_OR_RETURN(specs, ParseSpecs(options.datasets));
    auto catalog = egp::DatasetCatalog::Load(specs);
    if (!catalog.ok()) return catalog.status();
    for (const auto& [key, pair] : kept) {
      const auto expected = ExpectedBody(*catalog, pair.request);
      const auto same = expected.ok() ? SameBody(pair.response, *expected)
                                      : egp::Result<bool>(expected.status());
      if (!same.ok() || !*same) {
        ++mismatched;
        recorder->Fail("verify", key + " differs from the in-process oracle");
      }
    }
  }
  recorder->Add(egp::StrFormat("verify %zu %zu", kept.size(), mismatched));
  return egp::Status::OK();
}

int Run(const Options& options) {
  const auto stream = ReadStream(options.stream);
  if (!stream.ok()) {
    std::fprintf(stderr, "perfbench_loadgen: %s\n",
                 stream.status().ToString().c_str());
    return 1;
  }
  Recorder recorder;
  recorder.Add(egp::StrFormat("calib %.6f", CalibrationMillis()));
  const int64_t t0 = NowNs();
  ClosedLoop(options, Phase(*stream, "closed"), t0, &recorder);
  OpenLoop(options, Phase(*stream, "open"), t0, &recorder);
  Probe(options, Phase(*stream, "probe"), &recorder);
  const egp::Status verified = Verify(options, &recorder);
  if (!verified.ok()) {
    std::fprintf(stderr, "perfbench_loadgen: %s\n",
                 verified.ToString().c_str());
    return 1;
  }

  std::FILE* out = std::fopen(options.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench_loadgen: cannot write %s\n",
                 options.out.c_str());
    return 1;
  }
  for (const std::string& line : recorder.TakeLines()) {
    std::fputs(line.c_str(), out);
    std::fputc('\n', out);
  }
  return std::fclose(out) == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench_loadgen: %s needs a value\n", argv[i]);
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--port") {
      options.port = static_cast<uint16_t>(std::atoi(value.c_str()));
    } else if (arg == "--server-pid") {
      options.server_pid = std::atol(value.c_str());
    } else if (arg == "--stream") {
      options.stream = value;
    } else if (arg == "--threads") {
      options.threads = std::atoi(value.c_str());
    } else if (arg == "--closed-seconds") {
      options.closed_seconds = std::atof(value.c_str());
    } else if (arg == "--windows") {
      options.windows = std::atoi(value.c_str());
    } else if (arg == "--dataset") {
      options.datasets.push_back(value);
    } else if (arg == "--out") {
      options.out = value;
    } else {
      std::fprintf(stderr, "perfbench_loadgen: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (options.port == 0 || options.server_pid <= 0 || options.stream.empty() ||
      options.out.empty() || options.threads < 1 || options.windows < 1) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --port P --server-pid PID --stream "
                 "FILE --threads N --closed-seconds S --windows W --dataset "
                 "name=path [...] --out FILE\n");
    return 2;
  }
  return perfbench::Run(options);
}
