// The real egp_server binary under fault schedules (EGP_FAULTS in its
// environment) and degraded dataset loads: error mapping over real
// HTTP, descriptor hygiene via /proc/<pid>/fd, recovery once a fault's
// trigger is exhausted, and the loadgen's RST-mid-request clients.
#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "io/json_parser.h"
#include "server/http_client.h"
#include "tests/testing/subprocess.h"

namespace egp {
namespace {

#ifndef EGP_SERVER_PATH
#error "EGP_SERVER_PATH must be defined by the build"
#endif
#ifndef EGP_LOADGEN_PATH
#error "EGP_LOADGEN_PATH must be defined by the build"
#endif
#ifndef EGP_SAMPLE_NT
#error "EGP_SAMPLE_NT must be defined by the build"
#endif

using testing_util::Slurp;
using testing_util::TempPath;
using namespace std::chrono_literals;

/// Open descriptors of process `pid`, via /proc. -1 when unreadable.
int CountOpenFds(int pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/fd";
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return -1;
  int count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count - 2;  // "." and ".."
}

/// egp_server booted as a real child process, optionally with extra
/// flags and an environment prefix (`EGP_FAULTS=... `), stdout tailed
/// for the listening line. Adapted from the integration smoke test.
class ServerProcess {
 public:
  bool Boot(const std::string& extra_args = {},
            const std::string& env_prefix = {},
            const std::string& datasets =
                std::string(" --dataset sample=") + EGP_SAMPLE_NT) {
    out_path_ = TempPath("chaos_server_out.txt");
    pid_path_ = TempPath("chaos_server_pid.txt");
    std::remove(out_path_.c_str());
    std::remove(pid_path_.c_str());
    const std::string command =
        env_prefix + EGP_SERVER_PATH + datasets +
        " --port 0 --workers 2 " + extra_args + " > " + out_path_ +
        " 2>/dev/null & echo $! > " + pid_path_;
    if (std::system(command.c_str()) != 0) return false;
    for (int i = 0; i < 300; ++i) {
      const std::string out = Slurp(out_path_);
      const size_t at = out.find("listening on 127.0.0.1:");
      if (at != std::string::npos) {
        port_ = std::atoi(out.c_str() + at + 23);
        pid_ = std::atoi(Slurp(pid_path_).c_str());
        return port_ > 0 && pid_ > 0;
      }
      std::this_thread::sleep_for(100ms);
    }
    return false;
  }

  /// Polls until the server's fd count settles back to `baseline`.
  bool WaitForFdBaseline(int baseline) const {
    for (int i = 0; i < 100; ++i) {
      const int now = CountOpenFds(pid_);
      if (now >= 0 && now <= baseline) return true;
      std::this_thread::sleep_for(10ms);
    }
    return false;
  }

  ~ServerProcess() {
    if (pid_ > 0 && ::kill(pid_, 0) == 0) ::kill(pid_, SIGKILL);
  }

  uint16_t port() const { return static_cast<uint16_t>(port_); }
  int pid() const { return pid_; }
  std::string Stdout() const { return Slurp(out_path_); }

 private:
  std::string out_path_;
  std::string pid_path_;
  int port_ = 0;
  int pid_ = -1;
};

TEST(ChaosBinaryTest, DegradedLoadServesTheHealthyDatasets) {
  ServerProcess server;
  ASSERT_TRUE(server.Boot(
      /*extra_args=*/{}, /*env_prefix=*/{},
      std::string(" --dataset sample=") + EGP_SAMPLE_NT +
          " --dataset bad=/no/such/file.nt"))
      << server.Stdout();
  HttpClient client("127.0.0.1", server.port());

  // /healthz stays 200 (the process is alive and serving) but reports
  // the degradation and names the casualty.
  const auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  EXPECT_NE(health->body.find("\"status\":\"degraded\""), std::string::npos)
      << health->body;
  EXPECT_NE(health->body.find("\"name\":\"bad\""), std::string::npos);

  // /v1/datasets lists both, with per-dataset status.
  const auto datasets = client.Get("/v1/datasets");
  ASSERT_TRUE(datasets.ok());
  EXPECT_NE(datasets->body.find("\"status\":\"loaded\""), std::string::npos);
  EXPECT_NE(datasets->body.find("\"status\":\"failed\""), std::string::npos);

  // The failed dataset answers 503 (unavailable, not unknown) ...
  const auto broken =
      client.Post("/v1/preview", R"({"dataset":"bad","k":2,"n":4})");
  ASSERT_TRUE(broken.ok()) << broken.status().ToString();
  EXPECT_EQ(broken->status, 503) << broken->body;
  EXPECT_NE(broken->body.find("failed to load"), std::string::npos);

  // ... an unknown one still answers 404 ...
  const auto unknown =
      client.Post("/v1/preview", R"({"dataset":"nope","k":2,"n":4})");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status, 404);

  // ... and the healthy one serves previews.
  const auto preview =
      client.Post("/v1/preview", R"({"dataset":"sample","k":2,"n":4})");
  ASSERT_TRUE(preview.ok()) << preview.status().ToString();
  EXPECT_EQ(preview->status, 200) << preview->body;

  // /metrics exposes the degradation as gauges.
  const auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find("egp_catalog_datasets_loaded 1"),
            std::string::npos)
      << metrics->body;
  EXPECT_NE(metrics->body.find("egp_catalog_datasets_failed 1"),
            std::string::npos);
}

TEST(ChaosBinaryTest, StrictLoadRefusesToBootOnAnyFailure) {
  const std::string out = TempPath("chaos_strict_out.txt");
  const std::string err = TempPath("chaos_strict_err.txt");
  const int exit_code = testing_util::RunCommandCapture(
      std::string(EGP_SERVER_PATH) + " --strict-load --port 0" +
          " --dataset sample=" + EGP_SAMPLE_NT +
          " --dataset bad=/no/such/file.nt",
      out, err);
  EXPECT_EQ(exit_code, 1);
  EXPECT_NE(Slurp(err).find("bad"), std::string::npos) << Slurp(err);
}

TEST(ChaosBinaryTest, SendFaultMapsToOneFailureThenRecovers) {
  // The third send(2) in the server dies with EPIPE: exactly one
  // exchange breaks; everything after serves normally and no
  // descriptor is lost to the broken connection.
  ServerProcess server;
  ASSERT_TRUE(server.Boot(
      /*extra_args=*/{},
      /*env_prefix=*/"EGP_FAULTS='socket.send=err:EPIPE@3' "))
      << server.Stdout();
  const int baseline = CountOpenFds(server.pid());
  ASSERT_GT(baseline, 0);

  int failures = 0;
  int successes = 0;
  for (int i = 0; i < 6; ++i) {
    HttpClient client("127.0.0.1", server.port(), 3'000);
    const auto response = client.Get("/healthz");
    if (response.ok() && response->status == 200) {
      ++successes;
    } else {
      ++failures;
    }
  }
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(successes, 5);

  // Recovery: the one-shot trigger is exhausted; the server is healthy
  // and back at its descriptor baseline.
  HttpClient client("127.0.0.1", server.port());
  const auto response = client.Get("/healthz");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  client.Disconnect();
  EXPECT_TRUE(server.WaitForFdBaseline(baseline))
      << "fd leak: " << CountOpenFds(server.pid()) << " open, baseline "
      << baseline;
}

TEST(ChaosBinaryTest, EintrStormsAreAbsorbedByTheWrappers) {
  ServerProcess server;
  ASSERT_TRUE(server.Boot(
      /*extra_args=*/{},
      /*env_prefix=*/"EGP_FAULTS='socket.recv=eintr@every:2;"
                     "socket.send=eintr@every:3;epoll.wait=eintr@every:5' "))
      << server.Stdout();
  HttpClient client("127.0.0.1", server.port());
  for (int i = 0; i < 10; ++i) {
    const auto response = client.Get("/healthz");
    ASSERT_TRUE(response.ok())
        << "request " << i << ": " << response.status().ToString();
    EXPECT_EQ(response->status, 200);
  }
}

TEST(ChaosBinaryTest, LoadgenRstClientsDontDisturbTheServer) {
  ServerProcess server;
  ASSERT_TRUE(server.Boot()) << server.Stdout();
  const int baseline = CountOpenFds(server.pid());
  ASSERT_GT(baseline, 0);

  const std::string out = TempPath("chaos_loadgen_out.txt");
  const int exit_code = testing_util::RunCommand(
      std::string(EGP_LOADGEN_PATH) + " --port " +
          std::to_string(server.port()) +
          " --connections 2 --requests 5 --abort-connections 4",
      out);
  EXPECT_EQ(exit_code, 0) << Slurp(out);
  EXPECT_NE(Slurp(out).find("aborted"), std::string::npos) << Slurp(out);

  // The server shrugged it off: healthy, metrics served, fds level.
  HttpClient client("127.0.0.1", server.port());
  const auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  const auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find("egp_http_requests_total"), std::string::npos)
      << metrics->body;
  client.Disconnect();
  EXPECT_TRUE(server.WaitForFdBaseline(baseline))
      << "fd leak: " << CountOpenFds(server.pid()) << " open, baseline "
      << baseline;
}

TEST(ChaosBinaryTest, LoadgenReportsEachConnectionClass) {
  ServerProcess server;
  ASSERT_TRUE(server.Boot()) << server.Stdout();
  const std::string out = TempPath("chaos_loadgen_classes.json");
  const int exit_code = testing_util::RunCommand(
      std::string(EGP_LOADGEN_PATH) + " --port " +
          std::to_string(server.port()) +
          " --connections 2 --slow-connections 1 --trickle-interval-ms 1"
          " --requests 3 --json",
      out);
  ASSERT_EQ(exit_code, 0) << Slurp(out);
  const auto report = ParseJson(Slurp(out));
  ASSERT_TRUE(report.ok()) << report.status().ToString() << "\n"
                           << Slurp(out);
  ASSERT_TRUE(report->is_object());
  ASSERT_NE(report->Find("completed"), nullptr);
  EXPECT_EQ(report->Find("completed")->number_value(), 6.0);
  const JsonValue* classes = report->Find("classes");
  ASSERT_NE(classes, nullptr) << Slurp(out);
  for (const char* name : {"well_behaved", "slow"}) {
    SCOPED_TRACE(name);
    const JsonValue* of_class = classes->Find(name);
    ASSERT_NE(of_class, nullptr);
    ASSERT_NE(of_class->Find("completed"), nullptr);
    EXPECT_EQ(of_class->Find("completed")->number_value(), 3.0);
    const JsonValue* latency = of_class->Find("latency_ms");
    ASSERT_NE(latency, nullptr);
    for (const char* field : {"mean", "p50", "p90", "p99", "max"}) {
      ASSERT_NE(latency->Find(field), nullptr) << field;
      EXPECT_GT(latency->Find(field)->number_value(), 0.0) << field;
    }
  }
}

}  // namespace
}  // namespace egp
