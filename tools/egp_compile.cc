// egp_compile: compiles a text entity graph (.nt or .egt) into the .egps
// binary snapshot format of src/store/, so servers and the CLI can open
// it in milliseconds (zero-copy mmap) instead of re-parsing text and
// re-freezing adjacency on every start. An .egps input of an older
// format version is re-written in the current one.
//
//   egp_compile <in.(nt|egt|egps)> <out.egps> [--verify]
//
//   --verify      re-open the written snapshot (both load paths) and
//                 cross-check counts before reporting success
//
// Exit codes: 0 success, 1 runtime failure, 2 bad usage.
#include <cstdio>
#include <string>

#include "common/fault.h"
#include "common/timer.h"
#include "io/graph_io.h"
#include "store/snapshot_reader.h"
#include "store/snapshot_writer.h"

#ifndef EGP_VERSION_STRING
#define EGP_VERSION_STRING "unknown"
#endif

namespace {

using namespace egp;

const char kUsage[] =
    "usage: egp_compile <in.(nt|egt|egps)> <out.egps> [--verify]\n"
    "\n"
    "compiles a text entity graph into the .egps binary snapshot format\n"
    "(an older .egps is upgraded); egp_server / egp open .egps files\n"
    "directly (detected by magic).\n";

int UsageError(const std::string& message) {
  std::fprintf(stderr, "egp_compile: %s\n%s", message.c_str(), kUsage);
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "egp_compile: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (const egp::Status faults = egp::ConfigureFaultsFromEnv();
      !faults.ok()) {
    std::fprintf(stderr, "egp_compile: %s\n", faults.ToString().c_str());
    return 2;
  }
  std::string input, output;
  bool verify = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (arg == "--version") {
      std::printf("egp_compile %s\n", EGP_VERSION_STRING);
      return 0;
    }
    if (arg == "--verify") {
      verify = true;
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      return UsageError("unknown flag '" + arg + "'");
    }
    if (input.empty()) {
      input = arg;
    } else if (output.empty()) {
      output = arg;
    } else {
      return UsageError("unexpected argument '" + arg + "'");
    }
  }
  if (input.empty() || output.empty()) {
    return UsageError("need an input graph and an output .egps path");
  }

  Timer timer;
  // Stream open, never mmap: when input and output are the same .egps
  // (an in-place recompile), writing would truncate pages the graph's
  // mapped adjacency still views — a SIGBUS, not a Status. A heap-backed
  // load makes any input/output aliasing safe.
  SnapshotOpenOptions load_options;
  load_options.mode = SnapshotOpenOptions::Mode::kStream;
  auto loaded = LoadGraphFileAuto(input, load_options);
  if (!loaded.ok()) return Fail(loaded.status());
  const double parse_seconds = timer.ElapsedSeconds();
  std::fprintf(stderr, "parsed %s (%s): %zu entities, %zu relationships, "
               "%zu types in %.1f ms\n",
               input.c_str(), GraphStorageName(loaded->storage),
               loaded->graph.num_entities(), loaded->graph.num_edges(),
               loaded->graph.num_types(), parse_seconds * 1e3);

  timer.Reset();
  const Status write = WriteSnapshotFile(loaded->graph, output);
  if (!write.ok()) return Fail(write);
  const double write_seconds = timer.ElapsedSeconds();

  if (verify) {
    for (const auto mode : {SnapshotOpenOptions::Mode::kStream,
                            SnapshotOpenOptions::Mode::kMmap}) {
      SnapshotOpenOptions options;
      options.mode = mode;
      auto reopened = OpenSnapshot(output, options);
      if (!reopened.ok()) return Fail(reopened.status());
      if (reopened->graph.num_entities() != loaded->graph.num_entities() ||
          reopened->graph.num_edges() != loaded->graph.num_edges() ||
          reopened->graph.num_types() != loaded->graph.num_types() ||
          reopened->graph.num_rel_types() != loaded->graph.num_rel_types()) {
        return Fail(Status::Internal("verification re-open disagrees with "
                                     "the compiled graph"));
      }
    }
    std::fprintf(stderr, "verified: stream and mmap re-opens match\n");
  }

  std::printf("compiled %s -> %s: write %.1f ms\n", input.c_str(),
              output.c_str(), write_seconds * 1e3);
  return 0;
}
