// Cold-start benchmark for the .egps snapshot store — the second tracked
// perf trajectory (BENCH_load.json).
//
// Every server start (and catalog reload) pays dataset open time. This
// bench measures that cost for one logical graph in each on-disk
// representation, on the bundled datagen domains:
//
//   - text parse:     ReadNTriplesFile (tokenize, intern, build indexes)
//   - snapshot read:  OpenSnapshot kStream (one sequential read + verify)
//   - snapshot mmap:  OpenSnapshot kMmap (zero-copy; with and without
//                     checksum verification)
//
// records the heap a kept mmap open holds (snapshot_mmap_heap_bytes:
// glibc's in-use arena and mmapped-chunk bytes, after the open minus
// before it, the minimum over --repeat), and cross-checks that previews served from every path are
// byte-identical to the text-parsed graph (exit 2 on divergence).
//
//   bench_store_load [--domains basketball,architecture] [--scale 1.0]
//                    [--repeat 3] [--dir DIR] [--out FILE]
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/strings.h"
#include "common/timer.h"
#include "datagen/generator.h"
#include "io/json_export.h"
#include "io/ntriples.h"
#include "service/engine.h"
#include "store/snapshot_reader.h"
#include "store/snapshot_writer.h"

namespace egp {
namespace {

struct BenchOptions {
  std::vector<std::string> domains = {"basketball", "architecture"};
  double scale = 1.0;
  int repeat = 3;
  std::string dir;
  std::string out;
};

std::string TempDir() {
  const char* env = std::getenv("TMPDIR");
  return env != nullptr && env[0] != '\0' ? env : "/tmp";
}

double MinSeconds(int repeat, const std::function<void()>& fn) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    Timer timer;
    fn();
    const double elapsed = timer.ElapsedSeconds();
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

/// Heap bytes in use: arena chunks plus chunks malloc mmapped on its own
/// (large arrays land there).
size_t HeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

size_t FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size > 0 ? static_cast<size_t>(size) : 0;
}

/// The preview every load path must reproduce byte for byte.
PreviewRequest IdentityRequest() {
  PreviewRequest request;
  request.size = {3, 5};
  request.sample_rows = 3;
  request.sample_seed = 7;
  request.measures.key = "randomwalk";
  request.measures.nonkey = "entropy";
  return request;
}

struct PreviewFingerprint {
  std::string preview;
  std::string tuples;
  double score = 0.0;
};

Result<PreviewFingerprint> Fingerprint(const Engine& engine) {
  PreviewFingerprint print;
  auto response = engine.Preview(IdentityRequest());
  if (!response.ok()) return response.status();
  print.preview = PreviewToJson(*response->prepared, response->preview);
  print.tuples =
      MaterializedPreviewToJson(*engine.graph(), response->materialized);
  print.score = response->score;
  return print;
}

int Run(const BenchOptions& options) {
  const std::string dir = options.dir.empty() ? TempDir() : options.dir;
  std::string json;
  json += "{\n";
  json += "  \"bench\": \"bench_store_load\",\n";
  json += "  \"hardware_threads\": " + std::to_string(HardwareThreads()) +
          ",\n";
  json += "  \"scale\": " + std::to_string(options.scale) + ",\n";
  json += "  \"repeat\": " + std::to_string(options.repeat) + ",\n";
  json += "  \"datasets\": [\n";

  for (size_t d = 0; d < options.domains.size(); ++d) {
    const std::string& name = options.domains[d];
    GeneratorOptions generator;
    generator.scale = options.scale;
    auto domain = GenerateDomainByName(name, generator);
    if (!domain.ok()) {
      std::fprintf(stderr, "error: %s\n", domain.status().ToString().c_str());
      return 1;
    }
    const std::string prefix =
        dir + "/egp_store_bench_" + std::to_string(::getpid()) + "_" + name;
    const std::string nt_path = prefix + ".nt";
    const std::string egps_path = prefix + ".egps";

    // The text file is the bench's ground truth; the snapshot is
    // compiled from the *parsed* graph, exactly as egp_compile would.
    Status written = WriteNTriplesFile(domain->graph, nt_path);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    auto parsed = ReadNTriplesFile(nt_path);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
      return 1;
    }
    Timer compile_timer;
    const Status compiled = WriteSnapshotFile(*parsed, egps_path);
    if (!compiled.ok()) {
      std::fprintf(stderr, "error: %s\n", compiled.ToString().c_str());
      return 1;
    }
    const double compile_seconds = compile_timer.ElapsedSeconds();

    const double parse_seconds = MinSeconds(options.repeat, [&] {
      auto graph = ReadNTriplesFile(nt_path);
      if (!graph.ok()) std::exit(1);
    });
    SnapshotOpenOptions stream_options;
    stream_options.mode = SnapshotOpenOptions::Mode::kStream;
    const double stream_seconds = MinSeconds(options.repeat, [&] {
      auto stored = OpenSnapshot(egps_path, stream_options);
      if (!stored.ok()) std::exit(1);
    });
    SnapshotOpenOptions mmap_options;  // defaults: mmap + verify
    const double mmap_seconds = MinSeconds(options.repeat, [&] {
      auto stored = OpenSnapshot(egps_path, mmap_options);
      if (!stored.ok()) std::exit(1);
    });
    size_t mmap_heap_bytes = SIZE_MAX;
    for (int r = 0; r < options.repeat; ++r) {
      const size_t before = HeapBytes();
      auto stored = OpenSnapshot(egps_path, mmap_options);
      if (!stored.ok()) std::exit(1);
      const size_t after = HeapBytes();
      mmap_heap_bytes =
          std::min(mmap_heap_bytes, after > before ? after - before : 0);
    }
    SnapshotOpenOptions trusted_options;
    trusted_options.verify_checksums = false;
    const double mmap_noverify_seconds = MinSeconds(options.repeat, [&] {
      auto stored = OpenSnapshot(egps_path, trusted_options);
      if (!stored.ok()) std::exit(1);
    });

    // Bit-identity across every load path.
    auto golden = Fingerprint(Engine::FromGraph(EntityGraph(*parsed)));
    if (!golden.ok()) {
      std::fprintf(stderr, "error: %s\n", golden.status().ToString().c_str());
      return 1;
    }
    bool identical = true;
    for (const auto* open_options : {&stream_options, &mmap_options}) {
      auto stored = OpenSnapshot(egps_path, *open_options);
      if (!stored.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     stored.status().ToString().c_str());
        return 1;
      }
      auto print = Fingerprint(Engine::FromGraph(std::move(stored->graph)));
      if (!print.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     print.status().ToString().c_str());
        return 1;
      }
      identical = identical && print->preview == golden->preview &&
                  print->tuples == golden->tuples &&
                  print->score == golden->score;
    }
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: snapshot-served preview diverged from the text "
                   "parse on %s\n",
                   name.c_str());
      return 2;
    }

    const size_t nt_bytes = FileBytes(nt_path);
    const size_t egps_bytes = FileBytes(egps_path);
    std::remove(nt_path.c_str());
    std::remove(egps_path.c_str());

    std::fprintf(stderr,
                 "[%s] %zu entities / %zu rels: parse %.1fms, stream "
                 "%.1fms, mmap %.1fms (noverify %.1fms, heap %.2f MB); "
                 "%.2fx / %.2fx faster\n",
                 name.c_str(), parsed->num_entities(), parsed->num_edges(),
                 parse_seconds * 1e3, stream_seconds * 1e3,
                 mmap_seconds * 1e3, mmap_noverify_seconds * 1e3,
                 mmap_heap_bytes / 1e6,
                 stream_seconds > 0 ? parse_seconds / stream_seconds : 0.0,
                 mmap_seconds > 0 ? parse_seconds / mmap_seconds : 0.0);

    char buffer[512];
    json += "    {\n";
    json += "      \"domain\": \"" + name + "\",\n";
    json += "      \"entities\": " + std::to_string(parsed->num_entities()) +
            ",\n";
    json += "      \"relationships\": " +
            std::to_string(parsed->num_edges()) + ",\n";
    json += "      \"nt_bytes\": " + std::to_string(nt_bytes) + ",\n";
    json += "      \"egps_bytes\": " + std::to_string(egps_bytes) + ",\n";
    json += "      \"snapshot_mmap_heap_bytes\": " +
            std::to_string(mmap_heap_bytes) + ",\n";
    std::snprintf(buffer, sizeof(buffer),
                  "      \"compile_seconds\": %.6f,\n"
                  "      \"parse_seconds\": %.6f,\n"
                  "      \"snapshot_stream_seconds\": %.6f,\n"
                  "      \"snapshot_mmap_seconds\": %.6f,\n"
                  "      \"snapshot_mmap_noverify_seconds\": %.6f,\n"
                  "      \"speedup_stream_vs_parse\": %.3f,\n"
                  "      \"speedup_mmap_vs_parse\": %.3f,\n"
                  "      \"previews_identical\": true\n",
                  compile_seconds, parse_seconds, stream_seconds,
                  mmap_seconds, mmap_noverify_seconds,
                  stream_seconds > 0 ? parse_seconds / stream_seconds : 0.0,
                  mmap_seconds > 0 ? parse_seconds / mmap_seconds : 0.0);
    json += buffer;
    json += d + 1 < options.domains.size() ? "    },\n" : "    }\n";
  }
  json += "  ]\n";
  json += "}\n";

  if (options.out.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(options.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", options.out.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", options.out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace egp

int main(int argc, char** argv) {
  egp::BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--domains") {
      options.domains = egp::Split(value(), ',');
      std::erase(options.domains, "");
    } else if (arg == "--scale") {
      options.scale = std::atof(value());
    } else if (arg == "--repeat") {
      options.repeat = std::atoi(value());
    } else if (arg == "--dir") {
      options.dir = value();
    } else if (arg == "--out") {
      options.out = value();
    } else {
      std::fprintf(stderr,
                   "usage: bench_store_load [--domains a,b] [--scale S] "
                   "[--repeat R] [--dir DIR] [--out FILE]\n");
      return 2;
    }
  }
  if (options.domains.empty() || options.repeat < 1) {
    std::fprintf(stderr, "error: empty domain list or repeat < 1\n");
    return 2;
  }
  return egp::Run(options);
}
