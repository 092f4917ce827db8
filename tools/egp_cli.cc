// egp: command-line front end to the preview-tables library.
//
// Serving goes through egp::Engine (src/service/engine.h); this file only
// parses arguments, loads graphs, and renders responses.
//
//   egp stats    <graph.(egt|nt|egps)>
//   egp preview  <graph.(egt|nt|egps)> [--k N] [--n N] [--tight D | --diverse D]
//                [--key coverage|randomwalk] [--nonkey coverage|entropy]
//                [--algo auto|bf|dp|apriori|beam] [--rows N] [--seed S]
//                [--threads N] [--verbose] [--json] [--merge-multiway]
//   egp suggest  <graph.(egt|nt|egps)> [--width W] [--height H] [--threads N]
//   egp report   <graph.(egt|nt|egps)> [--title T] [--k N] [--n N] [--dot]
//                [--tight D | --diverse D] [--key ...] [--nonkey ...]
//   egp generate <domain> <out.egt> [--scale S] [--seed S]
//   egp convert  <in.(nt|egt|egps)> <out.(egt|egps)>
//   egp help     [or -h / --help]
//   egp version  [or --version]
//
// Input format is sniffed: files starting with the EGPS magic open as
// binary snapshots (tools/egp_compile writes them), then .nt parses
// N-Triples-lite and anything else the EGT text format.
//
// Exit codes: 0 success, 1 runtime failure (I/O, infeasible constraints),
// 2 bad usage (unknown subcommand or flag, malformed value).
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/strings.h"
#include "datagen/generator.h"
#include "graph/graph_stats.h"
#include "io/graph_io.h"
#include "io/json_export.h"
#include "io/ntriples.h"
#include "io/preview_renderer.h"
#include "io/report.h"
#include "service/engine.h"
#include "store/snapshot_writer.h"

#ifndef EGP_VERSION_STRING
#define EGP_VERSION_STRING "unknown"
#endif

namespace {

using namespace egp;

const char kUsage[] =
    "usage: egp <subcommand> [args]\n"
    "\n"
    "subcommands:\n"
    "  stats    <graph.(egt|nt|egps)>                  dataset and schema "
    "statistics\n"
    "  preview  <graph.(egt|nt|egps)> [flags]          discover and render a "
    "preview\n"
    "           --k N --n N  size constraints, >= 1 (default 2, 6)\n"
    "           --tight D | --diverse D  distance constraint, D >= 1\n"
    "           --key coverage|randomwalk  --nonkey coverage|entropy\n"
    "           --algo auto|bf|dp|apriori|beam  --rows N  --seed S\n"
    "           --threads N  (N >= 1; omit for all hardware threads, "
    "EGP_THREADS also works)\n"
    "           --verbose  (per-phase prepare timings to stderr)\n"
    "           --json  --merge-multiway\n"
    "  suggest  <graph.(egt|nt|egps)> [--width W] [--height H] [--threads N]\n"
    "                                             advisor-suggested "
    "constraints\n"
    "  report   <graph.(egt|nt|egps)> [--title T] [--k N] [--n N] [--dot]\n"
    "           [--tight D | --diverse D] [--key ...] [--nonkey ...]\n"
    "                                             Markdown dataset report\n"
    "  generate <domain> <out.egt> [--scale S] [--seed S]\n"
    "                                             synthesize a domain graph\n"
    "  convert  <in.(nt|egt|egps)> <out.(egt|egps)>    convert between formats\n"
    "  help                                       this message\n"
    "  version                                    print the version\n";

/// Whether a flag consumes a value ("--k 3", "--k=3") or is boolean.
enum class FlagKind { kBool, kValue };

struct FlagSpec {
  const char* name;
  FlagKind kind;
};

/// Strict --flag parser. Rejects unknown flags, requires a value for
/// value flags (the token after the flag is the value even when it starts
/// with '-', so negative numbers work), and accepts --flag=value.
class Flags {
 public:
  static Result<Flags> Parse(int argc, char** argv, int first,
                             std::vector<FlagSpec> allowed) {
    Flags flags;
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        flags.positional_.push_back(std::move(arg));
        continue;
      }
      std::string name = arg.substr(2);
      std::string value;
      bool has_inline_value = false;
      const size_t eq = name.find('=');
      if (eq != std::string::npos) {
        value = name.substr(eq + 1);
        name = name.substr(0, eq);
        has_inline_value = true;
      }
      const FlagSpec* spec = nullptr;
      for (const FlagSpec& s : allowed) {
        if (name == s.name) {
          spec = &s;
          break;
        }
      }
      if (spec == nullptr) {
        return Status::InvalidArgument("unknown flag '--" + name + "'");
      }
      if (spec->kind == FlagKind::kBool) {
        if (has_inline_value) {
          return Status::InvalidArgument("flag '--" + name +
                                         "' takes no value");
        }
      } else if (!has_inline_value) {
        if (i + 1 >= argc) {
          return Status::InvalidArgument("flag '--" + name +
                                         "' requires a value");
        }
        value = argv[++i];
      }
      flags.values_[name] = std::move(value);
    }
    return flags;
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  std::string Get(const std::string& name, const std::string& dflt) const {
    auto it = values_.find(name);
    return it == values_.end() ? dflt : it->second;
  }
  Result<long> GetInt(const std::string& name, long dflt) const {
    auto it = values_.find(name);
    if (it == values_.end()) return dflt;
    char* end = nullptr;
    const long parsed = std::strtol(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0') {
      return Status::InvalidArgument("flag '--" + name +
                                     "' expects an integer, got '" +
                                     it->second + "'");
    }
    return parsed;
  }
  Result<double> GetDouble(const std::string& name, double dflt) const {
    auto it = values_.find(name);
    if (it == values_.end()) return dflt;
    char* end = nullptr;
    const double parsed = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0') {
      return Status::InvalidArgument("flag '--" + name +
                                     "' expects a number, got '" +
                                     it->second + "'");
    }
    return parsed;
  }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Content-sniffing loader: .egps snapshots by magic, then .nt / EGT by
/// extension (io/graph_io.h).
Result<LoadedGraph> LoadGraph(const std::string& path) {
  return LoadGraphFileAuto(path);
}

/// Runtime failure (exit 1): the request was well-formed but could not be
/// served.
int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Bad usage (exit 2): the invocation itself is wrong.
int UsageError(const std::string& message) {
  std::fprintf(stderr, "egp: %s\n", message.c_str());
  std::fputs(kUsage, stderr);
  return 2;
}

/// Parses --k/--n/--tight/--diverse into the request's constraint fields.
/// All four must be >= 1 when given: zero tables, zero attributes, or a
/// zero distance bound are degenerate requests that the discovery layer
/// would only reject later (or answer vacuously); they are usage errors
/// here, like any malformed value.
Status ParseConstraintFlags(const Flags& flags, uint32_t default_k,
                            uint32_t default_n, SizeConstraint* size,
                            DistanceConstraint* distance) {
  EGP_ASSIGN_OR_RETURN(const long k, flags.GetInt("k", default_k));
  EGP_ASSIGN_OR_RETURN(const long n, flags.GetInt("n", default_n));
  if (k <= 0 || n <= 0) {
    return Status::InvalidArgument("--k and --n must be >= 1");
  }
  size->k = static_cast<uint32_t>(k);
  size->n = static_cast<uint32_t>(n);
  if (flags.Has("tight") && flags.Has("diverse")) {
    return Status::InvalidArgument("--tight and --diverse are exclusive");
  }
  if (flags.Has("tight")) {
    EGP_ASSIGN_OR_RETURN(const long d, flags.GetInt("tight", 2));
    if (d <= 0) return Status::InvalidArgument("--tight must be >= 1");
    *distance = DistanceConstraint::Tight(static_cast<uint32_t>(d));
  } else if (flags.Has("diverse")) {
    EGP_ASSIGN_OR_RETURN(const long d, flags.GetInt("diverse", 2));
    if (d <= 0) return Status::InvalidArgument("--diverse must be >= 1");
    *distance = DistanceConstraint::Diverse(static_cast<uint32_t>(d));
  }
  return Status::OK();
}

int CmdStats(const std::string& path) {
  auto graph = LoadGraph(path);
  if (!graph.ok()) return Fail(graph.status());
  const Engine engine = Engine::FromGraph(std::move(graph->graph));
  const EntityGraphStats g = ComputeEntityGraphStats(*engine.graph());
  const SchemaGraphStats s = ComputeSchemaGraphStats(engine.schema());
  std::printf("entity graph : %llu entities, %llu relationships\n",
              (unsigned long long)g.num_entities,
              (unsigned long long)g.num_edges);
  std::printf("               %llu multi-typed, %llu isolated, avg "
              "out-degree %.2f (max %llu)\n",
              (unsigned long long)g.multi_typed_entities,
              (unsigned long long)g.isolated_entities, g.avg_out_degree,
              (unsigned long long)g.max_out_degree);
  std::printf("schema graph : %llu entity types, %llu relationship types\n",
              (unsigned long long)s.num_types,
              (unsigned long long)s.num_rel_types);
  std::printf("               %llu components, diameter %u, avg path %.2f, "
              "%llu self-loops, %llu parallel type-pairs\n",
              (unsigned long long)s.num_components, s.diameter,
              s.average_path_length, (unsigned long long)s.self_loops,
              (unsigned long long)s.parallel_edge_pairs);
  return 0;
}

/// Parses --threads into engine options. When absent, 0 ("auto") resolves
/// to egp::Threads(); an explicit value must be >= 1 — `--threads 0`
/// almost always means a script computed the value wrong, so it is a
/// usage error rather than a silent alias for auto (which spelling the
/// flag out or EGP_THREADS already provide).
Status ParseThreadsFlag(const Flags& flags, EngineOptions* options) {
  if (!flags.Has("threads")) {
    options->threads = 0;  // auto
    return Status::OK();
  }
  EGP_ASSIGN_OR_RETURN(const long threads, flags.GetInt("threads", 0));
  if (threads <= 0) {
    return Status::InvalidArgument(
        "--threads must be >= 1 (omit the flag for all hardware threads)");
  }
  options->threads = static_cast<unsigned>(threads);
  return Status::OK();
}

int CmdPreview(const std::string& path, const Flags& flags) {
  auto graph = LoadGraph(path);
  if (!graph.ok()) return Fail(graph.status());
  EngineOptions engine_options;
  const Status threads = ParseThreadsFlag(flags, &engine_options);
  if (!threads.ok()) return UsageError(threads.message());
  const Engine engine =
      Engine::FromGraph(std::move(graph->graph), engine_options);

  PreviewRequest request;
  const Status constraints = ParseConstraintFlags(
      flags, 2, 6, &request.size, &request.distance);
  if (!constraints.ok()) return UsageError(constraints.message());
  request.measures.key = flags.Get("key", "coverage");
  request.measures.nonkey = flags.Get("nonkey", "coverage");
  request.algorithm = flags.Get("algo", "auto");
  // Malformed values are usage errors (exit 2), not runtime failures:
  // validate names up front instead of letting the Engine report them.
  const auto algorithm = CanonicalAlgorithmName(request.algorithm);
  if (!algorithm.ok()) return UsageError(algorithm.status().message());
  const ScoringRegistry& registry = ScoringRegistry::Global();
  if (!registry.HasKeyMeasure(request.measures.key)) {
    return UsageError("unknown --key measure '" + request.measures.key +
                      "'");
  }
  if (!registry.HasNonKeyMeasure(request.measures.nonkey)) {
    return UsageError("unknown --nonkey measure '" +
                      request.measures.nonkey + "'");
  }
  const auto rows = flags.GetInt("rows", 4);
  if (!rows.ok()) return UsageError(rows.status().message());
  if (*rows < 0) return UsageError("--rows must be non-negative");
  const auto seed = flags.GetInt("seed", 42);
  if (!seed.ok()) return UsageError(seed.status().message());
  request.sample_rows = static_cast<size_t>(*rows);
  request.sample_seed = static_cast<uint64_t>(*seed);
  request.merge_multiway_columns = flags.Has("merge-multiway");

  auto response = engine.Preview(request);
  if (!response.ok()) return Fail(response.status());

  if (flags.Has("verbose")) {
    const PrepareTimings& t = response->prepare_timings;
    std::fprintf(stderr,
                 "prepare : %.3f ms total (key %.3f, nonkey %.3f, distances "
                 "%.3f, candidate sort %.3f)%s\n",
                 t.total_seconds * 1e3, t.key_seconds * 1e3,
                 t.nonkey_seconds * 1e3, t.distance_seconds * 1e3,
                 t.candidate_sort_seconds * 1e3,
                 response->prepared_cache_hit ? " [cache hit]" : "");
    std::fprintf(stderr, "discover: %.3f ms (%s)\n",
                 response->discover_seconds * 1e3,
                 response->algorithm.c_str());
    if (request.sample_rows > 0) {
      std::fprintf(stderr, "sample  : %.3f ms\n",
                   response->sample_seconds * 1e3);
    }
    const Engine::CacheStats cache = engine.cache_stats();
    std::fprintf(stderr,
                 "cache   : %zu entr%s, %llu hit(s), %llu miss(es), %llu "
                 "eviction(s)\n",
                 cache.entries, cache.entries == 1 ? "y" : "ies",
                 (unsigned long long)cache.hits,
                 (unsigned long long)cache.misses,
                 (unsigned long long)cache.evictions);
  }

  if (flags.Has("json")) {
    std::printf("%s\n",
                MaterializedPreviewToJson(*engine.graph(),
                                          response->materialized)
                    .c_str());
  } else {
    std::printf("score %.6g\n%s\n%s", response->score,
                DescribePreview(response->preview, *response->prepared)
                    .c_str(),
                RenderPreview(*engine.graph(), response->materialized)
                    .c_str());
  }
  return 0;
}

int CmdSuggest(const std::string& path, const Flags& flags) {
  auto graph = LoadGraph(path);
  if (!graph.ok()) return Fail(graph.status());
  EngineOptions engine_options;
  const Status threads = ParseThreadsFlag(flags, &engine_options);
  if (!threads.ok()) return UsageError(threads.message());
  const Engine engine =
      Engine::FromGraph(std::move(graph->graph), engine_options);
  DisplayBudget budget;
  const auto width = flags.GetInt("width", 120);
  const auto height = flags.GetInt("height", 40);
  if (!width.ok()) return UsageError(width.status().message());
  if (!height.ok()) return UsageError(height.status().message());
  budget.width_chars = static_cast<uint32_t>(*width);
  budget.height_rows = static_cast<uint32_t>(*height);
  const auto suggestion = engine.Suggest(budget);
  if (!suggestion.ok()) return Fail(suggestion.status());
  std::printf("suggested: k=%u n=%u tight_d=%u diverse_d=%u\n",
              suggestion->size.k, suggestion->size.n, suggestion->tight_d,
              suggestion->diverse_d);
  std::printf("rationale: %s\n", suggestion->rationale.c_str());
  return 0;
}

int CmdReport(const std::string& path, const Flags& flags) {
  auto graph = LoadGraph(path);
  if (!graph.ok()) return Fail(graph.status());
  ReportOptions options;
  options.title = flags.Get("title", "Dataset preview: " + path);
  const Status constraints =
      ParseConstraintFlags(flags, 3, 9, &options.size, &options.distance);
  if (!constraints.ok()) return UsageError(constraints.message());
  // The report layer still takes the built-in measures by enum.
  const std::string key = flags.Get("key", "coverage");
  const std::string nonkey = flags.Get("nonkey", "coverage");
  if (key == "randomwalk") {
    options.measures.key_measure = KeyMeasure::kRandomWalk;
  } else if (key != "coverage") {
    return UsageError("unknown --key measure '" + key +
                      "' (available: coverage, randomwalk)");
  }
  if (nonkey == "entropy") {
    options.measures.nonkey_measure = NonKeyMeasure::kEntropy;
  } else if (nonkey != "coverage") {
    return UsageError("unknown --nonkey measure '" + nonkey +
                      "' (available: coverage, entropy)");
  }
  options.include_dot = flags.Has("dot");
  const auto report = GeneratePreviewReport(graph->graph, options);
  if (!report.ok()) return Fail(report.status());
  std::printf("%s", report->c_str());
  return 0;
}

int CmdGenerate(const Flags& flags) {
  if (flags.positional().size() != 2) {
    return UsageError("generate needs <domain> <out.egt>");
  }
  GeneratorOptions options;
  const auto scale = flags.GetDouble("scale", 0.0);
  const auto seed = flags.GetInt("seed", 0);
  if (!scale.ok()) return UsageError(scale.status().message());
  if (!seed.ok()) return UsageError(seed.status().message());
  options.scale = *scale;
  options.seed = static_cast<uint64_t>(*seed);
  auto domain = GenerateDomainByName(flags.positional()[0], options);
  if (!domain.ok()) return Fail(domain.status());
  const Status write =
      WriteEntityGraphFile(domain->graph, flags.positional()[1]);
  if (!write.ok()) return Fail(write);
  std::printf("wrote %zu entities / %zu relationships to %s\n",
              domain->graph.num_entities(), domain->graph.num_edges(),
              flags.positional()[1].c_str());
  return 0;
}

int CmdConvert(const Flags& flags) {
  if (flags.positional().size() != 2) {
    return UsageError("convert needs <in.(nt|egt|egps)> <out.(egt|egps)>");
  }
  auto graph = LoadGraph(flags.positional()[0]);
  if (!graph.ok()) return Fail(graph.status());
  // The output format follows the output extension: .egps gets a real
  // binary snapshot (what egp_compile writes), anything else EGT text —
  // never text bytes under a snapshot name, which every loader rejects.
  const std::string& out_path = flags.positional()[1];
  const Status write =
      EndsWith(out_path, ".egps")
          ? WriteSnapshotFile(graph->graph, out_path)
          : WriteEntityGraphFile(graph->graph, out_path);
  if (!write.ok()) return Fail(write);
  std::printf("converted %s -> %s (%zu entities, %zu relationships)\n",
              flags.positional()[0].c_str(), out_path.c_str(),
              graph->graph.num_entities(), graph->graph.num_edges());
  return 0;
}

/// Parses with the subcommand's flag vocabulary; a parse error is a usage
/// error. Returns the exit code through `*exit_code` on failure.
bool ParseOrUsage(int argc, char** argv, std::vector<FlagSpec> allowed,
                  Flags* flags, int* exit_code) {
  auto parsed = Flags::Parse(argc, argv, 2, std::move(allowed));
  if (!parsed.ok()) {
    *exit_code = UsageError(parsed.status().message());
    return false;
  }
  *flags = std::move(parsed).value();
  return true;
}

const std::vector<FlagSpec> kPreviewFlags = {
    {"k", FlagKind::kValue},        {"n", FlagKind::kValue},
    {"tight", FlagKind::kValue},    {"diverse", FlagKind::kValue},
    {"key", FlagKind::kValue},      {"nonkey", FlagKind::kValue},
    {"algo", FlagKind::kValue},     {"rows", FlagKind::kValue},
    {"seed", FlagKind::kValue},     {"threads", FlagKind::kValue},
    {"verbose", FlagKind::kBool},   {"json", FlagKind::kBool},
    {"merge-multiway", FlagKind::kBool}};

const std::vector<FlagSpec> kReportFlags = {
    {"title", FlagKind::kValue},  {"k", FlagKind::kValue},
    {"n", FlagKind::kValue},      {"tight", FlagKind::kValue},
    {"diverse", FlagKind::kValue}, {"key", FlagKind::kValue},
    {"nonkey", FlagKind::kValue}, {"dot", FlagKind::kBool}};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return UsageError("missing subcommand");
  const std::string command = argv[1];

  if (command == "help" || command == "--help" || command == "-h") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (command == "version" || command == "--version") {
    std::printf("egp %s\n", EGP_VERSION_STRING);
    return 0;
  }

  Flags flags;
  int exit_code = 0;
  if (command == "stats") {
    if (!ParseOrUsage(argc, argv, {}, &flags, &exit_code)) return exit_code;
    if (flags.positional().size() != 1) {
      return UsageError("stats needs <graph.(egt|nt|egps)>");
    }
    return CmdStats(flags.positional()[0]);
  }
  if (command == "preview") {
    if (!ParseOrUsage(argc, argv, kPreviewFlags, &flags, &exit_code)) {
      return exit_code;
    }
    if (flags.positional().size() != 1) {
      return UsageError("preview needs <graph.(egt|nt|egps)>");
    }
    return CmdPreview(flags.positional()[0], flags);
  }
  if (command == "suggest") {
    if (!ParseOrUsage(argc, argv,
                      {{"width", FlagKind::kValue},
                       {"height", FlagKind::kValue},
                       {"threads", FlagKind::kValue}},
                      &flags, &exit_code)) {
      return exit_code;
    }
    if (flags.positional().size() != 1) {
      return UsageError("suggest needs <graph.(egt|nt|egps)>");
    }
    return CmdSuggest(flags.positional()[0], flags);
  }
  if (command == "report") {
    if (!ParseOrUsage(argc, argv, kReportFlags, &flags, &exit_code)) {
      return exit_code;
    }
    if (flags.positional().size() != 1) {
      return UsageError("report needs <graph.(egt|nt|egps)>");
    }
    return CmdReport(flags.positional()[0], flags);
  }
  if (command == "generate") {
    if (!ParseOrUsage(argc, argv,
                      {{"scale", FlagKind::kValue},
                       {"seed", FlagKind::kValue}},
                      &flags, &exit_code)) {
      return exit_code;
    }
    return CmdGenerate(flags);
  }
  if (command == "convert") {
    if (!ParseOrUsage(argc, argv, {}, &flags, &exit_code)) return exit_code;
    return CmdConvert(flags);
  }
  return UsageError("unknown subcommand '" + command + "'");
}
