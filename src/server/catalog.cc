#include "server/catalog.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/timer.h"

namespace egp {
namespace {

bool ValidDatasetName(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

DatasetCatalog::Info MakeInfo(const std::string& name,
                              const std::string& path, const Engine& engine) {
  DatasetCatalog::Info info;
  info.name = name;
  info.path = path;
  if (const EntityGraph* graph = engine.graph()) {
    info.entities = graph->num_entities();
    info.relationships = graph->num_edges();
  }
  info.entity_types = engine.schema().num_types();
  info.relationship_types = engine.schema().edges().size();
  return info;
}

/// Per-dataset load result, filled by one (possibly pooled) job.
struct LoadSlot {
  Result<Engine> engine = Status::Internal("dataset not loaded");
  std::string storage = "unknown";
  double load_seconds = 0.0;
};

}  // namespace

Result<DatasetSpec> ParseDatasetSpec(const std::string& spec) {
  const size_t eq = spec.find('=');
  if (eq == std::string::npos) {
    return Status::InvalidArgument("--dataset expects name=path, got '" +
                                   spec + "'");
  }
  DatasetSpec parsed;
  parsed.name = spec.substr(0, eq);
  parsed.path = spec.substr(eq + 1);
  if (!ValidDatasetName(parsed.name)) {
    return Status::InvalidArgument(
        "dataset name '" + parsed.name +
        "' must be non-empty [A-Za-z0-9_.-] (it appears in URLs and "
        "metric labels)");
  }
  if (parsed.path.empty()) {
    return Status::InvalidArgument("dataset '" + parsed.name +
                                   "' has an empty path");
  }
  return parsed;
}

Result<DatasetCatalog> DatasetCatalog::Load(
    const std::vector<DatasetSpec>& specs, const CatalogLoadOptions& options) {
  for (const DatasetSpec& spec : specs) {
    if (!ValidDatasetName(spec.name)) {
      return Status::InvalidArgument("invalid dataset name '" + spec.name +
                                     "'");
    }
  }

  // One load job per dataset. Each job only writes its own slot, so the
  // result is independent of scheduling; a startup with many datasets
  // costs max(load time), not the sum.
  std::vector<LoadSlot> slots(specs.size());
  const auto load_one = [&](size_t i) {
    Timer timer;
    LoadSlot& slot = slots[i];
    if (const Status fault = FaultInjectStatus("catalog.load", specs[i].name);
        !fault.ok()) {
      slot.engine = fault;
      return;
    }
    auto loaded = LoadGraphFileAuto(specs[i].path, options.snapshot);
    if (!loaded.ok()) {
      slot.engine = loaded.status();
      EGP_LOG(Warning) << "dataset '" << specs[i].name << "' failed to load"
                       << " path=" << specs[i].path << ": "
                       << loaded.status().message();
      return;
    }
    slot.storage = GraphStorageName(loaded->storage);
    slot.engine = Engine::FromGraph(std::move(loaded->graph), options.engine);
    slot.load_seconds = timer.ElapsedSeconds();
    EGP_LOG(Info) << "dataset '" << specs[i].name << "' loaded path="
                  << specs[i].path << " storage=" << slot.storage
                  << " seconds=" << slot.load_seconds;
  };
  // ThreadPool clamps the parallelism to [1, kMaxThreads].
  ThreadPool pool(static_cast<unsigned>(std::min<size_t>(
      specs.size(),
      options.load_threads == 0 ? Threads() : options.load_threads)));
  ParallelFor(&pool, 0, specs.size(), load_one);

  std::vector<std::pair<std::string, Engine>> engines;
  std::vector<FailedDataset> failed;
  engines.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    if (!slots[i].engine.ok()) {
      const Status annotated(slots[i].engine.status().code(),
                             "dataset '" + specs[i].name + "': " +
                                 slots[i].engine.status().message());
      if (!options.allow_partial) return annotated;
      failed.push_back(FailedDataset{specs[i].name, specs[i].path,
                                     std::string(annotated.message())});
      continue;
    }
    engines.emplace_back(specs[i].name, std::move(slots[i].engine).value());
  }
  if (engines.empty() && !failed.empty()) {
    // Nothing left to serve: degraded-but-empty is just "down", so
    // report it as the hard failure it is.
    return Status(StatusCode::kIOError, failed.front().error);
  }
  auto catalog = FromEngines(std::move(engines));
  if (!catalog.ok()) return catalog.status();
  std::sort(failed.begin(), failed.end(),
            [](const FailedDataset& a, const FailedDataset& b) {
              return a.name < b.name;
            });
  catalog->failed_ = std::move(failed);
  if (catalog->degraded()) {
    // A degraded catalog never has an implicit default: a request that
    // omits "dataset" must not silently land on whichever one survived.
    catalog->default_name_.clear();
  }
  // Replace the in-process placeholders with the on-disk facts.
  for (Info& info : catalog->infos_) {
    for (size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].name == info.name) {
        info.path = specs[i].path;
        info.storage = slots[i].storage;
        info.load_seconds = slots[i].load_seconds;
        break;
      }
    }
  }
  return catalog;
}

Result<DatasetCatalog> DatasetCatalog::Load(
    const std::vector<DatasetSpec>& specs,
    const EngineOptions& engine_options) {
  CatalogLoadOptions options;
  options.engine = engine_options;
  return Load(specs, options);
}

Result<DatasetCatalog> DatasetCatalog::FromEngines(
    std::vector<std::pair<std::string, Engine>> engines) {
  if (engines.empty()) {
    return Status::InvalidArgument("no datasets given (use --dataset "
                                   "name=path at least once)");
  }
  DatasetCatalog catalog;
  for (auto& [name, engine] : engines) {
    if (!ValidDatasetName(name)) {
      return Status::InvalidArgument("invalid dataset name '" + name + "'");
    }
    if (catalog.engines_.count(name) > 0) {
      return Status::InvalidArgument("duplicate dataset name '" + name + "'");
    }
    catalog.infos_.push_back(MakeInfo(name, "<in-process>", engine));
    catalog.engines_.emplace(name, std::move(engine));
  }
  std::sort(catalog.infos_.begin(), catalog.infos_.end(),
            [](const Info& a, const Info& b) { return a.name < b.name; });
  if (catalog.engines_.size() == 1) {
    catalog.default_name_ = catalog.infos_.front().name;
  }
  return catalog;
}

const Engine* DatasetCatalog::Find(const std::string& name) const {
  const auto it = engines_.find(name);
  return it == engines_.end() ? nullptr : &it->second;
}

const Engine* DatasetCatalog::Default() const {
  return default_name_.empty() ? nullptr : Find(default_name_);
}

const DatasetCatalog::FailedDataset* DatasetCatalog::FindFailed(
    const std::string& name) const {
  for (const FailedDataset& f : failed_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

}  // namespace egp
