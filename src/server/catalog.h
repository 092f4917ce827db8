// DatasetCatalog: the multi-dataset layer of the serving subsystem — one
// immutable egp::Engine per loaded entity graph, addressed by name.
//
// egp_server is started with repeated `--dataset name=path` flags; the
// catalog loads each graph (.egps binary snapshots detected by magic,
// otherwise .nt / .egt text by extension), derives its Engine, and
// serves lookups from then on without locks: the catalog is immutable
// after Load, and the Engines themselves are thread-safe. Loading fans
// out across a thread pool — one job per dataset — so a many-dataset
// catalog opens in max(dataset time), not sum.
#ifndef EGP_SERVER_CATALOG_H_
#define EGP_SERVER_CATALOG_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "io/graph_io.h"
#include "service/engine.h"

namespace egp {

/// One `--dataset name=path` argument.
struct DatasetSpec {
  std::string name;
  std::string path;
};

/// Parses "name=path". The name becomes part of URLs and metric labels,
/// so it is restricted to [A-Za-z0-9_.-], non-empty.
Result<DatasetSpec> ParseDatasetSpec(const std::string& spec);

struct CatalogLoadOptions {
  EngineOptions engine;
  /// Concurrent dataset loads: 0 resolves to min(#datasets,
  /// egp::Threads()), 1 loads sequentially.
  unsigned load_threads = 0;
  /// How .egps snapshots are opened (mmap zero-copy by default).
  SnapshotOpenOptions snapshot;
  /// When true (the default) a dataset that fails to load does not sink
  /// the whole catalog: the healthy datasets serve and the failures are
  /// reported via failed() (surfaced as "degraded" on /healthz). When
  /// every dataset fails — or this is false (egp_server --strict-load) —
  /// Load returns the first failure.
  bool allow_partial = true;
};

class DatasetCatalog {
 public:
  /// Summary of one loaded dataset, computed at load time.
  struct Info {
    std::string name;
    std::string path;
    size_t entities = 0;
    size_t relationships = 0;
    size_t entity_types = 0;
    size_t relationship_types = 0;
    /// GraphStorageName of the on-disk representation ("nt", "egt",
    /// "snapshot"), or "memory" for FromEngines catalogs.
    std::string storage = "memory";
    /// Wall-clock seconds spent opening this dataset (parse/open plus
    /// Engine construction); 0 for FromEngines catalogs.
    double load_seconds = 0.0;
  };

  /// A dataset that failed to load in a partial (degraded) catalog.
  struct FailedDataset {
    std::string name;
    std::string path;
    std::string error;
  };

  /// Loads every spec from disk; duplicate names and an empty spec list
  /// are errors. An unloadable file is an error only when
  /// `options.allow_partial` is false or every dataset fails — otherwise
  /// the catalog comes up degraded (see failed()). Datasets load
  /// concurrently per `options.load_threads`.
  static Result<DatasetCatalog> Load(const std::vector<DatasetSpec>& specs,
                                     const CatalogLoadOptions& options = {});

  /// Back-compat convenience: engine options only.
  static Result<DatasetCatalog> Load(const std::vector<DatasetSpec>& specs,
                                     const EngineOptions& engine_options);

  /// Builds a catalog from already-constructed engines (in-process
  /// tests; `path` in Info is the given label).
  static Result<DatasetCatalog> FromEngines(
      std::vector<std::pair<std::string, Engine>> engines);

  /// The engine serving `name`, or nullptr.
  const Engine* Find(const std::string& name) const;

  /// The single engine when exactly one dataset is loaded (so requests
  /// may omit "dataset"), nullptr otherwise.
  const Engine* Default() const;
  const std::string& default_name() const { return default_name_; }

  /// Sorted by name.
  const std::vector<Info>& infos() const { return infos_; }
  size_t size() const { return infos_.size(); }

  /// Datasets that failed to load (sorted by name); empty unless Load
  /// ran with allow_partial and some-but-not-all datasets failed.
  const std::vector<FailedDataset>& failed() const { return failed_; }
  bool degraded() const { return !failed_.empty(); }
  /// The failure record for `name`, or nullptr if it loaded (or was
  /// never requested).
  const FailedDataset* FindFailed(const std::string& name) const;

 private:
  std::map<std::string, Engine> engines_;
  std::vector<Info> infos_;
  std::vector<FailedDataset> failed_;
  std::string default_name_;
};

}  // namespace egp

#endif  // EGP_SERVER_CATALOG_H_
