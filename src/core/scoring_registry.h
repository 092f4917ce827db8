// String-keyed registry of scoring measures.
//
// The paper fixes two key measures (§3.2) and two non-key measures (§3.3),
// but the serving layer treats measures as pluggable: callers select them
// by name ("coverage", "randomwalk", "entropy") and extensions register
// new ones without touching any options struct. The registry is the single
// source of truth for what a measure name means, and MeasureSelection is
// the one way to pick a measure, from the CLI and the HTTP API down to
// the benches.
#ifndef EGP_CORE_SCORING_REGISTRY_H_
#define EGP_CORE_SCORING_REGISTRY_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "core/key_scoring.h"
#include "core/nonkey_scoring.h"
#include "graph/entity_graph.h"
#include "graph/schema_graph.h"

namespace egp {

class ThreadPool;

/// Everything a key scorer may consult. `graph` is null when only the
/// schema graph is available (schema-only serving, synthetic workloads) —
/// measures that need the data graph must fail cleanly in that case.
/// `pool` is the thread pool the surrounding PreparedSchema build runs
/// on, or null for a serial build; scorers may ParallelFor over it but
/// must produce results independent of its parallelism.
struct ScoringContext {
  const SchemaGraph& schema;
  const EntityGraph* graph = nullptr;
  RandomWalkOptions walk;
  ThreadPool* pool = nullptr;
};

/// Everything a non-key scorer may consult: ScoringContext without the
/// walk options. A non-key score reads the graphs and its measure alone,
/// so an Engine computes it once per measure name (NonKeyPart); with no
/// other input in reach, the name is provably the whole memo key.
struct NonKeyScoringContext {
  const SchemaGraph& schema;
  const EntityGraph* graph = nullptr;
  ThreadPool* pool = nullptr;
};

/// S(τ) for every type; indexed by TypeId.
using KeyScorerFn =
    std::function<Result<std::vector<double>>(const ScoringContext&)>;
/// Sτ(γ) per schema edge and direction.
using NonKeyScorerFn =
    std::function<Result<NonKeyScores>(const NonKeyScoringContext&)>;

/// Selects scoring measures by registry name. The default configuration
/// reproduces the paper's headline setting (coverage / coverage).
struct MeasureSelection {
  std::string key = "coverage";
  std::string nonkey = "coverage";
  /// Parameters for the "randomwalk" key measure; ignored by others.
  RandomWalkOptions walk;
};

/// Thread-safe name → scorer registry. `Global()` comes preloaded with the
/// paper's measures:
///   key:    "coverage" (S_cov), "randomwalk" (S_walk)
///   nonkey: "coverage" (Sτ_cov), "entropy" (Sτ_ent; needs the data graph)
class ScoringRegistry {
 public:
  /// The process-wide registry used by name-based PreparedSchema creation
  /// and the serving Engine.
  static ScoringRegistry& Global();

  /// Registers a measure. Fails with AlreadyExists if the name is taken
  /// (including the built-in names) and InvalidArgument on an empty name
  /// or scorer. A name therefore never changes meaning, which lets an
  /// Engine keep a non-key measure's scores for its whole life.
  Status RegisterKeyMeasure(const std::string& name, KeyScorerFn scorer);
  Status RegisterNonKeyMeasure(const std::string& name, NonKeyScorerFn scorer);

  /// Looks a measure up; NotFound errors list the registered names.
  Result<KeyScorerFn> FindKeyMeasure(const std::string& name) const;
  Result<NonKeyScorerFn> FindNonKeyMeasure(const std::string& name) const;

  bool HasKeyMeasure(const std::string& name) const;
  bool HasNonKeyMeasure(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> KeyMeasureNames() const;
  std::vector<std::string> NonKeyMeasureNames() const;

 private:
  friend class ScoringRegistryTestPeer;
  ScoringRegistry();

  mutable Mutex mu_;
  std::map<std::string, KeyScorerFn> key_measures_ EGP_GUARDED_BY(mu_);
  std::map<std::string, NonKeyScorerFn> nonkey_measures_ EGP_GUARDED_BY(mu_);
};

}  // namespace egp

#endif  // EGP_CORE_SCORING_REGISTRY_H_
