// egp::Engine — the unified request/response façade for preview serving.
//
// The paper treats preview generation as an interactive, repeated
// operation: a user explores one entity graph, re-issuing requests with
// different (k, n, d) and scoring measures. The Engine is built for that
// shape. It holds one immutable graph snapshot (shared, never copied per
// request) with its schema graph and all-pairs type distance matrix,
// memoizes the per-measure-configuration state (PreparedSchema: key
// scores) in an LRU-bounded memo (service/memo.h), and serves
// PreviewRequest → Result<PreviewResponse> safely from any number of
// threads. Follow-up requests that only change the constraints hit the
// cache and pay just the discovery cost. The expensive part of a
// configuration, its non-key scores sorted into Γτ (NonKeyPart), depends
// on the non-key measure alone, so it is computed once per non-key
// measure name and shared by every configuration that names it: a new
// key measure or walk setting pays only its key scorer. Both memos fill
// the same way: a failed build or computation leaves no entry behind, so
// the next identical request computes again.
//
// The layer underneath (PreparedSchema, the Discover() dispatch and the
// per-algorithm functions behind it, MaterializePreview) remains
// available as the documented internal layer; application code — CLI,
// examples, services — should go through the Engine.
#ifndef EGP_SERVICE_ENGINE_H_
#define EGP_SERVICE_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/advisor.h"
#include "core/candidates.h"
#include "core/constraints.h"
#include "core/discover.h"  // CanonicalAlgorithmName, DiscoveryStats
#include "core/preview.h"
#include "core/scoring_registry.h"
#include "core/tuple_sampler.h"
#include "graph/entity_graph.h"
#include "graph/schema_distance.h"
#include "graph/schema_graph.h"

namespace egp {

/// One preview-serving request.
struct PreviewRequest {
  /// Explicit constraints (Def. 2). Ignored when `budget` is set.
  SizeConstraint size{2, 6};
  DistanceConstraint distance;

  /// When set, the constraint advisor derives (k, n) — and d, when
  /// `suggested_distance` asks for a tight/diverse preview — from this
  /// display budget; the response carries the advisor's rationale.
  std::optional<DisplayBudget> budget;
  /// Which suggested distance constraint to apply under `budget`:
  /// kNone (concise), kTight, or kDiverse.
  DistanceMode suggested_distance = DistanceMode::kNone;

  /// Scoring measures, by ScoringRegistry name.
  MeasureSelection measures;

  /// Algorithm name; see CanonicalAlgorithmName.
  std::string algorithm = "auto";

  /// Rows to sample per preview table; 0 skips materialization (the
  /// response then carries only the schema-level preview).
  size_t sample_rows = 0;
  uint64_t sample_seed = 42;
  SamplingStrategy sample_strategy = SamplingStrategy::kRandom;
  /// Fold same-surface attributes into one multi-way column (Appendix B).
  bool merge_multiway_columns = false;
};

/// Everything a caller needs to render, inspect, or re-score the result.
struct PreviewResponse {
  Preview preview;
  /// S(P) under the prepared scores (Eq. 1).
  double score = 0.0;
  /// Sampled tuples; tables is empty when sample_rows was 0.
  MaterializedPreview materialized;

  /// The effective constraints (post-advisor when a budget was given).
  SizeConstraint size;
  DistanceConstraint distance;
  /// Advisor rationale; empty unless the request carried a budget.
  std::string rationale;
  /// Canonical name of the algorithm that ran ("dp", "apriori", ...).
  std::string algorithm;

  DiscoveryStats stats;
  /// Whether the prepared (scored) state came from the Engine's cache.
  bool prepared_cache_hit = false;
  double prepare_seconds = 0.0;
  double discover_seconds = 0.0;
  double sample_seconds = 0.0;
  /// Per-phase breakdown (key / non-key scoring, distances, Γτ sort) of
  /// the build that produced `prepared`. On a cache hit this describes
  /// the original build, not this request's wait (= prepare_seconds).
  PrepareTimings prepare_timings;

  /// The immutable prepared snapshot the preview was discovered against;
  /// use it with DescribePreview, ValidatePreview, Preview::Score, etc.
  std::shared_ptr<const PreparedSchema> prepared;
};

struct EngineOptions {
  /// Maximum memoized PreparedSchema instances (distinct measure
  /// configurations); the least-recently-used entry is evicted beyond
  /// this. 0 means unbounded. The non-key parts they share are not
  /// evicted with them.
  size_t prepared_cache_capacity = 16;

  /// Parallelism for PreparedSchema builds: 0 resolves to egp::Threads()
  /// (hardware concurrency, overridable via EGP_THREADS), 1 builds
  /// serially with no pool at all, n uses n-way ParallelFor (clamped to
  /// egp::kMaxThreads). Scores are
  /// bit-identical at every setting — this knob trades build latency
  /// only. The pool is owned by the engine, created lazily on the first
  /// cold-configuration build, and shared by concurrent builds.
  unsigned threads = 0;
};

/// Thread-safe preview-serving engine over one immutable graph snapshot.
/// Copying an Engine is cheap and yields a handle to the same snapshot
/// and cache; all const methods may be called concurrently.
class Engine {
 public:
  /// Serves `graph`; the schema graph is derived once here. All measures
  /// (including data-graph ones like "entropy") and tuple sampling are
  /// available.
  static Engine FromGraph(EntityGraph graph,
                          const EngineOptions& options = {});

  /// Serves a schema graph only (synthetic workloads, incremental
  /// re-serving of maintained statistics). Requests needing the data
  /// graph — "entropy" scoring, sample_rows > 0 — fail with
  /// InvalidArgument.
  static Engine FromSchema(SchemaGraph schema,
                           const EngineOptions& options = {});

  /// Serves one request. Thread-safe.
  Result<PreviewResponse> Preview(const PreviewRequest& request) const;

  /// Runs the constraint advisor against the (memoized) prepared state
  /// for `measures`. Thread-safe.
  Result<ConstraintSuggestion> Suggest(
      const DisplayBudget& budget, const MeasureSelection& measures = {}) const;

  /// The memoized prepared snapshot for a measure configuration —
  /// the supported way to reach scored-candidate state (key rankings,
  /// distances) without re-deriving it per call. Thread-safe.
  Result<std::shared_ptr<const PreparedSchema>> Prepared(
      const MeasureSelection& measures = {}) const;

  /// True when the prepared snapshot for `measures` is already built and
  /// usable — a request for it would be a cache hit that pays no build.
  /// A pure probe: no build is started, no hit/miss counter moves, and
  /// LRU recency is untouched. An entry still being built reports false.
  /// The serving layer uses this to classify requests as hot (cache hit)
  /// vs cold (PreparedSchema build) for cost-based admission.
  /// Thread-safe; the answer is advisory — another thread may complete
  /// or evict the entry right after. Eviction only happens under
  /// cache-capacity pressure, so a "hot" answer going stale is rare and
  /// costs one mis-classified build.
  bool IsPrepared(const MeasureSelection& measures = {}) const;

  /// The entity graph, or nullptr for a schema-only engine.
  const EntityGraph* graph() const;
  const SchemaGraph& schema() const;
  /// The schema's distance matrix, built once with the engine and shared
  /// by every prepared snapshot.
  const SchemaDistanceMatrix& distances() const;

  /// Prepared-schema cache introspection (served on /metrics by the
  /// HTTP subsystem and printed by `egp_cli --verbose`). Counters are
  /// cumulative since construction; `entries` is the current size.
  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;  // LRU capacity evictions (not failure drops)
    size_t entries = 0;
  };
  CacheStats cache_stats() const;

  /// One prepared-cache entry, for GET /v1/debug/cache: which measure
  /// configurations are resident, how hot each one is, how old it is,
  /// and roughly what it owns in memory (its key scores: the parts it
  /// shares are listed once, by nonkey_parts() and distances()). A
  /// listed entry is building or ready: a failed build is not listed.
  /// While it builds, approx_bytes is 0.
  struct CacheEntryInfo {
    std::string measures;      // human-readable configuration
    bool ready = false;        // build finished successfully
    bool building = false;     // build still in flight
    uint64_t hits = 0;         // cache hits served by this entry
    double age_seconds = 0;    // since insertion
    double idle_seconds = 0;   // since last hit (== age when never hit)
    size_t approx_bytes = 0;   // PreparedSchema::ApproximateBytes()
  };
  /// Current cache contents, most-recently-used first. Thread-safe.
  std::vector<CacheEntryInfo> cache_entries() const;

  /// One memoized non-key part, for GET /v1/debug/cache. Parts are kept
  /// for the engine's life: the registry refuses to rebind a measure
  /// name, so a name's scores never go stale, and the registered names
  /// bound how many there are. A failed computation is dropped, so a
  /// later request retries it.
  struct NonKeyPartInfo {
    std::string measure;      // non-key measure name
    bool ready = false;       // computed successfully
    bool building = false;    // computation still in flight
    size_t approx_bytes = 0;  // NonKeyPart::ApproximateBytes()
    double seconds = 0;       // the one computation: scoring + Γτ sorts
  };
  /// Memoized non-key parts, by measure name. Thread-safe.
  std::vector<NonKeyPartInfo> nonkey_parts() const;

 private:
  struct State;
  explicit Engine(std::shared_ptr<State> state) : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

}  // namespace egp

#endif  // EGP_SERVICE_ENGINE_H_
