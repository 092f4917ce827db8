// PreparedSchema: everything discovery algorithms need, computed once.
//
// Mirrors the paper's cost model (§5): "Both the schema graph and the
// scoring measures ... are computed before optimal preview discovery."
// Holds the chosen key-attribute scores, the per-type candidate non-key
// attribute lists Γτ sorted by score with prefix sums, and the all-pairs
// type distance matrix.
#ifndef EGP_CORE_CANDIDATES_H_
#define EGP_CORE_CANDIDATES_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "core/key_scoring.h"
#include "core/nonkey_scoring.h"
#include "core/scoring_registry.h"
#include "graph/schema_distance.h"
#include "graph/schema_graph.h"

namespace egp {

class ThreadPool;

/// Legacy enum selectors for the paper's built-in measures. Internal
/// callers (benches, unit tests) may keep using them; they resolve to the
/// ScoringRegistry names "coverage"/"randomwalk"/"entropy". New code and
/// everything above the core layer should select measures by name via
/// MeasureSelection (see scoring_registry.h) or the egp::Engine façade.
enum class KeyMeasure : uint8_t { kCoverage = 0, kRandomWalk };
enum class NonKeyMeasure : uint8_t { kCoverage = 0, kEntropy };

const char* KeyMeasureName(KeyMeasure m);
const char* NonKeyMeasureName(NonKeyMeasure m);

/// Registry names of the built-in measures ("coverage", "randomwalk",
/// "entropy") — the join point between the enums and MeasureSelection.
const char* KeyMeasureRegistryName(KeyMeasure m);
const char* NonKeyMeasureRegistryName(NonKeyMeasure m);

/// A candidate non-key attribute of some table: a schema edge used in a
/// specific direction relative to the table's key type. A self-loop edge
/// yields one candidate per direction.
struct NonKeyCandidate {
  uint32_t schema_edge;
  Direction direction;
  double score;
};

/// Γτ: candidates of one key type, sorted by score descending (ties broken
/// by edge index then direction for determinism), with prefix sums so the
/// best m-subset score is O(1) (Theorem 3: optimal tables take the top-m).
struct TypeCandidates {
  std::vector<NonKeyCandidate> sorted;
  std::vector<double> prefix;  // prefix[m] = sum of top-m scores; prefix[0]=0

  size_t size() const { return sorted.size(); }
  double TopSum(size_t m) const { return prefix[m]; }
};

struct PreparedSchemaOptions {
  KeyMeasure key_measure = KeyMeasure::kCoverage;
  NonKeyMeasure nonkey_measure = NonKeyMeasure::kCoverage;
  RandomWalkOptions walk;
};

/// Wall-clock breakdown of one PreparedSchema build, by phase. The paper
/// computes all scoring measures before discovery (§5), so on large
/// graphs these phases — not the discovery algorithms — dominate
/// end-to-end latency; the breakdown is what the perf benches and the
/// CLI's --verbose mode report.
struct PrepareTimings {
  double key_seconds = 0.0;            // key-measure scoring
  double nonkey_seconds = 0.0;         // non-key-measure scoring
  double distance_seconds = 0.0;       // all-pairs type distances
  double candidate_sort_seconds = 0.0; // Γτ sort + prefix sums
  double total_seconds = 0.0;          // whole Create call
};

class PreparedSchema {
 public:
  /// Builds from a schema graph (and the entity graph when a measure needs
  /// it, e.g. "entropy"). Measures are resolved by name against
  /// ScoringRegistry::Global(). Owns a copy of the schema graph.
  ///
  /// Internal layer: application code should obtain prepared state through
  /// egp::Engine (src/service/engine.h), which memoizes instances per
  /// measure configuration and shares them across threads.
  ///
  /// When `pool` is given, the whole build — scoring, distances, Γτ sorts
  /// — runs across it; results are bit-identical to a serial (null-pool)
  /// build at any parallelism.
  static Result<PreparedSchema> Create(SchemaGraph schema,
                                       const MeasureSelection& measures,
                                       const EntityGraph* graph = nullptr,
                                       ThreadPool* pool = nullptr);

  /// Legacy enum spelling; forwards to the registry-based overload.
  static Result<PreparedSchema> Create(SchemaGraph schema,
                                       const PreparedSchemaOptions& options,
                                       const EntityGraph* graph = nullptr,
                                       ThreadPool* pool = nullptr);

  const SchemaGraph& schema() const { return schema_; }
  /// The measure names this instance was prepared with.
  const MeasureSelection& measures() const { return measures_; }
  const PreparedSchemaOptions& options() const { return options_; }
  const SchemaDistanceMatrix& distances() const { return *distances_; }
  /// Per-phase wall-clock cost of the Create call that built this.
  const PrepareTimings& timings() const { return timings_; }

  size_t num_types() const { return schema_.num_types(); }

  /// S(τ).
  double KeyScore(TypeId t) const { return key_scores_[t]; }
  /// Γτ, sorted.
  const TypeCandidates& Candidates(TypeId t) const { return candidates_[t]; }
  /// S(τ) · Σ top-m non-key scores — the score of the best m-attribute
  /// table keyed on τ (Eq. 2 + Theorem 3).
  double TableScore(TypeId t, size_t m) const {
    return key_scores_[t] * candidates_[t].TopSum(m);
  }
  /// Whether τ can key a table at all (≥1 candidate; Def. 1 requires at
  /// least one non-key attribute).
  bool Eligible(TypeId t) const { return !candidates_[t].sorted.empty(); }

  /// N in the paper's complexity analysis: total candidate count over all
  /// types (= 2|Es| counting both directions).
  size_t TotalCandidates() const;

  /// Rough resident size of the prepared state: scored candidates with
  /// prefix sums, key scores, and the n×n distance matrix. Approximate
  /// by design (the schema graph copy's internals are not walked) — for
  /// cache introspection (/v1/debug/cache), not accounting.
  size_t ApproximateBytes() const {
    size_t bytes = sizeof(*this);
    bytes += key_scores_.capacity() * sizeof(double);
    for (const TypeCandidates& tc : candidates_) {
      bytes += sizeof(TypeCandidates);
      bytes += tc.sorted.capacity() * sizeof(NonKeyCandidate);
      bytes += tc.prefix.capacity() * sizeof(double);
    }
    if (distances_ != nullptr) {
      bytes += distances_->num_types() * distances_->num_types() *
               sizeof(uint32_t);
    }
    return bytes;
  }

 private:
  PreparedSchema() = default;

  SchemaGraph schema_;
  MeasureSelection measures_;
  PreparedSchemaOptions options_;
  PrepareTimings timings_;
  std::vector<double> key_scores_;
  std::vector<TypeCandidates> candidates_;
  std::shared_ptr<const SchemaDistanceMatrix> distances_;
};

}  // namespace egp

#endif  // EGP_CORE_CANDIDATES_H_
