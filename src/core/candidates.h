// PreparedSchema: everything discovery algorithms need, computed once.
//
// Mirrors the paper's cost model (§5): "Both the schema graph and the
// scoring measures ... are computed before optimal preview discovery."
// Holds the chosen key-attribute scores and the key-set index built from
// them, and shares the rest: the per-type candidate non-key attribute
// lists Γτ sorted by score with prefix sums (NonKeyPart), the schema graph
// and the all-pairs type distance matrix.
#ifndef EGP_CORE_CANDIDATES_H_
#define EGP_CORE_CANDIDATES_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/key_scoring.h"
#include "core/key_sets.h"
#include "core/nonkey_scoring.h"
#include "core/scoring_registry.h"
#include "graph/schema_distance.h"
#include "graph/schema_graph.h"

namespace egp {

class ThreadPool;

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

/// The non-key part of a preparation: one non-key measure's checked
/// scores, sorted into Γτ with prefix sums. It reads the graphs and the
/// measure alone, never the key measure or its walk options, so an Engine
/// computes it once per non-key measure name and every PreparedSchema it
/// assembles shares it.
struct NonKeyPart {
  /// Γτ per type, indexed by TypeId.
  std::vector<TypeCandidates> candidates;
  double nonkey_seconds = 0.0;          // non-key-measure scoring
  double candidate_sort_seconds = 0.0;  // Γτ sort + prefix sums

  /// Runs the non-key measure `measure`, checks that it scored every
  /// schema edge in both directions with finite, non-negative scores, and
  /// sorts the scores into Γτ (on `context.pool` when one is given, with
  /// a result independent of its parallelism).
  static Result<NonKeyPart> Compute(const std::string& measure,
                                    const NonKeyScoringContext& context);

  /// Rough resident size: the scored candidates and their prefix sums.
  size_t ApproximateBytes() const;
};

/// The key part of a preparation: S(τ) for every type under the key
/// measure `measure`, checked like the non-key scores. Never memoized:
/// the random walk takes tens to hundreds of microseconds on the
/// scale-1.0 benches (BENCH_prepare.json), and the walk options it reads
/// are unbounded.
Result<std::vector<double>> ScoreKeys(const std::string& measure,
                                      const ScoringContext& context);

/// Wall-clock breakdown of one PreparedSchema build, by phase. The paper
/// computes all scoring measures before discovery (§5), so on large
/// graphs these phases — not the discovery algorithms — dominate
/// end-to-end latency; the breakdown is what the perf benches and the
/// CLI's --verbose mode report. A phase the build did not run (a shared
/// part it was handed) reads 0.
struct PrepareTimings {
  double key_seconds = 0.0;            // key-measure scoring
  double nonkey_seconds = 0.0;         // non-key-measure scoring
  double distance_seconds = 0.0;       // all-pairs type distances
  double candidate_sort_seconds = 0.0; // Γτ sort + prefix sums
  double total_seconds = 0.0;          // whole build, key-set index too
};

/// The parts of a preparation that do not depend on the key measure. A
/// PreparedSchema shares them; an Engine holds one schema and distance
/// matrix, and one non-key part per non-key measure.
struct SharedPreparation {
  std::shared_ptr<const SchemaGraph> schema;
  std::shared_ptr<const SchemaDistanceMatrix> distances;
  /// Built over `schema`.
  std::shared_ptr<const NonKeyPart> nonkey;
};

class PreparedSchema {
 public:
  /// Builds from a schema graph (and the entity graph when a measure needs
  /// it, e.g. "entropy"). Measures are named by MeasureSelection and
  /// resolved against ScoringRegistry::Global(); the default selection
  /// is the paper's coverage / coverage. Computes both parts and the
  /// distance matrix, then assembles them.
  ///
  /// Internal layer: application code should obtain prepared state through
  /// egp::Engine (src/service/engine.h), which memoizes instances per
  /// measure configuration, and the non-key part per non-key measure, and
  /// shares them across threads.
  ///
  /// When `pool` is given, the whole build — scoring, distances, Γτ sorts
  /// — runs across it; results are bit-identical to a serial (null-pool)
  /// build at any parallelism.
  static Result<PreparedSchema> Create(SchemaGraph schema,
                                       const MeasureSelection& measures = {},
                                       const EntityGraph* graph = nullptr,
                                       ThreadPool* pool = nullptr);

  /// The one assembly step: `key_scores` (from ScoreKeys over
  /// `shared.schema`) with the shared parts, which must have been built
  /// for `measures`, and the key-set index over them. Create assembles
  /// the parts it just computed; the Engine assembles the ones it keeps.
  /// The index build's time is added to `timings.total_seconds`.
  static PreparedSchema Assemble(SharedPreparation shared,
                                 const MeasureSelection& measures,
                                 std::vector<double> key_scores,
                                 const PrepareTimings& timings);

  const SchemaGraph& schema() const { return *shared_.schema; }
  /// The measure names this instance was prepared with.
  const MeasureSelection& measures() const { return measures_; }
  const SchemaDistanceMatrix& distances() const { return *shared_.distances; }
  /// Per-phase wall-clock cost of the build that assembled this.
  const PrepareTimings& timings() const { return timings_; }

  size_t num_types() const { return key_scores_.size(); }

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
  /// The eligible types in head order, with their heads, tails and
  /// compatibility rows under every distance constraint.
  const KeySetIndex& key_sets() const { return key_sets_; }

  /// N in the paper's complexity analysis: total candidate count over all
  /// types (= 2|Es| counting both directions).
  size_t TotalCandidates() const;

  /// Rough resident size of what this instance owns: its key scores and
  /// key-set index. The shared parts are counted where they are held
  /// (NonKeyPart and SchemaDistanceMatrix::ApproximateBytes), once however
  /// many instances share them. For cache introspection
  /// (/v1/debug/cache), not accounting.
  size_t ApproximateBytes() const {
    return sizeof(*this) + key_scores_.capacity() * sizeof(double) +
           key_sets_.ApproximateBytes();
  }

 private:
  PreparedSchema() = default;

  SharedPreparation shared_;
  // shared_.nonkey->candidates.data(): discovery's Candidates(t) and
  // TableScore read Γτ with one load from this object, not two.
  const TypeCandidates* candidates_ = nullptr;
  MeasureSelection measures_;
  PrepareTimings timings_;
  std::vector<double> key_scores_;
  KeySetIndex key_sets_;
};

}  // namespace egp

#endif  // EGP_CORE_CANDIDATES_H_
