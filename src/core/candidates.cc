#include "core/candidates.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/timer.h"

namespace egp {
namespace {

/// Theorem 3's merge and Apriori's bound add weighted scores, so none may
/// be negative, and a NaN would break Γτ's sort order. `what(i)` names
/// the i-th score's subject.
template <typename What>
Status CheckScores(const std::string& measure,
                   const std::vector<double>& scores, What&& what) {
  for (size_t i = 0; i < scores.size(); ++i) {
    if (!std::isfinite(scores[i]) || scores[i] < 0.0) {
      return Status::InvalidArgument(
          StrFormat("%s returned %g for %s; scores must be finite and "
                    "non-negative",
                    measure.c_str(), scores[i], what(i).c_str()));
    }
  }
  return Status::OK();
}

}  // namespace

const char* KeyMeasureName(KeyMeasure m) {
  return m == KeyMeasure::kCoverage ? "Coverage" : "RandomWalk";
}

const char* NonKeyMeasureName(NonKeyMeasure m) {
  return m == NonKeyMeasure::kCoverage ? "Coverage" : "Entropy";
}

const char* KeyMeasureRegistryName(KeyMeasure m) {
  return m == KeyMeasure::kCoverage ? "coverage" : "randomwalk";
}

const char* NonKeyMeasureRegistryName(NonKeyMeasure m) {
  return m == NonKeyMeasure::kCoverage ? "coverage" : "entropy";
}

Result<PreparedSchema> PreparedSchema::Create(SchemaGraph schema,
                                              const MeasureSelection& measures,
                                              const EntityGraph* graph,
                                              ThreadPool* pool) {
  const Timer total_timer;
  Timer phase_timer;
  PreparedSchema prepared;
  prepared.measures_ = measures;
  // Best-effort legacy enum view of the selection; unrecognized (custom)
  // names read as the defaults.
  prepared.options_.key_measure = measures.key == "randomwalk"
                                      ? KeyMeasure::kRandomWalk
                                      : KeyMeasure::kCoverage;
  prepared.options_.nonkey_measure = measures.nonkey == "entropy"
                                         ? NonKeyMeasure::kEntropy
                                         : NonKeyMeasure::kCoverage;
  prepared.options_.walk = measures.walk;

  const ScoringContext context{schema, graph, measures.walk, pool};
  ScoringRegistry& registry = ScoringRegistry::Global();

  KeyScorerFn key_scorer;
  EGP_ASSIGN_OR_RETURN(key_scorer, registry.FindKeyMeasure(measures.key));
  phase_timer.Reset();
  EGP_ASSIGN_OR_RETURN(prepared.key_scores_, key_scorer(context));
  prepared.timings_.key_seconds = phase_timer.ElapsedSeconds();
  if (prepared.key_scores_.size() != schema.num_types()) {
    return Status::Internal("key measure '" + measures.key + "' returned " +
                            std::to_string(prepared.key_scores_.size()) +
                            " scores for " +
                            std::to_string(schema.num_types()) + " types");
  }
  EGP_RETURN_IF_ERROR(CheckScores(
      "key measure '" + measures.key + "'", prepared.key_scores_,
      [&schema](size_t t) {
        return "type '" + schema.TypeName(static_cast<TypeId>(t)) + "'";
      }));

  NonKeyScorerFn nonkey_scorer;
  EGP_ASSIGN_OR_RETURN(nonkey_scorer,
                       registry.FindNonKeyMeasure(measures.nonkey));
  NonKeyScores nonkey;
  phase_timer.Reset();
  EGP_ASSIGN_OR_RETURN(nonkey, nonkey_scorer(context));
  prepared.timings_.nonkey_seconds = phase_timer.ElapsedSeconds();
  if (nonkey.outgoing.size() != schema.num_edges() ||
      nonkey.incoming.size() != schema.num_edges()) {
    return Status::Internal("non-key measure '" + measures.nonkey +
                            "' returned a score vector not matching the " +
                            std::to_string(schema.num_edges()) +
                            " schema edges");
  }
  for (const Direction direction :
       {Direction::kOutgoing, Direction::kIncoming}) {
    EGP_RETURN_IF_ERROR(CheckScores(
        "non-key measure '" + measures.nonkey + "'",
        direction == Direction::kOutgoing ? nonkey.outgoing : nonkey.incoming,
        [direction](size_t e) {
          return StrFormat("schema edge %zu (%s)", e, DirectionName(direction));
        }));
  }

  // Γτ per type: every incident edge contributes the direction(s) in which
  // τ is an endpoint; a self-loop contributes both directions. The sort
  // comparator is a total order (ties broken by edge then direction), so
  // the per-type sorts parallelize with a unique, append-order-independent
  // result.
  phase_timer.Reset();
  const size_t num_types = schema.num_types();
  prepared.candidates_.resize(num_types);
  for (uint32_t index = 0; index < schema.num_edges(); ++index) {
    const SchemaEdge& e = schema.Edge(index);
    prepared.candidates_[e.src].sorted.push_back(
        NonKeyCandidate{index, Direction::kOutgoing, nonkey.outgoing[index]});
    prepared.candidates_[e.dst].sorted.push_back(
        NonKeyCandidate{index, Direction::kIncoming, nonkey.incoming[index]});
  }
  ParallelFor(
      pool, 0, num_types,
      [&prepared](size_t t) {
        auto& cands = prepared.candidates_[t].sorted;
        std::sort(cands.begin(), cands.end(),
                  [](const NonKeyCandidate& a, const NonKeyCandidate& b) {
                    if (a.score != b.score) return a.score > b.score;
                    if (a.schema_edge != b.schema_edge) {
                      return a.schema_edge < b.schema_edge;
                    }
                    return a.direction < b.direction;
                  });
        auto& prefix = prepared.candidates_[t].prefix;
        prefix.resize(cands.size() + 1);
        prefix[0] = 0.0;
        for (size_t m = 0; m < cands.size(); ++m) {
          prefix[m + 1] = prefix[m] + cands[m].score;
        }
      },
      /*grain=*/8);
  prepared.timings_.candidate_sort_seconds = phase_timer.ElapsedSeconds();

  phase_timer.Reset();
  prepared.distances_ = std::make_shared<SchemaDistanceMatrix>(schema, pool);
  prepared.timings_.distance_seconds = phase_timer.ElapsedSeconds();
  prepared.schema_ = std::move(schema);
  prepared.timings_.total_seconds = total_timer.ElapsedSeconds();
  return prepared;
}

Result<PreparedSchema> PreparedSchema::Create(
    SchemaGraph schema, const PreparedSchemaOptions& options,
    const EntityGraph* graph, ThreadPool* pool) {
  MeasureSelection measures;
  measures.key = KeyMeasureRegistryName(options.key_measure);
  measures.nonkey = NonKeyMeasureRegistryName(options.nonkey_measure);
  measures.walk = options.walk;
  return Create(std::move(schema), measures, graph, pool);
}

size_t PreparedSchema::TotalCandidates() const {
  size_t total = 0;
  for (const TypeCandidates& c : candidates_) total += c.size();
  return total;
}

}  // namespace egp
