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

Result<std::vector<double>> ScoreKeys(const std::string& measure,
                                      const ScoringContext& context) {
  KeyScorerFn scorer;
  EGP_ASSIGN_OR_RETURN(scorer,
                       ScoringRegistry::Global().FindKeyMeasure(measure));
  std::vector<double> scores;
  EGP_ASSIGN_OR_RETURN(scores, scorer(context));
  const SchemaGraph& schema = context.schema;
  if (scores.size() != schema.num_types()) {
    return Status::Internal("key measure '" + measure + "' returned " +
                            std::to_string(scores.size()) + " scores for " +
                            std::to_string(schema.num_types()) + " types");
  }
  EGP_RETURN_IF_ERROR(
      CheckScores("key measure '" + measure + "'", scores, [&schema](size_t t) {
        return "type '" + schema.TypeName(static_cast<TypeId>(t)) + "'";
      }));
  return scores;
}

Result<NonKeyPart> NonKeyPart::Compute(const std::string& measure,
                                       const NonKeyScoringContext& context) {
  const SchemaGraph& schema = context.schema;
  NonKeyScorerFn scorer;
  EGP_ASSIGN_OR_RETURN(scorer,
                       ScoringRegistry::Global().FindNonKeyMeasure(measure));
  NonKeyPart part;
  Timer phase_timer;
  NonKeyScores nonkey;
  EGP_ASSIGN_OR_RETURN(nonkey, scorer(context));
  part.nonkey_seconds = phase_timer.ElapsedSeconds();
  if (nonkey.outgoing.size() != schema.num_edges() ||
      nonkey.incoming.size() != schema.num_edges()) {
    return Status::Internal("non-key measure '" + measure +
                            "' returned a score vector not matching the " +
                            std::to_string(schema.num_edges()) +
                            " schema edges");
  }
  for (const Direction direction :
       {Direction::kOutgoing, Direction::kIncoming}) {
    EGP_RETURN_IF_ERROR(CheckScores(
        "non-key measure '" + measure + "'",
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
  std::vector<TypeCandidates>& candidates = part.candidates;
  candidates.resize(schema.num_types());
  for (uint32_t index = 0; index < schema.num_edges(); ++index) {
    const SchemaEdge& e = schema.Edge(index);
    candidates[e.src].sorted.push_back(
        NonKeyCandidate{index, Direction::kOutgoing, nonkey.outgoing[index]});
    candidates[e.dst].sorted.push_back(
        NonKeyCandidate{index, Direction::kIncoming, nonkey.incoming[index]});
  }
  ParallelFor(
      context.pool, 0, candidates.size(),
      [&candidates](size_t t) {
        auto& cands = candidates[t].sorted;
        std::sort(cands.begin(), cands.end(),
                  [](const NonKeyCandidate& a, const NonKeyCandidate& b) {
                    if (a.score != b.score) return a.score > b.score;
                    if (a.schema_edge != b.schema_edge) {
                      return a.schema_edge < b.schema_edge;
                    }
                    return a.direction < b.direction;
                  });
        auto& prefix = candidates[t].prefix;
        prefix.resize(cands.size() + 1);
        prefix[0] = 0.0;
        for (size_t m = 0; m < cands.size(); ++m) {
          prefix[m + 1] = prefix[m] + cands[m].score;
        }
      },
      /*grain=*/8);
  part.candidate_sort_seconds = phase_timer.ElapsedSeconds();
  return part;
}

size_t NonKeyPart::ApproximateBytes() const {
  size_t bytes = sizeof(*this);
  for (const TypeCandidates& tc : candidates) {
    bytes += sizeof(TypeCandidates);
    bytes += tc.sorted.capacity() * sizeof(NonKeyCandidate);
    bytes += tc.prefix.capacity() * sizeof(double);
  }
  return bytes;
}

Result<PreparedSchema> PreparedSchema::Create(SchemaGraph schema,
                                              const MeasureSelection& measures,
                                              const EntityGraph* graph,
                                              ThreadPool* pool) {
  const Timer total_timer;
  PrepareTimings timings;
  SharedPreparation shared;
  shared.schema = std::make_shared<const SchemaGraph>(std::move(schema));

  Timer phase_timer;
  std::vector<double> key_scores;
  EGP_ASSIGN_OR_RETURN(
      key_scores,
      ScoreKeys(measures.key,
                ScoringContext{*shared.schema, graph, measures.walk, pool}));
  timings.key_seconds = phase_timer.ElapsedSeconds();

  NonKeyPart nonkey;
  EGP_ASSIGN_OR_RETURN(
      nonkey, NonKeyPart::Compute(measures.nonkey,
                                  NonKeyScoringContext{*shared.schema, graph,
                                                       pool}));
  timings.nonkey_seconds = nonkey.nonkey_seconds;
  timings.candidate_sort_seconds = nonkey.candidate_sort_seconds;
  shared.nonkey = std::make_shared<const NonKeyPart>(std::move(nonkey));

  phase_timer.Reset();
  shared.distances =
      std::make_shared<const SchemaDistanceMatrix>(*shared.schema, pool);
  timings.distance_seconds = phase_timer.ElapsedSeconds();
  timings.total_seconds = total_timer.ElapsedSeconds();
  return Assemble(std::move(shared), measures, std::move(key_scores), timings);
}

PreparedSchema PreparedSchema::Assemble(SharedPreparation shared,
                                        const MeasureSelection& measures,
                                        std::vector<double> key_scores,
                                        const PrepareTimings& timings) {
  EGP_CHECK(shared.schema && shared.distances && shared.nonkey);
  EGP_CHECK(key_scores.size() == shared.schema->num_types() &&
            shared.nonkey->candidates.size() == key_scores.size() &&
            shared.distances->num_types() == key_scores.size())
      << "parts built over different schemas";
  PreparedSchema prepared;
  prepared.candidates_ = shared.nonkey->candidates.data();
  prepared.shared_ = std::move(shared);
  prepared.measures_ = measures;
  prepared.timings_ = timings;
  prepared.key_scores_ = std::move(key_scores);
  return prepared;
}

size_t PreparedSchema::TotalCandidates() const {
  size_t total = 0;
  for (const TypeCandidates& c : shared_.nonkey->candidates) total += c.size();
  return total;
}

}  // namespace egp
