#include "service/engine.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <string_view>
#include <tuple>
#include <utility>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "common/trace.h"
#include "service/memo.h"

namespace egp {
namespace {

/// Orders measure selections exactly: the walk's doubles compare by bit
/// pattern, so near-equal parameters are distinct keys, never aliases.
struct ExactMeasureLess {
  bool operator()(const MeasureSelection& a,
                  const MeasureSelection& b) const {
    const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
    return std::forward_as_tuple(a.key, a.nonkey, bits(a.walk.smoothing),
                                 a.walk.max_iterations, bits(a.walk.tolerance)) <
           std::forward_as_tuple(b.key, b.nonkey, bits(b.walk.smoothing),
                                 b.walk.max_iterations, bits(b.walk.tolerance));
  }
};

/// Appends `value` in std::to_chars' shortest form that reads back as
/// the same double.
void AppendShortestDouble(std::string* out, double value) {
  char buffer[32];
  const std::to_chars_result written =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, static_cast<size_t>(written.ptr - buffer));
}

/// Human-readable form of a measure selection, for /v1/debug/cache and
/// the build log. Distinct selections display distinctly: the doubles
/// round-trip.
std::string MeasureDisplay(const MeasureSelection& measures) {
  std::string out = "key=" + measures.key + " nonkey=" + measures.nonkey;
  out += " walk(smoothing=";
  AppendShortestDouble(&out, measures.walk.smoothing);
  out += ",iters=" + std::to_string(measures.walk.max_iterations) + ",tol=";
  AppendShortestDouble(&out, measures.walk.tolerance);
  out += ')';
  return out;
}

}  // namespace

struct Engine::State {
  explicit State(const EngineOptions& engine_options)
      : options(engine_options),
        prepared("engine.prepared_cache", options.prepared_cache_capacity) {}

  // Set for FromGraph engines; schema-only engines serve without it.
  std::optional<EntityGraph> graph;
  // Built once, serially, by FromGraph/FromSchema; every PreparedSchema
  // shares them.
  std::shared_ptr<const SchemaGraph> schema;
  std::shared_ptr<const SchemaDistanceMatrix> distances;
  const EngineOptions options;

  // Build parallelism (EngineOptions::threads, resolved): null when the
  // engine builds serially. Created lazily by the first cold-
  // configuration build — an engine that only ever serves cached state
  // never holds idle workers — then shared by all later builds (the
  // pool's own queue makes concurrent ParallelFor calls safe). The
  // pointee is never destroyed or replaced once created, so the returned
  // raw pointer outlives the lock safely.
  Mutex pool_mu;
  std::unique_ptr<ThreadPool> pool EGP_GUARDED_BY(pool_mu);

  ThreadPool* BuildPool() EGP_EXCLUDES(pool_mu) {
    const unsigned threads =
        options.threads == 0 ? Threads() : options.threads;
    if (threads <= 1) return nullptr;
    MutexLock lock(&pool_mu);
    if (!pool) pool = std::make_unique<ThreadPool>(threads);
    return pool.get();
  }

  // One immutable prepared snapshot per measure selection, LRU-bounded.
  // A cold selection builds outside the memo's lock and blocks only the
  // requests for the same selection.
  Memo<MeasureSelection, PreparedSchema, ExactMeasureLess> prepared;
  // The non-key part per non-key measure name, never evicted: the
  // registry bounds the names and never rebinds one.
  Memo<std::string, NonKeyPart> nonkey{"engine.nonkey_parts", 0};

  // The memoized snapshot for `measures`, built on a miss.
  Result<std::shared_ptr<const PreparedSchema>> Prepare(
      const MeasureSelection& measures, bool* cache_hit);
  // A prepared snapshot for `measures`: its key scores, assembled with
  // the shared schema, distances and memoized non-key part.
  Result<PreparedSchema> Build(const MeasureSelection& measures);
};

Result<std::shared_ptr<const PreparedSchema>> Engine::State::Prepare(
    const MeasureSelection& measures, bool* cache_hit) {
  const auto build = [this, &measures] {
    const ScopedTracePhase profiled_phase(TracePhase::kPrepare);
    const Timer build_timer;
    Result<PreparedSchema> built = Build(measures);
    const RequestTrace* trace = CurrentRequestTrace();
    EGP_LOG(Debug) << "cold prepared-schema build "
                   << MeasureDisplay(measures) << " trace="
                   << (trace != nullptr ? std::string_view(trace->id) : "-")
                   << " seconds=" << build_timer.ElapsedSeconds()
                   << (built.ok() ? "" : " (failed)");
    return built;
  };
  return prepared.Get(measures, build, cache_hit);
}

Result<PreparedSchema> Engine::State::Build(const MeasureSelection& measures) {
  ThreadPool* pool = BuildPool();
  const EntityGraph* data = graph ? &*graph : nullptr;
  const Timer total_timer;
  PrepareTimings timings;
  std::vector<double> key_scores;
  EGP_ASSIGN_OR_RETURN(
      key_scores, ScoreKeys(measures.key, ScoringContext{*schema, data,
                                                         measures.walk, pool}));
  timings.key_seconds = total_timer.ElapsedSeconds();
  const auto compute = [&measures, this, data, pool] {
    return NonKeyPart::Compute(measures.nonkey,
                               NonKeyScoringContext{*schema, data, pool});
  };
  bool memoized = false;
  std::shared_ptr<const NonKeyPart> part;
  EGP_ASSIGN_OR_RETURN(part, nonkey.Get(measures.nonkey, compute, &memoized));
  if (!memoized) {
    timings.nonkey_seconds = part->nonkey_seconds;
    timings.candidate_sort_seconds = part->candidate_sort_seconds;
  }
  timings.total_seconds = total_timer.ElapsedSeconds();
  return PreparedSchema::Assemble(
      SharedPreparation{schema, distances, std::move(part)}, measures,
      std::move(key_scores), timings);
}

Engine Engine::FromGraph(EntityGraph graph, const EngineOptions& options) {
  Engine engine = FromSchema(SchemaGraph::FromEntityGraph(graph), options);
  engine.state_->graph = std::move(graph);
  return engine;
}

Engine Engine::FromSchema(SchemaGraph schema, const EngineOptions& options) {
  auto state = std::make_shared<State>(options);
  state->schema = std::make_shared<const SchemaGraph>(std::move(schema));
  state->distances =
      std::make_shared<const SchemaDistanceMatrix>(*state->schema);
  return Engine(std::move(state));
}

const EntityGraph* Engine::graph() const {
  return state_->graph ? &*state_->graph : nullptr;
}

const SchemaGraph& Engine::schema() const { return *state_->schema; }

const SchemaDistanceMatrix& Engine::distances() const {
  return *state_->distances;
}

Engine::CacheStats Engine::cache_stats() const {
  const auto stats = state_->prepared.stats();
  return CacheStats{stats.hits, stats.misses, stats.evictions, stats.entries};
}

Result<std::shared_ptr<const PreparedSchema>> Engine::Prepared(
    const MeasureSelection& measures) const {
  return state_->Prepare(measures, nullptr);
}

bool Engine::IsPrepared(const MeasureSelection& measures) const {
  return state_->prepared.Ready(measures);
}

std::vector<Engine::CacheEntryInfo> Engine::cache_entries() const {
  auto entries = state_->prepared.Entries();
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return a.second.last_used > b.second.last_used;
  });
  const int64_t now = MonotonicNanos();
  std::vector<CacheEntryInfo> out;
  out.reserve(entries.size());
  for (const auto& [measures, entry] : entries) {
    CacheEntryInfo info;
    info.measures = MeasureDisplay(measures);
    info.ready = entry.value != nullptr;
    info.building = !info.ready;
    info.hits = entry.hits;
    info.age_seconds = static_cast<double>(now - entry.inserted_ns) * 1e-9;
    info.idle_seconds = static_cast<double>(now - entry.last_used_ns) * 1e-9;
    if (info.ready) info.approx_bytes = entry.value->ApproximateBytes();
    out.push_back(std::move(info));
  }
  return out;
}

std::vector<Engine::NonKeyPartInfo> Engine::nonkey_parts() const {
  std::vector<NonKeyPartInfo> out;
  for (const auto& [measure, entry] : state_->nonkey.Entries()) {
    NonKeyPartInfo info;
    info.measure = measure;
    info.ready = entry.value != nullptr;
    info.building = !info.ready;
    if (info.ready) {
      info.approx_bytes = entry.value->ApproximateBytes();
      info.seconds =
          entry.value->nonkey_seconds + entry.value->candidate_sort_seconds;
    }
    out.push_back(std::move(info));
  }
  return out;
}

Result<ConstraintSuggestion> Engine::Suggest(
    const DisplayBudget& budget, const MeasureSelection& measures) const {
  std::shared_ptr<const PreparedSchema> prepared;
  EGP_ASSIGN_OR_RETURN(prepared, Prepared(measures));
  return SuggestConstraints(*prepared, budget);
}

Result<PreviewResponse> Engine::Preview(const PreviewRequest& request) const {
  PreviewResponse response;
  EGP_ASSIGN_OR_RETURN(response.algorithm,
                       CanonicalAlgorithmName(request.algorithm));
  if (request.sample_rows > 0 && !state_->graph) {
    return Status::InvalidArgument(
        "tuple sampling requires an entity graph; this engine serves a "
        "schema graph only");
  }

  Timer prepare_timer;
  std::shared_ptr<const PreparedSchema> prepared;
  EGP_ASSIGN_OR_RETURN(
      prepared, state_->Prepare(request.measures, &response.prepared_cache_hit));
  response.prepare_seconds = prepare_timer.ElapsedSeconds();
  response.prepare_timings = prepared->timings();
  response.prepared = prepared;

  // Resolve the effective constraints.
  response.size = request.size;
  response.distance = request.distance;
  if (request.budget) {
    const ConstraintSuggestion suggestion =
        SuggestConstraints(*prepared, *request.budget);
    response.size = suggestion.size;
    response.rationale = suggestion.rationale;
    switch (request.suggested_distance) {
      case DistanceMode::kNone:
        response.distance = DistanceConstraint::None();
        break;
      case DistanceMode::kTight:
        response.distance = DistanceConstraint::Tight(suggestion.tight_d);
        break;
      case DistanceMode::kDiverse:
        response.distance = DistanceConstraint::Diverse(suggestion.diverse_d);
        break;
    }
  }

  Timer discover_timer;
  Result<Discovery> discovery = Status::Internal("unset");
  {
    const ScopedTracePhase profiled_phase(TracePhase::kDiscover);
    discovery = Discover(*prepared, response.algorithm, response.size,
                         response.distance, &response.stats);
  }
  if (!discovery.ok()) return discovery.status();
  response.discover_seconds = discover_timer.ElapsedSeconds();
  response.algorithm = std::move(discovery->algorithm);
  response.preview = std::move(discovery->preview);
  response.score = response.preview.Score(*prepared);

  if (request.sample_rows > 0) {
    const ScopedTracePhase profiled_phase(TracePhase::kSample);
    Timer sample_timer;
    TupleSamplerOptions sampler;
    sampler.rows_per_table = request.sample_rows;
    sampler.seed = request.sample_seed;
    sampler.strategy = request.sample_strategy;
    sampler.merge_multiway_columns = request.merge_multiway_columns;
    auto materialized = MaterializePreview(*state_->graph, *prepared,
                                           response.preview, sampler);
    if (!materialized.ok()) return materialized.status();
    response.materialized = std::move(materialized).value();
    response.sample_seconds = sample_timer.ElapsedSeconds();
  }

  // Annotate the in-flight request trace (if the transport attached
  // one): the access log and flight recorder get the engine-side phase
  // breakdown without any signature plumbing.
  if (RequestTrace* trace = CurrentRequestTrace()) {
    trace->cache_hit = response.prepared_cache_hit;
    trace->prepare_seconds = response.prepare_seconds;
    trace->discover_seconds = response.discover_seconds;
    trace->sample_seconds = response.sample_seconds;
    const PrepareTimings& phases = response.prepare_timings;
    trace->prepare_key_seconds = phases.key_seconds;
    trace->prepare_nonkey_seconds = phases.nonkey_seconds;
    trace->prepare_distance_seconds = phases.distance_seconds;
    trace->prepare_candidate_sort_seconds = phases.candidate_sort_seconds;
  }
  return response;
}

}  // namespace egp
