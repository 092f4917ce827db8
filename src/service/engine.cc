#include "service/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <utility>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "common/trace.h"

namespace egp {
namespace {

/// Appends an exact (hexfloat) rendering of `value`, so near-equal
/// parameters never alias to the same cache key.
void AppendExactDouble(std::string* key, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  *key += buffer;
}

/// Cache key for one measure configuration. The walk parameters are part
/// of the key so e.g. two smoothing settings don't alias.
std::string MeasureCacheKey(const MeasureSelection& measures) {
  std::string key = measures.key;
  key += '\x1f';
  key += measures.nonkey;
  key += '\x1f';
  AppendExactDouble(&key, measures.walk.smoothing);
  key += '\x1f';
  key += std::to_string(measures.walk.max_iterations);
  key += '\x1f';
  AppendExactDouble(&key, measures.walk.tolerance);
  return key;
}

/// Human-readable form of a cache key for /v1/debug/cache — same
/// information as MeasureCacheKey, readable instead of collision-proof.
std::string MeasureDisplay(const MeasureSelection& measures) {
  std::string out = "key=" + measures.key + " nonkey=" + measures.nonkey;
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), " walk(smoothing=%g,iters=%ld,tol=%g)",
                measures.walk.smoothing,
                static_cast<long>(measures.walk.max_iterations),
                measures.walk.tolerance);
  out += buffer;
  return out;
}

}  // namespace

struct Engine::State {
  // Set for FromGraph engines; schema-only engines serve without it.
  std::optional<EntityGraph> graph;
  // Set for FromFrozen engines: the prebuilt (possibly mmap-backed) CSR
  // snapshot of `graph`, reused by every prepared build.
  std::optional<FrozenGraph> frozen;
  SchemaGraph schema;
  EngineOptions options;

  // Build parallelism (EngineOptions::threads, resolved): null when the
  // engine builds serially. Created lazily by the first cold-
  // configuration build — an engine that only ever serves cached state
  // never holds idle workers — then shared by all later builds (the
  // pool's own queue makes concurrent ParallelFor calls safe). The
  // unique_ptr is guarded by mu; the pointee is never destroyed or
  // replaced once created, so the returned raw pointer outlives the
  // lock safely.
  std::unique_ptr<ThreadPool> pool EGP_GUARDED_BY(mu);

  ThreadPool* BuildPool() EGP_EXCLUDES(mu) {
    const unsigned threads =
        options.threads == 0 ? Threads() : options.threads;
    if (threads <= 1) return nullptr;
    MutexLock lock(&mu);
    if (!pool) pool = std::make_unique<ThreadPool>(threads);
    return pool.get();
  }

  // One cache slot per measure configuration. The future lets the
  // expensive build run *outside* the lock: the first requester of a
  // cold configuration inserts an unfulfilled future and builds; later
  // requesters of the same configuration wait on the future, and
  // requesters of other configurations proceed unblocked.
  struct Entry {
    std::shared_future<Result<std::shared_ptr<const PreparedSchema>>> future;
    uint64_t last_used = 0;   // LRU tick for capacity eviction
    uint64_t generation = 0;  // which insert this is, for failure cleanup
    // Introspection (/v1/debug/cache): what this entry is, how hot it
    // is, and when it arrived / was last hit (MonotonicNanos).
    std::string display;
    uint64_t hits = 0;
    int64_t inserted_ns = 0;
    int64_t last_used_ns = 0;
  };

  // Guards the cache map, the LRU tick, and the hit/miss counters. The
  // cached PreparedSchema instances themselves are immutable and shared
  // out as shared_ptr<const>, so only the map needs the lock.
  mutable Mutex mu{"engine.prepared_cache"};
  mutable std::map<std::string, Entry> cache EGP_GUARDED_BY(mu);
  mutable uint64_t tick EGP_GUARDED_BY(mu) = 0;
  mutable uint64_t hits EGP_GUARDED_BY(mu) = 0;
  mutable uint64_t misses EGP_GUARDED_BY(mu) = 0;
  mutable uint64_t evictions EGP_GUARDED_BY(mu) = 0;
};

Engine Engine::FromGraph(EntityGraph graph, const EngineOptions& options) {
  auto state = std::make_shared<State>();
  state->schema = SchemaGraph::FromEntityGraph(graph);
  state->graph = std::move(graph);
  state->options = options;
  return Engine(std::move(state));
}

Engine Engine::FromFrozen(EntityGraph graph, FrozenGraph frozen,
                          const EngineOptions& options) {
  // Catch a mismatched pair at construction, not as a mid-request abort
  // deep inside CSR scans (snapshot opens cross-validate this already;
  // a failure here is a caller mixing up graphs).
  EGP_CHECK(frozen.num_entities() == graph.num_entities() &&
            frozen.num_arcs() == graph.num_edges())
      << "FromFrozen: frozen graph (" << frozen.num_entities()
      << " entities, " << frozen.num_arcs()
      << " arcs) was not frozen from this entity graph ("
      << graph.num_entities() << " entities, " << graph.num_edges()
      << " edges)";
  auto state = std::make_shared<State>();
  state->schema = SchemaGraph::FromEntityGraph(graph);
  state->graph = std::move(graph);
  state->frozen = std::move(frozen);
  state->options = options;
  return Engine(std::move(state));
}

Engine Engine::FromSchema(SchemaGraph schema, const EngineOptions& options) {
  auto state = std::make_shared<State>();
  state->schema = std::move(schema);
  state->options = options;
  return Engine(std::move(state));
}

const EntityGraph* Engine::graph() const {
  return state_->graph ? &*state_->graph : nullptr;
}

const SchemaGraph& Engine::schema() const { return state_->schema; }

const FrozenGraph* Engine::frozen() const {
  return state_->frozen ? &*state_->frozen : nullptr;
}

Engine::CacheStats Engine::cache_stats() const {
  MutexLock lock(&state_->mu);
  return CacheStats{state_->hits, state_->misses, state_->evictions,
                    state_->cache.size()};
}

Result<std::shared_ptr<const PreparedSchema>> Engine::Prepared(
    const MeasureSelection& measures) const {
  return PreparedInternal(measures, nullptr);
}

std::vector<Engine::CacheEntryInfo> Engine::cache_entries() const {
  State& state = *state_;
  const int64_t now = MonotonicNanos();
  std::vector<std::pair<uint64_t, CacheEntryInfo>> ordered;
  {
    MutexLock lock(&state.mu);
    ordered.reserve(state.cache.size());
    for (const auto& [key, entry] : state.cache) {
      (void)key;
      CacheEntryInfo info;
      info.measures = entry.display;
      info.hits = entry.hits;
      info.age_seconds = static_cast<double>(now - entry.inserted_ns) * 1e-9;
      info.idle_seconds = static_cast<double>(now - entry.last_used_ns) * 1e-9;
      const bool ready = entry.future.wait_for(std::chrono::seconds(0)) ==
                         std::future_status::ready;
      info.building = !ready;
      if (ready) {
        const auto& result = entry.future.get();
        info.ready = result.ok();
        if (result.ok()) info.approx_bytes = result.value()->ApproximateBytes();
      }
      ordered.emplace_back(entry.last_used, std::move(info));
    }
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<CacheEntryInfo> out;
  out.reserve(ordered.size());
  for (auto& [tick, info] : ordered) {
    (void)tick;
    out.push_back(std::move(info));
  }
  return out;
}

bool Engine::IsPrepared(const MeasureSelection& measures) const {
  const std::string key = MeasureCacheKey(measures);
  State& state = *state_;
  MutexLock lock(&state.mu);
  const auto it = state.cache.find(key);
  if (it == state.cache.end()) return false;
  // An in-flight build is still a cold request for admission purposes:
  // the caller would block on the future for build-scale time.
  if (it->second.future.wait_for(std::chrono::seconds(0)) !=
      std::future_status::ready) {
    return false;
  }
  return it->second.future.get().ok();
}

Result<std::shared_ptr<const PreparedSchema>> Engine::PreparedInternal(
    const MeasureSelection& measures, bool* cache_hit) const {
  using PreparedResult = Result<std::shared_ptr<const PreparedSchema>>;
  const std::string key = MeasureCacheKey(measures);
  State& state = *state_;

  std::promise<PreparedResult> promise;
  std::shared_future<PreparedResult> future;
  bool builder = false;
  uint64_t my_generation = 0;
  {
    MutexLock lock(&state.mu);
    auto it = state.cache.find(key);
    if (it != state.cache.end()) {
      ++state.hits;
      if (cache_hit != nullptr) *cache_hit = true;
      it->second.last_used = ++state.tick;
      ++it->second.hits;
      it->second.last_used_ns = MonotonicNanos();
      future = it->second.future;
    } else {
      ++state.misses;
      if (cache_hit != nullptr) *cache_hit = false;
      if (state.options.prepared_cache_capacity > 0 &&
          state.cache.size() >= state.options.prepared_cache_capacity) {
        // Evict the least-recently-used entry. Waiters on an evicted
        // in-flight future hold their own copy, so this is safe.
        auto lru = state.cache.begin();
        for (auto e = state.cache.begin(); e != state.cache.end(); ++e) {
          if (e->second.last_used < lru->second.last_used) lru = e;
        }
        state.cache.erase(lru);
        ++state.evictions;
      }
      future = promise.get_future().share();
      my_generation = ++state.tick;
      State::Entry entry;
      entry.future = future;
      entry.last_used = my_generation;
      entry.generation = my_generation;
      entry.display = MeasureDisplay(measures);
      entry.inserted_ns = MonotonicNanos();
      entry.last_used_ns = entry.inserted_ns;
      state.cache[key] = std::move(entry);
      builder = true;
    }
  }

  if (builder) {
    // The expensive part runs without the lock; only same-configuration
    // requesters wait (on the future), everyone else proceeds.
    const ScopedTracePhase profiled_phase(TracePhase::kPrepare);
    Timer build_timer;
    auto built = PreparedSchema::Create(
        state.schema, measures, state.graph ? &*state.graph : nullptr,
        state.BuildPool(), state.frozen ? &*state.frozen : nullptr);
    if (RequestTrace* trace = CurrentRequestTrace()) {
      EGP_LOG(Debug) << "cold prepared-schema build key=" << key
                     << " trace=" << trace->id << " seconds="
                     << build_timer.ElapsedSeconds()
                     << (built.ok() ? "" : " (failed)");
    } else {
      EGP_LOG(Debug) << "cold prepared-schema build key=" << key
                     << " seconds=" << build_timer.ElapsedSeconds()
                     << (built.ok() ? "" : " (failed)");
    }
    PreparedResult result =
        built.ok() ? PreparedResult(std::make_shared<const PreparedSchema>(
                         std::move(built).value()))
                   : PreparedResult(built.status());
    promise.set_value(result);
    if (!result.ok()) {
      // Don't cache failures; a fixed input (e.g. the same request after
      // a measure registration) should be able to succeed later. Waiters
      // already holding the future still observe this error. Only remove
      // this builder's own insert: after an LRU eviction another thread
      // may have re-inserted the key with a fresh (possibly succeeding)
      // build, which must survive.
      MutexLock lock(&state.mu);
      auto it = state.cache.find(key);
      if (it != state.cache.end() &&
          it->second.generation == my_generation) {
        state.cache.erase(it);
      }
    }
    return result;
  }
  return future.get();
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
      prepared,
      PreparedInternal(request.measures, &response.prepared_cache_hit));
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
