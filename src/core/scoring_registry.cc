#include "core/scoring_registry.h"

#include <utility>

namespace egp {
namespace {

template <typename Map>
std::string JoinNames(const Map& map) {
  std::string names;
  for (const auto& [name, fn] : map) {
    if (!names.empty()) names += ", ";
    names += name;
  }
  return names;
}

}  // namespace

ScoringRegistry::ScoringRegistry() {
  key_measures_["coverage"] = [](const ScoringContext& context) {
    return Result<std::vector<double>>(ComputeKeyCoverage(context.schema));
  };
  key_measures_["randomwalk"] = [](const ScoringContext& context) {
    return ComputeKeyRandomWalk(context.schema, context.walk, context.pool);
  };
  nonkey_measures_["coverage"] = [](const NonKeyScoringContext& context) {
    return Result<NonKeyScores>(ComputeNonKeyCoverage(context.schema));
  };
  nonkey_measures_["entropy"] = [](const NonKeyScoringContext& context) {
    if (context.graph == nullptr) {
      return Result<NonKeyScores>(Status::InvalidArgument(
          "the 'entropy' non-key measure requires the entity graph, but "
          "only a schema graph is available"));
    }
    return ComputeNonKeyEntropy(*context.graph, context.schema, context.pool);
  };
}

ScoringRegistry& ScoringRegistry::Global() {
  static ScoringRegistry* registry = new ScoringRegistry();
  return *registry;
}

Status ScoringRegistry::RegisterKeyMeasure(const std::string& name,
                                           KeyScorerFn scorer) {
  if (name.empty() || !scorer) {
    return Status::InvalidArgument(
        "key measure registration needs a name and a scorer");
  }
  MutexLock lock(&mu_);
  if (!key_measures_.emplace(name, std::move(scorer)).second) {
    return Status::AlreadyExists("key measure '" + name +
                                 "' is already registered");
  }
  return Status::OK();
}

Status ScoringRegistry::RegisterNonKeyMeasure(const std::string& name,
                                              NonKeyScorerFn scorer) {
  if (name.empty() || !scorer) {
    return Status::InvalidArgument(
        "non-key measure registration needs a name and a scorer");
  }
  MutexLock lock(&mu_);
  if (!nonkey_measures_.emplace(name, std::move(scorer)).second) {
    return Status::AlreadyExists("non-key measure '" + name +
                                 "' is already registered");
  }
  return Status::OK();
}

Result<KeyScorerFn> ScoringRegistry::FindKeyMeasure(
    const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = key_measures_.find(name);
  if (it == key_measures_.end()) {
    return Status::NotFound("unknown key measure '" + name +
                            "' (registered: " + JoinNames(key_measures_) +
                            ")");
  }
  return it->second;
}

Result<NonKeyScorerFn> ScoringRegistry::FindNonKeyMeasure(
    const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = nonkey_measures_.find(name);
  if (it == nonkey_measures_.end()) {
    return Status::NotFound("unknown non-key measure '" + name +
                            "' (registered: " + JoinNames(nonkey_measures_) +
                            ")");
  }
  return it->second;
}

bool ScoringRegistry::HasKeyMeasure(const std::string& name) const {
  MutexLock lock(&mu_);
  return key_measures_.count(name) > 0;
}

bool ScoringRegistry::HasNonKeyMeasure(const std::string& name) const {
  MutexLock lock(&mu_);
  return nonkey_measures_.count(name) > 0;
}

std::vector<std::string> ScoringRegistry::KeyMeasureNames() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  for (const auto& [name, fn] : key_measures_) names.push_back(name);
  return names;
}

std::vector<std::string> ScoringRegistry::NonKeyMeasureNames() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  for (const auto& [name, fn] : nonkey_measures_) names.push_back(name);
  return names;
}

}  // namespace egp
