// Ablation (DESIGN.md §6): how the choice of key / non-key scoring
// measures changes the discovered previews — key-set overlap between
// measure combinations and their gold-standard accuracy, per domain.
#include <cstdio>
#include <set>

#include "bench/bench_util.h"
#include "common/strings.h"
#include "core/discover.h"
#include "eval/ranking_metrics.h"
#include "eval/user_study.h"

namespace {

using namespace egp;

std::set<std::string> PreviewKeys(const GeneratedDomain& domain,
                                  KeyMeasure km, NonKeyMeasure nm) {
  PreparedSchemaOptions options;
  options.key_measure = km;
  options.nonkey_measure = nm;
  auto prepared = PreparedSchema::Create(domain.schema, options,
                                         &domain.graph);
  EGP_CHECK(prepared.ok());
  auto discovery = Discover(*prepared, "auto", SizeConstraint{6, 15},
                            DistanceConstraint::None());
  EGP_CHECK(discovery.ok());
  std::set<std::string> keys;
  for (const PreviewTable& table : discovery->preview.tables) {
    keys.insert(domain.schema.TypeName(table.key));
  }
  return keys;
}

double Overlap(const std::set<std::string>& a,
               const std::set<std::string>& b) {
  size_t shared = 0;
  for (const std::string& key : a) {
    if (b.count(key) > 0) ++shared;
  }
  return static_cast<double>(shared) / static_cast<double>(a.size());
}

}  // namespace

int main() {
  using namespace egp;
  bench::PrintHeader(
      "Ablation: measure combinations vs preview keys (k=6, n=15)");
  const struct {
    const char* label;
    KeyMeasure km;
    NonKeyMeasure nm;
  } combos[] = {
      {"Cov+Cov", KeyMeasure::kCoverage, NonKeyMeasure::kCoverage},
      {"Cov+Ent", KeyMeasure::kCoverage, NonKeyMeasure::kEntropy},
      {"RW+Cov", KeyMeasure::kRandomWalk, NonKeyMeasure::kCoverage},
      {"RW+Ent", KeyMeasure::kRandomWalk, NonKeyMeasure::kEntropy},
  };

  for (const std::string& name : UserStudyDomains()) {
    const GeneratedDomain& domain = bench::Domain(name);
    std::printf("\ndomain=%s\n", name.c_str());

    std::set<std::string> gold;
    for (const auto& key : domain.gold.KeyNames()) gold.insert(key);

    std::array<std::set<std::string>, 4> keys;
    for (size_t i = 0; i < 4; ++i) {
      keys[i] = PreviewKeys(domain, combos[i].km, combos[i].nm);
    }

    bench::PrintRow("combo", {"gold-recall", "vs Cov+Cov overlap"}, 10, 20);
    for (size_t i = 0; i < 4; ++i) {
      size_t hits = 0;
      for (const std::string& key : keys[i]) {
        if (gold.count(key) > 0) ++hits;
      }
      bench::PrintRow(
          combos[i].label,
          {StrFormat("%zu/6", hits),
           bench::FormatDouble(Overlap(keys[i], keys[0]), 2)},
          10, 20);
    }
  }
  std::printf(
      "\nReading: key measure dominates which tables appear (RW favours "
      "hub types, Cov favours big types); the non-key measure mostly "
      "re-ranks attributes within tables, so overlaps stay high within a "
      "key-measure family.\n");
  return 0;
}
