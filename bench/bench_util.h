// Shared helpers for the benchmark harness (one binary per paper table /
// figure; see DESIGN.md §4 for the experiment index).
#ifndef EGP_BENCH_BENCH_UTIL_H_
#define EGP_BENCH_BENCH_UTIL_H_

#include <functional>
#include <string>
#include <vector>

#include "core/brute_force.h"
#include "core/candidates.h"
#include "datagen/generator.h"
#include "eval/ranking_metrics.h"

namespace egp {
namespace bench {

/// Generates (and caches) a domain at its spec default scale. The cache
/// keeps the per-binary cost of multi-domain sweeps down.
const GeneratedDomain& Domain(const std::string& name);

/// All type names ranked by a key measure (a ScoringRegistry name),
/// descending score.
std::vector<std::string> RankTypesByKeyMeasure(const GeneratedDomain& domain,
                                               const std::string& measure);

/// All type names ranked by the YPS09 baseline's table importance.
std::vector<std::string> RankTypesByYps09(const GeneratedDomain& domain);

/// The Table 10 gold key types as a ground-truth set.
GroundTruth GoldKeySet(const GeneratedDomain& domain);

/// Wall-clock of fn averaged over `repeats` runs, in milliseconds, with
/// the paper's reporting convention (sub-millisecond rounded up to 1 ms).
double TimeMs(const std::function<void()>& fn, int repeats = 3);

/// Times brute-force discovery with a subset cap; when the cap triggers,
/// the time is linearly extrapolated from the enumerated fraction.
struct TimedDiscovery {
  double ms = 0.0;
  bool extrapolated = false;
  /// "123" or "~123456" when extrapolated.
  std::string Format() const;
};
TimedDiscovery TimeBruteForce(const PreparedSchema& prepared,
                              const SizeConstraint& size,
                              const DistanceConstraint& distance,
                              uint64_t max_subsets = 2'000'000);

/// Prints an aligned row: first column `label`, then `cells`.
void PrintRow(const std::string& label, const std::vector<std::string>& cells,
              size_t label_width = 22, size_t cell_width = 12);
void PrintHeader(const std::string& title);

std::string FormatDouble(double value, int precision = 3);

}  // namespace bench
}  // namespace egp

#endif  // EGP_BENCH_BENCH_UTIL_H_
