#include "core/discover.h"

#include <utility>

#include "core/apriori.h"
#include "core/beam_search.h"
#include "core/dynamic_programming.h"

namespace egp {

Result<std::string> CanonicalAlgorithmName(const std::string& name) {
  if (name == "auto" || name == "bf" || name == "dp" || name == "apriori" ||
      name == "beam") {
    return name;
  }
  if (name == "bruteforce") return std::string("bf");
  return Status::InvalidArgument(
      "unknown algorithm '" + name +
      "' (available: auto, bf, dp, apriori, beam)");
}

Result<Discovery> Discover(const PreparedSchema& prepared,
                           const std::string& algorithm,
                           const SizeConstraint& size,
                           const DistanceConstraint& distance,
                           DiscoveryStats* stats) {
  Discovery discovery;
  EGP_ASSIGN_OR_RETURN(discovery.algorithm, CanonicalAlgorithmName(algorithm));
  if (discovery.algorithm == "auto") {
    discovery.algorithm =
        distance.mode == DistanceMode::kNone ? "dp" : "apriori";
  }
  Result<Preview> preview = Status::Internal("unset");
  if (discovery.algorithm == "bf") {
    preview = BruteForceDiscover(prepared, size, distance, BruteForceOptions{},
                                 stats);
  } else if (discovery.algorithm == "dp") {
    if (distance.mode != DistanceMode::kNone) {
      return Status::InvalidArgument(
          "the dynamic-programming algorithm only solves the concise "
          "space; distance constraints lack its optimal substructure");
    }
    preview = DynamicProgrammingDiscover(prepared, size);
  } else if (discovery.algorithm == "apriori") {
    preview =
        AprioriDiscover(prepared, size, distance, AprioriOptions{}, stats);
  } else {
    preview = BeamSearchDiscover(prepared, size, distance, BeamSearchOptions{},
                                 stats);
  }
  if (!preview.ok()) return preview.status();
  discovery.preview = std::move(preview).value();
  return discovery;
}

}  // namespace egp
