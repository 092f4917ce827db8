// Discover: the one dispatch from an algorithm name to a discovery
// algorithm.
//
// The paper picks the algorithm by constraint space (§5): dynamic
// programming (Alg. 2) for concise previews, the Apriori-style Alg. 3
// for tight and diverse ones. Brute force (the oracle) and beam search
// (approximate) run when named. The Engine, the report writer, the
// table benches and the tests all dispatch through here.
#ifndef EGP_CORE_DISCOVER_H_
#define EGP_CORE_DISCOVER_H_

#include <string>

#include "common/result.h"
#include "core/brute_force.h"  // DiscoveryStats
#include "core/constraints.h"
#include "core/preview.h"

namespace egp {

/// Discovery algorithm, selected by name like the scoring measures:
/// "auto", "bf" (brute force; "bruteforce" is an alias), "dp" (dynamic
/// programming), "apriori", "beam". Returns the canonical name, or
/// InvalidArgument naming the available ones.
Result<std::string> CanonicalAlgorithmName(const std::string& name);

/// A discovered preview and the canonical name of the algorithm that
/// found it ("auto" resolved).
struct Discovery {
  Preview preview;
  std::string algorithm;
};

/// Finds a preview in the space (size, distance) with the algorithm
/// named `algorithm`, any name CanonicalAlgorithmName accepts. "auto"
/// runs DP for concise requests and Apriori when a distance constraint
/// is present. DP asked for a distance constraint is InvalidArgument:
/// the tight and diverse spaces lack its optimal substructure. Brute
/// force, Apriori and beam count their subsets into `stats`; DP leaves
/// it untouched.
Result<Discovery> Discover(const PreparedSchema& prepared,
                           const std::string& algorithm,
                           const SizeConstraint& size,
                           const DistanceConstraint& distance,
                           DiscoveryStats* stats = nullptr);

}  // namespace egp

#endif  // EGP_CORE_DISCOVER_H_
