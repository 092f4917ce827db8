// Test helper: random schema graphs for property suites.
#ifndef EGP_TESTS_TESTING_RANDOM_SCHEMA_H_
#define EGP_TESTS_TESTING_RANDOM_SCHEMA_H_

#include <string>

#include "common/rng.h"
#include "common/strings.h"
#include "graph/schema_graph.h"

namespace egp {
namespace testing_util {

/// Random multigraph schema: `num_types` types with entity counts in
/// [1, 100], `num_edges` edges with uniform endpoints (self-loops with low
/// probability) and edge counts in [1, 50].
inline SchemaGraph RandomSchemaGraph(uint64_t seed, uint32_t num_types,
                                     uint32_t num_edges) {
  Rng rng(seed);
  SchemaGraph schema;
  for (uint32_t t = 0; t < num_types; ++t) {
    schema.AddType(StrFormat("T%u", t),
                   static_cast<uint64_t>(rng.NextInt(1, 100)));
  }
  for (uint32_t e = 0; e < num_edges; ++e) {
    const TypeId src = static_cast<TypeId>(rng.NextBounded(num_types));
    TypeId dst = static_cast<TypeId>(rng.NextBounded(num_types));
    if (dst == src && !rng.NextBernoulli(0.1)) {
      dst = (dst + 1) % num_types;
    }
    schema.AddEdge(StrFormat("r%u", e), src, dst,
                   static_cast<uint64_t>(rng.NextInt(1, 50)));
  }
  return schema;
}

}  // namespace testing_util
}  // namespace egp

#endif  // EGP_TESTS_TESTING_RANDOM_SCHEMA_H_
