// Determinism tests for the random schema-graph helper: every property
// suite in tests/ assumes RandomSchemaGraph(seed, ...) is reproducible, so
// that assumption is itself pinned here.
#include "tests/testing/random_schema.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/strings.h"

namespace egp {
namespace {

using testing_util::RandomSchemaGraph;

/// Flattens a schema graph into a comparable fingerprint.
std::vector<uint64_t> Fingerprint(const SchemaGraph& schema) {
  std::vector<uint64_t> out;
  out.push_back(schema.num_types());
  out.push_back(schema.num_edges());
  for (TypeId t = 0; t < schema.num_types(); ++t) {
    out.push_back(schema.TypeEntityCount(t));
  }
  for (const SchemaEdge& e : schema.edges()) {
    out.push_back(e.src);
    out.push_back(e.dst);
    out.push_back(e.edge_count);
    out.push_back(e.surface_name);
  }
  return out;
}

TEST(RandomSchemaTest, SameSeedIsReproducibleAcrossCalls) {
  for (uint64_t seed = 0; seed < 16; ++seed) {
    const SchemaGraph a = RandomSchemaGraph(seed, 12, 30);
    const SchemaGraph b = RandomSchemaGraph(seed, 12, 30);
    EXPECT_EQ(Fingerprint(a), Fingerprint(b)) << "seed " << seed;
  }
}

TEST(RandomSchemaTest, RequestedShapeIsHonored) {
  const SchemaGraph schema = RandomSchemaGraph(7, 9, 21);
  EXPECT_EQ(schema.num_types(), 9u);
  EXPECT_EQ(schema.num_edges(), 21u);
  for (TypeId t = 0; t < schema.num_types(); ++t) {
    EXPECT_EQ(schema.TypeName(t), StrFormat("T%u", t));
    EXPECT_GE(schema.TypeEntityCount(t), 1u);
    EXPECT_LE(schema.TypeEntityCount(t), 100u);
  }
  for (const SchemaEdge& e : schema.edges()) {
    EXPECT_LT(e.src, schema.num_types());
    EXPECT_LT(e.dst, schema.num_types());
    EXPECT_GE(e.edge_count, 1u);
    EXPECT_LE(e.edge_count, 50u);
  }
}

TEST(RandomSchemaTest, DistinctSeedsDiverge) {
  // Not a hard guarantee of the generator, but with 40+ random draws per
  // graph two seeds colliding would indicate a broken Rng.
  const SchemaGraph a = RandomSchemaGraph(1, 12, 30);
  const SchemaGraph b = RandomSchemaGraph(2, 12, 30);
  EXPECT_NE(Fingerprint(a), Fingerprint(b));
}

}  // namespace
}  // namespace egp
