#include "datagen/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/graph_stats.h"

namespace egp {
namespace {

GeneratorOptions TinyScale(const char* domain) {
  GeneratorOptions options;
  // Keep tests fast: large domains at 1/5000 scale, small at 1/50.
  const std::string name(domain);
  options.scale =
      (name == "basketball" || name == "architecture") ? 0.02 : 0.0002;
  return options;
}

class GeneratorDomainTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GeneratorDomainTest, SchemaMatchesTable2Exactly) {
  const DomainSpec* spec = FindDomainSpec(GetParam());
  ASSERT_NE(spec, nullptr);
  auto domain = GenerateDomain(*spec, TinyScale(GetParam()));
  ASSERT_TRUE(domain.ok()) << domain.status().ToString();
  EXPECT_EQ(domain->schema.num_types(), spec->num_types);
  EXPECT_EQ(domain->schema.num_edges(), spec->num_rel_types);
}

TEST_P(GeneratorDomainTest, EveryTypeIsEligible) {
  auto domain = GenerateDomainByName(GetParam(), TinyScale(GetParam()));
  ASSERT_TRUE(domain.ok());
  for (TypeId t = 0; t < domain->schema.num_types(); ++t) {
    EXPECT_FALSE(domain->schema.IncidentEdges(t).empty())
        << domain->schema.TypeName(t);
    EXPECT_GE(domain->schema.TypeEntityCount(t), 2u);
  }
}

TEST_P(GeneratorDomainTest, EntityAndEdgeCountsNearTarget) {
  const DomainSpec* spec = FindDomainSpec(GetParam());
  const GeneratorOptions options = TinyScale(GetParam());
  auto domain = GenerateDomain(*spec, options);
  ASSERT_TRUE(domain.ok());
  const double target_entities =
      static_cast<double>(spec->paper_entities) * options.scale;
  const double entities = static_cast<double>(domain->graph.num_entities());
  EXPECT_GT(entities, target_entities * 0.8);
  EXPECT_LT(entities, target_entities * 1.5);
  const double target_edges =
      static_cast<double>(spec->paper_edges) * options.scale;
  const double edges = static_cast<double>(domain->graph.num_edges());
  // Dedup capping and overrides relax the lower bound.
  EXPECT_GT(edges, target_edges * 0.4);
  EXPECT_LT(edges, target_edges * 2.5);
}

TEST_P(GeneratorDomainTest, DeterministicUnderSeed) {
  auto a = GenerateDomainByName(GetParam(), TinyScale(GetParam()));
  auto b = GenerateDomainByName(GetParam(), TinyScale(GetParam()));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->graph.num_entities(), b->graph.num_entities());
  EXPECT_EQ(a->graph.num_edges(), b->graph.num_edges());
  // Structural identity on every edge: the whole CSR, both offset
  // tables and the out-arcs (the in-arcs are their transpose).
  const FrozenGraph& fa = a->graph.adjacency();
  const FrozenGraph& fb = b->graph.adjacency();
  EXPECT_TRUE(std::ranges::equal(fa.out_offsets(), fb.out_offsets()));
  EXPECT_TRUE(std::ranges::equal(fa.in_offsets(), fb.in_offsets()));
  EXPECT_TRUE(std::ranges::equal(
      fa.out_arcs(), fb.out_arcs(),
      [](const FrozenGraph::Arc& x, const FrozenGraph::Arc& y) {
        return x.neighbor == y.neighbor && x.rel_type == y.rel_type;
      }));
}

INSTANTIATE_TEST_SUITE_P(AllDomains, GeneratorDomainTest,
                         ::testing::Values("books", "film", "music", "tv",
                                           "people", "basketball",
                                           "architecture"));

TEST(GeneratorGoldTest, GoldTypesExistWithConfiguredRanks) {
  auto domain = GenerateDomainByName("film", TinyScale("film"));
  ASSERT_TRUE(domain.ok());
  const DomainSpec* spec = FindDomainSpec("film");
  // Collect per-type sizes, rank them, and check the gold types sit at
  // their configured coverage ranks.
  std::vector<std::pair<uint64_t, std::string>> by_size;
  for (TypeId t = 0; t < domain->schema.num_types(); ++t) {
    by_size.emplace_back(domain->schema.TypeEntityCount(t),
                         domain->schema.TypeName(t));
  }
  std::sort(by_size.begin(), by_size.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t g = 0; g < spec->gold.tables.size(); ++g) {
    const uint32_t expected_rank = spec->gold_coverage_ranks[g];
    // Multi-typing adds ±3% noise; allow a small rank drift.
    bool found_near = false;
    for (uint32_t r = expected_rank >= 2 ? expected_rank - 2 : 0;
         r <= expected_rank + 2 && r < by_size.size(); ++r) {
      if (by_size[r].second == spec->gold.tables[g].key) found_near = true;
    }
    EXPECT_TRUE(found_near)
        << spec->gold.tables[g].key << " not within 2 of rank "
        << expected_rank;
  }
}

TEST(GeneratorGoldTest, GoldNonKeysAnchoredOnKeyType) {
  auto domain = GenerateDomainByName("music", TinyScale("music"));
  ASSERT_TRUE(domain.ok());
  for (const GoldTable& gold : domain->gold.tables) {
    const auto key_id = domain->schema.type_names().Find(gold.key);
    ASSERT_TRUE(key_id.has_value()) << gold.key;
    std::set<std::string> incident_surfaces;
    for (uint32_t index : domain->schema.IncidentEdges(*key_id)) {
      incident_surfaces.insert(
          domain->schema.SurfaceName(domain->schema.Edge(index)));
    }
    for (const std::string& attr : gold.nonkeys) {
      EXPECT_TRUE(incident_surfaces.count(attr) > 0)
          << gold.key << " missing attribute " << attr;
    }
  }
}

TEST(GeneratorGoldTest, ExpertKeysResolvedToExistingTypes) {
  for (const char* name : {"books", "film", "music", "tv", "people"}) {
    auto domain = GenerateDomainByName(name, TinyScale(name));
    ASSERT_TRUE(domain.ok());
    ASSERT_EQ(domain->gold.expert_keys.size(), 6u) << name;
    std::set<std::string> distinct;
    for (const std::string& key : domain->gold.expert_keys) {
      EXPECT_TRUE(domain->schema.type_names().Find(key).has_value())
          << name << ": " << key;
      distinct.insert(key);
    }
    EXPECT_EQ(distinct.size(), 6u) << name;
  }
}

TEST(GeneratorGoldTest, ExpertOverlapMatchesTables22And23) {
  // The reconstructed expert lists must reproduce the published
  // Freebase↔Experts agreement; verified here for the intersection size.
  const std::map<std::string, size_t> expected_overlap = {
      {"books", 2}, {"film", 3}, {"music", 5}, {"tv", 3}, {"people", 3}};
  for (const auto& [name, overlap] : expected_overlap) {
    auto domain = GenerateDomainByName(name, TinyScale(name.c_str()));
    ASSERT_TRUE(domain.ok());
    std::set<std::string> gold_keys;
    for (const GoldTable& t : domain->gold.tables) gold_keys.insert(t.key);
    size_t shared = 0;
    for (const std::string& key : domain->gold.expert_keys) {
      if (gold_keys.count(key) > 0) ++shared;
    }
    EXPECT_EQ(shared, overlap) << name;
  }
}

TEST(GeneratorTest, ScaleControlsSize) {
  GeneratorOptions small, large;
  small.scale = 0.0001;
  large.scale = 0.0004;
  auto a = GenerateDomainByName("tv", small);
  auto b = GenerateDomainByName("tv", large);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(a->graph.num_entities(), b->graph.num_entities());
  EXPECT_LT(a->graph.num_edges(), b->graph.num_edges());
  // Schema never scales.
  EXPECT_EQ(a->schema.num_types(), b->schema.num_types());
  EXPECT_EQ(a->schema.num_edges(), b->schema.num_edges());
}

TEST(GeneratorTest, MultiTypedEntitiesExist) {
  auto domain = GenerateDomainByName("people", TinyScale("people"));
  ASSERT_TRUE(domain.ok());
  const EntityGraphStats stats = ComputeEntityGraphStats(domain->graph);
  EXPECT_GT(stats.multi_typed_entities, 0u);
}

TEST(GeneratorTest, SchemaIsConnected) {
  // The connectivity pass guarantees a single component.
  for (const char* name : {"film", "basketball"}) {
    auto domain = GenerateDomainByName(name, TinyScale(name));
    ASSERT_TRUE(domain.ok());
    const SchemaGraphStats stats = ComputeSchemaGraphStats(domain->schema);
    EXPECT_EQ(stats.num_components, 1u) << name;
  }
}

TEST(GeneratorTest, UnknownDomainFails) {
  EXPECT_EQ(GenerateDomainByName("nope", GeneratorOptions{}).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace egp
