// Round-trip fidelity of the .egps snapshot store: a written snapshot
// reopens (streaming and mmap) into a graph that matches the original
// structure for structure — names, multi-typing, membership order,
// relationship types, CSR arrays — and previews served from it are
// byte-identical to previews from the source graph.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "datagen/generator.h"
#include "datagen/paper_example.h"
#include "graph/entity_graph_builder.h"
#include "graph/frozen_graph.h"
#include "io/graph_io.h"
#include "io/json_export.h"
#include "io/ntriples.h"
#include "service/engine.h"
#include "store/format.h"
#include "store/snapshot_reader.h"
#include "store/snapshot_writer.h"
#include "tests/testing/reference_graph.h"
#include "tests/testing/subprocess.h"

namespace egp {
namespace {

#ifndef EGP_SAMPLE_NT
#error "EGP_SAMPLE_NT must be defined by the build"
#endif

using testing_util::TempPath;

/// A graph exercising the corners the format must carry: multi-typed
/// entities, membership order that differs from entity-id order, two
/// relationship types sharing a surface name, parallel edges, names
/// needing escapes, and an untyped entity.
EntityGraph CornersGraph() {
  EntityGraphBuilder builder;
  const TypeId person = builder.AddEntityType("PERSON");
  const TypeId film = builder.AddEntityType("FILM");
  const TypeId award = builder.AddEntityType("AWARD");
  const EntityId grace = builder.AddEntity("Grace \"Amazing\" Hopper");
  const EntityId mib = builder.AddEntity("Men in Black\t<1997>");
  const EntityId oscar = builder.AddEntity("Oscar");
  const EntityId will = builder.AddEntity("Will Smith");
  builder.AddEntity("loner");  // no types, no edges
  // Membership order differs from id order: will before grace.
  builder.AddEntityToType(will, person);
  builder.AddEntityToType(grace, person);
  builder.AddEntityToType(grace, film);  // multi-typed
  builder.AddEntityToType(mib, film);
  builder.AddEntityToType(oscar, award);
  // Same surface name, distinct endpoint types.
  const RelTypeId won_p =
      builder.AddRelationshipType("Award Winners", person, award);
  const RelTypeId won_f =
      builder.AddRelationshipType("Award Winners", film, award);
  const RelTypeId acted =
      builder.AddRelationshipType("Actor", person, film);
  EXPECT_TRUE(builder.AddEdge(will, acted, mib).ok());
  EXPECT_TRUE(builder.AddEdge(will, acted, mib).ok());  // parallel edge
  EXPECT_TRUE(builder.AddEdge(will, won_p, oscar).ok());
  EXPECT_TRUE(builder.AddEdge(mib, won_f, oscar).ok());
  EXPECT_TRUE(builder.AddEdge(grace, won_p, oscar).ok());
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

std::vector<uint32_t> Ids(std::span<const uint32_t> ids) {
  return {ids.begin(), ids.end()};
}

void ExpectSameGraph(const EntityGraph& a, const EntityGraph& b) {
  ASSERT_EQ(a.num_entities(), b.num_entities());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.num_types(), b.num_types());
  ASSERT_EQ(a.num_rel_types(), b.num_rel_types());
  for (EntityId e = 0; e < a.num_entities(); ++e) {
    EXPECT_EQ(a.EntityName(e), b.EntityName(e));
    EXPECT_EQ(Ids(a.TypesOf(e)), Ids(b.TypesOf(e)));
    EXPECT_EQ(a.adjacency().OutDegree(e), b.adjacency().OutDegree(e));
    EXPECT_EQ(a.adjacency().InDegree(e), b.adjacency().InDegree(e));
  }
  for (TypeId t = 0; t < a.num_types(); ++t) {
    EXPECT_EQ(a.TypeName(t), b.TypeName(t));
    // Order preserved, not just the set: sampling is order-sensitive.
    EXPECT_EQ(Ids(a.EntitiesOfType(t)), Ids(b.EntitiesOfType(t)));
  }
  for (RelTypeId r = 0; r < a.num_rel_types(); ++r) {
    EXPECT_EQ(a.RelSurfaceName(r), b.RelSurfaceName(r));
    EXPECT_EQ(a.RelType(r).src_type, b.RelType(r).src_type);
    EXPECT_EQ(a.RelType(r).dst_type, b.RelType(r).dst_type);
    EXPECT_EQ(testing_util::RelTypeEdgeCount(a, r),
              testing_util::RelTypeEdgeCount(b, r));
  }
}

void ExpectSameFrozen(const FrozenGraph& a, const FrozenGraph& b) {
  ASSERT_EQ(a.num_entities(), b.num_entities());
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  for (EntityId e = 0; e < a.num_entities(); ++e) {
    const auto out_a = a.OutArcs(e), out_b = b.OutArcs(e);
    const auto in_a = a.InArcs(e), in_b = b.InArcs(e);
    ASSERT_EQ(out_a.size(), out_b.size());
    ASSERT_EQ(in_a.size(), in_b.size());
    for (size_t i = 0; i < out_a.size(); ++i) {
      EXPECT_EQ(out_a[i].neighbor, out_b[i].neighbor);
      EXPECT_EQ(out_a[i].rel_type, out_b[i].rel_type);
    }
    for (size_t i = 0; i < in_a.size(); ++i) {
      EXPECT_EQ(in_a[i].neighbor, in_b[i].neighbor);
      EXPECT_EQ(in_a[i].rel_type, in_b[i].rel_type);
    }
  }
}

TEST(SnapshotRoundtripTest, CornersGraphBothOpenModes) {
  const EntityGraph graph = CornersGraph();
  EXPECT_FALSE(graph.adjacency().is_view());
  const std::string path = TempPath("corners.egps");
  ASSERT_TRUE(WriteSnapshotFile(graph, path).ok());

  for (const auto mode : {SnapshotOpenOptions::Mode::kStream,
                          SnapshotOpenOptions::Mode::kMmap}) {
    SCOPED_TRACE(mode == SnapshotOpenOptions::Mode::kMmap ? "mmap"
                                                          : "stream");
    SnapshotOpenOptions options;
    options.mode = mode;
    auto stored = OpenSnapshot(path, options);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    EXPECT_EQ(stored->zero_copy,
              mode == SnapshotOpenOptions::Mode::kMmap);
    EXPECT_TRUE(stored->graph.adjacency().is_view());
    ExpectSameGraph(graph, stored->graph);
    ExpectSameFrozen(graph.adjacency(), stored->graph.adjacency());
  }
  std::remove(path.c_str());
}

TEST(SnapshotRoundtripTest, DatagenDomainSurvives) {
  std::vector<std::pair<std::string, EntityGraph>> graphs;
  for (const auto& [name, scale] :
       {std::pair{"basketball", 0.05}, {"film", 0.0003}, {"people", 0.0003}}) {
    GeneratorOptions options;
    options.scale = scale;
    auto domain = GenerateDomainByName(name, options);
    ASSERT_TRUE(domain.ok()) << name;
    graphs.emplace_back(name, std::move(domain->graph));
  }
  graphs.emplace_back("paper example", BuildPaperExampleGraph());
  EntityGraphBuilder one_entity;
  one_entity.AddTypedEntity("only", "T");
  auto built = one_entity.Build();
  ASSERT_TRUE(built.ok());
  graphs.emplace_back("one entity", std::move(built).value());

  for (const auto& [name, graph] : graphs) {
    SCOPED_TRACE(name);
    std::stringstream buffer(std::ios::in | std::ios::out |
                             std::ios::binary);
    ASSERT_TRUE(WriteSnapshot(graph, buffer).ok());
    const std::string bytes = buffer.str();
    auto owned = std::make_shared<std::vector<uint8_t>>(bytes.begin(),
                                                        bytes.end());
    auto stored = OpenSnapshotBytes({owned->data(), owned->size()}, owned);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    ExpectSameGraph(graph, stored->graph);
    ExpectSameFrozen(graph.adjacency(), stored->graph.adjacency());
  }
}

TEST(SnapshotRoundtripTest, PreviewBitIdentityAllMeasures) {
  // sample.nt plus the paper's Fig. 1 graph, whose two "Award Winners"
  // relationship types merge into one AWARD column.
  auto parsed = ReadNTriplesFile(EGP_SAMPLE_NT);
  ASSERT_TRUE(parsed.ok());
  const EntityGraph graphs[] = {std::move(parsed).value(),
                                BuildPaperExampleGraph()};

  PreviewRequest base;
  base.size = {2, 4};
  base.sample_rows = 3;
  base.sample_seed = 7;
  base.measures.key = "randomwalk";
  base.measures.nonkey = "entropy";  // scans the CSR the snapshot serves
  // Each sampler path: random rows; the frequency-weighted strategy's
  // non-empty-cell test; the union over a merged column's types.
  std::vector<PreviewRequest> requests(3, base);
  requests[1].sample_strategy = SamplingStrategy::kFrequencyWeighted;
  requests[1].sample_rows = 50;
  requests[2].merge_multiway_columns = true;
  requests[2].size = {5, 12};  // wide enough to pick both into AWARD,
  requests[2].measures.nonkey = "coverage";  // which entropy ranks low

  size_t merged_columns = 0;
  for (const EntityGraph& graph : graphs) {
    const std::string path = TempPath("sample_identity.egps");
    ASSERT_TRUE(WriteSnapshotFile(graph, path).ok());
    const Engine golden_engine = Engine::FromGraph(EntityGraph(graph));
    for (const PreviewRequest& request : requests) {
      const auto golden = golden_engine.Preview(request);
      ASSERT_TRUE(golden.ok()) << golden.status().ToString();
      const std::string golden_preview =
          PreviewToJson(*golden->prepared, golden->preview);
      const std::string golden_tuples = MaterializedPreviewToJson(
          *golden_engine.graph(), golden->materialized);
      for (const MaterializedTable& table : golden->materialized.tables) {
        for (const MaterializedColumn& column : table.columns) {
          if (column.rel_types.size() > 1) ++merged_columns;
        }
      }

      for (const auto mode : {SnapshotOpenOptions::Mode::kStream,
                              SnapshotOpenOptions::Mode::kMmap}) {
        SCOPED_TRACE(mode == SnapshotOpenOptions::Mode::kMmap ? "mmap"
                                                              : "stream");
        SnapshotOpenOptions options;
        options.mode = mode;
        auto stored = OpenSnapshot(path, options);
        ASSERT_TRUE(stored.ok()) << stored.status().ToString();
        const Engine engine = Engine::FromGraph(std::move(stored->graph));
        ASSERT_TRUE(engine.graph()->adjacency().is_view());
        const auto served = engine.Preview(request);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        EXPECT_EQ(golden->score, served->score);
        EXPECT_EQ(golden_preview,
                  PreviewToJson(*served->prepared, served->preview));
        EXPECT_EQ(golden_tuples, MaterializedPreviewToJson(
                                     *engine.graph(), served->materialized));
      }
    }
    std::remove(path.c_str());
  }
  // The merged request reached a column over several relationship types.
  EXPECT_GT(merged_columns, 0u);
}

TEST(SnapshotRoundtripTest, AutoLoaderDetectsByMagicNotExtension) {
  auto parsed = ReadNTriplesFile(EGP_SAMPLE_NT);
  ASSERT_TRUE(parsed.ok());
  // Snapshot written under a .nt name still opens as a snapshot.
  const std::string disguised = TempPath("disguised_snapshot.nt");
  ASSERT_TRUE(WriteSnapshotFile(*parsed, disguised).ok());
  auto magic = FileHasSnapshotMagic(disguised);
  ASSERT_TRUE(magic.ok());
  EXPECT_TRUE(*magic);
  auto loaded = LoadGraphFileAuto(disguised);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->storage, GraphStorage::kSnapshot);
  EXPECT_TRUE(loaded->graph.adjacency().is_view());
  ExpectSameGraph(*parsed, loaded->graph);
  std::remove(disguised.c_str());

  // A text file named .egps is rejected, not mis-parsed.
  const std::string fake = TempPath("fake.egps");
  {
    std::ofstream out(fake);
    out << "x a T .\n";
  }
  EXPECT_EQ(LoadGraphFileAuto(fake).status().code(),
            StatusCode::kCorruption);
  std::remove(fake.c_str());
}

TEST(SnapshotRoundtripTest, NTriplesWriterRoundTrips) {
  auto parsed = ReadNTriplesFile(EGP_SAMPLE_NT);
  ASSERT_TRUE(parsed.ok());
  std::stringstream out;
  ASSERT_TRUE(WriteNTriples(*parsed, out).ok());
  auto reparsed = ReadNTriples(out);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ExpectSameGraph(*parsed, *reparsed);
  ExpectSameFrozen(parsed->adjacency(), reparsed->adjacency());
}

TEST(SnapshotRoundtripTest, VersionOneSnapshotOpens) {
  // data/sample.nt compiled by the version-1 writer, whose edges section
  // (id 8) is checksummed and skipped.
  auto parsed = ReadNTriplesFile(EGP_SAMPLE_NT);
  ASSERT_TRUE(parsed.ok());
  std::stringstream fresh(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(WriteSnapshot(*parsed, fresh).ok());
  for (const auto mode : {SnapshotOpenOptions::Mode::kStream,
                          SnapshotOpenOptions::Mode::kMmap}) {
    SCOPED_TRACE(mode == SnapshotOpenOptions::Mode::kMmap ? "mmap"
                                                          : "stream");
    SnapshotOpenOptions options;
    options.mode = mode;
    auto stored = OpenSnapshot(EGP_SAMPLE_V1_EGPS, options);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    ExpectSameGraph(*parsed, stored->graph);
    ExpectSameFrozen(parsed->adjacency(), stored->graph.adjacency());
    // Re-writing it (what egp_compile does) gives a fresh compile's bytes.
    std::stringstream upgraded(std::ios::in | std::ios::out |
                               std::ios::binary);
    ASSERT_TRUE(WriteSnapshot(stored->graph, upgraded).ok());
    EXPECT_EQ(upgraded.str(), fresh.str());
  }
}

/// Where each section of the snapshot at `path` lies in the memory that
/// `graph`, opened from it, views: the file's TOC gives each section's
/// offset, and the out-offsets section, which the adjacency serves in
/// place, pins the image base.
std::map<uint32_t, std::span<const char>> SectionsInMemory(
    const std::string& path, const EntityGraph& graph) {
  std::ifstream in(path, std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  SnapshotHeader header;
  std::memcpy(&header, file.data(), sizeof(header));
  std::vector<SectionEntry> toc(header.section_count);
  std::memcpy(toc.data(), file.data() + sizeof(header),
              toc.size() * sizeof(SectionEntry));
  uint64_t out_offsets = 0;
  for (const SectionEntry& entry : toc) {
    if (entry.id == kSectionOutOffsets) out_offsets = entry.offset;
  }
  const char* base =
      reinterpret_cast<const char*>(graph.adjacency().out_offsets().data()) -
      out_offsets;
  std::map<uint32_t, std::span<const char>> sections;
  for (const SectionEntry& entry : toc) {
    sections[entry.id] = {base + entry.offset, entry.length};
  }
  return sections;
}

/// True iff the elements of `range` (a name or an id list) lie inside
/// `section`.
bool Inside(const auto& range, std::span<const char> section) {
  const auto begin = reinterpret_cast<uintptr_t>(std::data(range));
  const auto end = begin + std::size(range) * sizeof(*std::data(range));
  const auto low = reinterpret_cast<uintptr_t>(section.data());
  return begin >= low && end <= low + section.size();
}

/// Every name and type list of `graph` is a view into its snapshot's
/// sections, not a copy.
void ExpectViewsSections(
    const EntityGraph& graph,
    const std::map<uint32_t, std::span<const char>>& sections) {
  for (EntityId e = 0; e < graph.num_entities(); ++e) {
    EXPECT_TRUE(Inside(graph.EntityName(e),
                       sections.at(kSectionEntityNames)))
        << "entity " << e;
    EXPECT_TRUE(Inside(graph.TypesOf(e), sections.at(kSectionEntityTypes)))
        << "entity " << e;
  }
  for (TypeId t = 0; t < graph.num_types(); ++t) {
    EXPECT_TRUE(Inside(graph.TypeName(t), sections.at(kSectionTypeNames)))
        << "type " << t;
    EXPECT_TRUE(Inside(graph.EntitiesOfType(t),
                       sections.at(kSectionTypeMembers)))
        << "type " << t;
  }
  for (RelTypeId r = 0; r < graph.num_rel_types(); ++r) {
    EXPECT_TRUE(Inside(graph.RelSurfaceName(r),
                       sections.at(kSectionSurfaceNames)))
        << "relationship type " << r;
  }
}

TEST(SnapshotRoundtripTest, NamesAndTypeListsAreTheSnapshotsBytes) {
  const EntityGraph built = CornersGraph();
  const std::string path = TempPath("one_copy.egps");
  ASSERT_TRUE(WriteSnapshotFile(built, path).ok());
  for (const auto mode : {SnapshotOpenOptions::Mode::kStream,
                          SnapshotOpenOptions::Mode::kMmap}) {
    SCOPED_TRACE(mode == SnapshotOpenOptions::Mode::kMmap ? "mmap"
                                                          : "stream");
    SnapshotOpenOptions options;
    options.mode = mode;
    EntityGraph copy;
    std::map<uint32_t, std::span<const char>> sections;
    {
      auto stored = OpenSnapshot(path, options);
      ASSERT_TRUE(stored.ok()) << stored.status().ToString();
      ASSERT_TRUE(stored->graph.adjacency().is_view());
      sections = SectionsInMemory(path, stored->graph);
      ExpectViewsSections(stored->graph, sections);
      copy = stored->graph;
      EXPECT_EQ(copy.EntityName(0).data(),
                stored->graph.EntityName(0).data());
      EXPECT_EQ(copy.TypesOf(0).data(), stored->graph.TypesOf(0).data());
    }
    // The copy shares the image and keeps it alive past the original.
    ExpectViewsSections(copy, sections);
    ExpectSameGraph(built, copy);
  }
  std::remove(path.c_str());

  // A built graph's copy shares the arrays Build() flattened.
  const EntityGraph copy = built;
  EXPECT_EQ(copy.EntityName(0).data(), built.EntityName(0).data());
  EXPECT_EQ(copy.TypeName(0).data(), built.TypeName(0).data());
  EXPECT_EQ(copy.TypesOf(0).data(), built.TypesOf(0).data());
  EXPECT_EQ(copy.EntitiesOfType(0).data(), built.EntitiesOfType(0).data());
}

TEST(SnapshotRoundtripTest, FrozenHandleSharesBacking) {
  FrozenGraph copy;
  size_t num_edges = 0;
  {
    const EntityGraph graph = CornersGraph();
    // Copies are cheap handles onto the same arrays.
    copy = graph.adjacency();
    EXPECT_EQ(copy.out_arcs().data(), graph.adjacency().out_arcs().data());
    num_edges = graph.num_edges();
  }
  // The backing outlives the graph that built it.
  EXPECT_EQ(copy.num_arcs(), num_edges);
  EXPECT_EQ(copy.OutArcs(0).size(), copy.OutDegree(0));
}

}  // namespace
}  // namespace egp
