// Ablation: incremental statistics maintenance vs full re-derivation.
//
// §5 asserts the schema graph and scores "can be incrementally updated";
// this bench quantifies the claim on the music domain: applying a batch
// of updates and re-preparing from IncrementalSchemaStats vs re-deriving
// the schema graph from the (hypothetically re-ingested) entity graph.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/incremental.h"
#include "graph/entity_graph_builder.h"

int main() {
  using namespace egp;
  bench::PrintHeader(
      "Ablation: incremental stats maintenance vs full re-derivation "
      "(music)");
  const GeneratedDomain& domain = bench::Domain("music");

  bench::PrintRow("updates", {"apply ms", "refresh ms", "rederive ms",
                              "dirty types"},
                  12, 12);
  for (const size_t batch : {100u, 1000u, 10000u, 100000u}) {
    Rng rng(77);
    std::vector<GraphUpdate> updates;
    updates.reserve(batch);
    for (size_t i = 0; i < batch; ++i) {
      if (rng.NextBernoulli(0.5)) {
        updates.push_back(GraphUpdate::AddEdge(
            static_cast<uint32_t>(rng.NextBounded(domain.schema.num_edges()))));
      } else {
        updates.push_back(GraphUpdate::AddEntity(
            static_cast<TypeId>(rng.NextBounded(domain.schema.num_types()))));
      }
    }

    IncrementalSchemaStats stats(domain.schema);
    Timer apply_timer;
    EGP_CHECK(stats.ApplyAll(updates).ok());
    const double apply_ms = apply_timer.ElapsedMillis();

    Timer refresh_timer;
    auto refreshed = PreparedSchema::Create(stats.ToSchemaGraph());
    EGP_CHECK(refreshed.ok());
    const double refresh_ms = refresh_timer.ElapsedMillis();

    // Full pipeline: re-ingest every edge into a fresh graph (what a
    // system without incremental maintenance pays), then re-derive.
    Timer rederive_timer;
    EntityGraphBuilder builder;
    for (TypeId t = 0; t < domain.graph.num_types(); ++t) {
      builder.AddEntityType(domain.graph.TypeName(t));
    }
    for (RelTypeId r = 0; r < domain.graph.num_rel_types(); ++r) {
      const RelTypeInfo& info = domain.graph.RelType(r);
      builder.AddRelationshipType(domain.graph.RelSurfaceName(r),
                                  info.src_type, info.dst_type);
    }
    for (EntityId e = 0; e < domain.graph.num_entities(); ++e) {
      const EntityId id = builder.AddEntity(domain.graph.EntityName(e));
      for (TypeId t : domain.graph.TypesOf(e)) builder.AddEntityToType(id, t);
    }
    const FrozenGraph& adjacency = domain.graph.adjacency();
    for (EntityId src = 0; src < domain.graph.num_entities(); ++src) {
      for (const FrozenGraph::Arc& arc : adjacency.OutArcs(src)) {
        EGP_CHECK(builder.AddEdge(src, arc.rel_type, arc.neighbor).ok());
      }
    }
    auto rebuilt = builder.Build();
    EGP_CHECK(rebuilt.ok());
    const SchemaGraph rederived = SchemaGraph::FromEntityGraph(*rebuilt);
    auto reprepared = PreparedSchema::Create(rederived);
    EGP_CHECK(reprepared.ok());
    const double rederive_ms = rederive_timer.ElapsedMillis();

    bench::PrintRow(std::to_string(batch),
                    {bench::FormatDouble(apply_ms, 2),
                     bench::FormatDouble(refresh_ms, 2),
                     bench::FormatDouble(rederive_ms, 2),
                     std::to_string(stats.DirtyTypes().size())},
                    12, 12);
  }
  std::printf(
      "\nReading: applying updates is O(1) per update and refreshing the "
      "prepared scores costs microseconds on a 69-type schema; the full "
      "re-derivation pays a pass over all data edges (and in reality would "
      "also pay re-ingestion).\n");
  return 0;
}
