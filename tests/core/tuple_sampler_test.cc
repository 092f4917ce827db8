#include "core/tuple_sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/discover.h"
#include "datagen/paper_example.h"
#include "graph/entity_graph_builder.h"
#include "tests/testing/reference_graph.h"

namespace egp {
namespace {

// A graph whose relationship instances repeat: the same (src, dst, rel)
// edge several times. Two relationship types share the surface name
// "Lives In", so a merged column unions them; MONACO is both a CITY and a
// COUNTRY, so the union must deduplicate across relationship types too.
EntityGraph BuildRepeatedEdgeGraph() {
  EntityGraphBuilder b;
  const TypeId person = b.AddEntityType("PERSON");
  const TypeId city = b.AddEntityType("CITY");
  const TypeId country = b.AddEntityType("COUNTRY");
  const RelTypeId in_city = b.AddRelationshipType("Lives In", person, city);
  const RelTypeId in_country =
      b.AddRelationshipType("Lives In", person, country);
  const RelTypeId capital = b.AddRelationshipType("Capital", country, city);
  const EntityId ann = b.AddTypedEntity("Ann", "PERSON");
  const EntityId bob = b.AddTypedEntity("Bob", "PERSON");
  b.AddTypedEntity("Cy", "PERSON");  // no edges: empty cells
  const EntityId dee = b.AddTypedEntity("Dee", "PERSON");
  const EntityId paris = b.AddTypedEntity("Paris", "CITY");
  const EntityId rome = b.AddTypedEntity("Rome", "CITY");
  const EntityId france = b.AddTypedEntity("France", "COUNTRY");
  const EntityId italy = b.AddTypedEntity("Italy", "COUNTRY");
  const EntityId monaco = b.AddTypedEntity("Monaco", "CITY");
  b.AddEntityToType(monaco, country);
  const std::vector<std::tuple<EntityId, RelTypeId, EntityId, int>> edges = {
      {ann, in_city, paris, 3},     {ann, in_city, rome, 1},
      {ann, in_city, monaco, 2},    {ann, in_country, monaco, 2},
      {ann, in_country, france, 1}, {bob, in_city, rome, 2},
      {bob, in_country, italy, 1},  {dee, in_country, italy, 1},
      {france, capital, paris, 2},  {italy, capital, rome, 1},
      {monaco, capital, monaco, 2},
  };
  for (const auto& [src, rel, dst, copies] : edges) {
    for (int i = 0; i < copies; ++i) EXPECT_TRUE(b.AddEdge(src, rel, dst).ok());
  }
  auto graph = b.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

// Kinds of cell the oracle checked, so a test can show it covered them.
struct CellKinds {
  size_t incoming = 0;
  size_t merged = 0;          // a column over several relationship types
  size_t repeated_edges = 0;  // more incident edges than distinct values
};

// The cell oracle: a cell is the sorted, deduplicated union of the
// reference neighbour sets over its column's relationship types.
void ExpectCellsMatchNeighborSets(const EntityGraph& graph,
                                  const MaterializedPreview& mat,
                                  CellKinds* kinds) {
  for (const MaterializedTable& table : mat.tables) {
    for (const MaterializedRow& row : table.rows) {
      ASSERT_EQ(row.cells.size(), table.columns.size());
      for (size_t c = 0; c < table.columns.size(); ++c) {
        const MaterializedColumn& column = table.columns[c];
        std::vector<EntityId> expected;
        size_t edges = 0;
        for (RelTypeId rel : column.rel_types) {
          const auto part = testing_util::ReferenceValueList(
              graph, row.key, rel, column.direction);
          expected.insert(expected.end(), part.begin(), part.end());
          edges += part.size();
        }
        testing_util::MakeSet(&expected);
        EXPECT_EQ(row.cells[c].values, expected)
            << table.key_name << "." << column.name << " of "
            << graph.EntityName(row.key);
        if (column.direction == Direction::kIncoming) ++kinds->incoming;
        if (column.rel_types.size() > 1) ++kinds->merged;
        if (edges > expected.size()) ++kinds->repeated_edges;
      }
    }
  }
}

// One table per type holding every candidate of that type: outgoing and
// incoming columns, and same-surface columns for the multi-way merge.
Preview AllCandidatesPreview(const PreparedSchema& prepared) {
  Preview preview;
  for (TypeId t = 0; t < prepared.num_types(); ++t) {
    PreviewTable table;
    table.key = t;
    table.nonkeys = prepared.Candidates(t).sorted;
    preview.tables.push_back(std::move(table));
  }
  return preview;
}

class TupleSamplerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = BuildPaperExampleGraph();
    auto prepared = PreparedSchema::Create(
        SchemaGraph::FromEntityGraph(graph_));
    ASSERT_TRUE(prepared.ok());
    prepared_ = std::make_unique<PreparedSchema>(std::move(prepared).value());
    auto discovery = Discover(*prepared_, "auto", SizeConstraint{2, 6},
                              DistanceConstraint::None());
    ASSERT_TRUE(discovery.ok());
    preview_ = std::move(discovery->preview);
  }

  EntityGraph graph_;
  std::unique_ptr<PreparedSchema> prepared_;
  Preview preview_;
};

TEST_F(TupleSamplerTest, MaterializesRequestedRows) {
  TupleSamplerOptions options;
  options.rows_per_table = 2;
  const auto mat = MaterializePreview(graph_, *prepared_, preview_, options);
  ASSERT_TRUE(mat.ok());
  ASSERT_EQ(mat->tables.size(), 2u);
  for (const MaterializedTable& table : mat->tables) {
    EXPECT_LE(table.rows.size(), 2u);
    EXPECT_GE(table.rows.size(), 1u);
    EXPECT_EQ(table.columns.size(),
              preview_.tables[&table - mat->tables.data()].nonkeys.size());
  }
}

TEST_F(TupleSamplerTest, AllTuplesWhenFewerThanRequested) {
  TupleSamplerOptions options;
  options.rows_per_table = 100;
  const auto mat = MaterializePreview(graph_, *prepared_, preview_, options);
  ASSERT_TRUE(mat.ok());
  // FILM has 4 entities; the table shows all of them.
  EXPECT_EQ(mat->tables[0].rows.size(), mat->tables[0].total_tuples);
}

TEST_F(TupleSamplerTest, CellsMatchNeighborSets) {
  // Every column kind, with and without repeated edges, under both
  // strategies, sampled and in full.
  EntityGraph repeated = BuildRepeatedEdgeGraph();
  CellKinds kinds;
  for (const EntityGraph* graph : {&graph_, &repeated}) {
    auto prepared = PreparedSchema::Create(
        SchemaGraph::FromEntityGraph(*graph));
    ASSERT_TRUE(prepared.ok());
    const Preview preview = AllCandidatesPreview(*prepared);
    for (const SamplingStrategy strategy :
         {SamplingStrategy::kRandom, SamplingStrategy::kFrequencyWeighted}) {
      for (const bool merge : {false, true}) {
        for (const size_t rows : {2, 100}) {
          TupleSamplerOptions options;
          options.rows_per_table = rows;
          options.strategy = strategy;
          options.merge_multiway_columns = merge;
          const auto mat =
              MaterializePreview(*graph, *prepared, preview, options);
          ASSERT_TRUE(mat.ok());
          ExpectCellsMatchNeighborSets(*graph, *mat, &kinds);
        }
      }
    }
  }
  EXPECT_GT(kinds.incoming, 0u);
  EXPECT_GT(kinds.merged, 0u);
  EXPECT_GT(kinds.repeated_edges, 0u);
}

TEST_F(TupleSamplerTest, DeterministicUnderSeed) {
  TupleSamplerOptions options;
  options.rows_per_table = 2;
  options.seed = 99;
  const auto a = MaterializePreview(graph_, *prepared_, preview_, options);
  const auto b = MaterializePreview(graph_, *prepared_, preview_, options);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t t = 0; t < a->tables.size(); ++t) {
    ASSERT_EQ(a->tables[t].rows.size(), b->tables[t].rows.size());
    for (size_t r = 0; r < a->tables[t].rows.size(); ++r) {
      EXPECT_EQ(a->tables[t].rows[r].key, b->tables[t].rows[r].key);
    }
  }
}

TEST_F(TupleSamplerTest, FrequencyWeightedPrefersFilledRows) {
  // Under the frequency-weighted strategy, the FILM table should prefer
  // films with non-empty Genres/Director cells (Hancock lacks genres).
  TupleSamplerOptions options;
  options.rows_per_table = 1;
  options.strategy = SamplingStrategy::kFrequencyWeighted;
  const auto mat = MaterializePreview(graph_, *prepared_, preview_, options);
  ASSERT_TRUE(mat.ok());
  const MaterializedTable& film = mat->tables[0];
  ASSERT_EQ(film.rows.size(), 1u);
  size_t non_empty = 0;
  for (const MaterializedCell& cell : film.rows[0].cells) {
    if (!cell.values.empty()) ++non_empty;
  }
  EXPECT_GE(non_empty, film.columns.size() - 1);
}

TEST_F(TupleSamplerTest, FrequencyWeightedCountsAnyTypeOfAMergedColumn) {
  // PERSON's merged "Lives In" column spans CITY and COUNTRY. Dee lives
  // only in a COUNTRY and Cy nowhere, so the filled rows are Ann, Bob
  // and Dee whatever the jitter draws.
  const EntityGraph graph = BuildRepeatedEdgeGraph();
  auto prepared = PreparedSchema::Create(SchemaGraph::FromEntityGraph(graph));
  ASSERT_TRUE(prepared.ok());
  const TypeId person = *prepared->schema().type_names().Find("PERSON");
  Preview preview;
  PreviewTable table;
  table.key = person;
  for (const NonKeyCandidate& c : prepared->Candidates(person).sorted) {
    if (prepared->schema().SurfaceName(prepared->schema().Edge(
            c.schema_edge)) == "Lives In") {
      table.nonkeys.push_back(c);
    }
  }
  ASSERT_EQ(table.nonkeys.size(), 2u);
  preview.tables = {table};

  TupleSamplerOptions options;
  options.rows_per_table = 3;
  options.strategy = SamplingStrategy::kFrequencyWeighted;
  options.merge_multiway_columns = true;
  for (const uint64_t seed : {1, 2, 3, 4, 5}) {
    options.seed = seed;
    const auto mat = MaterializePreview(graph, *prepared, preview, options);
    ASSERT_TRUE(mat.ok());
    ASSERT_EQ(mat->tables[0].columns.size(), 1u);
    std::vector<std::string> keys;
    for (const MaterializedRow& row : mat->tables[0].rows) {
      keys.emplace_back(graph.EntityName(row.key));
    }
    EXPECT_EQ(keys, (std::vector<std::string>{"Ann", "Bob", "Dee"}));
  }
}

TEST_F(TupleSamplerTest, FailsOnUnderivedSchema) {
  SchemaGraph direct;
  direct.AddType("A", 1);
  direct.AddType("B", 1);
  direct.AddEdge("r", 0, 1, 1);
  auto prepared = PreparedSchema::Create(direct);
  ASSERT_TRUE(prepared.ok());
  Preview preview;
  PreviewTable table;
  table.key = 0;
  table.nonkeys = {prepared->Candidates(0).sorted[0]};
  preview.tables = {table};
  const auto mat = MaterializePreview(graph_, *prepared, preview);
  EXPECT_FALSE(mat.ok());
  EXPECT_EQ(mat.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(TupleSamplerTest, MultiwayMergeFoldsSameSurfaceColumns) {
  // Appendix B: attributes sharing a surface name fold into one multi-way
  // column. AWARD's two "Award Winners" relationship types (actor- and
  // director-side) become a single column listing both target types.
  const TypeId award = *prepared_->schema().type_names().Find("AWARD");
  Preview preview;
  PreviewTable table;
  table.key = award;
  table.nonkeys = prepared_->Candidates(award).sorted;  // both variants
  preview.tables = {table};

  TupleSamplerOptions options;
  options.rows_per_table = 3;
  options.merge_multiway_columns = true;
  const auto mat = MaterializePreview(graph_, *prepared_, preview, options);
  ASSERT_TRUE(mat.ok());
  ASSERT_EQ(mat->tables[0].columns.size(), 1u);
  const MaterializedColumn& column = mat->tables[0].columns[0];
  EXPECT_EQ(column.name, "Award Winners");
  EXPECT_EQ(column.rel_types.size(), 2u);
  EXPECT_NE(column.target.find("FILM ACTOR"), std::string::npos);
  EXPECT_NE(column.target.find("FILM DIRECTOR"), std::string::npos);
  // Razzie Award's winner comes via the director-side relationship; the
  // merged cell still finds it.
  const EntityId razzie = *graph_.entity_names().Find("Razzie Award");
  bool found_barry = false;
  for (const MaterializedRow& row : mat->tables[0].rows) {
    if (row.key != razzie) continue;
    for (EntityId v : row.cells[0].values) {
      if (graph_.EntityName(v) == "Barry Sonnenfeld") found_barry = true;
    }
  }
  EXPECT_TRUE(found_barry);
}

TEST_F(TupleSamplerTest, MultiwayMergeOffKeepsColumnsSeparate) {
  const TypeId award = *prepared_->schema().type_names().Find("AWARD");
  Preview preview;
  PreviewTable table;
  table.key = award;
  table.nonkeys = prepared_->Candidates(award).sorted;
  preview.tables = {table};
  const auto mat = MaterializePreview(graph_, *prepared_, preview);
  ASSERT_TRUE(mat.ok());
  EXPECT_EQ(mat->tables[0].columns.size(), 2u);
}

TEST_F(TupleSamplerTest, ColumnMetadataNamesTargets) {
  const auto mat = MaterializePreview(graph_, *prepared_, preview_);
  ASSERT_TRUE(mat.ok());
  const MaterializedTable& film = mat->tables[0];
  EXPECT_EQ(film.key_name, "FILM");
  bool found_genres = false;
  for (const MaterializedColumn& column : film.columns) {
    if (column.name == "Genres") {
      found_genres = true;
      EXPECT_EQ(column.target, "FILM GENRE");
      EXPECT_EQ(column.direction, Direction::kOutgoing);
    }
  }
  EXPECT_TRUE(found_genres);
}

}  // namespace
}  // namespace egp
