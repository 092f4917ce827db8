// DatasetCatalog: spec parsing, loading from disk, multi-dataset lookup.
#include "server/catalog.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/strings.h"
#include "datagen/paper_example.h"
#include "io/ntriples.h"
#include "store/snapshot_writer.h"
#include "tests/testing/subprocess.h"

namespace egp {
namespace {

#ifndef EGP_SAMPLE_NT
#error "EGP_SAMPLE_NT must be defined by the build"
#endif

TEST(DatasetSpecTest, ParsesNameEqualsPath) {
  const auto spec = ParseDatasetSpec("sample=/data/x.nt");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "sample");
  EXPECT_EQ(spec->path, "/data/x.nt");
  // '=' in the path survives (split at the first '=').
  EXPECT_EQ(ParseDatasetSpec("a=/p/x=y.nt")->path, "/p/x=y.nt");
}

TEST(DatasetSpecTest, RejectsBadSpecs) {
  EXPECT_FALSE(ParseDatasetSpec("noequals").ok());
  EXPECT_FALSE(ParseDatasetSpec("=path").ok());         // empty name
  EXPECT_FALSE(ParseDatasetSpec("name=").ok());         // empty path
  EXPECT_FALSE(ParseDatasetSpec("bad name=x").ok());    // space in name
  EXPECT_FALSE(ParseDatasetSpec("a/b=x").ok());         // URL-hostile char
  EXPECT_TRUE(ParseDatasetSpec("ok-Name_1.2=x").ok());
}

TEST(DatasetCatalogTest, LoadsFromDisk) {
  const auto catalog =
      DatasetCatalog::Load({DatasetSpec{"sample", EGP_SAMPLE_NT}});
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  ASSERT_EQ(catalog->size(), 1u);
  const DatasetCatalog::Info& info = catalog->infos()[0];
  EXPECT_EQ(info.name, "sample");
  EXPECT_EQ(info.path, EGP_SAMPLE_NT);
  EXPECT_EQ(info.entities, 20u);
  EXPECT_EQ(info.relationships, 22u);
  EXPECT_EQ(info.entity_types, 5u);
  ASSERT_NE(catalog->Find("sample"), nullptr);
  EXPECT_EQ(catalog->Find("nope"), nullptr);
  // Single dataset: it is the default.
  EXPECT_EQ(catalog->Default(), catalog->Find("sample"));
  EXPECT_EQ(catalog->default_name(), "sample");
}

TEST(DatasetCatalogTest, ReportsStorageKindAndLoadTime) {
  const auto catalog =
      DatasetCatalog::Load({DatasetSpec{"sample", EGP_SAMPLE_NT}});
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ(catalog->infos()[0].storage, "nt");
  EXPECT_GT(catalog->infos()[0].load_seconds, 0.0);
}

TEST(DatasetCatalogTest, LoadsSnapshotsServingTheirOwnCsr) {
  auto graph = ReadNTriplesFile(EGP_SAMPLE_NT);
  ASSERT_TRUE(graph.ok());
  const std::string path = testing_util::TempPath("catalog_sample.egps");
  ASSERT_TRUE(WriteSnapshotFile(*graph, path).ok());

  for (const auto mode : {SnapshotOpenOptions::Mode::kMmap,
                          SnapshotOpenOptions::Mode::kStream}) {
    CatalogLoadOptions options;
    options.snapshot.mode = mode;
    const auto catalog = DatasetCatalog::Load(
        {DatasetSpec{"snap", path}, DatasetSpec{"text", EGP_SAMPLE_NT}},
        options);
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    ASSERT_EQ(catalog->size(), 2u);
    EXPECT_EQ(catalog->infos()[0].name, "snap");
    EXPECT_EQ(catalog->infos()[0].storage, "snapshot");
    EXPECT_EQ(catalog->infos()[1].storage, "nt");
    // The snapshot engine serves the CSR in the file; the text one
    // froze its own.
    ASSERT_NE(catalog->Find("snap"), nullptr);
    EXPECT_TRUE(catalog->Find("snap")->graph()->adjacency().is_view());
    EXPECT_FALSE(catalog->Find("text")->graph()->adjacency().is_view());
    // Both serve the same graph.
    EXPECT_EQ(catalog->infos()[0].entities, catalog->infos()[1].entities);
    EXPECT_EQ(catalog->infos()[0].relationships,
              catalog->infos()[1].relationships);
  }
  std::remove(path.c_str());
}

TEST(DatasetCatalogTest, ParallelLoadMatchesSequential) {
  // Eight datasets (same file under different names) loaded with one
  // thread and with the auto fan-out must produce identical catalogs.
  std::vector<DatasetSpec> specs;
  for (int i = 0; i < 8; ++i) {
    specs.push_back(DatasetSpec{StrFormat("d%d", i), EGP_SAMPLE_NT});
  }
  CatalogLoadOptions sequential;
  sequential.load_threads = 1;
  const auto serial = DatasetCatalog::Load(specs, sequential);
  ASSERT_TRUE(serial.ok());
  CatalogLoadOptions fanout;
  fanout.load_threads = 0;  // auto
  const auto parallel = DatasetCatalog::Load(specs, fanout);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(serial->size(), parallel->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ(serial->infos()[i].name, parallel->infos()[i].name);
    EXPECT_EQ(serial->infos()[i].entities, parallel->infos()[i].entities);
    EXPECT_EQ(serial->infos()[i].storage, parallel->infos()[i].storage);
  }
  // A failing dataset degrades the catalog by default: the healthy ones
  // still serve, the failure names itself, and the implicit default is
  // gone.
  specs.push_back(DatasetSpec{"broken", "/no/such/file.nt"});
  const auto degraded = DatasetCatalog::Load(specs, fanout);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->degraded());
  EXPECT_EQ(degraded->size(), 8u);
  ASSERT_EQ(degraded->failed().size(), 1u);
  EXPECT_EQ(degraded->failed()[0].name, "broken");
  EXPECT_NE(degraded->failed()[0].error.find("broken"), std::string::npos);
  EXPECT_NE(degraded->FindFailed("broken"), nullptr);
  EXPECT_EQ(degraded->FindFailed("d0"), nullptr);
  EXPECT_EQ(degraded->Find("broken"), nullptr);
  EXPECT_NE(degraded->Find("d0"), nullptr);
  // Strict mode keeps the old all-or-nothing contract.
  CatalogLoadOptions strict = fanout;
  strict.allow_partial = false;
  const auto failed = DatasetCatalog::Load(specs, strict);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("broken"), std::string::npos);
}

TEST(DatasetCatalogTest, DegradedSingleSurvivorHasNoDefault) {
  // One loaded + one failed: requests must still name the dataset; the
  // survivor must not silently become the default.
  const auto catalog = DatasetCatalog::Load(
      {DatasetSpec{"good", EGP_SAMPLE_NT},
       DatasetSpec{"bad", "/no/such/file.nt"}});
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  EXPECT_TRUE(catalog->degraded());
  EXPECT_EQ(catalog->size(), 1u);
  EXPECT_EQ(catalog->Default(), nullptr);
  EXPECT_TRUE(catalog->default_name().empty());
  EXPECT_NE(catalog->Find("good"), nullptr);
}

TEST(DatasetCatalogTest, AllDatasetsFailingIsAnError) {
  const auto catalog = DatasetCatalog::Load(
      {DatasetSpec{"x", "/no/such/a.nt"}, DatasetSpec{"y", "/no/such/b.nt"}});
  ASSERT_FALSE(catalog.ok());
}

TEST(DatasetCatalogTest, LoadErrorsNameTheDataset) {
  const auto catalog =
      DatasetCatalog::Load({DatasetSpec{"gone", "/no/such/file.nt"}});
  ASSERT_FALSE(catalog.ok());
  EXPECT_NE(catalog.status().message().find("gone"), std::string::npos);
}

TEST(DatasetCatalogTest, MultiDatasetHasNoDefault) {
  std::vector<std::pair<std::string, Engine>> engines;
  engines.emplace_back("b", Engine::FromGraph(BuildPaperExampleGraph()));
  engines.emplace_back("a", Engine::FromGraph(BuildPaperExampleGraph()));
  const auto catalog = DatasetCatalog::FromEngines(std::move(engines));
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ(catalog->size(), 2u);
  EXPECT_EQ(catalog->infos()[0].name, "a");  // sorted
  EXPECT_EQ(catalog->Default(), nullptr);
  EXPECT_NE(catalog->Find("a"), nullptr);
  EXPECT_NE(catalog->Find("b"), nullptr);
}

TEST(DatasetCatalogTest, RejectsDuplicatesAndEmpty) {
  std::vector<std::pair<std::string, Engine>> engines;
  engines.emplace_back("x", Engine::FromGraph(BuildPaperExampleGraph()));
  engines.emplace_back("x", Engine::FromGraph(BuildPaperExampleGraph()));
  EXPECT_FALSE(DatasetCatalog::FromEngines(std::move(engines)).ok());
  EXPECT_FALSE(DatasetCatalog::Load({}).ok());
}

}  // namespace
}  // namespace egp
