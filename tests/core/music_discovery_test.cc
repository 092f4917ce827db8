// Discovery on the generated music domain (scale 0.001, the graph the
// serving benchmark's music snapshot holds), pinned request by request.
//
// Every request's outcome is compared with
// tests/core/testdata/music_discovery_golden.tsv: the sorted keys, each
// table's (schema edge, direction) list, the score printed with %.17g and
// the subset counts, or else the status code and message. The request set
// covers the benchmark's discover_music families, Apriori and beam under
// every tight and diverse d from 1 to 6, and beam requests whose narrow
// beam dead-ends. On a mismatch the test writes what it got, in the same
// format, to music_discovery_golden.actual.tsv in its working directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/apriori.h"
#include "core/beam_search.h"
#include "core/dynamic_programming.h"
#include "datagen/generator.h"

namespace egp {
namespace {

class MusicDiscoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto domain = GenerateDomainByName("music");
    ASSERT_TRUE(domain.ok()) << domain.status().ToString();
    auto prepared = PreparedSchema::Create(domain->schema);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    prepared_ = new PreparedSchema(std::move(prepared).value());
  }

  static void TearDownTestSuite() {
    delete prepared_;
    prepared_ = nullptr;
  }

  static const PreparedSchema* prepared_;
};

const PreparedSchema* MusicDiscoveryTest::prepared_ = nullptr;

enum class Algo { kDp, kApriori, kBeam };

struct Request {
  Algo algo;
  SizeConstraint size;
  DistanceConstraint distance;
};

std::string RequestName(const Request& r) {
  std::string name = r.algo == Algo::kDp        ? "dp"
                     : r.algo == Algo::kApriori ? "apriori"
                                                : "beam";
  if (r.distance.mode == DistanceMode::kTight) {
    name += StrFormat(" tight d=%u", r.distance.d);
  } else if (r.distance.mode == DistanceMode::kDiverse) {
    name += StrFormat(" diverse d=%u", r.distance.d);
  }
  return name + StrFormat(" k=%u n=%u", r.size.k, r.size.n);
}

std::vector<Request> Requests() {
  std::vector<Request> requests;
  // The discover_music families, each k with every n from k to k+6.
  auto family = [&](Algo algo, uint32_t k_max, DistanceConstraint distance) {
    for (uint32_t k = 2; k <= k_max; ++k) {
      for (uint32_t n = k; n <= k + 6; ++n) {
        requests.push_back({algo, {k, n}, distance});
      }
    }
  };
  family(Algo::kDp, 6, DistanceConstraint::None());
  family(Algo::kApriori, 6, DistanceConstraint::Diverse(4));
  family(Algo::kApriori, 5, DistanceConstraint::Tight(2));
  family(Algo::kBeam, 6, DistanceConstraint::None());
  // Apriori and beam under every tight and diverse d from 1 to 6.
  for (Algo algo : {Algo::kApriori, Algo::kBeam}) {
    for (DistanceMode mode : {DistanceMode::kTight, DistanceMode::kDiverse}) {
      for (uint32_t d = 1; d <= 6; ++d) {
        for (uint32_t k = 2; k <= 4; ++k) {
          for (uint32_t n : {k, k + 3, k + 6}) {
            requests.push_back({algo, {k, n}, DistanceConstraint{mode, d}});
          }
        }
      }
    }
  }
  // Width 8 dead-ends; the widened retry succeeds.
  requests.push_back({Algo::kBeam, {5, 8}, DistanceConstraint::Diverse(4)});
  // Widens, and still finds nothing.
  requests.push_back({Algo::kBeam, {5, 8}, DistanceConstraint::Tight(1)});
  return requests;
}

/// One golden line: name, then either the preview and its counts or the
/// status, tab-separated.
std::string Serve(const PreparedSchema& prepared, const Request& r) {
  DiscoveryStats stats;
  Result<Preview> preview = Status::Internal("unset");
  switch (r.algo) {
    case Algo::kDp:
      preview = DynamicProgrammingDiscover(prepared, r.size);
      break;
    case Algo::kApriori:
      preview =
          AprioriDiscover(prepared, r.size, r.distance, AprioriOptions{},
                          &stats);
      break;
    case Algo::kBeam:
      preview = BeamSearchDiscover(prepared, r.size, r.distance,
                                   BeamSearchOptions{}, &stats);
      break;
  }
  std::string line = RequestName(r);
  if (!preview.ok()) {
    line += '\t';
    line += StatusCodeName(preview.status().code());
    line += '\t';
    line += preview.status().message();
  } else {
    std::string keys;
    std::string tables;
    for (const PreviewTable& table : preview->tables) {
      if (!keys.empty()) keys += ',';
      keys += std::to_string(table.key);
      tables += tables.empty() ? "" : " ";
      tables += std::to_string(table.key) + ":";
      for (const NonKeyCandidate& c : table.nonkeys) {
        tables += StrFormat("(%u,%s)", c.schema_edge,
                            DirectionName(c.direction));
      }
    }
    line += "\tOK\tkeys=" + keys + "\ttables=" + tables +
            StrFormat("\tscore=%.17g", preview->Score(prepared));
  }
  if (r.algo != Algo::kDp) {
    line += StrFormat("\tenumerated=%llu\tscored=%llu",
                      static_cast<unsigned long long>(stats.subsets_enumerated),
                      static_cast<unsigned long long>(stats.subsets_scored));
  }
  return line;
}

std::vector<std::string> ReadGolden() {
  std::ifstream in(EGP_MUSIC_DISCOVERY_GOLDEN);
  EXPECT_TRUE(in.good()) << "cannot read " << EGP_MUSIC_DISCOVERY_GOLDEN;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST_F(MusicDiscoveryTest, MatchesTheGoldenFile) {
  std::vector<std::string> actual;
  for (const Request& r : Requests()) actual.push_back(Serve(*prepared_, r));
  const std::vector<std::string> golden = ReadGolden();
  EXPECT_EQ(actual.size(), golden.size());
  bool same = actual.size() == golden.size();
  for (size_t i = 0; i < std::min(actual.size(), golden.size()); ++i) {
    if (actual[i] == golden[i]) continue;
    same = false;
    ADD_FAILURE() << "line " << i + 1 << " differs\n  want: " << golden[i]
                  << "\n  got:  " << actual[i];
  }
  if (!same) {
    std::ofstream out("music_discovery_golden.actual.tsv");
    for (const std::string& line : actual) out << line << "\n";
    ADD_FAILURE() << "wrote the outcomes to music_discovery_golden.actual.tsv";
  }
}

TEST_F(MusicDiscoveryTest, DpAnswersBeyondTheCandidateTotalAsAtIt) {
  // No preview holds more non-keys than the schema has candidates, so any
  // larger n gives the same preview.
  const uint32_t total =
      static_cast<uint32_t>(prepared_->TotalCandidates());
  const auto at_total = DynamicProgrammingDiscover(*prepared_, {10, total});
  const auto beyond = DynamicProgrammingDiscover(*prepared_, {10, 100000});
  ASSERT_TRUE(at_total.ok()) << at_total.status().ToString();
  ASSERT_TRUE(beyond.ok()) << beyond.status().ToString();
  ASSERT_EQ(at_total->tables.size(), beyond->tables.size());
  for (size_t t = 0; t < at_total->tables.size(); ++t) {
    const PreviewTable& a = at_total->tables[t];
    const PreviewTable& b = beyond->tables[t];
    EXPECT_EQ(a.key, b.key);
    ASSERT_EQ(a.nonkeys.size(), b.nonkeys.size());
    for (size_t c = 0; c < a.nonkeys.size(); ++c) {
      EXPECT_EQ(a.nonkeys[c].schema_edge, b.nonkeys[c].schema_edge);
      EXPECT_EQ(a.nonkeys[c].direction, b.nonkeys[c].direction);
    }
  }
  EXPECT_EQ(at_total->Score(*prepared_), beyond->Score(*prepared_));
}

TEST_F(MusicDiscoveryTest, DpRejectsMoreKeysThanEligibleTypes) {
  uint32_t eligible = 0;
  for (TypeId t = 0; t < prepared_->num_types(); ++t) {
    eligible += prepared_->Eligible(t) ? 1 : 0;
  }
  for (uint32_t n : {eligible + 1, 20000u, 1u << 20}) {
    const auto preview =
        DynamicProgrammingDiscover(*prepared_, {eligible + 1, n});
    EXPECT_EQ(preview.status().code(), StatusCode::kNotFound);
    EXPECT_EQ(preview.status().message(),
              StrFormat("fewer than k=%u eligible key types", eligible + 1));
  }
  EXPECT_TRUE(DynamicProgrammingDiscover(*prepared_, {eligible, eligible}).ok());
}

}  // namespace
}  // namespace egp
