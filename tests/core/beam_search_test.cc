#include "core/beam_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/brute_force.h"
#include "core/compose.h"
#include "core/key_sets.h"
#include "datagen/generator.h"
#include "datagen/paper_example.h"
#include "tests/testing/random_schema.h"

namespace egp {
namespace {

PreparedSchema PreparePaper() {
  auto prepared = PreparedSchema::Create(
      SchemaGraph::FromEntityGraph(BuildPaperExampleGraph()));
  EXPECT_TRUE(prepared.ok());
  return std::move(prepared).value();
}

TEST(BeamSearchTest, FindsPaperConciseOptimum) {
  const PreparedSchema prepared = PreparePaper();
  const auto preview = BeamSearchDiscover(prepared, SizeConstraint{2, 6},
                                          DistanceConstraint::None());
  ASSERT_TRUE(preview.ok());
  EXPECT_DOUBLE_EQ(preview->Score(prepared), 84.0);
}

TEST(BeamSearchTest, FindsPaperDiverseOptimum) {
  const PreparedSchema prepared = PreparePaper();
  const auto preview = BeamSearchDiscover(prepared, SizeConstraint{2, 6},
                                          DistanceConstraint::Diverse(2));
  ASSERT_TRUE(preview.ok());
  EXPECT_DOUBLE_EQ(preview->Score(prepared), 78.0);
}

TEST(BeamSearchTest, ResultAlwaysValid) {
  const PreparedSchema prepared = PreparePaper();
  for (uint32_t k = 1; k <= 4; ++k) {
    for (uint32_t n = k; n <= k + 4; ++n) {
      const SizeConstraint size{k, n};
      const auto preview =
          BeamSearchDiscover(prepared, size, DistanceConstraint::Tight(2));
      if (!preview.ok()) continue;
      EXPECT_TRUE(ValidatePreview(*preview, prepared, size,
                                  DistanceConstraint::Tight(2))
                      .ok())
          << "k=" << k << " n=" << n;
    }
  }
}

TEST(BeamSearchTest, InfeasibleConstraintIsNotFound) {
  const PreparedSchema prepared = PreparePaper();
  const auto preview = BeamSearchDiscover(prepared, SizeConstraint{3, 6},
                                          DistanceConstraint::Diverse(9));
  EXPECT_EQ(preview.status().code(), StatusCode::kNotFound);
}

TEST(BeamSearchTest, InvalidArguments) {
  const PreparedSchema prepared = PreparePaper();
  EXPECT_FALSE(BeamSearchDiscover(prepared, SizeConstraint{0, 5},
                                  DistanceConstraint::None())
                   .ok());
  EXPECT_FALSE(BeamSearchDiscover(prepared, SizeConstraint{3, 2},
                                  DistanceConstraint::None())
                   .ok());
  BeamSearchOptions zero;
  zero.beam_width = 0;
  EXPECT_FALSE(BeamSearchDiscover(prepared, SizeConstraint{2, 4},
                                  DistanceConstraint::None(), zero)
                   .ok());
}

TEST(BeamSearchTest, EqualScoresKeepTheSmallestKeys) {
  // A ring A→B→C→D→A of identical types: every key set of a size scores
  // the same, so a width-1 beam keeps the lexicographically smallest.
  SchemaGraph schema;
  for (const char* name : {"A", "B", "C", "D"}) schema.AddType(name, 5);
  for (TypeId t = 0; t < 4; ++t) {
    schema.AddEdge(StrFormat("r%u", t), t, (t + 1) % 4, 3);
  }
  auto prepared = PreparedSchema::Create(schema);
  ASSERT_TRUE(prepared.ok());
  BeamSearchOptions narrow;
  narrow.beam_width = 1;
  narrow.max_beam_width = 1;
  for (uint32_t k : {1u, 2u, 3u}) {
    const auto preview = BeamSearchDiscover(
        *prepared, SizeConstraint{k, k}, DistanceConstraint::None(), narrow);
    ASSERT_TRUE(preview.ok());
    ASSERT_EQ(preview->tables.size(), k);
    for (uint32_t i = 0; i < k; ++i) EXPECT_EQ(preview->tables[i].key, i);
  }
}

struct BeamInstance {
  uint64_t seed;
  uint32_t k;
  uint32_t n;
};

class BeamQualityTest : public ::testing::TestWithParam<BeamInstance> {};

TEST_P(BeamQualityTest, NeverBeatsAndUsuallyMatchesOptimal) {
  const BeamInstance& p = GetParam();
  const SchemaGraph schema = testing_util::RandomSchemaGraph(p.seed, 12, 24);
  auto prepared = PreparedSchema::Create(schema);
  ASSERT_TRUE(prepared.ok());
  const SizeConstraint size{p.k, p.n};
  for (const DistanceConstraint& constraint :
       {DistanceConstraint::None(), DistanceConstraint::Tight(2),
        DistanceConstraint::Diverse(2)}) {
    const auto exact = BruteForceDiscover(*prepared, size, constraint);
    const auto beam = BeamSearchDiscover(*prepared, size, constraint);
    if (!exact.ok()) {
      // Beam may also fail to find a feasible set; it must not "succeed"
      // with an invalid one.
      if (beam.ok()) {
        EXPECT_TRUE(ValidatePreview(*beam, *prepared, size, constraint).ok());
      }
      continue;
    }
    ASSERT_TRUE(beam.ok()) << "beam missed a feasible instance";
    const double optimal = exact->Score(*prepared);
    const double approx = beam->Score(*prepared);
    EXPECT_LE(approx, optimal + 1e-9);
    // With beam width 8 on 12-type schemas the approximation should stay
    // within 10% of optimal.
    EXPECT_GE(approx, optimal * 0.9)
        << "seed=" << p.seed << " k=" << p.k << " n=" << p.n;
    EXPECT_TRUE(ValidatePreview(*beam, *prepared, size, constraint).ok());
  }
}

std::vector<BeamInstance> BeamInstances() {
  std::vector<BeamInstance> instances;
  uint64_t seed = 9000;
  for (uint32_t k : {2u, 3u, 4u}) {
    for (uint32_t n : {4u, 8u}) {
      for (int repeat = 0; repeat < 4; ++repeat) {
        instances.push_back(BeamInstance{seed++, k, n});
      }
    }
  }
  return instances;
}

INSTANTIATE_TEST_SUITE_P(RandomSchemas, BeamQualityTest,
                         ::testing::ValuesIn(BeamInstances()));

// The beam without bounds: every key set of every level scored, each
// level deduplicated by sort-and-unique. BeamSearchDiscover must give its
// answers and reach its sets, scoring no more of them.
class ReferenceBeam {
 public:
  ReferenceBeam(const PreparedSchema& prepared, const SizeConstraint& size,
                const std::vector<TypeId>& eligible,
                const CompatibilityRows& rows)
      : prepared_(prepared),
        size_(size),
        eligible_(eligible),
        rows_(rows),
        scorer_(prepared, size.n) {}

  Result<Preview> Attempt(uint32_t width, DiscoveryStats* stats) {
    std::vector<std::vector<uint32_t>> level(eligible_.size());
    for (uint32_t i = 0; i < eligible_.size(); ++i) level[i] = {i};
    std::vector<double> scores = Score(level, stats);
    for (uint32_t arity = 2; arity <= size_.k; ++arity) {
      std::vector<std::vector<uint32_t>> next;
      for (const std::vector<uint32_t>& tuple : level) {
        // The rows' diagonal is clear, so no member extends its tuple.
        for (uint32_t t = 0; t < eligible_.size(); ++t) {
          const bool compatible =
              std::all_of(tuple.begin(), tuple.end(), [&](uint32_t m) {
                return (rows_.row(m)[t / 64] >> (t % 64) & 1) != 0;
              });
          if (!compatible) continue;
          next.push_back(tuple);
          next.back().insert(
              std::lower_bound(next.back().begin(), next.back().end(), t),
              t);
        }
      }
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      if (next.empty()) {
        return Status::NotFound(
            "beam search found no k-subset satisfying the constraint");
      }
      scores = Score(next, stats);
      level = Trim(next, scores, width);
    }
    stats->subsets_scored = stats->subsets_enumerated;
    level = Trim(level, scores, 1);
    return ComposePreview(prepared_, Keys(level[0]), size_.n);
  }

 private:
  std::vector<TypeId> Keys(const std::vector<uint32_t>& tuple) const {
    std::vector<TypeId> keys;
    for (const uint32_t i : tuple) keys.push_back(eligible_[i]);
    return keys;
  }

  std::vector<double> Score(const std::vector<std::vector<uint32_t>>& level,
                            DiscoveryStats* stats) {
    std::vector<double> scores;
    for (const std::vector<uint32_t>& tuple : level) {
      scores.push_back(scorer_.Score(Keys(tuple)));
    }
    stats->subsets_enumerated += level.size();
    return scores;
  }

  /// The best `width` tuples (score descending, keys ascending), best
  /// first; `scores` becomes theirs.
  static std::vector<std::vector<uint32_t>> Trim(
      const std::vector<std::vector<uint32_t>>& level,
      std::vector<double>& scores, uint32_t width) {
    std::vector<size_t> order(level.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (scores[a] != scores[b]) return scores[a] > scores[b];
      return level[a] < level[b];
    });
    order.resize(std::min<size_t>(width, order.size()));
    std::vector<std::vector<uint32_t>> kept;
    std::vector<double> kept_scores;
    for (const size_t i : order) {
      kept.push_back(level[i]);
      kept_scores.push_back(scores[i]);
    }
    scores = kept_scores;
    return kept;
  }

  const PreparedSchema& prepared_;
  const SizeConstraint size_;
  const std::vector<TypeId>& eligible_;
  const CompatibilityRows& rows_;
  SubsetScorer scorer_;
};

/// BeamSearchDiscover's eligibility check and widening loop around
/// ReferenceBeam, for valid requests.
Result<Preview> ReferenceBeamDiscover(const PreparedSchema& prepared,
                                      const SizeConstraint& size,
                                      const DistanceConstraint& distance,
                                      const BeamSearchOptions& options,
                                      DiscoveryStats* stats) {
  *stats = DiscoveryStats{};
  const std::vector<TypeId> eligible = EligibleKeyTypes(prepared);
  if (eligible.size() < size.k) {
    return Status::NotFound(StrFormat("only %zu eligible key types, need k=%u",
                                      eligible.size(), size.k));
  }
  const CompatibilityRows rows(prepared, distance, eligible);
  ReferenceBeam beam(prepared, size, eligible, rows);
  for (uint32_t width = options.beam_width;;
       width = std::min(options.max_beam_width, width * 4)) {
    DiscoveryStats local;
    auto preview = beam.Attempt(width, &local);
    stats->subsets_enumerated += local.subsets_enumerated;
    stats->subsets_scored += local.subsets_scored;
    if (preview.ok() || width >= options.max_beam_width) return preview;
  }
}

/// Runs the beam and the reference on one request: the same status,
/// keys, tables, score bits and sets reached, and no more sets scored
/// than reached (none when the request fails).
void ExpectMatchesReference(const PreparedSchema& prepared,
                            const SizeConstraint& size,
                            const DistanceConstraint& distance,
                            uint32_t width) {
  SCOPED_TRACE(StrFormat("width=%u mode=%d d=%u k=%u n=%u", width,
                         static_cast<int>(distance.mode), distance.d, size.k,
                         size.n));
  BeamSearchOptions options;
  options.beam_width = width;
  DiscoveryStats want_stats;
  DiscoveryStats got_stats;
  const auto want =
      ReferenceBeamDiscover(prepared, size, distance, options, &want_stats);
  const auto got =
      BeamSearchDiscover(prepared, size, distance, options, &got_stats);
  ASSERT_EQ(got.status().code(), want.status().code())
      << got.status().ToString();
  EXPECT_EQ(got_stats.subsets_enumerated, want_stats.subsets_enumerated);
  EXPECT_LE(got_stats.subsets_scored, got_stats.subsets_enumerated);
  if (!want.ok()) {
    EXPECT_EQ(got.status().message(), want.status().message());
    EXPECT_EQ(got_stats.subsets_scored, 0u);
    return;
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(got->Score(prepared)),
            std::bit_cast<uint64_t>(want->Score(prepared)));
  ASSERT_EQ(got->tables.size(), want->tables.size());
  for (size_t t = 0; t < want->tables.size(); ++t) {
    const PreviewTable& a = got->tables[t];
    const PreviewTable& b = want->tables[t];
    EXPECT_EQ(a.key, b.key);
    ASSERT_EQ(a.nonkeys.size(), b.nonkeys.size());
    for (size_t c = 0; c < b.nonkeys.size(); ++c) {
      EXPECT_EQ(a.nonkeys[c].schema_edge, b.nonkeys[c].schema_edge);
      EXPECT_EQ(a.nonkeys[c].direction, b.nonkeys[c].direction);
    }
  }
}

/// Widths 1, 2 and 8; no constraint, tight and diverse d from 1 to 6; k
/// from 1 to 5 with n from k to k + 4.
void ExpectGridMatchesReference(const PreparedSchema& prepared) {
  std::vector<DistanceConstraint> constraints = {DistanceConstraint::None()};
  for (uint32_t d = 1; d <= 6; ++d) {
    constraints.push_back(DistanceConstraint::Tight(d));
    constraints.push_back(DistanceConstraint::Diverse(d));
  }
  for (const uint32_t width : {1u, 2u, 8u}) {
    for (const DistanceConstraint& distance : constraints) {
      for (uint32_t k = 1; k <= 5; ++k) {
        for (uint32_t n = k; n <= k + 4; ++n) {
          ExpectMatchesReference(prepared, SizeConstraint{k, n}, distance,
                                 width);
        }
      }
    }
  }
}

struct SchemaShape {
  uint64_t seed;
  uint32_t num_types;
  uint32_t num_edges;
};

class BeamReferenceTest : public ::testing::TestWithParam<SchemaShape> {};

TEST_P(BeamReferenceTest, ScoringOnlyWhatCanMakeTheBeamChangesNothing) {
  const SchemaShape& shape = GetParam();
  auto prepared = PreparedSchema::Create(testing_util::RandomSchemaGraph(
      shape.seed, shape.num_types, shape.num_edges));
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  if (shape.num_types > 64) {
    ASSERT_GT(EligibleKeyTypes(*prepared).size(), 64u);
  }
  ExpectGridMatchesReference(*prepared);
}

// Dense and sparse schemas; the sparse ones have unreachable pairs and
// dead ends, and the last has key sets that span two 64-bit words.
INSTANTIATE_TEST_SUITE_P(
    RandomSchemas, BeamReferenceTest,
    ::testing::Values(SchemaShape{9100, 12, 24}, SchemaShape{9101, 12, 10},
                      SchemaShape{9102, 20, 60}, SchemaShape{9103, 24, 20},
                      SchemaShape{9104, 72, 80}),
    [](const ::testing::TestParamInfo<SchemaShape>& info) {
      return StrFormat("seed%llu_K%u_E%u",
                       static_cast<unsigned long long>(info.param.seed),
                       info.param.num_types, info.param.num_edges);
    });

TEST(BeamSearchTest, FlatRingWhereEverySetTiesMatchesTheReference) {
  SchemaGraph schema;
  for (uint32_t t = 0; t < 10; ++t) schema.AddType(StrFormat("T%u", t), 5);
  for (uint32_t t = 0; t < 10; ++t) {
    schema.AddEdge(StrFormat("r%u", t), t, (t + 1) % 10, 3);
  }
  auto prepared = PreparedSchema::Create(schema);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ExpectGridMatchesReference(*prepared);
}

class BeamOnMusicTest : public ::testing::Test {
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

const PreparedSchema* BeamOnMusicTest::prepared_ = nullptr;

TEST_F(BeamOnMusicTest, RequestsThatWidenMatchTheReference) {
  // Width 8 dead-ends on both; the widened retry succeeds on the first
  // and still finds nothing on the second.
  BeamSearchOptions narrow;
  narrow.max_beam_width = narrow.beam_width;
  for (const DistanceConstraint distance :
       {DistanceConstraint::Diverse(4), DistanceConstraint::Tight(1)}) {
    EXPECT_EQ(BeamSearchDiscover(*prepared_, SizeConstraint{5, 8}, distance,
                                 narrow)
                  .status()
                  .code(),
              StatusCode::kNotFound);
    ExpectMatchesReference(*prepared_, SizeConstraint{5, 8}, distance, 8);
  }
}

TEST_F(BeamOnMusicTest, ConciseRequestsMatchTheReference) {
  for (uint32_t k = 1; k <= 6; ++k) {
    for (uint32_t n = k; n <= k + 6; n += 3) {
      ExpectMatchesReference(*prepared_, SizeConstraint{k, n},
                             DistanceConstraint::None(), 8);
    }
  }
}

TEST_F(BeamOnMusicTest, ScoresFewerSetsThanItReaches) {
  // The discover_music beam requests: every k from 2 to 6 with every n
  // from k to k + 6.
  for (uint32_t k = 2; k <= 6; ++k) {
    for (uint32_t n = k; n <= k + 6; ++n) {
      DiscoveryStats stats;
      ASSERT_TRUE(BeamSearchDiscover(*prepared_, SizeConstraint{k, n},
                                     DistanceConstraint::None(),
                                     BeamSearchOptions{}, &stats)
                      .ok());
      EXPECT_LT(stats.subsets_scored, stats.subsets_enumerated)
          << "k=" << k << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace egp
