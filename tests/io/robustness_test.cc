// Parser robustness: feed the readers randomized garbage and mutated
// valid inputs; they must never crash and must fail with a clean Status
// (or succeed with a graph that round-trips through an .egps snapshot,
// whose reader re-checks every structural invariant).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "datagen/paper_example.h"
#include "io/graph_io.h"
#include "io/ntriples.h"
#include "store/snapshot_reader.h"
#include "store/snapshot_writer.h"

namespace egp {
namespace {

std::string RandomBytes(Rng* rng, size_t length) {
  // Printable-heavy mix with occasional control characters, tabs and
  // newlines — the characters the formats are sensitive to.
  static const char kAlphabet[] =
      "abcXYZ012 <>\"\t\n.\\#-_";
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    out += kAlphabet[rng->NextBounded(sizeof(kAlphabet) - 1)];
  }
  return out;
}

/// The .egps reader rejects a snapshot whose ids are out of range, whose
/// arcs' endpoints lack their relationship type's endpoint types, or
/// whose type lists and member lists disagree: an accepted graph must
/// write and reopen.
void ExpectSnapshotRoundTrips(const EntityGraph& graph) {
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(WriteSnapshot(graph, buffer).ok());
  const std::string bytes = buffer.str();
  auto owned = std::make_shared<std::vector<uint8_t>>(bytes.begin(),
                                                      bytes.end());
  auto stored = OpenSnapshotBytes({owned->data(), owned->size()}, owned);
  EXPECT_TRUE(stored.ok()) << stored.status().ToString();
}

class ParserFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, NTriplesNeverCrashes) {
  Rng rng(GetParam());
  const std::string input = RandomBytes(&rng, 200 + rng.NextBounded(800));
  std::stringstream in(input);
  auto result = ReadNTriples(in);
  if (result.ok()) {
    ExpectSnapshotRoundTrips(*result);
  } else {
    EXPECT_FALSE(result.status().message().empty());
  }
}

TEST_P(ParserFuzzTest, GraphIoNeverCrashes) {
  Rng rng(GetParam() * 31 + 7);
  const std::string input = RandomBytes(&rng, 200 + rng.NextBounded(800));
  std::stringstream in(input);
  auto result = ReadEntityGraph(in);
  if (result.ok()) {
    ExpectSnapshotRoundTrips(*result);
  } else {
    EXPECT_FALSE(result.status().message().empty());
  }
}

TEST_P(ParserFuzzTest, MutatedSnapshotDegradesGracefully) {
  // Start from a valid snapshot and flip a handful of characters.
  std::stringstream buffer;
  ASSERT_TRUE(WriteEntityGraph(BuildPaperExampleGraph(), buffer).ok());
  std::string snapshot = buffer.str();
  Rng rng(GetParam() * 977 + 3);
  for (int flips = 0; flips < 8; ++flips) {
    const size_t pos = rng.NextBounded(snapshot.size());
    snapshot[pos] = static_cast<char>('a' + rng.NextBounded(26));
  }
  std::stringstream in(snapshot);
  auto result = ReadEntityGraph(in);
  if (result.ok()) {
    // Mutations that keep the format valid must still yield a
    // structurally consistent graph.
    ExpectSnapshotRoundTrips(*result);
  } else {
    const StatusCode code = result.status().code();
    EXPECT_TRUE(code == StatusCode::kCorruption ||
                code == StatusCode::kFailedPrecondition)
        << result.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Range<uint64_t>(7000, 7040));

}  // namespace
}  // namespace egp
