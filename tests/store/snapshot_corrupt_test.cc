// Malformed-input battery for the .egps reader: truncations, bit flips,
// wrong magic/version/endianness, hostile TOC entries, and structurally
// corrupt payloads must all come back as clean Status errors — never a
// crash, hang, or out-of-bounds read (this suite runs under ASan/UBSan
// in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <vector>

#include "graph/entity_graph_builder.h"
#include "store/format.h"
#include "store/mapped_file.h"
#include "store/snapshot_reader.h"
#include "store/snapshot_writer.h"
#include "tests/testing/subprocess.h"

namespace egp {
namespace {

using testing_util::TempPath;

EntityGraph SmallGraph() {
  EntityGraphBuilder builder;
  const TypeId t = builder.AddEntityType("T");
  const TypeId u = builder.AddEntityType("U");
  const EntityId a = builder.AddTypedEntity("a", "T");
  const EntityId b = builder.AddTypedEntity("b", "U");
  const EntityId c = builder.AddTypedEntity("c", "U");
  const RelTypeId r = builder.AddRelationshipType("rel", t, u);
  builder.AddRelationshipType("rel2", t, u);  // declared, no edges
  EXPECT_TRUE(builder.AddEdge(a, r, b).ok());
  EXPECT_TRUE(builder.AddEdge(a, r, c).ok());
  auto graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

std::vector<uint8_t> ValidSnapshotBytes() {
  const EntityGraph graph = SmallGraph();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_TRUE(WriteSnapshot(graph, buffer).ok());
  const std::string bytes = buffer.str();
  return std::vector<uint8_t>(bytes.begin(), bytes.end());
}

/// Opens a byte image; the backing keeps the copy alive for the call.
Result<StoredGraph> Open(std::vector<uint8_t> bytes,
                         bool verify_checksums = true) {
  auto owned = std::make_shared<std::vector<uint8_t>>(std::move(bytes));
  return OpenSnapshotBytes({owned->data(), owned->size()}, owned,
                           verify_checksums);
}

TEST(SnapshotCorruptTest, ValidImageOpens) {
  const auto stored = Open(ValidSnapshotBytes());
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ(stored->graph.num_entities(), 3u);
  EXPECT_EQ(stored->graph.num_edges(), 2u);
}

TEST(SnapshotCorruptTest, EveryTruncationFailsCleanly) {
  const std::vector<uint8_t> valid = ValidSnapshotBytes();
  for (size_t length = 0; length < valid.size(); ++length) {
    const auto result =
        Open(std::vector<uint8_t>(valid.begin(), valid.begin() + length));
    ASSERT_FALSE(result.ok()) << "truncation to " << length
                              << " bytes was accepted";
  }
}

TEST(SnapshotCorruptTest, HeaderAndTocBitFlipsAllDetected) {
  const std::vector<uint8_t> valid = ValidSnapshotBytes();
  // Every byte of the header + TOC is load-bearing: magic, version,
  // endianness, sizes, and the checksums that cover the rest.
  const size_t critical = sizeof(SnapshotHeader) +
                          kSnapshotSectionCount * sizeof(SectionEntry);
  ASSERT_LE(critical, valid.size());
  for (size_t at = 0; at < critical; ++at) {
    for (const uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::vector<uint8_t> corrupt = valid;
      corrupt[at] ^= flip;
      const auto result = Open(std::move(corrupt));
      ASSERT_FALSE(result.ok())
          << "flip 0x" << std::hex << int{flip} << " at byte " << std::dec
          << at << " was accepted";
    }
  }
}

TEST(SnapshotCorruptTest, PayloadFlipsFailChecksums) {
  const std::vector<uint8_t> valid = ValidSnapshotBytes();
  SnapshotHeader header;
  std::memcpy(&header, valid.data(), sizeof(header));
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    std::memcpy(&entry,
                valid.data() + sizeof(header) + i * sizeof(entry),
                sizeof(entry));
    if (entry.length == 0) continue;
    for (const uint64_t at :
         {entry.offset, entry.offset + entry.length / 2,
          entry.offset + entry.length - 1}) {
      std::vector<uint8_t> corrupt = valid;
      corrupt[at] ^= 0xFF;
      const auto result = Open(std::move(corrupt));
      ASSERT_FALSE(result.ok()) << "payload flip in section " << entry.id
                                << " at " << at << " was accepted";
    }
  }
}

TEST(SnapshotCorruptTest, WrongVersionAndEndiannessRejected) {
  std::vector<uint8_t> bytes = ValidSnapshotBytes();
  SnapshotHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));

  // Versions 1 and 2 open (sample_v1.egps covers 1); 0 and 3 do not.
  for (const uint32_t version : {0u, 3u}) {
    std::vector<uint8_t> wrong_version = bytes;
    header.version = version;
    std::memcpy(wrong_version.data(), &header, sizeof(header));
    const auto version_result = Open(std::move(wrong_version));
    ASSERT_FALSE(version_result.ok());
    EXPECT_NE(version_result.status().message().find(
                  "unsupported format version " + std::to_string(version)),
              std::string::npos)
        << version_result.status().message();
  }

  std::memcpy(&header, bytes.data(), sizeof(header));
  std::vector<uint8_t> wrong_endian = bytes;
  header.endian_tag = __builtin_bswap32(kSnapshotEndianTag);
  std::memcpy(wrong_endian.data(), &header, sizeof(header));
  EXPECT_FALSE(Open(std::move(wrong_endian)).ok());
}

TEST(SnapshotCorruptTest, MisalignedImageBaseRejected) {
  // CSR arrays are served in place, so an image at an odd offset of a
  // larger buffer must be rejected up front, not read misaligned.
  const std::vector<uint8_t> valid = ValidSnapshotBytes();
  // 1-byte prefix: the image base inside the buffer is odd.
  auto shifted = std::make_shared<std::vector<uint8_t>>(valid.size() + 1);
  std::copy(valid.begin(), valid.end(), shifted->begin() + 1);
  const auto result = OpenSnapshotBytes(
      {shifted->data() + 1, valid.size()}, shifted);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("aligned"), std::string::npos);
}

TEST(SnapshotCorruptTest, NotASnapshotRejected) {
  const std::string text = "edge\ta\trel\tT\tU\tb\n";
  EXPECT_FALSE(Open({text.begin(), text.end()}).ok());
  EXPECT_FALSE(Open({}).ok());
  EXPECT_FALSE(Open({'E', 'G', 'P', 'S'}).ok());  // magic prefix only
}

/// Structural corruption with checksums *recomputed* (a hostile writer,
/// not random damage): bounds checks must still catch everything. Flips
/// bytes via a patch function, then re-seals section and TOC checksums.
std::vector<uint8_t> ResealedPatch(
    std::vector<uint8_t> bytes,
    const std::function<void(std::vector<uint8_t>&)>& patch) {
  patch(bytes);
  SnapshotHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    uint8_t* slot = bytes.data() + sizeof(header) + i * sizeof(entry);
    std::memcpy(&entry, slot, sizeof(entry));
    entry.checksum = Fnv1a64(bytes.data() + entry.offset, entry.length);
    std::memcpy(slot, &entry, sizeof(entry));
  }
  header.toc_checksum =
      Fnv1a64(bytes.data() + sizeof(header),
              header.section_count * sizeof(SectionEntry));
  std::memcpy(bytes.data(), &header, sizeof(header));
  return bytes;
}

/// Locates a section's TOC entry.
SectionEntry FindSection(const std::vector<uint8_t>& bytes, uint32_t id) {
  SnapshotHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    std::memcpy(&entry, bytes.data() + sizeof(header) + i * sizeof(entry),
                sizeof(entry));
    if (entry.id == id) return entry;
  }
  ADD_FAILURE() << "section " << id << " not found";
  return SectionEntry{};
}

TEST(SnapshotCorruptTest, HostileStructuralEditsRejected) {
  const std::vector<uint8_t> valid = ValidSnapshotBytes();

  // An arc endpoint that lacks its relationship type's endpoint type:
  // rel's destination type rewritten from U to T, so the arcs a -> b and
  // a -> c (both U) break the §2 invariant while every array stays
  // well-formed and transposed.
  {
    const SectionEntry rels = FindSection(valid, kSectionRelTypes);
    auto bytes = ResealedPatch(valid, [&](std::vector<uint8_t>& b) {
      const uint32_t type_t = 0;
      std::memcpy(b.data() + rels.offset + offsetof(RelTypeRecord, dst_type),
                  &type_t, sizeof(type_t));
    });
    for (const bool verify : {true, false}) {
      const auto result = Open(bytes, verify);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
      EXPECT_NE(result.status().message().find("lacks its relationship"),
                std::string::npos)
          << result.status().message();
    }
  }
  // An arc endpoint out of range.
  {
    const SectionEntry arcs = FindSection(valid, kSectionOutArcs);
    auto bytes = ResealedPatch(valid, [&](std::vector<uint8_t>& b) {
      const uint32_t huge = 0xFFFF;
      std::memcpy(b.data() + arcs.offset, &huge, sizeof(huge));
    });
    for (const bool verify : {true, false}) {
      const auto result = Open(bytes, verify);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
      EXPECT_NE(result.status().message().find("out of range"),
                std::string::npos)
          << result.status().message();
    }
  }
  // Entity type id out of range.
  {
    const SectionEntry types = FindSection(valid, kSectionEntityTypes);
    auto bytes = ResealedPatch(valid, [&](std::vector<uint8_t>& b) {
      // Flat type array sits after count + (count+1) offsets.
      const size_t flat = types.offset + 8 * (1 + 3 + 1);
      const uint32_t huge = 77;
      std::memcpy(b.data() + flat, &huge, sizeof(huge));
    });
    EXPECT_FALSE(Open(std::move(bytes)).ok());
  }
  // Duplicate relationship-type identity (second record rewritten to
  // equal the first): no builder can produce this, so the reader must
  // reject it rather than serve split relationship types.
  {
    const SectionEntry rels = FindSection(valid, kSectionRelTypes);
    auto bytes = ResealedPatch(valid, [&](std::vector<uint8_t>& b) {
      std::memcpy(b.data() + rels.offset + sizeof(RelTypeRecord),
                  b.data() + rels.offset, sizeof(RelTypeRecord));
    });
    const auto result = Open(std::move(bytes));
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("duplicate relationship"),
              std::string::npos)
        << result.status().message();
  }
  // Non-monotone CSR offsets. The middle entry is patched far past the
  // arc array: the reader must reject it from the offset table alone,
  // without ever dereferencing arcs[offsets[i]] (a huge entry whose
  // decrease only shows up later used to drive out-of-bounds reads).
  {
    const SectionEntry offsets = FindSection(valid, kSectionOutOffsets);
    auto bytes = ResealedPatch(valid, [&](std::vector<uint8_t>& b) {
      const uint64_t big = 1u << 30;
      std::memcpy(b.data() + offsets.offset + 8, &big, sizeof(big));
    });
    const auto result = Open(std::move(bytes));
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("decrease"),
              std::string::npos)
        << result.status().message();
  }
  // Unsorted arc run (swap the two out-arcs of entity 'a').
  {
    const SectionEntry arcs = FindSection(valid, kSectionOutArcs);
    auto bytes = ResealedPatch(valid, [&](std::vector<uint8_t>& b) {
      uint64_t first, second;
      std::memcpy(&first, b.data() + arcs.offset, 8);
      std::memcpy(&second, b.data() + arcs.offset + 8, 8);
      std::memcpy(b.data() + arcs.offset, &second, 8);
      std::memcpy(b.data() + arcs.offset + 8, &first, 8);
    });
    EXPECT_FALSE(Open(std::move(bytes)).ok());
  }
  // Structurally valid in-arcs that are not the out-arcs transposed:
  // entity c's in-arc re-pointed from a to b (in bounds, run of one stays
  // sorted, checksums resealed). The multiset fingerprint must catch it.
  {
    const SectionEntry arcs = FindSection(valid, kSectionInArcs);
    auto bytes = ResealedPatch(valid, [&](std::vector<uint8_t>& b) {
      const uint32_t entity_b = 1;
      std::memcpy(b.data() + arcs.offset + 8, &entity_b,
                  sizeof(entity_b));
    });
    for (const bool verify : {true, false}) {
      const auto result = Open(bytes, verify);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
      EXPECT_NE(result.status().message().find("transposed"),
                std::string::npos)
          << result.status().message();
    }
  }
  // Section pushed outside the file.
  {
    auto bytes = ResealedPatch(valid, [&](std::vector<uint8_t>& b) {
      SnapshotHeader header;
      std::memcpy(&header, b.data(), sizeof(header));
      SectionEntry entry;
      uint8_t* slot = b.data() + sizeof(header);
      std::memcpy(&entry, slot, sizeof(entry));
      entry.offset = (b.size() + 8) & ~size_t{7};
      entry.length = 0;  // keep the test's own reseal in bounds
      std::memcpy(slot, &entry, sizeof(entry));
    });
    EXPECT_FALSE(Open(std::move(bytes)).ok());
  }
  // A required section relabeled away: as an unknown id, and as the
  // retired edges id. Both are skipped, so meta goes missing.
  for (const uint32_t id : {900u, uint32_t{kSectionRetiredEdges}}) {
    auto bytes = ResealedPatch(valid, [&](std::vector<uint8_t>& b) {
      SnapshotHeader header;
      std::memcpy(&header, b.data(), sizeof(header));
      SectionEntry entry;
      uint8_t* slot = b.data() + sizeof(header);
      std::memcpy(&entry, slot, sizeof(entry));
      entry.id = id;
      std::memcpy(slot, &entry, sizeof(entry));
    });
    const auto result = Open(std::move(bytes));
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("section 1 missing"),
              std::string::npos)
        << result.status().message();
  }
  // Duplicate string in the entity-name table (swap blob bytes so both
  // names read "a").
  {
    const SectionEntry names = FindSection(valid, kSectionEntityNames);
    auto bytes = ResealedPatch(valid, [&](std::vector<uint8_t>& b) {
      // blob = "abc" after count + 4 offsets; make it "aac".
      const size_t blob = names.offset + 8 * (1 + 4);
      b[blob + 1] = 'a';
    });
    const auto result = Open(std::move(bytes));
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("duplicate"),
              std::string::npos);
  }
  // Two long names holding a 0xFF byte, made equal: the message names the
  // two ids, never the bytes, which may be of any length and not UTF-8
  // (it reaches the log and the /healthz and /v1/datasets bodies).
  {
    const std::string stem = std::string(4096, 'n') + "\xFF";
    EntityGraphBuilder builder;
    builder.AddTypedEntity(stem + "a", "T");
    builder.AddTypedEntity(stem + "b", "T");
    auto graph = builder.Build();
    ASSERT_TRUE(graph.ok());
    std::stringstream buffer(std::ios::in | std::ios::out |
                             std::ios::binary);
    ASSERT_TRUE(WriteSnapshot(*graph, buffer).ok());
    const std::string image = buffer.str();
    const std::vector<uint8_t> named(image.begin(), image.end());
    const SectionEntry names = FindSection(named, kSectionEntityNames);
    auto bytes = ResealedPatch(named, [&](std::vector<uint8_t>& b) {
      // The blob ends with the second name's last byte: "b" -> "a".
      b[names.offset + names.length - 1] = 'a';
    });
    const auto result = Open(std::move(bytes));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
    const std::string& message = result.status().message();
    EXPECT_NE(message.find("duplicate"), std::string::npos) << message;
    EXPECT_NE(message.find("ids 0 and 1"), std::string::npos) << message;
    EXPECT_EQ(message.find('\xFF'), std::string::npos);
    EXPECT_LT(message.size(), 200u) << message;
  }
}

TEST(SnapshotCorruptTest, FileLevelErrors) {
  EXPECT_EQ(OpenSnapshot("/no/such/file.egps").status().code(),
            StatusCode::kIOError);
  // A directory is not a snapshot; both modes must fail cleanly.
  for (const auto mode : {SnapshotOpenOptions::Mode::kMmap,
                          SnapshotOpenOptions::Mode::kStream}) {
    SnapshotOpenOptions options;
    options.mode = mode;
    EXPECT_FALSE(OpenSnapshot("/tmp", options).ok());
  }
  // Truncated on disk (mmap path must bounds-check, not fault).
  const std::vector<uint8_t> valid = ValidSnapshotBytes();
  const std::string path = TempPath("truncated.egps");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(valid.data()),
              static_cast<std::streamsize>(valid.size() / 2));
  }
  for (const auto mode : {SnapshotOpenOptions::Mode::kMmap,
                          SnapshotOpenOptions::Mode::kStream}) {
    SnapshotOpenOptions options;
    options.mode = mode;
    EXPECT_FALSE(OpenSnapshot(path, options).ok());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace egp
