// On-disk layout of the .egps snapshot format (version 2).
//
// An .egps file is a self-describing, little-endian, sectioned binary
// image of one entity graph, whose edges are its FrozenGraph CSR arrays,
// built so a server can open a dataset in milliseconds instead of
// re-parsing text and re-deriving adjacency:
//
//   [SnapshotHeader]                      40 bytes, fixed
//   [SectionEntry x section_count]        32 bytes each (the TOC)
//   [section payloads...]                 each 8-byte aligned, zero-padded
//
// Sections (ids below):
//   meta            8 x u64 counts (entities, edges, types, rel types,
//                   surface names, out arcs, in arcs, reserved)
//   *_names         string table: u64 count, u64 offsets[count+1] into a
//                   trailing byte blob (offsets[0] = 0, monotone)
//   rel_types       RelTypeRecord[num_rel_types]
//   entity_types    CSR of per-entity type lists: u64 count,
//                   u64 offsets[count+1], u32 type ids
//   type_members    CSR of per-type member lists, preserving the original
//                   membership order (tuple sampling is order-sensitive,
//                   so this is stored, not re-derived sorted)
//   out/in_offsets  u64[num_entities + 1] CSR offsets of FrozenGraph
//   out/in_arcs     FrozenGraph::Arc (u32 neighbor, u32 rel_type) arrays;
//                   the in-arcs are the out-arcs transposed, and each
//                   out-arc is one edge
//
// Every section carries an FNV-1a 64 checksum in the TOC; the TOC itself
// is checksummed in the header. Readers validate magic, version,
// endianness tag, file size, TOC checksum, section bounds/alignment and
// (by default) every payload checksum before trusting a byte.
//
// Versioning / compatibility rules:
//   - `version` is bumped on any incompatible layout change; a reader
//     rejects files whose version it does not know.
//   - Unknown section ids are ignored (forward-compatible additions);
//     all sections listed above are required and their absence is a
//     corruption error.
//   - Version 1 also held an edges section (id 8: u32 src, dst, rel_type
//     triples, a second copy of the out-arcs). Version 2 dropped it and
//     the id is never reused. A reader still opens version 1: it
//     checksums section 8 like any other and otherwise skips it, as an
//     unknown id. `egp_compile old.egps new.egps` upgrades a file.
//   - The format is little-endian only; the endianness tag reads back
//     wrong on a big-endian machine and is rejected with a clear error.
#ifndef EGP_STORE_FORMAT_H_
#define EGP_STORE_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace egp {

/// First 8 bytes of every .egps file. The trailing \r\n\x1a guards
/// against text-mode mangling, like the PNG magic.
inline constexpr unsigned char kSnapshotMagic[8] = {'E', 'G', 'P', 'S',
                                                    0x89, '\r', '\n', 0x1a};
inline constexpr uint32_t kSnapshotVersion = 2;
/// The oldest version a reader opens (see the rules above).
inline constexpr uint32_t kSnapshotOldestVersion = 1;
/// Written as a u32; a big-endian writer would produce the byte-swapped
/// value, which a little-endian reader rejects.
inline constexpr uint32_t kSnapshotEndianTag = 0x01020304u;

enum SnapshotSectionId : uint32_t {
  kSectionMeta = 1,
  kSectionEntityNames = 2,
  kSectionTypeNames = 3,
  kSectionSurfaceNames = 4,
  kSectionRelTypes = 5,
  kSectionEntityTypes = 6,
  kSectionTypeMembers = 7,
  kSectionRetiredEdges = 8,  // version 1 only; skipped, never reused
  kSectionOutOffsets = 9,
  kSectionInOffsets = 10,
  kSectionOutArcs = 11,
  kSectionInArcs = 12,
};
/// Highest known id. Every id from 1 up to it is required, except
/// kSectionRetiredEdges, so a writer emits one fewer sections.
inline constexpr uint32_t kSnapshotLastSectionId = kSectionInArcs;
inline constexpr uint32_t kSnapshotSectionCount = kSnapshotLastSectionId - 1;
/// Hard cap on the TOC length a reader will even look at, so a corrupt
/// section_count cannot drive a huge allocation or scan.
inline constexpr uint32_t kSnapshotMaxSections = 1024;

#pragma pack(push, 1)
struct SnapshotHeader {
  unsigned char magic[8];
  uint32_t version;
  uint32_t endian_tag;
  uint64_t file_bytes;     // total file size, for truncation detection
  uint32_t section_count;  // TOC entries immediately following
  uint32_t reserved;       // 0
  uint64_t toc_checksum;   // FNV-1a 64 of the TOC bytes
};
static_assert(sizeof(SnapshotHeader) == 40);

struct SectionEntry {
  uint32_t id;        // SnapshotSectionId
  uint32_t reserved;  // 0
  uint64_t offset;    // absolute file offset, 8-byte aligned
  uint64_t length;    // payload bytes (excluding alignment padding)
  uint64_t checksum;  // FNV-1a 64 of the payload bytes
};
static_assert(sizeof(SectionEntry) == 32);

/// Indices into the meta section's u64 array.
enum SnapshotMetaField : size_t {
  kMetaNumEntities = 0,
  kMetaNumEdges = 1,
  kMetaNumTypes = 2,
  kMetaNumRelTypes = 3,
  kMetaNumSurfaceNames = 4,
  kMetaNumOutArcs = 5,
  kMetaNumInArcs = 6,
  kMetaReserved = 7,
  kMetaFieldCount = 8,
};

/// On-disk shape of one relationship type (matches RelTypeInfo field for
/// field; kept separate so the file layout cannot drift with the struct).
struct RelTypeRecord {
  uint32_t surface_name;
  uint32_t src_type;
  uint32_t dst_type;
};
static_assert(sizeof(RelTypeRecord) == 12);

#pragma pack(pop)

inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a 64 over a byte range, optionally chained via `seed`.
inline uint64_t Fnv1a64(const void* data, size_t size,
                        uint64_t seed = kFnvOffsetBasis) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = seed;
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * kFnvPrime;
  }
  return hash;
}

}  // namespace egp

#endif  // EGP_STORE_FORMAT_H_
