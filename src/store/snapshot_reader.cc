#include "store/snapshot_reader.h"

#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/strings.h"
#include "graph/frozen_graph.h"
#include "store/format.h"
#include "store/mapped_file.h"

namespace egp {

namespace {

Status Corrupt(const std::string& what) {
  return Status::Corruption("snapshot: " + what);
}

/// One section's payload bytes.
struct Section {
  const uint8_t* data = nullptr;
  size_t size = 0;
  bool present = false;
};

/// Every offset table must be fully validated (start at 0, never
/// decrease, end at `limit`) before any entry is used to slice data — a
/// corrupt non-monotone table like [0, 100, 5] would otherwise read out
/// of bounds before the decrease is noticed.
Status ValidateOffsets(std::span<const uint64_t> offsets, uint64_t limit,
                       const char* name) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != limit) {
    return Corrupt(std::string(name) +
                   ": offset table does not cover the payload");
  }
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Corrupt(std::string(name) + ": offsets decrease");
    }
  }
  return Status::OK();
}

/// A section that is exactly `count` elements of T, served in place
/// (the section base is 8-aligned).
template <typename T>
Result<std::span<const T>> WholeSection(const Section& section,
                                        const char* name, uint64_t count) {
  if (section.size != count * sizeof(T)) {
    return Corrupt(std::string(name) + " section has the wrong size");
  }
  return std::span<const T>(reinterpret_cast<const T*>(section.data),
                            static_cast<size_t>(count));
}

/// Parses a count + offsets + values section (a name table's chars or a
/// membership list's ids), served in place (the section base is
/// 8-aligned): the count must match meta, the values fill the rest of
/// the section, and the offsets must cover them.
template <typename T>
Result<FlatLists<T>> ParseCsrSection(const Section& section,
                                     const char* name, uint64_t count) {
  const std::string label(name);
  uint64_t stored_count = 0;
  if (section.size < sizeof(stored_count)) {
    return Corrupt(label + ": truncated payload");
  }
  std::memcpy(&stored_count, section.data, sizeof(stored_count));
  if (stored_count != count) {
    return Corrupt(label + ": count disagrees with meta");
  }
  const size_t rest = section.size - sizeof(stored_count);
  if (count + 1 > rest / sizeof(uint64_t)) {
    return Corrupt(label + ": array exceeds section");
  }
  const size_t offset_bytes = (count + 1) * sizeof(uint64_t);
  if ((rest - offset_bytes) % sizeof(T) != 0) {
    return Corrupt(label + ": trailing bytes in section");
  }
  const uint8_t* offsets = section.data + sizeof(stored_count);
  const FlatLists<T> lists{
      {reinterpret_cast<const uint64_t*>(offsets), count + 1},
      {reinterpret_cast<const T*>(offsets + offset_bytes),
       (rest - offset_bytes) / sizeof(T)}};
  EGP_RETURN_IF_ERROR(
      ValidateOffsets(lists.offsets, lists.values.size(), name));
  return lists;
}

/// A name table, viewed in place; its index is Find's, and two equal
/// names are reported by id (never by their bytes, which may be any
/// length and not UTF-8).
Result<NameTable> ParseNames(const Section& section, const char* name,
                             uint64_t count) {
  FlatLists<char> names;
  EGP_ASSIGN_OR_RETURN(names, ParseCsrSection<char>(section, name, count));
  Result<NameTable> table = NameTable::Index(names);
  if (!table.ok()) {
    return Corrupt(std::string(name) + ": " + table.status().message());
  }
  return table;
}

/// A membership list, viewed in place, with every element bounds-checked
/// against `element_limit` and duplicates within one list rejected (the
/// builder never produces them, and downstream counts assume set
/// semantics). The timestamped `seen` scratch makes the duplicate check
/// O(total).
Result<IdLists> ParseIdLists(const Section& section, const char* name,
                             uint64_t count, uint32_t element_limit) {
  IdLists lists;
  EGP_ASSIGN_OR_RETURN(lists, ParseCsrSection<uint32_t>(section, name, count));
  // `count` and every element are < 2^32, so a u32 stamp cannot collide
  // with the 0xFFFFFFFF initial value for any real list index.
  std::vector<uint32_t> seen(element_limit, ~uint32_t{0});
  for (uint32_t i = 0; i < count; ++i) {
    for (const uint32_t value : lists[i]) {
      if (value >= element_limit) {
        return Corrupt(std::string(name) + ": element out of range");
      }
      if (seen[value] == i) {
        return Corrupt(std::string(name) + ": duplicate element in list");
      }
      seen[value] = i;
    }
  }
  return lists;
}

}  // namespace

bool BytesHaveSnapshotMagic(std::span<const uint8_t> bytes) {
  return bytes.size() >= sizeof(kSnapshotMagic) &&
         std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) ==
             0;
}

namespace {

/// stdio, not ifstream: libstdc++'s filebuf throws ios_failure on read
/// errors like EISDIR, and this library reports problems as Status.
class CFile {
 public:
  static Result<CFile> OpenRegular(const std::string& path) {
    CFile file;
    file.f_ = std::fopen(path.c_str(), "rb");
    if (file.f_ == nullptr) {
      return Status::IOError("cannot open for reading: " + path + ": " +
                             std::strerror(errno));
    }
    struct stat st;
    if (::fstat(::fileno(file.f_), &st) != 0 || !S_ISREG(st.st_mode)) {
      return Status::IOError("not a regular file: " + path);
    }
    file.size_ = static_cast<size_t>(st.st_size);
    return file;
  }
  CFile() = default;
  CFile(CFile&& other) noexcept
      : f_(std::exchange(other.f_, nullptr)), size_(other.size_) {}
  CFile& operator=(CFile&& other) noexcept {
    if (this != &other) {
      if (f_ != nullptr) std::fclose(f_);
      f_ = std::exchange(other.f_, nullptr);
      size_ = other.size_;
    }
    return *this;
  }
  ~CFile() {
    if (f_ != nullptr) std::fclose(f_);
  }
  std::FILE* get() const { return f_; }
  size_t size() const { return size_; }

 private:
  std::FILE* f_ = nullptr;
  size_t size_ = 0;
};

}  // namespace

Result<bool> FileHasSnapshotMagic(const std::string& path) {
  CFile file;
  EGP_ASSIGN_OR_RETURN(file, CFile::OpenRegular(path));
  uint8_t head[sizeof(kSnapshotMagic)] = {};
  const size_t got = std::fread(head, 1, sizeof(head), file.get());
  return got == sizeof(head) && BytesHaveSnapshotMagic(head);
}

Result<StoredGraph> OpenSnapshotBytes(std::span<const uint8_t> bytes,
                                      std::shared_ptr<const void> backing,
                                      bool verify_checksums) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Unimplemented(
        ".egps snapshots are little-endian only; this host is big-endian");
  }
  // Section payloads are served in place as uint64_t/Arc arrays, whose
  // in-file offsets are 8-aligned relative to the image base — so the
  // base itself must be 8-aligned (mmap pages and heap buffers are; a
  // snapshot embedded at an odd offset of a larger frame is not).
  if (reinterpret_cast<uintptr_t>(bytes.data()) % 8 != 0) {
    return Status::InvalidArgument(
        "snapshot image base must be 8-byte aligned");
  }
  // --- Header ------------------------------------------------------------
  if (!BytesHaveSnapshotMagic(bytes)) {
    return Corrupt("missing EGPS magic (not an .egps snapshot)");
  }
  if (bytes.size() < sizeof(SnapshotHeader)) {
    return Corrupt("truncated header");
  }
  SnapshotHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (header.endian_tag != kSnapshotEndianTag) {
    return Status::InvalidArgument(
        "snapshot: endianness tag mismatch (written on a big-endian "
        "machine, or corrupt)");
  }
  if (header.version < kSnapshotOldestVersion ||
      header.version > kSnapshotVersion) {
    return Status::InvalidArgument(StrFormat(
        "snapshot: unsupported format version %u (this reader supports %u "
        "to %u)",
        header.version, kSnapshotOldestVersion, kSnapshotVersion));
  }
  if (header.file_bytes != bytes.size()) {
    return Corrupt(StrFormat("file is %zu bytes but header says %llu "
                             "(truncated or appended to)",
                             bytes.size(),
                             (unsigned long long)header.file_bytes));
  }
  if (header.section_count == 0 ||
      header.section_count > kSnapshotMaxSections) {
    return Corrupt("implausible section count");
  }
  if (header.reserved != 0) {
    return Corrupt("reserved header field is not zero");
  }
  const size_t toc_bytes = header.section_count * sizeof(SectionEntry);
  if (bytes.size() - sizeof(header) < toc_bytes) {
    return Corrupt("truncated section table");
  }
  const uint8_t* toc_base = bytes.data() + sizeof(header);
  if (Fnv1a64(toc_base, toc_bytes) != header.toc_checksum) {
    return Corrupt("section table checksum mismatch");
  }

  // --- TOC ---------------------------------------------------------------
  // Unknown ids, and version 1's retired edges section, are checksummed
  // and skipped; duplicates of known ids are rejected.
  const auto known = [](uint32_t id) {
    return id >= 1 && id <= kSnapshotLastSectionId &&
           id != kSectionRetiredEdges;
  };
  Section sections[kSnapshotLastSectionId + 1];
  const size_t payload_start = sizeof(header) + toc_bytes;
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    std::memcpy(&entry, toc_base + i * sizeof(SectionEntry), sizeof(entry));
    if (entry.offset % 8 != 0) {
      return Corrupt("section offset not 8-byte aligned");
    }
    if (entry.offset < payload_start || entry.offset > bytes.size() ||
        entry.length > bytes.size() - entry.offset) {
      return Corrupt("section outside the file");
    }
    if (verify_checksums &&
        Fnv1a64(bytes.data() + entry.offset, entry.length) !=
            entry.checksum) {
      return Corrupt(StrFormat("checksum mismatch in section %u", entry.id));
    }
    if (known(entry.id)) {
      Section& slot = sections[entry.id];
      if (slot.present) {
        return Corrupt(StrFormat("duplicate section %u", entry.id));
      }
      slot.data = bytes.data() + entry.offset;
      slot.size = entry.length;
      slot.present = true;
    }
  }
  for (uint32_t id = 1; id <= kSnapshotLastSectionId; ++id) {
    if (known(id) && !sections[id].present) {
      return Corrupt(StrFormat("required section %u missing", id));
    }
  }

  // --- Meta --------------------------------------------------------------
  std::span<const uint64_t> meta;
  EGP_ASSIGN_OR_RETURN(meta, WholeSection<uint64_t>(sections[kSectionMeta],
                                                    "meta", kMetaFieldCount));
  const uint64_t num_entities = meta[kMetaNumEntities];
  const uint64_t num_edges = meta[kMetaNumEdges];
  const uint64_t num_types = meta[kMetaNumTypes];
  const uint64_t num_rel_types = meta[kMetaNumRelTypes];
  if (num_entities == 0) return Corrupt("graph has no entities");
  if (meta[kMetaNumSurfaceNames] > std::numeric_limits<uint32_t>::max() ||
      num_entities > std::numeric_limits<uint32_t>::max() ||
      num_types > std::numeric_limits<uint32_t>::max() ||
      num_rel_types > std::numeric_limits<uint32_t>::max() ||
      num_edges > std::numeric_limits<uint32_t>::max()) {
    return Corrupt("count exceeds the 32-bit id space");
  }
  if (meta[kMetaNumOutArcs] != num_edges ||
      meta[kMetaNumInArcs] != num_edges) {
    return Corrupt("arc counts disagree with the edge count");
  }

  // --- Names ------------------------------------------------------------
  EntityGraph::Parts parts;
  EGP_ASSIGN_OR_RETURN(parts.entity_names,
                       ParseNames(sections[kSectionEntityNames],
                                  "entity names", num_entities));
  EGP_ASSIGN_OR_RETURN(
      parts.type_names,
      ParseNames(sections[kSectionTypeNames], "type names", num_types));
  EGP_ASSIGN_OR_RETURN(parts.surface_names,
                       ParseNames(sections[kSectionSurfaceNames],
                                  "surface names",
                                  meta[kMetaNumSurfaceNames]));

  // --- Relationship types ------------------------------------------------
  std::span<const RelTypeRecord> records;
  EGP_ASSIGN_OR_RETURN(records, WholeSection<RelTypeRecord>(
                                    sections[kSectionRelTypes],
                                    "relationship type", num_rel_types));
  std::vector<RelTypeInfo>& rel_types = parts.rel_types;
  rel_types.reserve(num_rel_types);
  // The builder dedups relationship types by their identity triple;
  // re-validate rather than trust the file (a duplicate would give two
  // RelTypeIds with the same identity — a graph no builder can produce).
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> rel_identities;
  for (const RelTypeRecord& record : records) {
    if (record.surface_name >= meta[kMetaNumSurfaceNames] ||
        record.src_type >= num_types || record.dst_type >= num_types) {
      return Corrupt("relationship type references out-of-range ids");
    }
    if (!rel_identities
             .emplace(record.surface_name, record.src_type,
                      record.dst_type)
             .second) {
      return Corrupt("duplicate relationship type (surface, src, dst)");
    }
    rel_types.push_back(
        RelTypeInfo{record.surface_name, record.src_type, record.dst_type});
  }

  // --- Type membership (both orientations, cross-validated) -------------
  EGP_ASSIGN_OR_RETURN(
      parts.entity_types,
      ParseIdLists(sections[kSectionEntityTypes], "entity types",
                   num_entities, static_cast<uint32_t>(num_types)));
  EGP_ASSIGN_OR_RETURN(
      parts.type_members,
      ParseIdLists(sections[kSectionTypeMembers], "type members", num_types,
                   static_cast<uint32_t>(num_entities)));
  const IdLists& entity_types = parts.entity_types;
  const auto has_type = [&entity_types](EntityId e, TypeId t) {
    return std::ranges::count(entity_types[e], t) != 0;
  };
  // The two sections must be mutual inverses: every stored member pair
  // must appear in the entity's type list, and the pair totals must
  // match (both sides are duplicate-free, so equal totals + one-way
  // containment is a bijection).
  for (TypeId t = 0; t < num_types; ++t) {
    for (const EntityId e : parts.type_members[t]) {
      if (!has_type(e, t)) {
        return Corrupt("type member list disagrees with entity type list");
      }
    }
  }
  if (entity_types.values.size() != parts.type_members.values.size()) {
    return Corrupt("type membership totals disagree");
  }

  // --- CSR ---------------------------------------------------------------
  std::span<const uint64_t> out_offsets, in_offsets;
  std::span<const FrozenGraph::Arc> out_arcs, in_arcs;
  EGP_ASSIGN_OR_RETURN(out_offsets, WholeSection<uint64_t>(
                                        sections[kSectionOutOffsets],
                                        "out offsets", num_entities + 1));
  EGP_ASSIGN_OR_RETURN(in_offsets, WholeSection<uint64_t>(
                                       sections[kSectionInOffsets],
                                       "in offsets", num_entities + 1));
  EGP_ASSIGN_OR_RETURN(out_arcs, WholeSection<FrozenGraph::Arc>(
                                     sections[kSectionOutArcs], "out arcs",
                                     num_edges));
  EGP_ASSIGN_OR_RETURN(in_arcs, WholeSection<FrozenGraph::Arc>(
                                    sections[kSectionInArcs], "in arcs",
                                    num_edges));

  EGP_ASSIGN_OR_RETURN(
      parts.adjacency,
      FrozenGraph::FromCsr(num_entities, num_rel_types, out_offsets,
                           in_offsets, out_arcs, in_arcs, backing));
  // FromCsr proved the arrays well-formed and each other's transpose, so
  // every edge is one out-arc. The §2 invariant: an edge's endpoints
  // carry the endpoint types of its relationship type
  // (EntityGraphBuilder::AddEdge enforces this at build time; re-validate
  // rather than trust the file).
  for (EntityId src = 0; src < num_entities; ++src) {
    for (const FrozenGraph::Arc& arc : parts.adjacency.OutArcs(src)) {
      const RelTypeInfo& info = rel_types[arc.rel_type];
      if (!has_type(src, info.src_type) ||
          !has_type(arc.neighbor, info.dst_type)) {
        return Corrupt("arc endpoint lacks its relationship type's "
                       "endpoint type");
      }
    }
  }
  parts.backing = std::move(backing);
  StoredGraph stored;
  stored.graph = EntityGraph(std::move(parts));
  return stored;
}

Result<StoredGraph> OpenSnapshot(const std::string& path,
                                 const SnapshotOpenOptions& options) {
  if (options.mode == SnapshotOpenOptions::Mode::kMmap) {
    MappedFile file;
    EGP_ASSIGN_OR_RETURN(file, MappedFile::Open(path));
    auto owner = std::make_shared<MappedFile>(std::move(file));
    const std::span<const uint8_t> bytes = owner->bytes();
    StoredGraph stored;
    EGP_ASSIGN_OR_RETURN(
        stored,
        OpenSnapshotBytes(bytes, std::shared_ptr<const void>(owner),
                          options.verify_checksums));
    stored.zero_copy = true;
    return stored;
  }
  // The stream path reads through stdio; the injectable site covers the
  // open (the mmap path gets its coverage inside MappedFile::Open).
  EGP_RETURN_IF_ERROR(FaultInjectStatus("store.open", path));
  CFile file;
  EGP_ASSIGN_OR_RETURN(file, CFile::OpenRegular(path));
  auto buffer = std::make_shared<std::vector<uint8_t>>(file.size());
  if (file.size() > 0 &&
      std::fread(buffer->data(), 1, buffer->size(), file.get()) !=
          buffer->size()) {
    return Status::IOError("read failed: " + path);
  }
  const std::span<const uint8_t> bytes(buffer->data(), buffer->size());
  return OpenSnapshotBytes(bytes, std::shared_ptr<const void>(buffer),
                           options.verify_checksums);
}

}  // namespace egp
