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

/// Fills EntityGraph's private members from validated snapshot sections
/// (a friend of EntityGraph).
struct GraphAssembler {
  static EntityGraph Assemble(StringPool entity_names, StringPool type_names,
                              StringPool surface_names,
                              std::vector<RelTypeInfo> rel_types,
                              std::vector<std::vector<TypeId>> entity_types,
                              std::vector<std::vector<EntityId>> type_members,
                              FrozenGraph adjacency) {
    EntityGraph graph;
    graph.entity_names_ = std::move(entity_names);
    graph.type_names_ = std::move(type_names);
    graph.surface_names_ = std::move(surface_names);
    graph.rel_types_ = std::move(rel_types);
    graph.entity_types_ = std::move(entity_types);
    graph.type_members_ = std::move(type_members);
    graph.adjacency_ = std::move(adjacency);
    return graph;
  }
};

namespace {

Status Corrupt(const std::string& what) {
  return Status::Corruption("snapshot: " + what);
}

uint64_t ReadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// One section's payload bytes.
struct Section {
  const uint8_t* data = nullptr;
  size_t size = 0;
  bool present = false;
};

/// Bounds-checked little-endian cursor over one section.
class SectionReader {
 public:
  SectionReader(const Section& section, const char* name)
      : p_(section.data), remaining_(section.size), name_(name) {}

  Result<uint64_t> U64() {
    if (remaining_ < sizeof(uint64_t)) {
      return Corrupt(std::string(name_) + ": truncated payload");
    }
    const uint64_t v = ReadU64(p_);
    p_ += sizeof(uint64_t);
    remaining_ -= sizeof(uint64_t);
    return v;
  }

  /// A span of `count` elements of a trivially copyable 4- or 8-byte-
  /// aligned type, served in place (the section base is 8-aligned).
  template <typename T>
  Result<std::span<const T>> Array(uint64_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > remaining_ / sizeof(T)) {
      return Corrupt(std::string(name_) + ": array exceeds section");
    }
    std::span<const T> span{reinterpret_cast<const T*>(p_),
                            static_cast<size_t>(count)};
    p_ += count * sizeof(T);
    remaining_ -= count * sizeof(T);
    return span;
  }

  Result<std::span<const char>> Bytes(uint64_t count) {
    return Array<char>(count);
  }

  size_t remaining() const { return remaining_; }
  Status ExpectExhausted() const {
    if (remaining_ != 0) {
      return Corrupt(std::string(name_) + ": trailing bytes in section");
    }
    return Status::OK();
  }

 private:
  const uint8_t* p_;
  size_t remaining_;
  const char* name_;
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

/// Parses a string-table section into a pool. Ids must come out dense
/// and in file order; a duplicate string cannot intern densely and is
/// rejected.
Result<StringPool> ParseStringTable(const Section& section, const char* name,
                                    uint64_t expected_count) {
  SectionReader reader(section, name);
  uint64_t count = 0;
  EGP_ASSIGN_OR_RETURN(count, reader.U64());
  if (count != expected_count) {
    return Corrupt(std::string(name) + ": count disagrees with meta");
  }
  std::span<const uint64_t> offsets;
  EGP_ASSIGN_OR_RETURN(offsets, reader.Array<uint64_t>(count + 1));
  std::span<const char> blob;
  EGP_ASSIGN_OR_RETURN(blob, reader.Bytes(reader.remaining()));
  EGP_RETURN_IF_ERROR(ValidateOffsets(offsets, blob.size(), name));
  StringPool pool;
  for (uint64_t i = 0; i < count; ++i) {
    const std::string_view text(blob.data() + offsets[i],
                                offsets[i + 1] - offsets[i]);
    if (pool.Intern(text) != i) {
      return Corrupt(std::string(name) + ": duplicate string '" +
                     std::string(text) + "'");
    }
  }
  return pool;
}

/// Parses a u32-list CSR section into per-item vectors, with every
/// element bounds-checked against `element_limit` and duplicates within
/// one list rejected (the builder never produces them, and downstream
/// counts assume set semantics). The timestamped `seen` scratch makes
/// the duplicate check O(total).
Result<std::vector<std::vector<uint32_t>>> ParseListCsr(
    const Section& section, const char* name, uint64_t expected_count,
    uint32_t element_limit) {
  SectionReader reader(section, name);
  uint64_t count = 0;
  EGP_ASSIGN_OR_RETURN(count, reader.U64());
  if (count != expected_count) {
    return Corrupt(std::string(name) + ": count disagrees with meta");
  }
  std::span<const uint64_t> offsets;
  EGP_ASSIGN_OR_RETURN(offsets, reader.Array<uint64_t>(count + 1));
  // The remainder of the section is exactly the flat element array; the
  // offset table must cover it end to end.
  const uint64_t total = reader.remaining() / sizeof(uint32_t);
  std::span<const uint32_t> flat;
  EGP_ASSIGN_OR_RETURN(flat, reader.Array<uint32_t>(total));
  EGP_RETURN_IF_ERROR(reader.ExpectExhausted());
  EGP_RETURN_IF_ERROR(ValidateOffsets(offsets, total, name));

  // `count` and every element are < 2^32, so a u32 stamp cannot collide
  // with the 0xFFFFFFFF initial value for any real list index.
  std::vector<uint32_t> seen(element_limit, ~uint32_t{0});
  std::vector<std::vector<uint32_t>> lists(count);
  for (uint64_t i = 0; i < count; ++i) {
    lists[i].reserve(offsets[i + 1] - offsets[i]);
    for (uint64_t j = offsets[i]; j < offsets[i + 1]; ++j) {
      const uint32_t value = flat[j];
      if (value >= element_limit) {
        return Corrupt(std::string(name) + ": element out of range");
      }
      if (seen[value] == i) {
        return Corrupt(std::string(name) + ": duplicate element in list");
      }
      seen[value] = static_cast<uint32_t>(i);
      lists[i].push_back(value);
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
  if (sections[kSectionMeta].size != kMetaFieldCount * sizeof(uint64_t)) {
    return Corrupt("meta section has the wrong size");
  }
  uint64_t meta[kMetaFieldCount];
  std::memcpy(meta, sections[kSectionMeta].data, sizeof(meta));
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

  // --- String pools ------------------------------------------------------
  StringPool entity_names, type_names, surface_names;
  EGP_ASSIGN_OR_RETURN(
      entity_names, ParseStringTable(sections[kSectionEntityNames],
                                     "entity names", num_entities));
  EGP_ASSIGN_OR_RETURN(type_names,
                       ParseStringTable(sections[kSectionTypeNames],
                                        "type names", num_types));
  EGP_ASSIGN_OR_RETURN(
      surface_names,
      ParseStringTable(sections[kSectionSurfaceNames], "surface names",
                       meta[kMetaNumSurfaceNames]));

  // --- Relationship types ------------------------------------------------
  if (sections[kSectionRelTypes].size !=
      num_rel_types * sizeof(RelTypeRecord)) {
    return Corrupt("relationship type section has the wrong size");
  }
  std::vector<RelTypeInfo> rel_types;
  rel_types.reserve(num_rel_types);
  // The builder dedups relationship types by their identity triple;
  // re-validate rather than trust the file (a duplicate would give two
  // RelTypeIds with the same identity — a graph no builder can produce).
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> rel_identities;
  for (uint64_t r = 0; r < num_rel_types; ++r) {
    RelTypeRecord record;
    std::memcpy(&record,
                sections[kSectionRelTypes].data + r * sizeof(RelTypeRecord),
                sizeof(record));
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
  std::vector<std::vector<TypeId>> entity_types;
  EGP_ASSIGN_OR_RETURN(
      entity_types,
      ParseListCsr(sections[kSectionEntityTypes], "entity types",
                   num_entities, static_cast<uint32_t>(num_types)));
  std::vector<std::vector<EntityId>> type_members;
  EGP_ASSIGN_OR_RETURN(
      type_members,
      ParseListCsr(sections[kSectionTypeMembers], "type members", num_types,
                   static_cast<uint32_t>(num_entities)));
  // The two sections must be mutual inverses: every stored member pair
  // must appear in the entity's type list, and the pair totals must
  // match (both sides are duplicate-free, so equal totals + one-way
  // containment is a bijection).
  uint64_t assertion_total = 0;
  for (const auto& types : entity_types) assertion_total += types.size();
  uint64_t member_total = 0;
  for (TypeId t = 0; t < type_members.size(); ++t) {
    member_total += type_members[t].size();
    for (const EntityId e : type_members[t]) {
      const auto& types = entity_types[e];
      if (std::find(types.begin(), types.end(), t) == types.end()) {
        return Corrupt("type member list disagrees with entity type list");
      }
    }
  }
  if (assertion_total != member_total) {
    return Corrupt("type membership totals disagree");
  }

  // --- CSR ---------------------------------------------------------------
  const auto csr_u64 = [&](SnapshotSectionId id, const char* name,
                           uint64_t count) -> Result<std::span<const uint64_t>> {
    if (sections[id].size != count * sizeof(uint64_t)) {
      return Corrupt(std::string(name) + " section has the wrong size");
    }
    return std::span<const uint64_t>(
        reinterpret_cast<const uint64_t*>(sections[id].data),
        static_cast<size_t>(count));
  };
  const auto csr_arcs = [&](SnapshotSectionId id, const char* name)
      -> Result<std::span<const FrozenGraph::Arc>> {
    if (sections[id].size != num_edges * sizeof(FrozenGraph::Arc)) {
      return Corrupt(std::string(name) + " section has the wrong size");
    }
    return std::span<const FrozenGraph::Arc>(
        reinterpret_cast<const FrozenGraph::Arc*>(sections[id].data),
        static_cast<size_t>(num_edges));
  };
  std::span<const uint64_t> out_offsets, in_offsets;
  std::span<const FrozenGraph::Arc> out_arcs, in_arcs;
  EGP_ASSIGN_OR_RETURN(
      out_offsets, csr_u64(kSectionOutOffsets, "out offsets",
                           num_entities + 1));
  EGP_ASSIGN_OR_RETURN(
      in_offsets, csr_u64(kSectionInOffsets, "in offsets", num_entities + 1));
  EGP_ASSIGN_OR_RETURN(out_arcs, csr_arcs(kSectionOutArcs, "out arcs"));
  EGP_ASSIGN_OR_RETURN(in_arcs, csr_arcs(kSectionInArcs, "in arcs"));

  FrozenGraph adjacency;
  EGP_ASSIGN_OR_RETURN(
      adjacency,
      FrozenGraph::FromCsr(num_entities, num_rel_types, out_offsets,
                           in_offsets, out_arcs, in_arcs,
                           std::move(backing)));
  // FromCsr proved the arrays well-formed and each other's transpose, so
  // every edge is one out-arc. The §2 invariant: an edge's endpoints
  // carry the endpoint types of its relationship type
  // (EntityGraphBuilder::AddEdge enforces this at build time; re-validate
  // rather than trust the file).
  const auto has_type = [&entity_types](EntityId e, TypeId t) {
    const auto& types = entity_types[e];
    return std::find(types.begin(), types.end(), t) != types.end();
  };
  for (EntityId src = 0; src < num_entities; ++src) {
    for (const FrozenGraph::Arc& arc : adjacency.OutArcs(src)) {
      const RelTypeInfo& info = rel_types[arc.rel_type];
      if (!has_type(src, info.src_type) ||
          !has_type(arc.neighbor, info.dst_type)) {
        return Corrupt("arc endpoint lacks its relationship type's "
                       "endpoint type");
      }
    }
  }
  StoredGraph stored;
  stored.graph = GraphAssembler::Assemble(
      std::move(entity_names), std::move(type_names),
      std::move(surface_names), std::move(rel_types),
      std::move(entity_types), std::move(type_members),
      std::move(adjacency));
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
