#include "store/snapshot_writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <vector>

#include "common/fault.h"
#include "common/posix.h"
#include "store/format.h"

namespace egp {
namespace {

/// Destination for the serialized snapshot bytes. Two implementations:
/// an ostream (the in-memory/test path) and a raw fd (the durable
/// file path, where writes go through the EINTR-retrying, fault-
/// injectable PosixWrite).
class ByteSink {
 public:
  virtual ~ByteSink() = default;
  virtual Status Write(const void* data, size_t size) = 0;
};

class OstreamSink final : public ByteSink {
 public:
  explicit OstreamSink(std::ostream& out) : out_(out) {}
  Status Write(const void* data, size_t size) override {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(size));
    if (!out_) return Status::IOError("snapshot write failed");
    return Status::OK();
  }

 private:
  std::ostream& out_;
};

class FdSink final : public ByteSink {
 public:
  explicit FdSink(int fd) : fd_(fd) {}
  Status Write(const void* data, size_t size) override {
    // write(2) may be short (and the injector forces it to be): loop
    // until the buffer drains or a real error surfaces.
    const char* p = static_cast<const char*>(data);
    size_t remaining = size;
    while (remaining > 0) {
      const ssize_t n = PosixWrite(fd_, p, remaining, "store.write");
      if (n < 0) {
        return Status::IOError(std::string("snapshot write failed: ") +
                               std::strerror(errno));
      }
      p += n;
      remaining -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

 private:
  int fd_;
};

/// One section payload as a list of contiguous chunks; length and
/// checksum are computed over the concatenation, so large arrays are
/// written straight from library memory without a staging copy.
struct SectionChunks {
  uint32_t id = 0;
  std::vector<std::pair<const void*, size_t>> chunks;

  void Add(const void* data, size_t size) {
    if (size > 0) chunks.emplace_back(data, size);
  }
  size_t Length() const {
    size_t total = 0;
    for (const auto& [data, size] : chunks) total += size;
    return total;
  }
  uint64_t Checksum() const {
    uint64_t hash = kFnvOffsetBasis;
    for (const auto& [data, size] : chunks) hash = Fnv1a64(data, size, hash);
    return hash;
  }
};

/// A count + offsets + values section (a name table or a membership
/// list), written straight from the graph's arrays. `count` points into
/// the meta array, which outlives the emit.
template <typename T>
void AddCsr(SectionChunks* section, const uint64_t& count,
            const FlatLists<T>& lists) {
  section->Add(&count, sizeof(count));
  section->Add(lists.offsets.data(), lists.offsets.size_bytes());
  section->Add(lists.values.data(), lists.values.size_bytes());
}

constexpr char kPadding[8] = {0};

size_t AlignUp8(size_t value) { return (value + 7) & ~size_t{7}; }

/// Stages, lays out, and emits the whole snapshot into `sink`.
Status EmitSnapshot(const EntityGraph& graph, ByteSink& sink) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Unimplemented(
        ".egps snapshots are little-endian only; this host is big-endian");
  }
  if (graph.num_entities() == 0) {
    return Status::InvalidArgument("refusing to snapshot an empty graph");
  }
  const FrozenGraph& adjacency = graph.adjacency();

  // --- Stage meta and the relationship-type records ------------------
  uint64_t meta[kMetaFieldCount] = {};
  meta[kMetaNumEntities] = graph.num_entities();
  meta[kMetaNumEdges] = graph.num_edges();
  meta[kMetaNumTypes] = graph.num_types();
  meta[kMetaNumRelTypes] = graph.num_rel_types();
  meta[kMetaNumSurfaceNames] = graph.surface_names().size();
  meta[kMetaNumOutArcs] = adjacency.out_arcs().size();
  meta[kMetaNumInArcs] = adjacency.in_arcs().size();

  std::vector<RelTypeRecord> rel_types;
  rel_types.reserve(graph.num_rel_types());
  for (RelTypeId r = 0; r < graph.num_rel_types(); ++r) {
    const RelTypeInfo& info = graph.RelType(r);
    rel_types.push_back(
        RelTypeRecord{info.surface_name, info.src_type, info.dst_type});
  }

  // --- Assemble the section list (ids in TOC order) --------------------
  std::vector<SectionChunks> sections(kSnapshotSectionCount);
  sections[0].id = kSectionMeta;
  sections[0].Add(meta, sizeof(meta));
  sections[1].id = kSectionEntityNames;
  AddCsr(&sections[1], meta[kMetaNumEntities], graph.entity_names().lists());
  sections[2].id = kSectionTypeNames;
  AddCsr(&sections[2], meta[kMetaNumTypes], graph.type_names().lists());
  sections[3].id = kSectionSurfaceNames;
  AddCsr(&sections[3], meta[kMetaNumSurfaceNames],
         graph.surface_names().lists());
  sections[4].id = kSectionRelTypes;
  sections[4].Add(rel_types.data(), rel_types.size() * sizeof(RelTypeRecord));
  sections[5].id = kSectionEntityTypes;
  AddCsr(&sections[5], meta[kMetaNumEntities], graph.entity_types());
  sections[6].id = kSectionTypeMembers;
  AddCsr(&sections[6], meta[kMetaNumTypes], graph.type_members());
  sections[7].id = kSectionOutOffsets;
  sections[7].Add(adjacency.out_offsets().data(),
                  adjacency.out_offsets().size() * sizeof(uint64_t));
  sections[8].id = kSectionInOffsets;
  sections[8].Add(adjacency.in_offsets().data(),
                  adjacency.in_offsets().size() * sizeof(uint64_t));
  sections[9].id = kSectionOutArcs;
  sections[9].Add(adjacency.out_arcs().data(),
                  adjacency.out_arcs().size() * sizeof(FrozenGraph::Arc));
  sections[10].id = kSectionInArcs;
  sections[10].Add(adjacency.in_arcs().data(),
                   adjacency.in_arcs().size() * sizeof(FrozenGraph::Arc));

  // --- Lay out the TOC --------------------------------------------------
  std::vector<SectionEntry> toc(sections.size());
  size_t offset = AlignUp8(sizeof(SnapshotHeader) +
                           sections.size() * sizeof(SectionEntry));
  for (size_t i = 0; i < sections.size(); ++i) {
    toc[i].id = sections[i].id;
    toc[i].reserved = 0;
    toc[i].offset = offset;
    toc[i].length = sections[i].Length();
    toc[i].checksum = sections[i].Checksum();
    offset = AlignUp8(offset + toc[i].length);
  }

  SnapshotHeader header;
  std::memcpy(header.magic, kSnapshotMagic, sizeof(header.magic));
  header.version = kSnapshotVersion;
  header.endian_tag = kSnapshotEndianTag;
  header.file_bytes = offset;
  header.section_count = static_cast<uint32_t>(sections.size());
  header.reserved = 0;
  header.toc_checksum =
      Fnv1a64(toc.data(), toc.size() * sizeof(SectionEntry));

  // --- Emit --------------------------------------------------------------
  EGP_RETURN_IF_ERROR(sink.Write(&header, sizeof(header)));
  EGP_RETURN_IF_ERROR(
      sink.Write(toc.data(), toc.size() * sizeof(SectionEntry)));
  size_t written = sizeof(header) + toc.size() * sizeof(SectionEntry);
  for (size_t i = 0; i < sections.size(); ++i) {
    if (written < toc[i].offset) {
      EGP_RETURN_IF_ERROR(sink.Write(kPadding, toc[i].offset - written));
      written = toc[i].offset;
    }
    for (const auto& [data, size] : sections[i].chunks) {
      EGP_RETURN_IF_ERROR(sink.Write(data, size));
      written += size;
    }
  }
  if (written < header.file_bytes) {
    EGP_RETURN_IF_ERROR(sink.Write(kPadding, header.file_bytes - written));
  }
  return Status::OK();
}

/// fsyncs `path` (a file or directory) so the write/rename is durable
/// before we report success. No fault site: by the time the directory
/// sync runs the rename is already visible, so a failure here could not
/// honor "old snapshot left intact" anyway.
Status SyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open for fsync: " + path + ": " +
                           std::strerror(errno));
  }
  const int rc = PosixFsync(fd);
  const int fsync_errno = errno;  // close() may clobber errno
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync failed: " + path + ": " +
                           std::strerror(fsync_errno));
  }
  return Status::OK();
}

}  // namespace

Status WriteSnapshot(const EntityGraph& graph, std::ostream& out) {
  OstreamSink sink(out);
  EGP_RETURN_IF_ERROR(EmitSnapshot(graph, sink));
  out.flush();
  if (!out) return Status::IOError("snapshot write failed");
  return Status::OK();
}

Status WriteSnapshotFile(const EntityGraph& graph, const std::string& path) {
  // Write temp + fsync + rename + fsync(dir), never truncate in place:
  // a running server may be serving `path` through a MAP_SHARED mapping
  // (the old inode survives the rename untouched), and neither a crash,
  // a full disk, nor a power loss mid-replace may destroy the previous
  // good snapshot — the data blocks are durable before the rename
  // becomes visible. Every failure path removes the temp file.
  const std::string temp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = PosixOpen(temp.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644,
                           "store.open");
  if (fd < 0) {
    return Status::IOError("cannot open for writing: " + temp + ": " +
                           std::strerror(errno));
  }
  {
    FdSink sink(fd);
    const Status written = EmitSnapshot(graph, sink);
    if (!written.ok()) {
      ::close(fd);
      std::remove(temp.c_str());
      return written;
    }
  }
  if (PosixFsync(fd, "store.fsync") != 0) {
    const Status failed = Status::IOError("fsync failed: " + temp + ": " +
                                          std::strerror(errno));
    ::close(fd);
    std::remove(temp.c_str());
    return failed;
  }
  ::close(fd);
  if (const FaultOutcome fault = FaultCheck("store.rename");
      fault.kind != FaultOutcome::Kind::kNone) {
    errno = fault.kind == FaultOutcome::Kind::kErrno ? fault.err : EIO;
    const Status failed = Status::IOError(
        "cannot rename " + temp + " to " + path + ": " +
        std::strerror(errno));
    std::remove(temp.c_str());
    return failed;
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    const Status failed = Status::IOError(
        "cannot rename " + temp + " to " + path + ": " +
        std::strerror(errno));
    std::remove(temp.c_str());
    return failed;
  }
  // Make the rename itself durable. Best-effort semantics are not
  // enough here — the whole point of the dance is crash safety.
  const size_t slash = path.find_last_of('/');
  return SyncPath(slash == std::string::npos ? "."
                                             : path.substr(0, slash + 1));
}

}  // namespace egp
