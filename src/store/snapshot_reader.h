// Reader side of the .egps snapshot store (see format.h for the layout).
//
// Two open paths:
//   - kStream: one sequential read of the file into a heap buffer; the
//     graph is served from that buffer. No mmap involved — works on
//     filesystems/containers where mapping is undesirable.
//   - kMmap: the file is mapped read-only and the graph's spans point
//     straight into the mapping (zero-copy): pages fault in on demand,
//     live in the shared page cache, and any number of server processes
//     serving the same snapshot share one physical copy.
//
// Either way the graph's names, type membership lists and CSR adjacency
// are the file's own sections, viewed in place; the only heap an open
// adds is the relationship types and one hash index per name table.
// Every section is validated — magic, version, endianness, size,
// checksums, offsets, id bounds, unique names, duplicate-free and
// mutually inverse membership lists, CSR monotonicity, sortedness and
// transposition, edge endpoint types — before anything is trusted, so a
// corrupt, truncated or wrong-version file yields a clean Status, never
// undefined behaviour.
#ifndef EGP_STORE_SNAPSHOT_READER_H_
#define EGP_STORE_SNAPSHOT_READER_H_

#include <cstdint>
#include <span>
#include <string>

#include "common/result.h"
#include "graph/entity_graph.h"

namespace egp {

/// A loaded snapshot. The graph views the snapshot bytes, and its arrays
/// are bit-identical to what EntityGraphBuilder::Build() builds.
struct StoredGraph {
  EntityGraph graph;
  /// True when the graph views a file mapping (kMmap open).
  bool zero_copy = false;
};

struct SnapshotOpenOptions {
  enum class Mode { kMmap, kStream };
  Mode mode = Mode::kMmap;
  /// Verify every section's FNV-1a checksum on open. Costs one pass over
  /// the file; disable only for trusted local files where open latency
  /// matters more than corruption detection.
  bool verify_checksums = true;
};

Result<StoredGraph> OpenSnapshot(const std::string& path,
                                 const SnapshotOpenOptions& options = {});

/// Parses a snapshot image already in memory. `backing` must keep the
/// bytes alive; the returned graph views them. The image base
/// must be 8-byte aligned (mmap and heap allocations always are) —
/// every array is served in place; a misaligned base is rejected with
/// InvalidArgument, never read misaligned.
Result<StoredGraph> OpenSnapshotBytes(std::span<const uint8_t> bytes,
                                      std::shared_ptr<const void> backing,
                                      bool verify_checksums = true);

/// True iff `bytes` starts with the .egps magic.
bool BytesHaveSnapshotMagic(std::span<const uint8_t> bytes);

/// Sniffs the first bytes of `path` for the .egps magic; IOError when
/// the file cannot be read at all.
Result<bool> FileHasSnapshotMagic(const std::string& path);

}  // namespace egp

#endif  // EGP_STORE_SNAPSHOT_READER_H_
