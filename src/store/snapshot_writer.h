// Writer side of the .egps snapshot store (see format.h for the layout).
//
// A snapshot is written from an EntityGraph; its name tables, membership
// lists and CSR adjacency arrays land in the file exactly as they lie in
// memory, which is what makes the mmap open zero-copy.
#ifndef EGP_STORE_SNAPSHOT_WRITER_H_
#define EGP_STORE_SNAPSHOT_WRITER_H_

#include <iosfwd>
#include <string>

#include "common/result.h"
#include "graph/entity_graph.h"

namespace egp {

/// Serializes `graph`. The stream must be binary.
Status WriteSnapshot(const EntityGraph& graph, std::ostream& out);

Status WriteSnapshotFile(const EntityGraph& graph, const std::string& path);

}  // namespace egp

#endif  // EGP_STORE_SNAPSHOT_WRITER_H_
