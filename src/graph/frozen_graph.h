// FrozenGraph: the CSR (compressed sparse row) adjacency of an entity
// graph, and EntityGraph's only index over its edges.
//
// (neighbour, relationship-type) pairs lie contiguously per entity, in
// both directions, sorted so each relationship's run is contiguous and
// neighbour-sorted: the t.γ value sets of a preview table's tuples are
// slices.
//
// Storage is reference-counted: the four CSR arrays live behind a shared
// backing object, so copying a FrozenGraph is a cheap handle copy. The
// backing is either arrays built by Freeze() or externally owned memory
// wrapped by FromCsr() — the zero-copy path the .egps snapshot store
// (src/store/) uses to serve adjacency straight out of a mapped file.
#ifndef EGP_GRAPH_FROZEN_GRAPH_H_
#define EGP_GRAPH_FROZEN_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "graph/ids.h"

namespace egp {

class FrozenGraph {
 public:
  /// One adjacency entry: the neighbouring entity and the relationship
  /// type of the connecting edge.
  struct Arc {
    EntityId neighbor;
    RelTypeId rel_type;
  };

  FrozenGraph() = default;

  /// O(V + E): counts, prefix sums, one fill pass per direction, then
  /// one sort per entity run. `edges` endpoints must be below
  /// `num_entities`.
  static FrozenGraph Freeze(size_t num_entities,
                            std::span<const EdgeRecord> edges);

  /// Wraps externally owned CSR arrays without copying (the mmap'd .egps
  /// open path). `backing` keeps the memory the spans point into alive
  /// for the lifetime of every handle. Validates the invariants the
  /// accessors rely on — offset arrays of size `num_entities + 1`,
  /// offsets monotonically non-decreasing and ending at the arc counts,
  /// arcs in bounds (`neighbor < num_entities`, `rel_type <
  /// num_rel_types`) and each entity's run sorted by (rel_type,
  /// neighbor) — so corrupt input yields a Status, never UB later. The
  /// in-arcs must also be the out-arcs transposed: O(E), by an
  /// order-independent fingerprint of the (source, destination,
  /// rel_type) multisets, so two well-formed halves of different graphs
  /// are rejected too.
  static Result<FrozenGraph> FromCsr(size_t num_entities,
                                     size_t num_rel_types,
                                     std::span<const uint64_t> out_offsets,
                                     std::span<const uint64_t> in_offsets,
                                     std::span<const Arc> out_arcs,
                                     std::span<const Arc> in_arcs,
                                     std::shared_ptr<const void> backing);

  size_t num_entities() const { return num_entities_; }
  size_t num_arcs() const { return out_arcs_.size(); }

  /// Outgoing / incoming arcs of an entity, sorted by (rel_type,
  /// neighbor) so per-relationship runs are contiguous and value sets
  /// come out pre-sorted.
  std::span<const Arc> OutArcs(EntityId e) const;
  std::span<const Arc> InArcs(EntityId e) const;

  size_t OutDegree(EntityId e) const { return OutArcs(e).size(); }
  size_t InDegree(EntityId e) const { return InArcs(e).size(); }

  /// t.γ(τ,τ') / t.γ(τ',τ): the neighbours of `e` through edges of
  /// `rel_type` in the given direction. Deduplicated, sorted.
  std::vector<EntityId> NeighborSet(EntityId e, RelTypeId rel_type,
                                    Direction direction) const;

  /// The contiguous run of `e`'s arcs of one relationship type (arcs are
  /// sorted by (rel_type, neighbor), so the run is neighbor-sorted and
  /// multigraph repeats are adjacent). Zero-copy: the scan-heavy scoring
  /// loops read value sets straight out of the CSR through this.
  std::span<const Arc> RelArcs(EntityId e, RelTypeId rel_type,
                               Direction direction) const;

  /// Resident footprint of the CSR arrays, in bytes (for a FromCsr view
  /// this counts the backing bytes viewed, e.g. mapped file pages).
  size_t MemoryBytes() const;

  /// Raw array access for serialization (the .egps snapshot writer).
  std::span<const uint64_t> out_offsets() const { return out_offsets_; }
  std::span<const uint64_t> in_offsets() const { return in_offsets_; }
  std::span<const Arc> out_arcs() const { return out_arcs_; }
  std::span<const Arc> in_arcs() const { return in_arcs_; }

  /// Whether this handle views externally owned memory (FromCsr) rather
  /// than arrays built by Freeze.
  bool is_view() const { return view_; }

 private:
  struct OwnedArrays {
    std::vector<uint64_t> out_offsets;
    std::vector<uint64_t> in_offsets;
    std::vector<Arc> out_arcs;
    std::vector<Arc> in_arcs;
  };

  size_t num_entities_ = 0;
  bool view_ = false;
  std::span<const uint64_t> out_offsets_;  // num_entities_ + 1
  std::span<const uint64_t> in_offsets_;
  std::span<const Arc> out_arcs_;
  std::span<const Arc> in_arcs_;
  // Owns whatever the spans point into: OwnedArrays for Freeze results,
  // caller-supplied memory (a mapped snapshot) for FromCsr views.
  std::shared_ptr<const void> backing_;
};

}  // namespace egp

#endif  // EGP_GRAPH_FROZEN_GRAPH_H_
