#include "graph/frozen_graph.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.h"
#include "common/strings.h"

namespace egp {
namespace {

/// (rel_type, neighbor) order. On little-endian targets an Arc — laid
/// out {neighbor, rel_type} — packs into one uint64 with rel_type in the
/// high half, whose numeric order is exactly (rel_type, neighbor); the
/// hot per-entity sorts then compare single scalars instead of two
/// fields with a branch.
static_assert(sizeof(FrozenGraph::Arc) == 8);

bool ArcLess(const FrozenGraph::Arc& a, const FrozenGraph::Arc& b) {
  if constexpr (std::endian::native == std::endian::little) {
    return std::bit_cast<uint64_t>(a) < std::bit_cast<uint64_t>(b);
  } else {
    if (a.rel_type != b.rel_type) return a.rel_type < b.rel_type;
    return a.neighbor < b.neighbor;
  }
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Order-independent fingerprint contribution of one edge; summed with
/// wraparound so any multiset difference shifts the total.
uint64_t MixEdge(uint32_t src, uint32_t dst, uint32_t rel_type) {
  return SplitMix64((static_cast<uint64_t>(src) << 32 | dst) ^
                    SplitMix64(rel_type));
}

/// Shape + bounds check of one direction's (offsets, arcs) pair; `label`
/// names the direction in error messages.
Status ValidateCsrSide(const char* label, size_t num_entities,
                       size_t num_rel_types,
                       std::span<const uint64_t> offsets,
                       std::span<const FrozenGraph::Arc> arcs) {
  if (offsets.size() != num_entities + 1) {
    return Status::Corruption(StrFormat(
        "%s offsets: %zu entries for %zu entities (want %zu)", label,
        offsets.size(), num_entities, num_entities + 1));
  }
  if (offsets[0] != 0) {
    return Status::Corruption(
        StrFormat("%s offsets do not start at 0", label));
  }
  if (offsets[num_entities] != arcs.size()) {
    return Status::Corruption(StrFormat(
        "%s offsets end at %llu but there are %zu arcs", label,
        (unsigned long long)offsets[num_entities], arcs.size()));
  }
  // The whole offset table must be proven monotone BEFORE any
  // offsets[i]-based arc access: monotone + back() == arcs.size()
  // bounds every entry, whereas interleaving the check with the scan
  // would read arcs[a] out of bounds for a large entry whose decrease
  // only shows up later.
  for (size_t i = 0; i < num_entities; ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::Corruption(StrFormat(
          "%s offsets decrease at entity %zu", label, i));
    }
  }
  for (size_t i = 0; i < num_entities; ++i) {
    for (uint64_t a = offsets[i]; a < offsets[i + 1]; ++a) {
      const FrozenGraph::Arc& arc = arcs[a];
      if (arc.neighbor >= num_entities || arc.rel_type >= num_rel_types) {
        return Status::Corruption(StrFormat(
            "%s arc %llu of entity %zu out of range", label,
            (unsigned long long)a, i));
      }
      if (a > offsets[i] && ArcLess(arc, arcs[a - 1])) {
        return Status::Corruption(StrFormat(
            "%s arcs of entity %zu not sorted by (rel_type, neighbor)",
            label, i));
      }
    }
  }
  return Status::OK();
}

}  // namespace

FrozenGraph FrozenGraph::Freeze(size_t num_entities,
                                std::span<const EdgeRecord> edges) {
  auto arrays = std::make_shared<OwnedArrays>();
  const size_t n = num_entities;
  arrays->out_offsets.assign(n + 1, 0);
  arrays->in_offsets.assign(n + 1, 0);

  for (const EdgeRecord& e : edges) {
    ++arrays->out_offsets[e.src + 1];
    ++arrays->in_offsets[e.dst + 1];
  }
  for (size_t i = 0; i < n; ++i) {
    arrays->out_offsets[i + 1] += arrays->out_offsets[i];
    arrays->in_offsets[i + 1] += arrays->in_offsets[i];
  }

  arrays->out_arcs.resize(edges.size());
  arrays->in_arcs.resize(edges.size());
  std::vector<uint64_t> out_cursor(arrays->out_offsets.begin(),
                                   arrays->out_offsets.end() - 1);
  std::vector<uint64_t> in_cursor(arrays->in_offsets.begin(),
                                  arrays->in_offsets.end() - 1);
  for (const EdgeRecord& e : edges) {
    arrays->out_arcs[out_cursor[e.src]++] = Arc{e.dst, e.rel_type};
    arrays->in_arcs[in_cursor[e.dst]++] = Arc{e.src, e.rel_type};
  }

  // Sort each entity's run by (rel_type, neighbor): per-relationship
  // slices become contiguous and pre-sorted.
  for (size_t i = 0; i < n; ++i) {
    std::sort(arrays->out_arcs.begin() + arrays->out_offsets[i],
              arrays->out_arcs.begin() + arrays->out_offsets[i + 1], ArcLess);
    std::sort(arrays->in_arcs.begin() + arrays->in_offsets[i],
              arrays->in_arcs.begin() + arrays->in_offsets[i + 1], ArcLess);
  }

  FrozenGraph frozen;
  frozen.num_entities_ = n;
  frozen.out_offsets_ = arrays->out_offsets;
  frozen.in_offsets_ = arrays->in_offsets;
  frozen.out_arcs_ = arrays->out_arcs;
  frozen.in_arcs_ = arrays->in_arcs;
  frozen.backing_ = std::move(arrays);
  return frozen;
}

Result<FrozenGraph> FrozenGraph::FromCsr(
    size_t num_entities, size_t num_rel_types,
    std::span<const uint64_t> out_offsets,
    std::span<const uint64_t> in_offsets, std::span<const Arc> out_arcs,
    std::span<const Arc> in_arcs, std::shared_ptr<const void> backing) {
  EGP_RETURN_IF_ERROR(ValidateCsrSide("forward", num_entities, num_rel_types,
                                      out_offsets, out_arcs));
  EGP_RETURN_IF_ERROR(ValidateCsrSide("reverse", num_entities, num_rel_types,
                                      in_offsets, in_arcs));
  if (out_arcs.size() != in_arcs.size()) {
    return Status::Corruption(StrFormat(
        "forward/reverse arc counts differ: %zu vs %zu", out_arcs.size(),
        in_arcs.size()));
  }
  uint64_t forward = 0, reverse = 0;
  for (EntityId e = 0; e < num_entities; ++e) {
    for (uint64_t a = out_offsets[e]; a < out_offsets[e + 1]; ++a) {
      forward += MixEdge(e, out_arcs[a].neighbor, out_arcs[a].rel_type);
    }
    for (uint64_t a = in_offsets[e]; a < in_offsets[e + 1]; ++a) {
      reverse += MixEdge(in_arcs[a].neighbor, e, in_arcs[a].rel_type);
    }
  }
  if (forward != reverse) {
    return Status::Corruption(
        "reverse arcs are not the forward arcs transposed");
  }
  FrozenGraph frozen;
  frozen.num_entities_ = num_entities;
  frozen.view_ = true;
  frozen.out_offsets_ = out_offsets;
  frozen.in_offsets_ = in_offsets;
  frozen.out_arcs_ = out_arcs;
  frozen.in_arcs_ = in_arcs;
  frozen.backing_ = std::move(backing);
  return frozen;
}

std::span<const FrozenGraph::Arc> FrozenGraph::OutArcs(EntityId e) const {
  EGP_CHECK(e < num_entities_) << "bad entity id";
  return out_arcs_.subspan(out_offsets_[e], out_offsets_[e + 1] -
                                                out_offsets_[e]);
}

std::span<const FrozenGraph::Arc> FrozenGraph::InArcs(EntityId e) const {
  EGP_CHECK(e < num_entities_) << "bad entity id";
  return in_arcs_.subspan(in_offsets_[e], in_offsets_[e + 1] -
                                              in_offsets_[e]);
}

std::span<const FrozenGraph::Arc> FrozenGraph::RelArcs(
    EntityId e, RelTypeId rel_type, Direction direction) const {
  const std::span<const Arc> arcs =
      direction == Direction::kOutgoing ? OutArcs(e) : InArcs(e);
  // Binary-search the contiguous rel_type run.
  const Arc probe_low{0, rel_type};
  auto begin = std::lower_bound(arcs.begin(), arcs.end(), probe_low, ArcLess);
  auto end = begin;
  while (end != arcs.end() && end->rel_type == rel_type) ++end;
  return {begin, end};
}

std::vector<EntityId> FrozenGraph::NeighborSet(EntityId e, RelTypeId rel_type,
                                               Direction direction) const {
  const std::span<const Arc> run = RelArcs(e, rel_type, direction);
  std::vector<EntityId> out;
  out.reserve(run.size());  // bounds the de-duplicated size: one allocation
  for (const Arc& arc : run) {
    // Runs are sorted by neighbor: dedupe adjacent multigraph repeats.
    if (out.empty() || out.back() != arc.neighbor) {
      out.push_back(arc.neighbor);
    }
  }
  return out;
}

size_t FrozenGraph::MemoryBytes() const {
  return out_offsets_.size() * sizeof(uint64_t) +
         in_offsets_.size() * sizeof(uint64_t) +
         out_arcs_.size() * sizeof(Arc) + in_arcs_.size() * sizeof(Arc);
}

}  // namespace egp
