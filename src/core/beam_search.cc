#include "core/beam_search.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/strings.h"
#include "core/compose.h"
#include "core/key_sets.h"

namespace egp {
namespace {

/// One beam level: sorted key tuples of one arity, stored flat as
/// eligible indices (ascending indices are ascending TypeIds), with their
/// optimistic scores once scored.
struct Level {
  uint32_t arity = 0;
  std::vector<uint32_t> flat;
  std::vector<double> scores;

  size_t count() const { return arity == 0 ? 0 : flat.size() / arity; }
  const uint32_t* tuple(size_t i) const { return &flat[i * arity]; }
  bool Less(size_t a, size_t b) const {
    return std::lexicographical_compare(tuple(a), tuple(a) + arity, tuple(b),
                                        tuple(b) + arity);
  }
  /// The beam order: score descending, keys ascending.
  bool Better(size_t a, size_t b) const {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return Less(a, b);
  }
};

/// The buffers of one discovery call, reused by every level and attempt.
class BeamSearch {
 public:
  BeamSearch(const PreparedSchema& prepared, const SizeConstraint& size,
             const std::vector<TypeId>& eligible,
             const CompatibilityRows& rows)
      : prepared_(prepared),
        size_(size),
        eligible_(eligible),
        rows_(rows),
        scorer_(prepared, size.n),
        keys_(size.k),
        cand_(rows.words()) {}

  Result<Preview> Attempt(uint32_t beam_width, DiscoveryStats* stats) {
    // Level 1: every singleton, kept untrimmed. Under sparse constraints
    // (e.g. diverse with large d) the feasible sets often avoid the
    // highest-scoring types, and trimming singletons would lose
    // feasibility entirely. The beam narrows from level 2 on.
    level_.arity = 1;
    level_.flat.resize(eligible_.size());
    std::iota(level_.flat.begin(), level_.flat.end(), 0u);
    Score(&level_, stats);
    for (uint32_t arity = 2; arity <= size_.k; ++arity) {
      if (arity == 2) {
        AllPairs(&level_);
      } else {
        Extend(&level_);
      }
      if (level_.count() == 0) {
        return Status::NotFound(
            "beam search found no k-subset satisfying the constraint");
      }
      Score(&level_, stats);
      Trim(&level_, beam_width);
    }
    stats->subsets_scored = stats->subsets_enumerated;
    Trim(&level_, 1);  // level 1 comes untrimmed when k = 1
    return ComposePreview(prepared_, Keys(level_, 0), size_.n);
  }

 private:
  const std::vector<TypeId>& Keys(const Level& level, size_t i) {
    const uint32_t* tuple = level.tuple(i);
    for (uint32_t m = 0; m < level.arity; ++m) keys_[m] = eligible_[tuple[m]];
    return keys_;
  }

  void Score(Level* level, DiscoveryStats* stats) {
    const size_t count = level->count();
    level->scores.resize(count);
    for (size_t i = 0; i < count; ++i) {
      level->scores[i] = scorer_.Score(Keys(*level, i).data(), level->arity);
    }
    stats->subsets_enumerated += count;
  }

  /// Level 2 from the untrimmed level 1: every compatible pair, already
  /// in order and without duplicates.
  void AllPairs(Level* level) {
    level->arity = 2;
    level->flat.clear();
    const size_t words = rows_.words();
    for (uint32_t i = 0; i < eligible_.size(); ++i) {
      const uint64_t* row = rows_.row(i);
      for (size_t w = (i + 1) / 64; w < words; ++w) {
        uint64_t word = row[w];
        if (w == (i + 1) / 64) word &= ~uint64_t{0} << ((i + 1) % 64);
        for (; word != 0; word &= word - 1) {
          level->flat.push_back(i);
          level->flat.push_back(
              static_cast<uint32_t>(w * 64 + std::countr_zero(word)));
        }
      }
    }
  }

  /// The next level: every kept tuple extended by each type compatible
  /// with all its members, duplicates (one set reached from two tuples)
  /// dropped by sort-and-unique.
  void Extend(Level* level) {
    const uint32_t arity = level->arity;
    const size_t words = rows_.words();
    spare_.flat.clear();
    for (size_t p = 0; p < level->count(); ++p) {
      const uint32_t* members = level->tuple(p);
      std::copy(rows_.row(members[0]), rows_.row(members[0]) + words,
                cand_.begin());
      for (uint32_t m = 1; m < arity; ++m) {
        const uint64_t* row = rows_.row(members[m]);
        for (size_t w = 0; w < words; ++w) cand_[w] &= row[w];
      }
      for (size_t w = 0; w < words; ++w) {
        for (uint64_t word = cand_[w]; word != 0; word &= word - 1) {
          const uint32_t t =
              static_cast<uint32_t>(w * 64 + std::countr_zero(word));
          const uint32_t* at = std::lower_bound(members, members + arity, t);
          spare_.flat.insert(spare_.flat.end(), members, at);
          spare_.flat.push_back(t);
          spare_.flat.insert(spare_.flat.end(), at, members + arity);
        }
      }
    }
    spare_.arity = arity + 1;
    order_.resize(spare_.count());
    std::iota(order_.begin(), order_.end(), 0u);
    std::sort(order_.begin(), order_.end(),
              [this](uint32_t a, uint32_t b) { return spare_.Less(a, b); });
    level->arity = arity + 1;
    level->flat.clear();
    for (size_t i = 0; i < order_.size(); ++i) {
      if (i > 0 && !spare_.Less(order_[i - 1], order_[i])) continue;
      const uint32_t* tuple = spare_.tuple(order_[i]);
      level->flat.insert(level->flat.end(), tuple, tuple + arity + 1);
    }
  }

  /// Keeps the best `width` tuples, best first.
  void Trim(Level* level, uint32_t width) {
    const size_t count = level->count();
    const size_t keep = std::min<size_t>(width, count);
    order_.resize(count);
    std::iota(order_.begin(), order_.end(), 0u);
    std::partial_sort(
        order_.begin(), order_.begin() + keep, order_.end(),
        [level](uint32_t a, uint32_t b) { return level->Better(a, b); });
    spare_.arity = level->arity;
    spare_.flat.clear();
    spare_.scores.clear();
    for (size_t i = 0; i < keep; ++i) {
      const uint32_t* tuple = level->tuple(order_[i]);
      spare_.flat.insert(spare_.flat.end(), tuple, tuple + level->arity);
      spare_.scores.push_back(level->scores[order_[i]]);
    }
    std::swap(*level, spare_);
  }

  const PreparedSchema& prepared_;
  const SizeConstraint size_;
  const std::vector<TypeId>& eligible_;
  const CompatibilityRows& rows_;
  SubsetScorer scorer_;
  std::vector<TypeId> keys_;
  std::vector<uint64_t> cand_;
  Level level_;
  Level spare_;
  std::vector<uint32_t> order_;
};

}  // namespace

Result<Preview> BeamSearchDiscover(const PreparedSchema& prepared,
                                   const SizeConstraint& size,
                                   const DistanceConstraint& distance,
                                   const BeamSearchOptions& options,
                                   DiscoveryStats* stats) {
  const uint32_t k = size.k;
  auto fail = [stats](Status status) {
    if (stats != nullptr) *stats = DiscoveryStats{};
    return status;
  };
  if (k == 0) return fail(Status::InvalidArgument("k must be positive"));
  if (size.n < k) {
    return fail(Status::InvalidArgument(
        StrFormat("n=%u < k=%u: every table needs one non-key attribute",
                  size.n, k)));
  }
  if (options.beam_width == 0) {
    return fail(Status::InvalidArgument("beam_width must be positive"));
  }
  const std::vector<TypeId> eligible = EligibleKeyTypes(prepared);
  if (eligible.size() < k) {
    return fail(Status::NotFound(StrFormat(
        "only %zu eligible key types, need k=%u", eligible.size(), k)));
  }

  const CompatibilityRows rows(prepared, distance, eligible);
  BeamSearch search(prepared, size, eligible, rows);
  uint32_t beam_width = options.beam_width;
  DiscoveryStats accumulated;
  for (;;) {
    DiscoveryStats local;
    auto preview = search.Attempt(beam_width, &local);
    accumulated.subsets_enumerated += local.subsets_enumerated;
    accumulated.subsets_scored += local.subsets_scored;
    const bool dead_end =
        !preview.ok() && preview.status().code() == StatusCode::kNotFound;
    if (!dead_end || beam_width >= options.max_beam_width) {
      if (stats != nullptr) *stats = accumulated;
      return preview;
    }
    // Widen and retry: rare feasible sets under sparse constraints tend
    // to avoid the highest-scoring types the narrow beam keeps.
    beam_width = std::min(options.max_beam_width, beam_width * 4);
  }
}

}  // namespace egp
