#include "core/beam_search.h"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <functional>
#include <numeric>

#include "common/strings.h"
#include "core/compose.h"
#include "core/key_sets.h"

namespace egp {
namespace {

/// Marks a generated tuple not yet scored. Every generated key set is
/// feasible, so no score is negative.
constexpr double kUnscored = -1.0;

/// One beam level: sorted key tuples of one arity, stored flat as
/// eligible indices (ascending indices are ascending TypeIds). A
/// generated level carries an upper bound on each tuple's score, and its
/// score once scored; a trimmed level holds scored tuples only.
struct Level {
  uint32_t arity = 0;
  std::vector<uint32_t> flat;
  std::vector<double> bounds;
  std::vector<double> scores;

  size_t count() const { return arity == 0 ? 0 : flat.size() / arity; }
  const uint32_t* tuple(size_t i) const { return &flat[i * arity]; }
  /// The beam order: score descending, keys ascending.
  bool Better(size_t a, size_t b) const {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return std::lexicographical_compare(tuple(a), tuple(a) + arity, tuple(b),
                                        tuple(b) + arity);
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
        // A bound adds two scores and a score sums at most n nonnegative
        // terms, so each lies within 2n·2^-53 of its exact value,
        // relatively.
        slack_(1.0 + std::max(1e-12, 2.0 * DBL_EPSILON * size.n)),
        keys_(size.k),
        cand_(rows.words()) {}

  Result<Preview> Attempt(uint32_t beam_width, DiscoveryStats* stats) {
    scored_ = 0;
    // Level 1: every singleton, scored and kept untrimmed. Under sparse
    // constraints (e.g. diverse with large d) the feasible sets often
    // avoid the highest-scoring types, and trimming singletons would lose
    // feasibility entirely. The beam narrows from level 2 on, and the
    // singleton scores bound every later level.
    level_.arity = 1;
    level_.flat.resize(eligible_.size());
    std::iota(level_.flat.begin(), level_.flat.end(), 0u);
    level_.scores.resize(eligible_.size());
    order_ = level_.flat;  // at arity 1, tuple i is eligible index i
    for (const uint32_t i : order_) Score(&level_, i);
    singles_ = level_.scores;
    stats->subsets_enumerated += level_.count();
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
      stats->subsets_enumerated += level_.count();
      ScoreBest(&level_, beam_width);
      Trim(&level_, beam_width);
    }
    stats->subsets_scored = scored_;
    Trim(&level_, 1);  // level 1 comes untrimmed when k = 1
    return ComposePreview(prepared_, Keys(level_, 0), size_.n);
  }

 private:
  const std::vector<TypeId>& Keys(const Level& level, size_t i) {
    const uint32_t* tuple = level.tuple(i);
    for (uint32_t m = 0; m < level.arity; ++m) keys_[m] = eligible_[tuple[m]];
    return keys_;
  }

  double Score(Level* level, size_t i) {
    ++scored_;
    return level->scores[i] =
               scorer_.Score(Keys(*level, i).data(), level->arity);
  }

  /// Level 2 from the untrimmed level 1: every compatible pair, already
  /// without duplicates, bounded by the sum of its two singleton scores.
  void AllPairs(Level* level) {
    level->arity = 2;
    level->flat.clear();
    level->bounds.clear();
    const size_t words = rows_.words();
    for (uint32_t i = 0; i < eligible_.size(); ++i) {
      const uint64_t* row = rows_.row(i);
      for (size_t w = (i + 1) / 64; w < words; ++w) {
        uint64_t word = row[w];
        if (w == (i + 1) / 64) word &= ~uint64_t{0} << ((i + 1) % 64);
        for (; word != 0; word &= word - 1) {
          const uint32_t j =
              static_cast<uint32_t>(w * 64 + std::countr_zero(word));
          level->flat.push_back(i);
          level->flat.push_back(j);
          level->bounds.push_back(singles_[i] + singles_[j]);
        }
      }
    }
  }

  /// The next level: every kept tuple p extended by each type t
  /// compatible with all its members, bounded by p's score plus t's
  /// singleton score. A set reached from two kept tuples is generated
  /// once, by the earlier: p skips t when an earlier kept tuple is p with
  /// one member swapped for t.
  void Extend(Level* level) {
    const uint32_t arity = level->arity;
    const size_t words = rows_.words();
    const size_t kept = level->count();
    members_.assign(kept * words, 0);
    for (size_t p = 0; p < kept; ++p) {
      for (uint32_t m = 0; m < arity; ++m) {
        const uint32_t t = level->tuple(p)[m];
        members_[p * words + t / 64] |= uint64_t{1} << (t % 64);
      }
    }
    spare_.arity = arity + 1;
    spare_.flat.clear();
    spare_.bounds.clear();
    for (size_t p = 0; p < kept; ++p) {
      const uint32_t* members = level->tuple(p);
      std::copy(rows_.row(members[0]), rows_.row(members[0]) + words,
                cand_.begin());
      for (uint32_t m = 1; m < arity; ++m) {
        const uint64_t* row = rows_.row(members[m]);
        for (size_t w = 0; w < words; ++w) cand_[w] &= row[w];
      }
      const uint64_t* mine = &members_[p * words];
      for (size_t q = 0; q < p; ++q) {
        const uint64_t* theirs = &members_[q * words];
        int shared = 0;
        for (size_t w = 0; w < words; ++w) {
          shared += std::popcount(mine[w] & theirs[w]);
        }
        if (static_cast<uint32_t>(shared) + 1 != arity) continue;
        for (size_t w = 0; w < words; ++w) cand_[w] &= ~(theirs[w] & ~mine[w]);
      }
      for (size_t w = 0; w < words; ++w) {
        for (uint64_t word = cand_[w]; word != 0; word &= word - 1) {
          const uint32_t t =
              static_cast<uint32_t>(w * 64 + std::countr_zero(word));
          const uint32_t* at = std::lower_bound(members, members + arity, t);
          spare_.flat.insert(spare_.flat.end(), members, at);
          spare_.flat.push_back(t);
          spare_.flat.insert(spare_.flat.end(), at, members + arity);
          spare_.bounds.push_back(level->scores[p] + singles_[t]);
        }
      }
    }
    std::swap(*level, spare_);
  }

  /// Scores the tuples that can still make a beam of `width` and lists
  /// them in order_: first the `width` with the highest bounds, then, in
  /// storage order, each other tuple whose bound times the slack reaches
  /// the width-th best score so far. A tuple below that is beaten by
  /// `width` scored ones, so Trim would drop it.
  void ScoreBest(Level* level, uint32_t width) {
    const size_t count = level->count();
    level->scores.assign(count, kUnscored);
    order_.resize(count);
    std::iota(order_.begin(), order_.end(), 0u);
    if (count <= width) {
      for (const uint32_t i : order_) Score(level, i);
      return;
    }
    std::nth_element(order_.begin(), order_.begin() + width, order_.end(),
                     [level](uint32_t a, uint32_t b) {
                       if (level->bounds[a] != level->bounds[b]) {
                         return level->bounds[a] > level->bounds[b];
                       }
                       return a < b;
                     });
    order_.resize(width);
    best_.clear();  // the `width` best scores so far, a min-heap
    for (const uint32_t i : order_) best_.push_back(Score(level, i));
    std::make_heap(best_.begin(), best_.end(), std::greater<>());
    for (uint32_t i = 0; i < count; ++i) {
      if (level->scores[i] != kUnscored ||
          level->bounds[i] * slack_ < best_.front()) {
        continue;
      }
      order_.push_back(i);
      const double score = Score(level, i);
      if (score > best_.front()) {
        std::pop_heap(best_.begin(), best_.end(), std::greater<>());
        best_.back() = score;
        std::push_heap(best_.begin(), best_.end(), std::greater<>());
      }
    }
  }

  /// Keeps the best `width` of the scored tuples in order_, best first,
  /// and leaves order_ listing them.
  void Trim(Level* level, uint32_t width) {
    const size_t keep = std::min<size_t>(width, order_.size());
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
    order_.resize(keep);
    std::iota(order_.begin(), order_.end(), 0u);
  }

  const PreparedSchema& prepared_;
  const SizeConstraint size_;
  const std::vector<TypeId>& eligible_;
  const CompatibilityRows& rows_;
  SubsetScorer scorer_;
  const double slack_;  // 1 + the relative rounding a bound allows for
  std::vector<TypeId> keys_;
  std::vector<uint64_t> cand_;
  std::vector<double> singles_;   // level 1's scores, per eligible index
  std::vector<uint64_t> members_;  // each kept tuple as a bitset row
  std::vector<double> best_;
  uint64_t scored_ = 0;  // the sets this attempt scored
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
