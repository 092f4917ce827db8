#include "core/compose.h"

#include "common/strings.h"

namespace egp {

template <typename Pick>
double SubsetScorer::Merge(const TypeId* keys, size_t k, Pick&& pick) {
  if (k == 0 || n_ < k) return -1.0;
  cursors_.clear();
  double score = 0.0;
  for (size_t i = 0; i < k; ++i) {
    const TypeId t = keys[i];
    const std::vector<NonKeyCandidate>& sorted = prepared_.Candidates(t).sorted;
    if (sorted.empty()) return -1.0;
    const double key_score = prepared_.KeyScore(t);
    score += key_score * sorted[0].score;  // Theorem 3 top-1
    pick(i, 0);
    if (sorted.size() > 1) {
      cursors_.push_back(Cursor{key_score * sorted[1].score, key_score,
                                sorted.data(), 1,
                                static_cast<uint32_t>(sorted.size()), t,
                                static_cast<uint32_t>(i)});
    }
  }
  // Fill the remaining n−k slots with the globally best weighted
  // candidates.
  for (size_t slot = k; slot < n_ && !cursors_.empty(); ++slot) {
    size_t best = 0;
    for (size_t c = 1; c < cursors_.size(); ++c) {
      const Cursor& a = cursors_[c];
      const Cursor& b = cursors_[best];
      if (a.weighted != b.weighted ? a.weighted > b.weighted
          : a.type != b.type       ? a.type < b.type
                                   : a.next < b.next) {
        best = c;
      }
    }
    Cursor& top = cursors_[best];
    score += top.weighted;
    pick(top.table, top.next);
    if (++top.next < top.size) {
      top.weighted = top.key_score * top.sorted[top.next].score;
    } else {
      top = cursors_.back();
      cursors_.pop_back();
    }
  }
  return score;
}

double SubsetScorer::Score(const TypeId* keys, size_t k) {
  return Merge(keys, k, [](size_t, size_t) {});
}

Result<Preview> ComposePreview(const PreparedSchema& prepared,
                               const std::vector<TypeId>& keys, uint32_t n) {
  const uint32_t k = static_cast<uint32_t>(keys.size());
  if (k == 0) return Status::InvalidArgument("ComposePreview: no key types");
  if (n < k) {
    return Status::InvalidArgument(StrFormat(
        "ComposePreview: n=%u < k=%u (each table needs one attribute)", n, k));
  }
  Preview preview;
  preview.tables.resize(k);
  for (uint32_t i = 0; i < k; ++i) {
    if (!prepared.Eligible(keys[i])) {
      return Status::FailedPrecondition(
          StrFormat("type '%s' has no candidate non-key attributes",
                    prepared.schema().TypeName(keys[i]).c_str()));
    }
    preview.tables[i].key = keys[i];
  }
  SubsetScorer scorer(prepared, n);
  scorer.Merge(keys.data(), k, [&](size_t table, size_t candidate) {
    preview.tables[table].nonkeys.push_back(
        prepared.Candidates(keys[table]).sorted[candidate]);
  });
  return preview;
}

}  // namespace egp
