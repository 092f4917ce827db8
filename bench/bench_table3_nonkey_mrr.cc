// Table 3: MRR of non-key attribute scoring (Coverage vs Entropy) against
// the Table 10 curated attributes, restricted (as in the paper) to entity
// types with at least 5 candidate non-key attributes.
#include <cstdio>
#include <unordered_set>

#include "bench/bench_util.h"
#include "eval/ranking_metrics.h"
#include "eval/user_study.h"

namespace {

using namespace egp;

double NonKeyMrr(const GeneratedDomain& domain, const char* nonkey,
                 size_t* types_evaluated) {
  MeasureSelection measures;
  measures.nonkey = nonkey;
  auto prepared = PreparedSchema::Create(domain.schema, measures,
                                         &domain.graph);
  EGP_CHECK(prepared.ok()) << prepared.status().ToString();

  std::vector<double> reciprocal_ranks;
  for (const GoldTable& gold : domain.gold.tables) {
    const auto key = domain.schema.type_names().Find(gold.key);
    EGP_CHECK(key.has_value());
    const TypeCandidates& cands = prepared->Candidates(*key);
    if (cands.size() < 5) continue;  // paper's filter (§6.1.2)
    std::vector<std::string> ranked;
    ranked.reserve(cands.size());
    for (const NonKeyCandidate& c : cands.sorted) {
      ranked.push_back(
          domain.schema.SurfaceName(domain.schema.Edge(c.schema_edge)));
    }
    GroundTruth truth(gold.nonkeys.begin(), gold.nonkeys.end());
    reciprocal_ranks.push_back(ReciprocalRank(ranked, truth));
  }
  if (types_evaluated != nullptr) {
    *types_evaluated = reciprocal_ranks.size();
  }
  return MeanReciprocalRank(reciprocal_ranks);
}

}  // namespace

int main() {
  using namespace egp;
  bench::PrintHeader("Table 3: MRR of non-key attribute scoring");
  bench::PrintRow("domain", {"Coverage", "Entropy", "#types(>=5 cands)"});
  for (const std::string& name : UserStudyDomains()) {
    const GeneratedDomain& domain = bench::Domain(name);
    size_t evaluated = 0;
    const double coverage = NonKeyMrr(domain, "coverage", &evaluated);
    const double entropy = NonKeyMrr(domain, "entropy", nullptr);
    bench::PrintRow(name, {bench::FormatDouble(coverage, 3),
                           bench::FormatDouble(entropy, 3),
                           std::to_string(evaluated)});
  }
  std::printf(
      "\nExpected shape (paper Table 3): MRR > 0.5 in every domain except "
      "film, where the curated attributes are buried (0.2 / 0.25).\n");
  return 0;
}
