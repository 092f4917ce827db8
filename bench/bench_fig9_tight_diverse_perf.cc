// Figure 9: execution time of optimal tight / diverse preview discovery —
// Brute-Force (Alg. 1) vs Apriori-style (Alg. 3), beside the pruned
// Apriori walk (branch and bound over the same L_k, the default).
//
// Four sweeps per constraint flavour, exactly the paper's:
//   (1) domains B/A/M at k=5, n=10 (tight d=2, diverse d=4);
//   (2) k = 3..9 on music, n=20;
//   (3) n = 8..20 on music, k=6;
//   (4) d = 2..6 on music, k=6, n=16.
// Brute force is capped + extrapolated ('~'); Alg. 3's exhaustive walk
// aborts with "DNF" when an intermediate level would exceed 5M candidate
// subsets — the degenerate regimes the paper calls out (tight d≈diameter,
// diverse d=2). The pruned walk runs uncapped.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/apriori.h"

namespace {

using namespace egp;

PreparedSchema Prepare(const std::string& domain_name) {
  auto prepared = PreparedSchema::Create(bench::Domain(domain_name).schema);
  EGP_CHECK(prepared.ok());
  return std::move(prepared).value();
}

std::string TimeApriori(const PreparedSchema& prepared, SizeConstraint size,
                        DistanceConstraint distance, AprioriWalk walk) {
  AprioriOptions options;
  options.walk = walk;
  if (walk == AprioriWalk::kExhaustive) options.max_level_size = 5'000'000;
  Timer timer;
  auto preview = AprioriDiscover(prepared, size, distance, options);
  const double ms = timer.ElapsedMillis();
  if (!preview.ok() && preview.status().code() == StatusCode::kOutOfRange) {
    return "DNF";  // level cap hit: the paper's pathological regime
  }
  return bench::FormatDouble(ms, ms < 10 ? 2 : 0);
}

void Sweeps(DistanceMode mode, uint32_t default_d) {
  auto constraint = [mode](uint32_t d) {
    return mode == DistanceMode::kTight ? DistanceConstraint::Tight(d)
                                        : DistanceConstraint::Diverse(d);
  };
  const char* flavour = mode == DistanceMode::kTight ? "tight" : "diverse";

  std::printf("\n--- %s previews (default d=%u) ---\n", flavour, default_d);

  std::printf("\n(1) domain sweep, k=5, n=10, d=%u\n", default_d);
  bench::PrintRow("domain", {"BruteForce", "Apriori", "Pruned"});
  for (const char* name : {"basketball", "architecture", "music"}) {
    const PreparedSchema prepared = Prepare(name);
    const SizeConstraint size{5, 10};
    bench::PrintRow(
        name, {bench::TimeBruteForce(prepared, size, constraint(default_d))
                   .Format(),
               TimeApriori(prepared, size, constraint(default_d),
                           AprioriWalk::kExhaustive),
               TimeApriori(prepared, size, constraint(default_d),
                           AprioriWalk::kPruned)});
  }

  const PreparedSchema music = Prepare("music");

  std::printf("\n(2) k sweep, music, n=20, d=%u\n", default_d);
  bench::PrintRow("k", {"BruteForce", "Apriori", "Pruned"});
  for (uint32_t k = 3; k <= 9; ++k) {
    const SizeConstraint size{k, 20};
    bench::PrintRow(
        std::to_string(k),
        {bench::TimeBruteForce(music, size, constraint(default_d)).Format(),
         TimeApriori(music, size, constraint(default_d),
                     AprioriWalk::kExhaustive),
         TimeApriori(music, size, constraint(default_d),
                     AprioriWalk::kPruned)});
  }

  std::printf("\n(3) n sweep, music, k=6, d=%u\n", default_d);
  bench::PrintRow("n", {"BruteForce", "Apriori", "Pruned"});
  for (uint32_t n = 8; n <= 20; n += 2) {
    const SizeConstraint size{6, n};
    bench::PrintRow(
        std::to_string(n),
        {bench::TimeBruteForce(music, size, constraint(default_d)).Format(),
         TimeApriori(music, size, constraint(default_d),
                     AprioriWalk::kExhaustive),
         TimeApriori(music, size, constraint(default_d),
                     AprioriWalk::kPruned)});
  }

  std::printf("\n(4) d sweep, music, k=6, n=16\n");
  bench::PrintRow("d", {"BruteForce", "Apriori", "Pruned"});
  for (uint32_t d = 2; d <= 6; ++d) {
    const SizeConstraint size{6, 16};
    bench::PrintRow(
        std::to_string(d),
        {bench::TimeBruteForce(music, size, constraint(d)).Format(),
         TimeApriori(music, size, constraint(d), AprioriWalk::kExhaustive),
         TimeApriori(music, size, constraint(d), AprioriWalk::kPruned)});
  }
}

}  // namespace

int main() {
  using namespace egp;
  bench::PrintHeader(
      "Figure 9: tight/diverse preview discovery time (ms), BF vs Apriori "
      "(Alg. 3) vs pruned Apriori");
  Sweeps(DistanceMode::kTight, 2);
  Sweeps(DistanceMode::kDiverse, 4);
  std::printf(
      "\nExpected shape (paper Fig. 9): Apriori beats BF by orders of "
      "magnitude except when the distance constraint filters almost "
      "nothing — tight with d near the schema diameter and diverse with "
      "d=2 — where the candidate levels explode (DNF under the 5M cap). "
      "The pruned walk returns the same previews and scores only the "
      "subsets its bound cannot rule out.\n");
  return 0;
}
