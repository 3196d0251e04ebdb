// Ablation (DESIGN.md): the streaming histogram's bucket-merge policy.
// The paper relies on "standard histogram construction techniques that
// choose boundaries to minimize estimation error"; this sweep compares the
// min-variance-increase merge against nearest-centroid and equi-width in
// the online (trajectory) regime under a tight bucket budget.

#include <cstdio>

#include "bench_util.h"

namespace ppc {
namespace bench {
namespace {

constexpr size_t kQueries = 1000;
constexpr size_t kWorkloads = 8;
constexpr size_t kBuckets = 10;

void Run() {
  PrintHeader("Ablation: histogram merge policy (Q5, online)");
  std::printf("%zu workloads x %zu queries, t = 5, b_h = %zu (tight budget "
              "stresses merging), gamma = 0.8, d = 0.2\n\n",
              kWorkloads, kQueries, kBuckets);
  Experiment exp("Q5");

  struct PolicySpec {
    const char* name;
    StreamingHistogram::MergePolicy policy;
  };
  const PolicySpec policies[] = {
      {"min-variance-increase",
       StreamingHistogram::MergePolicy::kMinVarianceIncrease},
      {"nearest-centroid", StreamingHistogram::MergePolicy::kNearestCentroid},
      {"equi-width", StreamingHistogram::MergePolicy::kEquiWidth},
  };

  std::printf("%-24s %12s %12s\n", "merge policy", "precision", "recall");
  PrintRule();
  for (const PolicySpec& spec : policies) {
    MetricsAccumulator overall;
    for (size_t i = 0; i < kWorkloads; ++i) {
      auto workload = TrajectoryWorkload(exp.dims(), kQueries, 0.01, 190 + i);

      OnlinePpcPredictor::Config cfg = OnlineBenchConfig(exp.dims());
      cfg.predictor.histogram_buckets = kBuckets;
      cfg.predictor.merge_policy = spec.policy;
      cfg.seed = 200 + i;
      OnlinePpcPredictor online(cfg);
      auto outcome = RunOnlineWorkload(&online, workload, kQueries, exp);
      overall.Merge(outcome.overall);
    }
    std::printf("%-24s %12.3f %12.3f\n", spec.name, overall.Precision(),
                overall.Recall());
  }
  std::printf(
      "\nExpected: differences are modest in the trajectory regime (local\n"
      "densities dominate); error-aware merging matters most for offline\n"
      "summaries of widely-spread samples. No policy should degrade\n"
      "precision below the others by a wide margin.\n");
}

}  // namespace
}  // namespace bench
}  // namespace ppc

int main() {
  ppc::bench::Run();
  return 0;
}
