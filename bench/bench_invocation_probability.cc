// Reproduces the paper's Sec. V-B random-invocation finding: "precision
// increases by ~0.02 for each 10% increase in mean invocation
// probability", at the cost of extra optimizer calls that eat into the
// caching benefit — so low rates should be targeted.

#include <cstdio>

#include "bench_util.h"

namespace ppc {
namespace bench {
namespace {

constexpr size_t kWorkloads = 8;
constexpr size_t kQueries = 1000;

void Run() {
  PrintHeader("Sec. V-B: effect of random optimizer invocations (Q5)");
  std::printf("%zu workloads x %zu queries, d = 0.2, gamma = 0.8\n\n",
              kWorkloads, kQueries);
  Experiment exp("Q5");

  std::printf("%-12s %10s %10s %14s\n", "mean prob", "precision", "recall",
              "optimizer calls");
  PrintRule();
  for (double prob : {0.0, 0.05, 0.1, 0.2, 0.3}) {
    MetricsAccumulator overall;
    size_t optimizer_calls = 0;
    for (size_t i = 0; i < kWorkloads; ++i) {
      auto workload = TrajectoryWorkload(exp.dims(), kQueries, 0.01, 700 + i);

      OnlinePpcPredictor::Config cfg = OnlineBenchConfig(exp.dims());
      cfg.mean_invocation_probability = prob;
      cfg.seed = 800 + i;
      OnlinePpcPredictor online(cfg);
      auto outcome = RunOnlineWorkload(&online, workload, kQueries, exp);
      overall.Merge(outcome.overall);
      optimizer_calls += outcome.optimizer_calls;
    }
    std::printf("%-12.2f %10.3f %10.3f %14.1f\n", prob, overall.Precision(),
                overall.Recall(),
                static_cast<double>(optimizer_calls) / kWorkloads);
  }
  std::printf(
      "\nExpected shape (paper): precision creeps up with invocation\n"
      "probability (~+0.02 per +10%%) while optimizer calls grow — too many\n"
      "invocations wipe out the caching gain.\n");
}

}  // namespace
}  // namespace bench
}  // namespace ppc

int main() {
  ppc::bench::Run();
  return 0;
}
