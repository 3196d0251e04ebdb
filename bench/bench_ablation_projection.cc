// Ablation (DESIGN.md): the projection dimensionality s of the randomized
// transforms. The paper prescribes s = r at low dimensions and s << r when
// dimensionality reduction is needed; this sweep quantifies the trade-off
// on a high-dimensional template in the online (trajectory) regime, where
// the predictor actually operates.

#include <cstdio>

#include "bench_util.h"

namespace ppc {
namespace bench {
namespace {

constexpr size_t kQueries = 1000;
constexpr size_t kWorkloads = 5;

void Run() {
  PrintHeader("Ablation: projection dimensionality s (Q7, r = 5, online)");
  std::printf("%zu workloads x %zu queries, t = 5, b_h = 40, gamma = 0.8, "
              "d = 0.2, r_d = 0.01\n\n",
              kWorkloads, kQueries);
  Experiment exp("Q7");

  std::printf("%-6s %12s %12s %16s\n", "s", "precision", "recall",
              "optimizer calls");
  PrintRule();
  for (int s : {1, 2, 3, 4, 5}) {
    MetricsAccumulator overall;
    size_t optimizer_calls = 0;
    for (size_t i = 0; i < kWorkloads; ++i) {
      auto workload = TrajectoryWorkload(exp.dims(), kQueries, 0.01, 170 + i);

      OnlinePpcPredictor::Config cfg = OnlineBenchConfig(exp.dims());
      cfg.predictor.output_dims = s;
      cfg.seed = 180 + i;
      OnlinePpcPredictor online(cfg);
      auto outcome = RunOnlineWorkload(&online, workload, kQueries, exp);
      overall.Merge(outcome.overall);
      optimizer_calls += outcome.optimizer_calls;
    }
    std::printf("%-6d %12.3f %12.3f %16.1f\n", s, overall.Precision(),
                overall.Recall(),
                static_cast<double>(optimizer_calls) / kWorkloads);
  }
  std::printf(
      "\nExpected: small s collapses distant plan regions onto each other\n"
      "(projection collisions), hurting precision and recall; s = r keeps\n"
      "full fidelity at identical histogram space (b_h is fixed).\n");
}

}  // namespace
}  // namespace bench
}  // namespace ppc

int main() {
  ppc::bench::Run();
  return 0;
}
