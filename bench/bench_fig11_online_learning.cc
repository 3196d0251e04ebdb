// Reproduces paper Fig. 11 and the Sec. V-B summary: online precision and
// recall of ONLINE-APPROXIMATE-LSH-HISTOGRAMS over random-trajectory
// workloads (1000 instances, 10 trajectories) at scatter radii
// r_d in {0.01, 0.02, 0.04, 0.08}. b_h = 40, t = 5, gamma = 0.8, noise
// elimination and 5% random optimizer invocations enabled; averaged over
// d in {0.05, 0.1, 0.15, 0.2}. Also prints Q8's learning curve (Fig. 11).

#include <cstdio>

#include "bench_util.h"

namespace ppc {
namespace bench {
namespace {

OnlinePpcPredictor::Config OnlineConfig(int dims, double d, uint64_t seed) {
  OnlinePpcPredictor::Config cfg = OnlineBenchConfig(dims);
  cfg.predictor.radius = d;
  cfg.predictor.seed = seed;
  cfg.mean_invocation_probability = 0.05;
  cfg.estimator_window = 100;
  cfg.seed = seed ^ 0x5555;
  return cfg;
}

void Run() {
  PrintHeader("Fig. 11 / Sec. V-B: online precision & recall, random "
              "trajectories");
  std::printf("1000 instances, 10 trajectories, b_h=40, t=5, gamma=0.8,\n"
              "noise elimination + 5%% random invocations, averaged over\n"
              "d in {0.05, 0.1, 0.15, 0.2}\n\n");

  const std::vector<double> scatters = {0.01, 0.02, 0.04, 0.08};
  std::printf("%-10s", "template");
  for (double rd : scatters) std::printf("   rd=%-11.2f", rd);
  std::printf("\n%-10s", "");
  for (size_t i = 0; i < scatters.size(); ++i) {
    std::printf("   %-5s %-8s", "prec", "rec");
  }
  std::printf("\n");
  PrintRule();

  for (const char* name :
       {"Q0", "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8"}) {
    Experiment exp(name);
    std::printf("%-10s", name);
    for (double rd : scatters) {
      MetricsAccumulator total;
      for (double d : {0.05, 0.1, 0.15, 0.2}) {
        auto workload = TrajectoryWorkload(
            exp.dims(), 1000, rd, 211 + static_cast<uint64_t>(rd * 1000));
        OnlinePpcPredictor online(
            OnlineConfig(exp.dims(), d, 311 + static_cast<uint64_t>(d * 100)));
        auto outcome = RunOnlineWorkload(&online, workload, 250, exp);
        total.Merge(outcome.overall);
      }
      std::printf("   %5.3f %-8.3f", total.Precision(), total.Recall());
    }
    std::printf("\n");
  }

  // Fig. 11 proper: Q8 learning curve. A 6-D plan space needs the larger
  // query radius (d = 0.25) for the ball to hold sample mass; windows of
  // 50 over the first 500 queries expose the warm-up ramp.
  std::printf("\nQ8 learning curve (recall per window of 50, d = 0.25):\n");
  std::printf("%-8s", "rd");
  for (int w = 0; w < 10; ++w) std::printf("  w%-5d", w);
  std::printf("  overall prec/rec\n");
  PrintRule();
  Experiment q8("Q8");
  for (double rd : scatters) {
    auto workload = TrajectoryWorkload(
        q8.dims(), 1000, rd, 401 + static_cast<uint64_t>(rd * 1000));
    OnlinePpcPredictor online(OnlineConfig(q8.dims(), 0.25, 733));
    auto outcome = RunOnlineWorkload(&online, workload, 50, q8);
    std::printf("%-8.2f", rd);
    for (size_t w = 0; w < 10 && w < outcome.windows.size(); ++w) {
      std::printf("  %-6.2f", outcome.windows[w].Recall());
    }
    std::printf("  %.3f/%.3f\n", outcome.overall.Precision(),
                outcome.overall.Recall());
  }
  std::printf(
      "\nExpected shape (paper): precision and recall degrade as r_d grows\n"
      "(predictions span larger distances, weakening Assumption 1), and as\n"
      "the parameter degree grows. The paper's warm-up ramp is compressed\n"
      "here: trajectory points sit so close to their predecessors that the\n"
      "predictor becomes productive within the first window; per-window\n"
      "recall afterwards tracks how often the trajectories enter unexplored\n"
      "regions.\n");
}

}  // namespace
}  // namespace bench
}  // namespace ppc

int main() {
  ppc::bench::Run();
  return 0;
}
