// Reproduces paper Sec. V-D: handling changes in sampled plan spaces.
// Mid-way through the workload the plan space of the template is
// artificially manipulated (the cost model's page-cost ratio is perturbed,
// relocating plan optimality boundaries). The windowed precision estimator
// should drop shortly after the manipulation, triggering a histogram
// reset, after which precision recovers. Also measures the accuracy of the
// cost-based binary correctness estimator (paper: ~72% at epsilon = 0.25).

#include <algorithm>
#include <cstdio>

#include "bench_util.h"

namespace ppc {
namespace bench {
namespace {

constexpr size_t kQueries = 2000;
constexpr size_t kSwitchAt = 1000;
constexpr size_t kWindow = 100;

void Run() {
  PrintHeader("Sec. V-D: plan-space drift detection (Q5)");
  Experiment before("Q5");
  CostModelParams drifted;
  // A different I/O regime (e.g. the working set suddenly fits in the
  // buffer pool while CPU contention rises): random reads cheap,
  // sequential reads and hashing expensive — plan boundaries move
  // wholesale (~100% of points change their optimal plan).
  drifted.random_page_cost = 0.5;
  drifted.seq_page_cost = 4.0;
  drifted.hash_build_cost_per_row = 0.25;
  drifted.sort_cost_per_row_log = 0.002;
  drifted.cpu_operator_cost = 0.01;
  Experiment after("Q5", drifted);

  auto workload = TrajectoryWorkload(before.dims(), kQueries, 0.01, 911);

  OnlinePpcPredictor::Config cfg = OnlineBenchConfig(before.dims());
  cfg.cost_error_bound = 0.25;
  cfg.estimator_window = 100;
  cfg.reset_precision_threshold = 0.70;
  OnlinePpcPredictor online(cfg);

  // Track windowed true precision and the online estimator's own view.
  auto outcome = RunOnlineWorkload(
      &online, workload, kWindow,
      [&](size_t i) -> const Experiment& {
        return i < kSwitchAt ? before : after;
      });

  std::printf("plan space manipulated at query %zu (I/O + CPU cost regime "
              "inverted; ~100%% of points change optimal plan)\n\n",
              kSwitchAt);
  std::printf("%-8s %12s %10s %12s %8s\n", "window", "true prec", "recall",
              "est. prec", "resets");
  PrintRule();
  for (size_t w = 0; w < outcome.windows.size(); ++w) {
    const char* marker =
        (w == kSwitchAt / kWindow) ? "  <-- manipulation" : "";
    std::printf("%-8zu %12.3f %10.3f %12.3f %8zu%s\n", w,
                outcome.windows[w].Precision(), outcome.windows[w].Recall(),
                w < outcome.estimated_precision.size()
                    ? outcome.estimated_precision[w]
                    : 0.0,
                w < outcome.resets.size() ? outcome.resets[w] : 0, marker);
  }
  // Time-to-detect: queries between the manipulation and the first
  // reset the degraded window triggered. Post-drift floor: the worst
  // windowed hit quality the predictor sank to before recovering.
  long time_to_detect = -1;
  for (size_t idx : outcome.reset_query_indices) {
    if (idx >= kSwitchAt) {
      time_to_detect = static_cast<long>(idx - kSwitchAt);
      break;
    }
  }
  double post_drift_precision_floor = 1.0;
  double post_drift_recall_floor = 1.0;
  for (size_t w = kSwitchAt / kWindow; w < outcome.windows.size(); ++w) {
    post_drift_precision_floor =
        std::min(post_drift_precision_floor, outcome.windows[w].Precision());
    post_drift_recall_floor =
        std::min(post_drift_recall_floor, outcome.windows[w].Recall());
  }

  std::printf("\nhistogram resets triggered: %zu\n", online.reset_count());
  std::printf("time to detect (queries from manipulation to first reset): "
              "%ld\n",
              time_to_detect);
  std::printf("post-drift floors: precision %.3f, recall %.3f\n",
              post_drift_precision_floor, post_drift_recall_floor);
  std::printf("negative-feedback re-optimizations: %zu\n",
              outcome.negative_feedback_events);
  std::printf("binary cost estimator accuracy: %.3f  (paper: ~0.72 at "
              "epsilon = 0.25)\n",
              outcome.EstimatorAccuracy());
  std::printf(
      "\nExpected shape (paper): a precision drop shortly after the\n"
      "manipulation, a reset, then recovery as the pool repopulates.\n");
}

}  // namespace
}  // namespace bench
}  // namespace ppc

int main() {
  ppc::bench::Run();
  return 0;
}
