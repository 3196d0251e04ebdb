// Reproduces paper Fig. 13: end-to-end runtime of plan-caching strategies
// on random-trajectory workloads (r_d = 0.01): ALWAYS-OPTIMIZE,
// CONVENTIONAL-CACHE (least-specific-cost plan reused), the paper's
// ONLINE-LSH-HISTOGRAMS, and the hypothetical IDEAL predictor.
// Optimizer and predictor overheads are measured wall time; execution time
// is the cost model replayed at the true point (the paper's own simulation
// methodology, Sec. V-C).
//
// Stdout carries only the deterministic columns (execution time, optimizer
// calls, predictions used, suboptimality), so it is golden-locked. The
// wall-clock columns (total, optimize, predict) go to
// BENCH_fig13_runtime.json as medians over kRuns repetitions.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/math_utils.h"
#include "ppc/runtime_simulator.h"

namespace ppc {
namespace bench {
namespace {

constexpr size_t kQueries = 1000;
// Repetitions per (template, strategy); the JSON's wall-clock columns are
// their medians.
constexpr int kRuns = 5;

void Run() {
  PrintHeader("Fig. 13: end-to-end runtime by caching strategy");
  std::string json_rows;
  std::printf("%zu queries, random trajectories r_d = 0.01, b_h = 40, "
              "t = 5, gamma = 0.8,\nnoise elimination on, d = 0.15; "
              "execution charged at 10ns/cost-unit (cheap-query regime)\n",
              kQueries);

  for (const char* name : {"Q1", "Q5", "Q7", "Q8"}) {
    const QueryTemplate tmpl = EvaluationTemplate(name);
    RuntimeSimulator::Options options;
    options.cost_to_seconds = 1e-8;
    options.online.predictor.transform_count = 5;
    options.online.predictor.histogram_buckets = 40;
    options.online.predictor.radius = 0.2;
    options.online.predictor.confidence_threshold = 0.8;
    options.online.predictor.noise_fraction = 0.0005;
    options.online.negative_feedback = true;
    RuntimeSimulator simulator(&BenchCatalog(), tmpl, options);

    TrajectoryConfig traj;
    traj.dimensions = tmpl.ParameterDegree();
    traj.total_points = kQueries;
    traj.scatter = 0.01;
    Rng rng(42);
    auto workload = RandomTrajectoriesWorkload(traj, &rng);

    std::printf("\n--- template %s (r = %d) ---\n", name,
                tmpl.ParameterDegree());
    std::printf("%-24s %9s %8s %8s %8s\n", "strategy", "exec(ms)", "#opt",
                "#pred", "subopt");
    PrintRule();
    for (CachingStrategy strategy :
         {CachingStrategy::kAlwaysOptimize,
          CachingStrategy::kConventionalCache,
          CachingStrategy::kRobustCache,
          CachingStrategy::kParametricCache, CachingStrategy::kIdeal}) {
      std::vector<double> total_ms, optimize_ms, predict_ms;
      RuntimeSimResult r;
      for (int run = 0; run < kRuns; ++run) {
        auto result = simulator.Run(strategy, workload);
        PPC_CHECK(result.ok());
        const RuntimeSimResult& rep = result.value();
        // Only the wall-clock columns may differ between repetitions.
        PPC_CHECK(run == 0 || (rep.execute_seconds == r.execute_seconds &&
                               rep.optimizer_calls == r.optimizer_calls &&
                               rep.predictions_used == r.predictions_used &&
                               rep.MeanSuboptimality() ==
                                   r.MeanSuboptimality()));
        total_ms.push_back(rep.TotalSeconds() * 1e3);
        optimize_ms.push_back(rep.optimize_seconds * 1e3);
        predict_ms.push_back(rep.predict_seconds * 1e3);
        r = rep;
      }
      std::printf("%-24s %9.2f %8zu %8zu %8.3f\n",
                  CachingStrategyName(strategy), r.execute_seconds * 1e3,
                  r.optimizer_calls, r.predictions_used,
                  r.MeanSuboptimality());
      if (!json_rows.empty()) json_rows += ",\n";
      json_rows += "    {\"template\": ";
      AppendJsonString(name, &json_rows);
      json_rows += ", \"strategy\": ";
      AppendJsonString(CachingStrategyName(strategy), &json_rows);
      json_rows += ", \"total_ms\": " + JsonNumber(Median(total_ms));
      json_rows += ", \"optimize_ms\": " + JsonNumber(Median(optimize_ms));
      json_rows += ", \"predict_ms\": " + JsonNumber(Median(predict_ms));
      json_rows += ", \"execute_ms\": " + JsonNumber(r.execute_seconds * 1e3);
      json_rows +=
          ", \"optimizer_calls\": " + std::to_string(r.optimizer_calls);
      json_rows +=
          ", \"predictions_used\": " + std::to_string(r.predictions_used);
      json_rows +=
          ", \"mean_suboptimality\": " + JsonNumber(r.MeanSuboptimality());
      json_rows += "}";
    }
  }
  WriteBenchJson("fig13_runtime",
                 "  \"queries\": " + std::to_string(kQueries) +
                     ",\n  \"runs\": " + std::to_string(kRuns) +
                     ",\n  \"rows\": [\n" + json_rows + "\n  ]");
  std::printf(
      "\nWall-clock totals (median of %d runs) are in "
      "BENCH_fig13_runtime.json.\n"
      "Expected shape (paper): the parametric cache lands between\n"
      "ALWAYS-OPTIMIZE and IDEAL, approaching IDEAL as optimization cost\n"
      "dominates (higher-degree templates); the conventional cache's single\n"
      "plan accrues suboptimal executions as the workload wanders.\n",
      kRuns);
}

}  // namespace
}  // namespace bench
}  // namespace ppc

int main() {
  ppc::bench::Run();
  return 0;
}
