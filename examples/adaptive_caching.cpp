// Adaptive caching demo: the online framework reacting to a workload whose
// plan space changes mid-stream (paper Sec. V-D).
//
// Phase 1 executes a random-trajectory workload against the normal cost
// regime; the predictor warms up and serves most queries from the cache.
// Phase 2 flips the I/O cost regime (simulating the working set suddenly
// fitting in the buffer pool), relocating every plan boundary: negative
// feedback detects cost mismatches, the windowed precision estimate drops,
// the framework re-learns.
//
//   ./build/examples/adaptive_caching

#include <cstdio>

#include "exec/execution_simulator.h"
#include "optimizer/optimizer.h"
#include "ppc/decision_step.h"
#include "ppc/online_predictor.h"
#include "ppc/plan_cache.h"
#include "storage/tpch_generator.h"
#include "workload/templates.h"
#include "workload/workload_generator.h"

namespace {

struct PhaseStats {
  size_t queries = 0;
  size_t optimizer_calls = 0;
  size_t cache_served = 0;
  size_t feedback_reoptimizations = 0;
};

}  // namespace

int main() {
  ppc::TpchConfig db_config;
  db_config.scale_factor = 0.002;
  auto catalog = ppc::BuildTpchCatalog(db_config);

  const ppc::QueryTemplate tmpl = ppc::EvaluationTemplate("Q5");
  std::printf("template: %s\n\n", tmpl.ToSql().c_str());

  // Two cost regimes: disk-bound (normal) and memory-resident (drifted).
  ppc::Optimizer disk_bound(catalog.get());
  ppc::CostModelParams memory_resident_params;
  memory_resident_params.random_page_cost = 0.5;
  memory_resident_params.seq_page_cost = 4.0;
  memory_resident_params.hash_build_cost_per_row = 0.25;
  ppc::Optimizer memory_resident(catalog.get(), memory_resident_params);

  ppc::OnlinePpcPredictor::Config online_config;
  online_config.predictor.dimensions = tmpl.ParameterDegree();
  online_config.predictor.transform_count = 5;
  online_config.predictor.histogram_buckets = 40;
  online_config.predictor.radius = 0.2;
  online_config.predictor.confidence_threshold = 0.8;
  online_config.predictor.noise_fraction = 0.0005;
  online_config.negative_feedback = true;
  online_config.estimator_window = 100;
  online_config.reset_precision_threshold = 0.70;
  ppc::OnlinePpcPredictor online(online_config);
  ppc::PlanCache cache(32);

  ppc::TrajectoryConfig traj;
  traj.dimensions = tmpl.ParameterDegree();
  traj.total_points = 2000;
  traj.scatter = 0.01;
  ppc::Rng rng(99);
  auto workload = RandomTrajectoriesWorkload(traj, &rng);

  PhaseStats phases[2];
  for (size_t i = 0; i < workload.size(); ++i) {
    const bool drifted = i >= workload.size() / 2;
    const ppc::Optimizer& optimizer = drifted ? memory_resident : disk_bound;
    auto prep = optimizer.Prepare(tmpl);
    PPC_CHECK(prep.ok());
    ppc::ExecutionSimulator simulator(&optimizer.cost_model());
    PhaseStats& stats = phases[drifted ? 1 : 0];
    ++stats.queries;

    // One decision step: predict, run the cached plan or optimize,
    // negative feedback, insert the optimizer's answer and rank it for
    // eviction by its tracked precision.
    ppc::OptimizerOracle oracle(optimizer, &simulator, prep.value());
    auto step = ppc::RunDecisionStep(&online, &cache, &oracle, workload[i]);
    PPC_CHECK(step.ok());
    if (step.value().used_prediction) ++stats.cache_served;
    if (step.value().suspected) ++stats.feedback_reoptimizations;
    if (step.value().optimized()) ++stats.optimizer_calls;

    if ((i + 1) % 250 == 0) {
      std::printf("after %4zu queries%s: est. precision %.2f, est. recall "
                  "%.2f, resets %zu, cache %zu plans\n",
                  i + 1, drifted ? " [drifted regime]" : "",
                  online.tracker().TemplatePrecision(),
                  online.tracker().TemplateRecall(), online.reset_count(),
                  cache.size());
    }
  }

  for (int p = 0; p < 2; ++p) {
    std::printf("\nphase %d (%s): %zu queries, %zu optimizer calls, "
                "%zu cache-served (%.0f%%), %zu feedback re-optimizations\n",
                p + 1, p == 0 ? "disk-bound" : "memory-resident",
                phases[p].queries, phases[p].optimizer_calls,
                phases[p].cache_served,
                100.0 * phases[p].cache_served / phases[p].queries,
                phases[p].feedback_reoptimizations);
  }
  std::printf("\nhistogram resets triggered by drift detection: %zu\n",
              online.reset_count());
  return 0;
}
