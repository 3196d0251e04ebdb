#include "ppc/runtime_simulator.h"

#include <chrono>
#include <memory>

#include "common/rng.h"
#include "exec/execution_simulator.h"
#include "optimizer/optimizer.h"
#include "optimizer/robust_plan.h"
#include "ppc/decision_step.h"
#include "ppc/plan_cache.h"
#include "workload/workload_generator.h"

namespace ppc {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

const char* CachingStrategyName(CachingStrategy strategy) {
  switch (strategy) {
    case CachingStrategy::kAlwaysOptimize:
      return "ALWAYS-OPTIMIZE";
    case CachingStrategy::kConventionalCache:
      return "CONVENTIONAL-CACHE";
    case CachingStrategy::kRobustCache:
      return "ROBUST-PLAN-CACHE";
    case CachingStrategy::kParametricCache:
      return "ONLINE-LSH-HISTOGRAMS";
    case CachingStrategy::kIdeal:
      return "IDEAL";
  }
  return "UNKNOWN";
}

RuntimeSimulator::RuntimeSimulator(const Catalog* catalog, QueryTemplate tmpl,
                                   Options options)
    : catalog_(catalog), tmpl_(std::move(tmpl)), options_(options) {
  PPC_CHECK(catalog != nullptr);
}

Result<RuntimeSimResult> RuntimeSimulator::Run(
    CachingStrategy strategy,
    const std::vector<std::vector<double>>& workload) const {
  Optimizer optimizer(catalog_);
  PPC_ASSIGN_OR_RETURN(PreparedTemplate prep, optimizer.Prepare(tmpl_));
  ExecutionSimulator simulator(&optimizer.cost_model(),
                               ExecutionSimulator::Options{0.0, options_.seed});

  RuntimeSimResult result;
  result.strategy = strategy;
  result.queries = workload.size();
  OptimizerOracle oracle(optimizer, &simulator, prep);
  // Measures the optimal plan's cost for suboptimality accounting, so
  // neither its optimizer calls nor their time are charged.
  OptimizerOracle measure(optimizer, &simulator, prep);

  // Strategy state.
  std::unique_ptr<PlanNode> conventional_plan;
  OnlinePpcPredictor::Config online_config = options_.online;
  online_config.predictor.dimensions = tmpl_.ParameterDegree();
  OnlinePpcPredictor online(online_config);
  PlanCache cache(options_.plan_cache_capacity);

  for (const std::vector<double>& point : workload) {
    switch (strategy) {
      case CachingStrategy::kAlwaysOptimize: {
        PPC_ASSIGN_OR_RETURN(PlanOracle::Optimized opt,
                             oracle.OptimizeAndRun(point));
        result.execute_seconds += opt.cost * options_.cost_to_seconds;
        result.suboptimality_sum += 1.0;
        break;
      }

      case CachingStrategy::kRobustCache:
      case CachingStrategy::kConventionalCache: {
        if (conventional_plan == nullptr) {
          auto start = Clock::now();
          if (strategy == CachingStrategy::kRobustCache) {
            Rng sample_rng(options_.seed ^ 0x9e37);
            auto samples = UniformPlanSpaceSample(
                tmpl_.ParameterDegree(), options_.robust_sample_count,
                &sample_rng);
            PPC_ASSIGN_OR_RETURN(RobustPlanResult robust,
                                 SelectRobustPlan(optimizer, prep, samples));
            result.optimizer_calls += robust.optimizer_calls;
            conventional_plan = std::move(robust.plan);
          } else {
            PPC_ASSIGN_OR_RETURN(OptimizationResult opt,
                                 optimizer.Optimize(prep, point));
            ++result.optimizer_calls;
            conventional_plan = std::move(opt.plan);
          }
          result.optimize_seconds += SecondsSince(start);
        }
        PPC_ASSIGN_OR_RETURN(double cost,
                             oracle.Execute(*conventional_plan, point));
        PPC_ASSIGN_OR_RETURN(PlanOracle::Optimized best,
                             measure.OptimizeAndRun(point));
        result.execute_seconds += cost * options_.cost_to_seconds;
        result.suboptimality_sum += best.cost > 0.0 ? cost / best.cost : 1.0;
        break;
      }

      case CachingStrategy::kParametricCache: {
        PPC_ASSIGN_OR_RETURN(StepOutcome step,
                             RunDecisionStep(&online, &cache, &oracle, point));
        result.predict_seconds +=
            (step.decide_micros + step.feedback_micros) * 1e-6;
        result.execute_seconds +=
            step.executed_cost * options_.cost_to_seconds;
        if (step.used_prediction) {
          ++result.predictions_used;
          // A suspected prediction's corrective run measured the optimum.
          PlanOracle::Optimized best{kNullPlanId, nullptr, step.truth.cost};
          if (!step.optimized()) {
            PPC_ASSIGN_OR_RETURN(best, measure.OptimizeAndRun(point));
          }
          result.suboptimality_sum +=
              best.cost > 0.0 ? step.executed_cost / best.cost : 1.0;
        } else {
          result.suboptimality_sum += 1.0;
        }
        break;
      }

      case CachingStrategy::kIdeal: {
        // 100% precision and recall: the optimal plan materializes with no
        // optimizer time charged.
        PPC_ASSIGN_OR_RETURN(PlanOracle::Optimized best,
                             measure.OptimizeAndRun(point));
        result.execute_seconds += best.cost * options_.cost_to_seconds;
        result.suboptimality_sum += 1.0;
        break;
      }
    }
  }
  result.optimizer_calls += oracle.optimizer_calls;
  result.optimize_seconds += oracle.optimize_micros * 1e-6;
  result.evictions = cache.evictions();
  result.precision_evictions = cache.precision_evictions();
  return result;
}

}  // namespace ppc
