#include "ppc/runtime_simulator.h"

#include <chrono>
#include <memory>

#include "common/rng.h"
#include "exec/execution_simulator.h"
#include "optimizer/optimizer.h"
#include "optimizer/robust_plan.h"
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

  // Strategy state.
  std::unique_ptr<PlanNode> conventional_plan;
  OnlinePpcPredictor::Config online_config = options_.online;
  online_config.predictor.dimensions = tmpl_.ParameterDegree();
  OnlinePpcPredictor online(online_config);
  PlanCache cache(options_.plan_cache_capacity);

  for (const std::vector<double>& point : workload) {
    switch (strategy) {
      case CachingStrategy::kAlwaysOptimize: {
        auto start = Clock::now();
        PPC_ASSIGN_OR_RETURN(OptimizationResult opt,
                             optimizer.Optimize(prep, point));
        result.optimize_seconds += SecondsSince(start);
        ++result.optimizer_calls;
        PPC_ASSIGN_OR_RETURN(double cost,
                             simulator.Execute(prep, *opt.plan, point));
        result.execute_seconds += cost * options_.cost_to_seconds;
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
        PPC_ASSIGN_OR_RETURN(
            double cost, simulator.Execute(prep, *conventional_plan, point));
        PPC_ASSIGN_OR_RETURN(OptimizationResult best,
                             optimizer.Optimize(prep, point));
        // The extra Optimize above is measurement-only (to know the
        // optimal cost for suboptimality accounting); it is not charged.
        PPC_ASSIGN_OR_RETURN(double best_cost,
                             simulator.Execute(prep, *best.plan, point));
        result.execute_seconds += cost * options_.cost_to_seconds;
        result.suboptimality_sum +=
            best_cost > 0.0 ? cost / best_cost : 1.0;
        break;
      }

      case CachingStrategy::kParametricCache: {
        auto predict_start = Clock::now();
        OnlinePpcPredictor::Decision decision = online.Decide(point);
        std::shared_ptr<const PlanNode> cached;
        if (decision.use_prediction) {
          cached = cache.Get(decision.prediction.plan);
        }
        result.predict_seconds += SecondsSince(predict_start);

        if (decision.use_prediction && cached != nullptr) {
          ++result.predictions_used;
          PPC_ASSIGN_OR_RETURN(double cost,
                               simulator.Execute(prep, *cached, point));
          result.execute_seconds += cost * options_.cost_to_seconds;

          auto feedback_start = Clock::now();
          const bool suspected = online.ReportPredictionExecuted(
              point, decision.prediction, cost);
          result.predict_seconds += SecondsSince(feedback_start);
          if (suspected) {
            auto start = Clock::now();
            PPC_ASSIGN_OR_RETURN(OptimizationResult opt,
                                 optimizer.Optimize(prep, point));
            result.optimize_seconds += SecondsSince(start);
            ++result.optimizer_calls;
            PPC_ASSIGN_OR_RETURN(double true_cost,
                                 simulator.Execute(prep, *opt.plan, point));
            online.ObserveOptimized(
                LabeledPoint{point, opt.plan_id, true_cost});
            cache.Put(opt.plan_id, std::move(opt.plan));
          }
          // Suboptimality accounting (measurement-only, not charged).
          PPC_ASSIGN_OR_RETURN(OptimizationResult best,
                               optimizer.Optimize(prep, point));
          PPC_ASSIGN_OR_RETURN(double best_cost,
                               simulator.Execute(prep, *best.plan, point));
          result.suboptimality_sum +=
              best_cost > 0.0 ? cost / best_cost : 1.0;
        } else {
          auto start = Clock::now();
          PPC_ASSIGN_OR_RETURN(OptimizationResult opt,
                               optimizer.Optimize(prep, point));
          result.optimize_seconds += SecondsSince(start);
          ++result.optimizer_calls;
          PPC_ASSIGN_OR_RETURN(double cost,
                               simulator.Execute(prep, *opt.plan, point));
          result.execute_seconds += cost * options_.cost_to_seconds;
          result.suboptimality_sum += 1.0;
          online.ObserveOptimized(LabeledPoint{point, opt.plan_id, cost});
          cache.Put(opt.plan_id, std::move(opt.plan));
        }
        break;
      }

      case CachingStrategy::kIdeal: {
        // 100% precision and recall: the optimal plan materializes with no
        // optimizer time charged (the Optimize call is measurement-only).
        PPC_ASSIGN_OR_RETURN(OptimizationResult opt,
                             optimizer.Optimize(prep, point));
        PPC_ASSIGN_OR_RETURN(double cost,
                             simulator.Execute(prep, *opt.plan, point));
        result.execute_seconds += cost * options_.cost_to_seconds;
        result.suboptimality_sum += 1.0;
        break;
      }
    }
  }
  return result;
}

}  // namespace ppc
