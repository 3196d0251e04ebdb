#include "ppc/decision_step.h"

#include <chrono>
#include <utility>

namespace ppc {

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

}  // namespace

Result<PlanOracle::Optimized> OptimizerOracle::OptimizeAndRun(
    const std::vector<double>& point) {
  auto start = Clock::now();
  PPC_ASSIGN_OR_RETURN(OptimizationResult opt,
                       optimizer_.Optimize(prepared_, point));
  optimize_micros += MicrosSince(start);
  ++optimizer_calls;
  start = Clock::now();
  PPC_ASSIGN_OR_RETURN(double cost,
                       simulator_->Execute(prepared_, *opt.plan, point));
  run_micros += MicrosSince(start);
  return Optimized{opt.plan_id, std::move(opt.plan), cost};
}

Result<double> OptimizerOracle::Execute(const PlanNode& plan,
                                        const std::vector<double>& point) {
  const auto start = Clock::now();
  PPC_ASSIGN_OR_RETURN(double cost,
                       simulator_->Execute(prepared_, plan, point));
  execute_micros += MicrosSince(start);
  return cost;
}

Result<StepOutcome> RunDecisionStep(OnlinePpcPredictor* online,
                                    PlanCache* cache, PlanOracle* oracle,
                                    const std::vector<double>& point) {
  StepOutcome out;
  const auto decide_start = Clock::now();
  out.decision = online->Decide(point);
  std::shared_ptr<const PlanNode> cached;
  if (out.decision.use_prediction) {
    cached = cache->Get(out.decision.prediction.plan);
  }
  out.decide_micros = MicrosSince(decide_start);

  if (cached != nullptr) {
    out.used_prediction = true;
    out.executed_plan = out.decision.prediction.plan;
    PPC_ASSIGN_OR_RETURN(out.executed_cost, oracle->Execute(*cached, point));
    const auto feedback_start = Clock::now();
    out.suspected = online->ReportPredictionExecuted(
        point, out.decision.prediction, out.executed_cost);
    out.feedback_micros = MicrosSince(feedback_start);
  } else {
    out.prediction_evicted = out.decision.use_prediction;
  }

  if (!out.used_prediction || out.suspected) {
    PPC_ASSIGN_OR_RETURN(PlanOracle::Optimized opt,
                         oracle->OptimizeAndRun(point));
    if (out.prediction_evicted) {
      // The true plan is known exactly: score the prediction rather than
      // drop it, or the precision/recall windows overcount by omission.
      online->ReportPredictionOutcome(out.decision.prediction, opt.plan_id);
    }
    if (!out.used_prediction) {
      out.executed_plan = opt.plan_id;
      out.executed_cost = opt.cost;
    }
    // On a suspected misprediction the query was already answered by the
    // cached plan; the truth point corrects the histograms.
    out.truth = LabeledPoint{point, opt.plan_id, opt.cost};
    online->ObserveOptimized(out.truth);
    cache->Put(opt.plan_id, std::move(opt.plan));
    // Put resets the entry's eviction rank to the default 1.0; rank the
    // plan by its tracked precision or eviction mis-prioritizes it.
    cache->SetPrecisionScore(opt.plan_id,
                             online->PlanPrecision(opt.plan_id));
  }
  if (out.used_prediction) {
    cache->SetPrecisionScore(out.executed_plan,
                             online->PlanPrecision(out.executed_plan));
  }
  return out;
}

}  // namespace ppc
