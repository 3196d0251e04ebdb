#ifndef PPC_PPC_DECISION_STEP_H_
#define PPC_PPC_DECISION_STEP_H_

#include <memory>
#include <vector>

#include "clustering/predictor.h"
#include "common/status.h"
#include "exec/execution_simulator.h"
#include "optimizer/optimizer.h"
#include "plan/plan_node.h"
#include "ppc/online_predictor.h"
#include "ppc/plan_cache.h"

namespace ppc {

/// What the decision step runs plans on: the query optimizer and an
/// executor, both supplied by the caller. Serving wires in the optimizer
/// and the noisy execution simulator, the Fig. 13 simulator the zero-noise
/// one, and the online benches the optimizer's own cost estimate.
class PlanOracle {
 public:
  /// The optimizer's answer at a point and the cost of running it there.
  struct Optimized {
    PlanId plan_id = kNullPlanId;
    std::unique_ptr<PlanNode> plan;
    /// Cost of the optimal plan at the point: the cost fed to the
    /// predictor as ground truth.
    double cost = 0.0;
  };

  PlanOracle() = default;
  PlanOracle(const PlanOracle&) = delete;
  PlanOracle& operator=(const PlanOracle&) = delete;
  virtual ~PlanOracle() = default;

  /// Optimizes the query at `point` and runs the optimal plan there.
  virtual Result<Optimized> OptimizeAndRun(
      const std::vector<double>& point) = 0;

  /// Runs `plan` at `point` and returns its cost.
  virtual Result<double> Execute(const PlanNode& plan,
                                 const std::vector<double>& point) = 0;
};

/// A PlanOracle over the optimizer and an execution simulator, summing the
/// wall time of each kind of call since construction.
class OptimizerOracle final : public PlanOracle {
 public:
  OptimizerOracle(const Optimizer& optimizer, ExecutionSimulator* simulator,
                  const PreparedTemplate& prepared)
      : optimizer_(optimizer), simulator_(simulator), prepared_(prepared) {}

  Result<Optimized> OptimizeAndRun(const std::vector<double>& point) override;
  Result<double> Execute(const PlanNode& plan,
                         const std::vector<double>& point) override;

  /// Optimizer calls and their wall time, the optimal plans' runs after
  /// them, and Execute's runs.
  size_t optimizer_calls = 0;
  double optimize_micros = 0.0;
  double run_micros = 0.0;
  double execute_micros = 0.0;

 private:
  const Optimizer& optimizer_;
  ExecutionSimulator* simulator_;
  const PreparedTemplate& prepared_;
};

/// What one decision step did at one point.
struct StepOutcome {
  OnlinePpcPredictor::Decision decision;
  /// The predicted plan was in the cache and ran.
  bool used_prediction = false;
  /// The predictor named a plan the cache had evicted; the optimizer ran
  /// instead and the prediction was scored against its answer.
  bool prediction_evicted = false;
  /// Negative feedback judged the executed prediction wrong, so the
  /// optimizer ran after it.
  bool suspected = false;
  /// The plan that answered the query, and its cost.
  PlanId executed_plan = kNullPlanId;
  double executed_cost = 0.0;
  /// The optimizer's labeled point: plan kNullPlanId and no coordinates
  /// when the optimizer did not run.
  LabeledPoint truth;
  /// Wall time of Decide plus the cache lookup, and of the negative
  /// feedback call (0 when no prediction ran).
  double decide_micros = 0.0;
  double feedback_micros = 0.0;

  bool optimized() const { return truth.plan != kNullPlanId; }
};

/// The paper's per-query loop (Sec. IV-C/D), in one place: Decide, look
/// the predicted plan up in `cache`, and either run it and report its cost
/// to negative feedback, or call the optimizer. Whenever the optimizer runs
/// (NULL prediction, random invocation, evicted plan or suspected
/// misprediction), its point is observed by `online`, its plan is put in
/// `cache`, and the plan's eviction rank is set from its tracked precision
/// (Sec. IV-E); an executed prediction's rank is refreshed too. A
/// prediction naming an evicted plan is scored exactly against the
/// optimizer's answer.
///
/// Thread safety: as safe as `online`, `cache` and `oracle` are; serving
/// calls it concurrently with one oracle per call.
Result<StepOutcome> RunDecisionStep(OnlinePpcPredictor* online,
                                    PlanCache* cache, PlanOracle* oracle,
                                    const std::vector<double>& point);

}  // namespace ppc

#endif  // PPC_PPC_DECISION_STEP_H_
