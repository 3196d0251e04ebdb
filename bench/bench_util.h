#ifndef PPC_BENCH_BENCH_UTIL_H_
#define PPC_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "clustering/predictor.h"
#include "common/math_utils.h"
#include "ppc/decision_step.h"
#include "ppc/metrics_registry.h"
#include "ppc/online_predictor.h"
#include "ppc/ppc_framework.h"
#include "common/rng.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_evaluator.h"
#include "ppc/metrics.h"
#include "server/server.h"
#include "storage/tpch_generator.h"
#include "workload/scenarios.h"
#include "workload/templates.h"
#include "workload/workload_generator.h"

namespace ppc {
namespace bench {

/// Shared TPC-H catalog for the experiment harnesses (scale 0.002, the
/// same configuration the unit tests use; plan-space *shape* is what the
/// experiments measure and it is scale-invariant).
inline const Catalog& BenchCatalog() {
  static const Catalog* catalog = [] {
    TpchConfig cfg;
    cfg.scale_factor = 0.002;
    cfg.seed = 42;
    return BuildTpchCatalog(cfg).release();
  }();
  return *catalog;
}

/// One experiment context: a query template bound to the optimizer, acting
/// as the ground-truth oracle for the plan space (the paper's "probing the
/// optimizer").
class Experiment {
 public:
  explicit Experiment(const std::string& template_name,
                      CostModelParams cost_params = CostModelParams(),
                      const Catalog* catalog = &BenchCatalog())
      : optimizer_(catalog, cost_params),
        tmpl_(EvaluationTemplate(template_name)) {
    Reprepare();
  }

  /// Re-reads the catalog's statistics, as after an ANALYZE.
  void Reprepare() {
    auto prep = optimizer_.Prepare(tmpl_);
    PPC_CHECK_MSG(prep.ok(), prep.status().ToString().c_str());
    prep_ = std::move(prep).value();
  }

  const QueryTemplate& tmpl() const { return tmpl_; }
  const PreparedTemplate& prepared() const { return prep_; }
  const Optimizer& optimizer() const { return optimizer_; }
  int dims() const { return tmpl_.ParameterDegree(); }

  /// Ground truth at `point`: the optimizer's plan and its cost there.
  LabeledPoint Label(const std::vector<double>& point) const {
    auto result = optimizer_.Optimize(prep_, point);
    PPC_CHECK_MSG(result.ok(), result.status().ToString().c_str());
    return LabeledPoint{point, result.value().plan_id,
                        result.value().estimated_cost};
  }

  /// Cost of executing `plan` at `point` (for suboptimality accounting).
  double CostOf(const PlanNode& plan, const std::vector<double>& point) const {
    auto eval =
        EvaluatePlanAtPoint(prep_, optimizer_.cost_model(), plan, point);
    PPC_CHECK_MSG(eval.ok(), eval.status().ToString().c_str());
    return eval.value().cost;
  }

  /// Uniformly sampled labeled points (the offline workflow's X / T sets).
  std::vector<LabeledPoint> LabeledSample(size_t count, Rng* rng) const {
    std::vector<LabeledPoint> points;
    points.reserve(count);
    for (auto& p : UniformPlanSpaceSample(dims(), count, rng)) {
      points.push_back(Label(p));
    }
    return points;
  }

  /// Precision/recall of `predictor` against the optimizer oracle over
  /// `test` points (paper Definition 4).
  MetricsAccumulator Evaluate(
      const PlanPredictor& predictor,
      const std::vector<std::vector<double>>& test) const {
    MetricsAccumulator metrics;
    for (const auto& x : test) {
      metrics.Record(predictor.Predict(x).plan, Label(x).plan);
    }
    return metrics;
  }

 private:
  Optimizer optimizer_;
  QueryTemplate tmpl_;
  PreparedTemplate prep_;
};

/// A random-trajectories workload (Sec. V-B): `count` points over `dims`
/// parameters with scatter r_d = `scatter`, drawn from Rng(`seed`).
inline std::vector<std::vector<double>> TrajectoryWorkload(
    int dims, size_t count, double scatter, uint64_t seed) {
  TrajectoryConfig traj;
  traj.dimensions = dims;
  traj.total_points = count;
  traj.scatter = scatter;
  Rng rng(seed);
  return RandomTrajectoriesWorkload(traj, &rng);
}

/// The online predictor of the Fig. 11/13 regime (t = 5, b_h = 40,
/// d = 0.2, gamma = 0.8, noise elimination and negative feedback on) over
/// `dims` parameters: the base each online bench varies.
inline OnlinePpcPredictor::Config OnlineBenchConfig(int dims) {
  OnlinePpcPredictor::Config cfg;
  cfg.predictor.dimensions = dims;
  cfg.predictor.transform_count = 5;
  cfg.predictor.histogram_buckets = 40;
  cfg.predictor.radius = 0.2;
  cfg.predictor.confidence_threshold = 0.8;
  cfg.predictor.noise_fraction = 0.0005;
  cfg.negative_feedback = true;
  return cfg;
}

/// Outcome of driving an online predictor over a workload with the
/// optimizer as ground truth.
struct OnlineOutcome {
  /// True precision/recall of every query decision (NULL / optimizer
  /// fallback counts as a missed prediction, per Definition 4).
  MetricsAccumulator overall;
  /// Same, bucketed into consecutive windows (learning curves).
  std::vector<MetricsAccumulator> windows;
  size_t optimizer_calls = 0;
  size_t predictions_used = 0;
  size_t negative_feedback_events = 0;
  /// Executed predictions whose cost-test verdict matched ground truth
  /// (the binary estimator of the paper's ~72% claim).
  size_t estimator_agreements = 0;
  /// The online tracker's own windowed precision estimate, sampled at the
  /// end of each window (the signal Sec. IV-E uses for drift detection).
  std::vector<double> estimated_precision;
  /// Cumulative reset count sampled at the end of each window.
  std::vector<size_t> resets;
  /// Query index of every histogram reset, in order — drift experiments
  /// derive time-to-detect (first reset at or after the manipulation
  /// minus the manipulation index) from this.
  std::vector<size_t> reset_query_indices;

  double EstimatorAccuracy() const {
    return predictions_used == 0 ? 0.0
                                 : static_cast<double>(estimator_agreements) /
                                       static_cast<double>(predictions_used);
  }
};

/// The online benches' plan oracle for one query: the optimizer's answer,
/// computed up front because the benches score every decision against it,
/// with the optimizer's estimate as its cost; plans run on the cost model.
struct ExperimentOracle final : PlanOracle {
  ExperimentOracle(const Experiment& e, OptimizationResult t)
      : exp(e), truth(std::move(t)) {}
  Result<Optimized> OptimizeAndRun(const std::vector<double>&) override {
    return Optimized{truth.plan_id, std::move(truth.plan),
                     truth.estimated_cost};
  }
  Result<double> Execute(const PlanNode& plan,
                         const std::vector<double>& point) override {
    return exp.CostOf(plan, point);
  }
  const Experiment& exp;
  OptimizationResult truth;
};

/// Drives `online` over `workload` through the serving path's decision
/// step (ppc/decision_step.h), one query at a time, with a plan cache that
/// never evicts. `oracle_for(i)` supplies the ground-truth experiment for
/// query i, letting drift experiments swap the underlying plan space
/// mid-workload.
inline OnlineOutcome RunOnlineWorkload(
    OnlinePpcPredictor* online,
    const std::vector<std::vector<double>>& workload, size_t window_size,
    const std::function<const Experiment&(size_t)>& oracle_for) {
  OnlineOutcome outcome;
  PlanCache cache(SIZE_MAX);
  size_t seen_resets = online->reset_count();
  for (size_t i = 0; i < workload.size(); ++i) {
    const Experiment& exp = oracle_for(i);
    const std::vector<double>& x = workload[i];
    auto truth = exp.optimizer().Optimize(exp.prepared(), x);
    PPC_CHECK(truth.ok());
    const PlanId true_plan = truth.value().plan_id;
    ExperimentOracle oracle(exp, std::move(truth).value());
    auto result = RunDecisionStep(online, &cache, &oracle, x);
    PPC_CHECK(result.ok());
    const StepOutcome& step = result.value();

    if (i % window_size == 0) outcome.windows.emplace_back();
    // NULL prediction, random invocation and optimizer fallback count as
    // a missed prediction (Definition 4).
    const PlanId answered =
        step.used_prediction ? step.executed_plan : kNullPlanId;
    outcome.overall.Record(answered, true_plan);
    outcome.windows.back().Record(answered, true_plan);
    if (step.used_prediction) {
      ++outcome.predictions_used;
      // Score the binary estimator against ground truth (meaningful when
      // negative feedback is enabled; then `suspected` is exactly the
      // estimator's "wrong" verdict).
      if (step.suspected == (answered != true_plan)) {
        ++outcome.estimator_agreements;
      }
      if (step.suspected) ++outcome.negative_feedback_events;
    }
    if (step.optimized()) ++outcome.optimizer_calls;

    while (seen_resets < online->reset_count()) {
      outcome.reset_query_indices.push_back(i);
      ++seen_resets;
    }

    if ((i + 1) % window_size == 0 || i + 1 == workload.size()) {
      outcome.estimated_precision.push_back(
          online->tracker().TemplatePrecision());
      outcome.resets.push_back(online->reset_count());
    }
  }
  return outcome;
}

/// Convenience overload with a fixed oracle.
inline OnlineOutcome RunOnlineWorkload(
    OnlinePpcPredictor* online,
    const std::vector<std::vector<double>>& workload, size_t window_size,
    const Experiment& exp) {
  return RunOnlineWorkload(online, workload, window_size,
                           [&exp](size_t) -> const Experiment& {
                             return exp;
                           });
}

/// Looks up one counter in a registry snapshot (0 when absent — counters
/// materialize lazily, so an instrument a phase never touched is simply
/// missing from the snapshot).
inline uint64_t CounterValue(const MetricsRegistry::Snapshot& snap,
                             const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

/// Probes the hypercube `center` ± `half_width` (every dimension) with
/// `rng`: 80 interior samples establish whether the box is single-plan
/// internally, then 150 ring samples (offsets up to ±0.25, at least one
/// coordinate outside the box) measure what fraction of the surrounding
/// territory belongs to *other* plans. Shared by the drift benches: a
/// drift box wants a majority-other ring (the generation-0 query radius
/// drowns it), a home box wants a mostly-same ring (the predictor
/// settles there).
struct BoxProbe {
  bool pure = false;
  double ring_other_fraction = 0.0;
};

inline BoxProbe ProbeBox(const Experiment& exp, double center,
                         double half_width, Rng* rng) {
  const size_t dims = static_cast<size_t>(exp.dims());
  BoxProbe probe;
  PlanId inner = kNullPlanId;
  probe.pure = true;
  for (int i = 0; i < 80 && probe.pure; ++i) {
    std::vector<double> x(dims);
    for (double& v : x) v = center + rng->Uniform(-half_width, half_width);
    const PlanId plan = exp.Label(x).plan;
    if (inner == kNullPlanId) inner = plan;
    probe.pure = plan == inner;
  }
  if (!probe.pure) return probe;
  int ring_total = 0, ring_other = 0;
  for (int i = 0; i < 150; ++i) {
    std::vector<double> x(dims);
    bool outside = false;
    for (double& v : x) {
      const double d = rng->Uniform(-0.25, 0.25);
      if (std::abs(d) >= half_width + 0.01) outside = true;
      v = Clamp(center + d, 0.01, 0.99);
    }
    if (!outside) {
      --i;
      continue;
    }
    ++ring_total;
    if (exp.Label(x).plan != inner) ++ring_other;
  }
  probe.ring_other_fraction = ring_total == 0
                                  ? 0.0
                                  : static_cast<double>(ring_other) /
                                        static_cast<double>(ring_total);
  return probe;
}

/// Finds a drift box by probing the optimizer: a hypercube
/// c ± half_width that is single-plan *internally* while the
/// generation-0 query radius around it lands mostly in *other* plans'
/// territory. Single-plan-inside is the point of the scenario: a refit
/// that zooms the transform ranges onto the box resolves it completely,
/// while the generation-0 radius reaches past the box's plan boundary
/// and drowns it in the neighbors' density. Falls back to 0.5 if no
/// such box exists (the drift benches use templates known to have one).
inline double FindDriftBoxCenter(const Experiment& exp, double half_width) {
  Rng rng(99);
  for (double c = 0.08; c <= 0.93; c += 0.025) {
    const BoxProbe probe = ProbeBox(exp, c, half_width, &rng);
    if (probe.pure && probe.ring_other_fraction > 0.55) return c;
  }
  return 0.5;
}

/// Finds a pre-drift "home" hypercube: single-plan internally AND deep
/// inside its plan's territory (the generation-0 query radius around it
/// stays mostly same-plan), so the fixed predictor settles at a high
/// steady hit rate there — the baseline drift recovery is measured
/// against. Must also sit well away from the drift box.
inline double FindHomeCenter(const Experiment& exp, double box_center,
                             double half_width) {
  Rng rng(77);
  for (double c = 0.08; c <= 0.93; c += 0.025) {
    if (std::abs(c - box_center) < 0.3) continue;
    const BoxProbe probe = ProbeBox(exp, c, half_width, &rng);
    if (probe.pure && probe.ring_other_fraction < 0.3) return c;
  }
  return Clamp(box_center + 0.35, 0.05, 0.95);
}

/// The adversarial-drift arm (DESIGN.md §17) shared by
/// bench_drift_recovery and the workload zoo: ServingConfig with a wide
/// 0.2 query radius and negative feedback, plus the retuner when
/// `retune` is on. `warmup_queries` is the length of the warm-up phases
/// that precede the drift.
inline PpcFramework::Config DriftArmConfig(bool retune, size_t warmup_queries) {
  PpcFramework::Config cfg = ServingConfig();
  cfg.online.predictor.radius = 0.2;
  cfg.online.predictor.noise_fraction = 0.0005;
  cfg.online.negative_feedback = true;
  cfg.online.cost_error_bound = 0.25;
  cfg.retune.enabled = retune;
  cfg.retune.precision_trigger = 0.75;
  cfg.retune.recall_trigger = 0.6;
  // A small reservoir turns over fast after the concentration drift, and
  // the aggressive quantile shaves the old regime's stragglers off the
  // fitted ranges — both keep the first post-drift refit from landing on
  // a home-cluster/box mixture and producing a blurry in-between
  // generation.
  cfg.retune.reservoir_capacity = 128;
  cfg.retune.min_reservoir_points = 64;
  cfg.retune.range_fit_quantile = 0.15;
  // The warm-up phases have intrinsically low windowed recall (uniform
  // scatter) which would trip the trigger before there is any drift to
  // respond to. The cooldown covers them, so the first refit the
  // controller can possibly schedule is a genuine post-drift one.
  cfg.retune.cooldown_observations =
      warmup_queries - cfg.online.estimator_window;
  return cfg;
}

/// Registers the evaluation templates named in `names` on `framework`,
/// then seals it.
template <typename Names>
void RegisterAndSeal(PpcFramework* framework, const Names& names) {
  for (const auto& name : names) {
    const Status s = framework->RegisterTemplate(EvaluationTemplate(name));
    PPC_CHECK_MSG(s.ok(), s.ToString().c_str());
  }
  framework->Seal();
}

/// One query of a clustered serving workload.
struct Query {
  size_t template_index = 0;  // into the list the workload was drawn from
  const char* tmpl = "";
  std::vector<double> point;
};

/// Clustered points round-robin across `templates`: each run of
/// `run_length` consecutive queries draws around one of the centers 0.3,
/// 0.5 and 0.7, ±0.02 per coordinate. Pre-generated, so workload
/// generation stays off the timed path.
template <size_t N>
std::vector<Query> ClusteredWorkload(const char* const (&templates)[N],
                                     size_t count, uint64_t seed,
                                     size_t run_length) {
  Rng rng(seed);
  std::vector<int> dims;
  for (const char* name : templates) {
    dims.push_back(EvaluationTemplate(name).ParameterDegree());
  }
  const std::vector<double> centers = {0.3, 0.5, 0.7};
  std::vector<Query> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Query q;
    q.template_index = i % N;
    q.tmpl = templates[q.template_index];
    const double center = centers[(i / run_length) % centers.size()];
    q.point.resize(static_cast<size_t>(dims[q.template_index]));
    for (double& v : q.point) {
      v = std::clamp(center + rng.Uniform(-0.02, 0.02), 0.0, 1.0);
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

/// A workload-zoo scenario configuration (docs/WORKLOADS.md) over
/// `templates`, seeded with `seed`; every other knob at its default.
template <size_t N>
ScenarioConfig ScenarioOver(const char* const (&templates)[N],
                            uint64_t seed) {
  ScenarioConfig cfg;
  for (const char* name : templates) {
    cfg.templates.push_back({name, EvaluationTemplate(name).ParameterDegree()});
  }
  cfg.seed = seed;
  return cfg;
}

/// Prints a header in the format the harnesses share.
inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRule() {
  std::printf(
      "--------------------------------------------------------------\n");
}

/// Writes one machine-readable result file, BENCH_<name>.json, into the
/// working directory. `body` must be the members of a JSON object, without
/// the surrounding braces; a "bench" field is prepended. scripts/check.sh
/// validates every emitted file with a real JSON parser.
inline void WriteBenchJson(const std::string& name, const std::string& body) {
  const std::string path = "BENCH_" + name + ".json";
  FILE* json = std::fopen(path.c_str(), "w");
  if (json == nullptr) {
    std::printf("warning: could not write %s\n", path.c_str());
    return;
  }
  std::string header = "{\"bench\": ";
  AppendJsonString(name, &header);
  std::fprintf(json, "%s,\n%s\n}\n", header.c_str(), body.c_str());
  std::fclose(json);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace bench
}  // namespace ppc

#endif  // PPC_BENCH_BENCH_UTIL_H_
