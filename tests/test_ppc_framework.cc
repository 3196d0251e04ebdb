#include "ppc/ppc_framework.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "ppc/metrics.h"
#include "test_util.h"
#include "workload/templates.h"
#include "workload/workload_generator.h"

namespace ppc {
namespace {

using testutil::SmallTpch;

PpcFramework::Config BaseConfig() {
  PpcFramework::Config cfg;
  cfg.online.predictor.transform_count = 5;
  cfg.online.predictor.histogram_buckets = 40;
  cfg.online.predictor.radius = 0.05;
  cfg.online.predictor.confidence_threshold = 0.8;
  cfg.online.predictor.noise_fraction = 0.002;
  cfg.online.estimator_window = 100;
  cfg.plan_cache_capacity = 64;
  return cfg;
}

TEST(PpcFrameworkTest, RegisterValidatesTemplates) {
  PpcFramework framework(&SmallTpch(), BaseConfig());
  EXPECT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  EXPECT_EQ(framework.RegisterTemplate(EvaluationTemplate("Q1")).code(),
            StatusCode::kAlreadyExists);
  QueryTemplate bad{"bad", {"zzz"}, {}, {}, true};
  EXPECT_FALSE(framework.RegisterTemplate(bad).ok());
}

TEST(PpcFrameworkTest, UnknownTemplateRejected) {
  PpcFramework framework(&SmallTpch(), BaseConfig());
  EXPECT_FALSE(framework.ExecuteAtPoint("Q1", {0.5, 0.5}).ok());
}

TEST(PpcFrameworkTest, FirstQueryOptimizes) {
  PpcFramework framework(&SmallTpch(), BaseConfig());
  ASSERT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  auto report = framework.ExecuteAtPoint("Q1", {0.5, 0.5});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().optimizer_invoked);
  EXPECT_FALSE(report.value().used_prediction);
  EXPECT_NE(report.value().executed_plan, kNullPlanId);
  EXPECT_EQ(report.value().executed_plan, report.value().optimal_plan);
  EXPECT_GT(report.value().execution_cost, 0.0);
  EXPECT_GT(report.value().optimize_micros, 0.0);
}

TEST(PpcFrameworkTest, RepeatedQueriesStartHittingCache) {
  PpcFramework framework(&SmallTpch(), BaseConfig());
  ASSERT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  Rng rng(1);
  size_t predictions = 0;
  for (int i = 0; i < 300; ++i) {
    // A tight cluster of points: one optimality region.
    std::vector<double> x = {0.5 + rng.Uniform(-0.02, 0.02),
                             0.5 + rng.Uniform(-0.02, 0.02)};
    auto report = framework.ExecuteAtPoint("Q1", x);
    ASSERT_TRUE(report.ok());
    if (report.value().used_prediction) ++predictions;
  }
  EXPECT_GT(predictions, 100u);
  EXPECT_GT(framework.plan_cache().hits(), 100u);
}

TEST(PpcFrameworkTest, PredictBatchMatchesScalarPredictAtPoint) {
  PpcFramework framework(&SmallTpch(), BaseConfig());
  ASSERT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x = {0.5 + rng.Uniform(-0.1, 0.1),
                             0.5 + rng.Uniform(-0.1, 0.1)};
    ASSERT_TRUE(framework.ExecuteAtPoint("Q1", x).ok());
  }
  Rng probe(4);
  const size_t count = 64;
  std::vector<double> flat;
  for (size_t i = 0; i < count * 2; ++i) {
    flat.push_back(0.4 + 0.2 * probe.Uniform());
  }
  auto batch = framework.PredictBatch("Q1", flat.data(), count, 2);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.value().size(), count);
  for (size_t p = 0; p < count; ++p) {
    auto scalar = framework.PredictAtPoint("Q1", {flat[2 * p],
                                                  flat[2 * p + 1]});
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(batch.value()[p].plan, scalar.value().plan) << "point " << p;
    EXPECT_EQ(batch.value()[p].confidence, scalar.value().confidence)
        << "point " << p;
    EXPECT_EQ(batch.value()[p].cache_hit, scalar.value().cache_hit)
        << "point " << p;
  }
}

TEST(PpcFrameworkTest, PredictBatchValidatesAllOrNothing) {
  PpcFramework framework(&SmallTpch(), BaseConfig());
  ASSERT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  const std::vector<double> good = {0.5, 0.5, 0.4, 0.6};
  EXPECT_EQ(framework.PredictBatch("nope", good.data(), 2, 2).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(framework.PredictBatch("Q1", good.data(), 0, 2).status().code(),
            StatusCode::kInvalidArgument);
  // Wrong arity: Q1 has degree 2.
  EXPECT_EQ(framework.PredictBatch("Q1", good.data(), 1, 4).status().code(),
            StatusCode::kInvalidArgument);
  // One non-finite coordinate poisons the whole batch (per-point partial
  // failure is not part of the contract — DESIGN.md §13).
  const std::vector<double> bad = {0.5, 0.5,
                                   std::numeric_limits<double>::quiet_NaN(),
                                   0.6};
  EXPECT_EQ(framework.PredictBatch("Q1", bad.data(), 2, 2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PpcFrameworkTest, PredictionsMatchOptimizerGroundTruth) {
  PpcFramework framework(&SmallTpch(), BaseConfig());
  const QueryTemplate tmpl = EvaluationTemplate("Q1");
  ASSERT_TRUE(framework.RegisterTemplate(tmpl).ok());
  Optimizer oracle(&SmallTpch());
  auto prep = oracle.Prepare(tmpl).value();

  Rng rng(3);
  TrajectoryConfig traj;
  traj.dimensions = 2;
  traj.total_points = 600;
  traj.scatter = 0.01;
  MetricsAccumulator metrics;
  for (const auto& x : RandomTrajectoriesWorkload(traj, &rng)) {
    auto report = framework.ExecuteAtPoint("Q1", x);
    ASSERT_TRUE(report.ok());
    if (report.value().used_prediction) {
      const PlanId truth = oracle.Optimize(prep, x).value().plan_id;
      metrics.Record(report.value().executed_plan, truth);
    }
  }
  if (metrics.answered() > 20) {
    // Q1's plan diagram has thin bands at this scale; online precision in
    // the low 80s matches the paper's harder templates.
    EXPECT_GT(metrics.Precision(), 0.75);
  }
}

TEST(PpcFrameworkTest, ExecuteInstanceNormalizesParameters) {
  PpcFramework framework(&SmallTpch(), BaseConfig());
  const QueryTemplate tmpl = EvaluationTemplate("Q1");
  ASSERT_TRUE(framework.RegisterTemplate(tmpl).ok());
  SelectivityMapper mapper(&SmallTpch(), &tmpl);
  auto instance = mapper.ToInstance({0.4, 0.6}).value();
  auto report = framework.ExecuteInstance(instance);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().optimizer_invoked);
}

TEST(PpcFrameworkTest, ExecuteInstanceRejectsArityMismatch) {
  PpcFramework framework(&SmallTpch(), BaseConfig());
  ASSERT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  QueryInstance bad{"Q1", {100.0}};
  EXPECT_FALSE(framework.ExecuteInstance(bad).ok());
}

TEST(PpcFrameworkTest, MultipleTemplatesCoexist) {
  PpcFramework framework(&SmallTpch(), BaseConfig());
  ASSERT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  ASSERT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q3")).ok());
  EXPECT_TRUE(framework.ExecuteAtPoint("Q1", {0.5, 0.5}).ok());
  EXPECT_TRUE(framework.ExecuteAtPoint("Q3", {0.5, 0.5, 0.5}).ok());
  EXPECT_NE(framework.online_predictor("Q1"), nullptr);
  EXPECT_NE(framework.online_predictor("Q3"), nullptr);
  EXPECT_EQ(framework.online_predictor("Q9"), nullptr);
}

TEST(PpcFrameworkTest, PredictorDimensionsFollowTemplateDegree) {
  PpcFramework framework(&SmallTpch(), BaseConfig());
  ASSERT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q8")).ok());
  EXPECT_EQ(
      framework.online_predictor("Q8")->config().predictor.dimensions, 6);
}

TEST(PpcFrameworkTest, RegistrySealsOnFirstExecution) {
  PpcFramework framework(&SmallTpch(), BaseConfig());
  ASSERT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  EXPECT_FALSE(framework.sealed());
  ASSERT_TRUE(framework.ExecuteAtPoint("Q1", {0.5, 0.5}).ok());
  EXPECT_TRUE(framework.sealed());
  EXPECT_EQ(framework.RegisterTemplate(EvaluationTemplate("Q3")).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PpcFrameworkTest, ExplicitSealBlocksRegistration) {
  PpcFramework framework(&SmallTpch(), BaseConfig());
  ASSERT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  framework.Seal();
  EXPECT_EQ(framework.RegisterTemplate(EvaluationTemplate("Q3")).code(),
            StatusCode::kFailedPrecondition);
  // Sealing is idempotent and already-registered templates keep serving.
  framework.Seal();
  EXPECT_TRUE(framework.ExecuteAtPoint("Q1", {0.5, 0.5}).ok());
}

TEST(PpcFrameworkTest, NoisyExecutionTriggersNegativeFeedback) {
  // With heavy execution-cost noise, the plan-cost-predictability test
  // misfires regularly; each suspected misprediction must invoke the
  // optimizer immediately (paper Sec. IV-D negative feedback).
  auto config = BaseConfig();
  config.execution_noise_stddev = 1.0;
  PpcFramework framework(&SmallTpch(), config);
  ASSERT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  Rng rng(7);
  size_t feedback = 0;
  for (int i = 0; i < 400; ++i) {
    std::vector<double> x = {0.5 + rng.Uniform(-0.02, 0.02),
                             0.5 + rng.Uniform(-0.02, 0.02)};
    auto report = framework.ExecuteAtPoint("Q1", x).value();
    if (report.negative_feedback_triggered) {
      ++feedback;
      EXPECT_TRUE(report.optimizer_invoked);
      EXPECT_TRUE(report.used_prediction);
      EXPECT_GT(report.optimize_micros, 0.0);
    }
  }
  EXPECT_GT(feedback, 10u);
}

TEST(PpcFrameworkTest, EvictedPredictionIsScoredAgainstGroundTruth) {
  // Regression: a non-NULL prediction whose plan was evicted from the
  // cache used to fall through to the optimizer without ever reaching the
  // tracker, so the precision/recall windows overcounted by omission.
  PpcFramework framework(&SmallTpch(), BaseConfig());
  ASSERT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x = {0.5 + rng.Uniform(-0.02, 0.02),
                             0.5 + rng.Uniform(-0.02, 0.02)};
    ASSERT_TRUE(framework.ExecuteAtPoint("Q1", x).ok());
  }

  size_t evicted_events = 0;
  for (int i = 0; i < 20 && evicted_events == 0; ++i) {
    // Drop every cached plan; the predictor still names one.
    framework.plan_cache().Clear();
    const auto before = framework.online_predictor("Q1")->GetStats();
    std::vector<double> x = {0.5 + rng.Uniform(-0.005, 0.005),
                             0.5 + rng.Uniform(-0.005, 0.005)};
    auto report = framework.ExecuteAtPoint("Q1", x).value();
    if (!report.prediction_evicted) continue;  // NULL prediction, retry
    ++evicted_events;
    EXPECT_TRUE(report.optimizer_invoked);
    EXPECT_FALSE(report.used_prediction);
    EXPECT_FALSE(report.cache_hit);
    // The prediction's exact correctness reached the tracker.
    const auto after = framework.online_predictor("Q1")->GetStats();
    EXPECT_EQ(after.feedback_positive + after.feedback_negative,
              before.feedback_positive + before.feedback_negative + 1);
  }
  ASSERT_GT(evicted_events, 0u);
  const auto snap = framework.MetricsSnapshot().registry;
  uint64_t evicted_counter = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "framework.predictions.evicted") evicted_counter = value;
  }
  EXPECT_EQ(evicted_counter, evicted_events);
}

TEST(PpcFrameworkTest, DeterministicAcrossInstancesWithSameConfig) {
  // Regression: per-template seeds used std::hash<std::string>, which is
  // not stable across standard libraries. With the FNV-1a derivation two
  // identically configured frameworks must replay a workload identically.
  auto run = [](std::vector<PpcFramework::QueryReport>* out) {
    PpcFramework framework(&SmallTpch(), BaseConfig());
    ASSERT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q1")).ok());
    ASSERT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q3")).ok());
    Rng rng(77);
    for (int i = 0; i < 150; ++i) {
      std::vector<double> q1 = {0.5 + rng.Uniform(-0.03, 0.03),
                                0.5 + rng.Uniform(-0.03, 0.03)};
      out->push_back(framework.ExecuteAtPoint("Q1", q1).value());
      std::vector<double> q3 = {0.45 + rng.Uniform(-0.03, 0.03),
                                0.45 + rng.Uniform(-0.03, 0.03),
                                0.45 + rng.Uniform(-0.03, 0.03)};
      out->push_back(framework.ExecuteAtPoint("Q3", q3).value());
    }
  };
  std::vector<PpcFramework::QueryReport> first, second;
  run(&first);
  run(&second);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].executed_plan, second[i].executed_plan) << i;
    EXPECT_EQ(first[i].optimal_plan, second[i].optimal_plan) << i;
    EXPECT_EQ(first[i].used_prediction, second[i].used_prediction) << i;
    EXPECT_EQ(first[i].cache_hit, second[i].cache_hit) << i;
    EXPECT_EQ(first[i].optimizer_invoked, second[i].optimizer_invoked) << i;
    EXPECT_EQ(first[i].prediction_evicted, second[i].prediction_evicted)
        << i;
    EXPECT_EQ(first[i].negative_feedback_triggered,
              second[i].negative_feedback_triggered)
        << i;
    EXPECT_EQ(first[i].execution_cost, second[i].execution_cost) << i;
  }
}

TEST(PpcFrameworkTest, CorrectivePutCarriesTrackedPrecisionScore) {
  // Regression: plans re-inserted by the optimizer (negative feedback or
  // plain optimize path) used to keep Put's default precision rank of 1.0
  // even when the tracker held a degraded estimate, so precision-based
  // eviction mis-prioritized freshly corrected plans.
  auto config = BaseConfig();
  config.execution_noise_stddev = 1.0;  // cost test misfires regularly
  config.online.mean_invocation_probability = 0.2;
  PpcFramework framework(&SmallTpch(), config);
  ASSERT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  Rng rng(13);
  size_t checks = 0, degraded_checks = 0;
  for (int i = 0; i < 400; ++i) {
    std::vector<double> x = {0.5 + rng.Uniform(-0.02, 0.02),
                             0.5 + rng.Uniform(-0.02, 0.02)};
    auto report = framework.ExecuteAtPoint("Q1", x).value();
    if (!report.optimizer_invoked) continue;
    // The optimizer just Put report.optimal_plan; its cache rank must be
    // the tracker's current estimate, not the overwrite default.
    const double tracked =
        framework.online_predictor("Q1")->PlanPrecision(report.optimal_plan);
    auto score = framework.plan_cache().PrecisionScore(report.optimal_plan);
    ASSERT_TRUE(score.has_value());
    EXPECT_DOUBLE_EQ(*score, tracked);
    ++checks;
    if (tracked < 1.0) ++degraded_checks;
  }
  EXPECT_GT(checks, 10u);
  // The assertion only has teeth when the tracked estimate differs from
  // the default; the noisy workload must have produced such cases.
  EXPECT_GT(degraded_checks, 0u);
}

TEST(PpcFrameworkTest, ServingEvictsByPrecision) {
  // The paper's eviction signal (Sec. IV-E) must act on the serving path:
  // with a cache smaller than Q8's plan set and a noisy cost test that
  // degrades tracked precision, some victims must be chosen by their
  // precision score rather than by recency alone.
  auto config = BaseConfig();
  config.execution_noise_stddev = 1.0;
  config.online.mean_invocation_probability = 0.2;
  config.plan_cache_capacity = 8;
  PpcFramework framework(&SmallTpch(), config);
  const QueryTemplate q8 = EvaluationTemplate("Q8");
  ASSERT_TRUE(framework.RegisterTemplate(q8).ok());
  Rng rng(17);
  std::vector<double> x(q8.ParameterDegree(), 0.5);
  for (int i = 0; i < 3000; ++i) {
    for (double& v : x) {
      v = std::clamp(v + (rng.Bernoulli(0.5) ? 0.02 : -0.02), 0.0, 1.0);
    }
    ASSERT_TRUE(framework.ExecuteAtPoint("Q8", x).ok());
  }
  EXPECT_GE(framework.plan_cache().GetStats().precision_evictions, 1u);
}

TEST(PpcFrameworkTest, CachedExecutionSkipsOptimizerUnlessFeedback) {
  PpcFramework framework(&SmallTpch(), BaseConfig());
  ASSERT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  Rng rng(5);
  size_t cheap_queries = 0;
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x = {0.3 + rng.Uniform(-0.01, 0.01),
                             0.3 + rng.Uniform(-0.01, 0.01)};
    auto report = framework.ExecuteAtPoint("Q1", x).value();
    if (report.used_prediction && !report.negative_feedback_triggered) {
      EXPECT_FALSE(report.optimizer_invoked);
      EXPECT_EQ(report.optimize_micros, 0.0);
      ++cheap_queries;
    }
  }
  EXPECT_GT(cheap_queries, 100u);
}

}  // namespace
}  // namespace ppc
