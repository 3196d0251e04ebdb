#ifndef PPC_PPC_RUNTIME_SIMULATOR_H_
#define PPC_PPC_RUNTIME_SIMULATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "ppc/online_predictor.h"
#include "workload/query_template.h"

namespace ppc {

/// Plan-caching strategies compared in the end-to-end runtime experiment
/// (paper Sec. V-C / Fig. 13).
enum class CachingStrategy {
  /// Invoke the optimizer for every query instance.
  kAlwaysOptimize,
  /// Conventional plan caching: the plan optimized for the first instance
  /// (the least-specific-cost plan) is reused for every later instance.
  kConventionalCache,
  /// Robust query processing baseline (paper Sec. VI-A): one up-front
  /// selection of the minimum-average-cost plan over a uniform sample of
  /// the plan space, then reused for every instance. The eager selection
  /// cost is charged to the run.
  kRobustCache,
  /// The paper's contribution: ONLINE-APPROXIMATE-LSH-HISTOGRAMS.
  kParametricCache,
  /// Hypothetical predictor with 100% precision and recall (IDEAL): the
  /// optimal plan is always available at zero optimization cost.
  kIdeal,
};

const char* CachingStrategyName(CachingStrategy strategy);

/// Aggregate outcome of one simulated run.
struct RuntimeSimResult {
  CachingStrategy strategy = CachingStrategy::kAlwaysOptimize;
  size_t queries = 0;
  size_t optimizer_calls = 0;
  size_t predictions_used = 0;
  /// Wall-clock seconds measured inside the optimizer.
  double optimize_seconds = 0.0;
  /// Wall-clock seconds measured inside the predictor (prediction +
  /// feedback bookkeeping).
  double predict_seconds = 0.0;
  /// Execution cost converted to seconds via cost_to_seconds.
  double execute_seconds = 0.0;
  /// Sum of executed-cost / optimal-cost per query (>= 1).
  double suboptimality_sum = 0.0;
  /// The PPC strategy's plan-cache evictions, and how many of them the
  /// precision score rather than recency chose (0 for other strategies).
  uint64_t evictions = 0;
  uint64_t precision_evictions = 0;

  double TotalSeconds() const {
    return optimize_seconds + predict_seconds + execute_seconds;
  }
  double MeanSuboptimality() const {
    return queries == 0 ? 0.0
                        : suboptimality_sum / static_cast<double>(queries);
  }
};

/// Replays one workload (a sequence of plan-space points for a single
/// template) under one caching strategy, charging measured optimizer and
/// predictor wall time plus simulated execution time (the paper's
/// out-of-engine simulation methodology: prototype timings are an upper
/// bound on framework overhead, execution costs come from the cost model
/// replayed at the true point).
class RuntimeSimulator {
 public:
  struct Options {
    /// Conversion from cost-model units to seconds of execution.
    double cost_to_seconds = 1e-5;
    /// Configuration of the PPC strategy's online predictor.
    OnlinePpcPredictor::Config online;
    size_t plan_cache_capacity = 64;
    /// Sample points for the kRobustCache up-front selection.
    size_t robust_sample_count = 100;
    uint64_t seed = 1234;
  };

  RuntimeSimulator(const Catalog* catalog, QueryTemplate tmpl,
                   Options options);

  /// Runs the workload under `strategy` from a cold start.
  Result<RuntimeSimResult> Run(
      CachingStrategy strategy,
      const std::vector<std::vector<double>>& workload) const;

 private:
  const Catalog* catalog_;
  QueryTemplate tmpl_;
  Options options_;
};

}  // namespace ppc

#endif  // PPC_PPC_RUNTIME_SIMULATOR_H_
