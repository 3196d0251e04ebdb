#ifndef PPC_PPC_PPC_FRAMEWORK_H_
#define PPC_PPC_PPC_FRAMEWORK_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "exec/execution_simulator.h"
#include "optimizer/optimizer.h"
#include "ppc/metrics_registry.h"
#include "ppc/online_predictor.h"
#include "ppc/plan_cache.h"
#include "ppc/predict_report.h"
#include "ppc/retune/retune_controller.h"
#include "workload/query_template.h"
#include "workload/selectivity_mapper.h"

namespace ppc {

/// The parametric plan caching framework (paper Fig. 1): glues together the
/// query optimizer, the plan cache, and one online density-based predictor
/// per registered query template.
///
/// For each incoming query instance the framework maps it to a plan-space
/// point (predicate selectivities), asks the template's predictor for a
/// cached plan, and either executes the predicted plan from the cache or
/// falls back to the optimizer — feeding the newly optimized point back
/// into the predictor. This is the top-level public API the examples use.
///
/// Thread safety: the intended lifecycle is register all templates, then
/// serve. ExecuteInstance / ExecuteAtPoint may be called concurrently from
/// any number of threads; the first execution (or an explicit Seal())
/// freezes the template registry, after which RegisterTemplate returns
/// FailedPrecondition. Per-template state synchronizes independently, so
/// queries against different templates never contend on a predictor lock.
class PpcFramework {
 public:
  struct Config {
    /// Template for per-query-template online predictors. The plan-space
    /// dimensionality is overridden per template at registration.
    OnlinePpcPredictor::Config online;
    /// Shared plan-cache capacity (plans, across all templates).
    size_t plan_cache_capacity = 64;
    /// Execution-cost noise (lognormal sigma; 0 = deterministic).
    double execution_noise_stddev = 0.0;
    /// Adaptive LSH retuning (DESIGN.md §17). Disabled by default: the
    /// paper's fixed-transform behavior is the baseline, and retuning is
    /// opt-in per deployment.
    RetuneOptions retune;
    uint64_t seed = 97;
  };

  /// Per-query execution report.
  struct QueryReport {
    /// Plan actually executed.
    PlanId executed_plan = kNullPlanId;
    /// Optimal plan at the query point (known only when the optimizer ran;
    /// kNullPlanId otherwise).
    PlanId optimal_plan = kNullPlanId;
    bool used_prediction = false;
    bool cache_hit = false;
    bool optimizer_invoked = false;
    /// A non-NULL prediction named a plan no longer in the cache; the
    /// optimizer ran instead and the prediction was scored against its
    /// exact ground truth.
    bool prediction_evicted = false;
    /// Negative feedback judged the executed prediction wrong and forced
    /// an immediate optimizer call.
    bool negative_feedback_triggered = false;
    double execution_cost = 0.0;
    /// Measured wall time spent in the optimizer for this query (us).
    double optimize_micros = 0.0;
    /// Measured wall time spent in prediction + bookkeeping (us).
    double predict_micros = 0.0;
    /// Measured wall time spent in (simulated) execution (us).
    double execute_micros = 0.0;
  };

  /// Point-in-time health snapshot of the whole serving path: framework
  /// event counters and latency histograms, plan-cache statistics, and
  /// one per-template block of predictor health (the paper's Sec. IV-E
  /// windowed estimators plus lifetime feedback counters). Per-section
  /// consistency mirrors the sources: each section is internally
  /// consistent, the whole is not one atomic cut.
  struct FrameworkMetrics {
    MetricsRegistry::Snapshot registry;
    PlanCache::Stats cache;
    struct TemplateMetrics {
      std::string name;
      OnlinePpcPredictor::Stats stats;
      /// Transform generation currently serving this template.
      uint32_t generation = 0;
    };
    std::vector<TemplateMetrics> templates;

    /// Serializes the snapshot as one JSON object:
    /// {"counters": ..., "histograms": ..., "cache": ..., "templates": ...}
    std::string ToJson() const;
  };

  PpcFramework(const Catalog* catalog, Config config,
               CostModelParams cost_params = CostModelParams());
  /// Stops the retune worker before per-template state is torn down.
  ~PpcFramework();

  /// Registers a query template (copied). Must be called before the first
  /// execution; returns FailedPrecondition once the registry is sealed.
  Status RegisterTemplate(const QueryTemplate& tmpl);

  /// Freezes the template registry. Idempotent; also triggered implicitly
  /// by the first ExecuteInstance/ExecuteAtPoint call.
  void Seal() { sealed_.store(true, std::memory_order_release); }
  bool sealed() const { return sealed_.load(std::memory_order_acquire); }

  /// Result of the read-only prediction path (PredictAtPoint): what plan
  /// the template's predictor names at a point, how confident it is, and
  /// whether that plan is currently resident in the shared cache.
  using PredictReport = ::ppc::PredictReport;

  /// Pure read: asks the template's histogram predictor for a plan at
  /// `point` without executing anything, mutating any predictor state, or
  /// consuming randomness. This is the serving-layer PREDICT path — safe
  /// to call at any frequency from any thread (it takes only the
  /// predictor's shared read lock) and never perturbs the online learning
  /// loop the EXECUTE path drives. A one-point PredictBatchInto.
  Result<PredictReport> PredictAtPoint(const std::string& template_name,
                                       const std::vector<double>& point) const;

  /// Batched PredictAtPoint: `count` points of `dims` coordinates each,
  /// flattened row-major in `points` (point p is the slice
  /// [p*dims, (p+1)*dims)). Returns one PredictReport per point, in
  /// order, bit-identical to `count` PredictAtPoint calls against the
  /// same state — but the whole batch takes the template lookup, the
  /// predictor's shared lock, each randomized transform (applied as one
  /// matrix-times-batch kernel), and each histogram's bucket walk once.
  /// Validation is all-or-nothing: an unknown template, a wrong arity, or
  /// any non-finite coordinate fails the whole batch (per-point
  /// abstentions are answers, not errors — see DESIGN.md §13).
  Result<std::vector<PredictReport>> PredictBatch(
      const std::string& template_name, const double* points, size_t count,
      size_t dims) const;

  /// PredictBatch into caller storage (`out` holds `count` reports), the
  /// serving entry point: the server answers a run's template group
  /// straight into its reply. Once the calling thread has predicted a
  /// batch this large, it allocates nothing (the predictor's scratch and
  /// this call's are per-thread and keep their storage). On an error
  /// `out` is left untouched.
  Status PredictBatchInto(const std::string& template_name,
                          const double* points, size_t count, size_t dims,
                          PredictReport* out) const;

  /// Executes one query instance end to end (normalize -> predict ->
  /// cache/optimize -> execute -> feedback).
  Result<QueryReport> ExecuteInstance(const QueryInstance& instance);

  /// Same, but with the plan-space point given directly (used by the
  /// experiment harnesses, which generate workloads in plan space).
  Result<QueryReport> ExecuteAtPoint(const std::string& template_name,
                                     const std::vector<double>& point);

  /// The online predictor generation currently serving one registered
  /// template (nullptr if unknown). Returned as a shared_ptr snapshot:
  /// the caller's view stays valid even if a background refit installs a
  /// newer generation concurrently (RCU-style handoff, DESIGN.md §17).
  std::shared_ptr<const OnlinePpcPredictor> online_predictor(
      const std::string& template_name) const;

  /// Mutable snapshot of one template's serving predictor, for the
  /// replication path (PredictorState warm-start). nullptr if unknown.
  std::shared_ptr<OnlinePpcPredictor> mutable_online_predictor(
      const std::string& template_name);

  /// Warm generation handoff: atomically replaces the template's serving
  /// predictor with `next` (already built and back-filled). In-flight
  /// readers keep their snapshot of the old generation; new requests see
  /// the new one; nobody ever observes a partially built predictor.
  /// `next` must be strictly newer (transform_generation greater than the
  /// serving one) and dimensioned for the template — InvalidArgument
  /// otherwise; NotFound for an unknown template.
  Status InstallPredictorGeneration(const std::string& template_name,
                                    std::shared_ptr<OnlinePpcPredictor> next);

  /// The adaptive-retuning controller (nullptr unless config.retune.enabled).
  RetuneController* retune_controller() { return retune_.get(); }

  /// Names of all registered templates, in registry (sorted) order.
  std::vector<std::string> TemplateNames() const;

  /// Monotonic per-process sequence stamped onto captured PredictorState
  /// snapshots, so replicas can order snapshots from one leader.
  uint64_t NextSnapshotSequence() const {
    return snapshot_sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  PlanCache& plan_cache() { return plan_cache_; }
  const PlanCache& plan_cache() const { return plan_cache_; }
  const Optimizer& optimizer() const { return optimizer_; }

  /// The framework's instrument registry. Safe to read (and to hang extra
  /// counters on) from any thread at any time.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Collects the full observability snapshot (see FrameworkMetrics).
  FrameworkMetrics MetricsSnapshot() const;

 private:
  struct TemplateState {
    QueryTemplate tmpl;
    PreparedTemplate prepared;
    std::unique_ptr<SelectivityMapper> mapper;
    /// The serving predictor generation, guarded by online_mu. Readers
    /// copy one snapshot shared_ptr per request (Online()) and use it
    /// throughout; the retune worker (and the replication apply path)
    /// swap in a fully built replacement under the same lock. The lock
    /// covers only the pointer copy or swap, and the old generation is
    /// destroyed only after its last in-flight reader drops its
    /// reference. A plain mutex rather than std::atomic<std::shared_ptr>:
    /// libstdc++'s lock-based atomic shared_ptr is opaque to
    /// ThreadSanitizer, which reports its load against its
    /// compare-exchange as a race.
    std::shared_ptr<OnlinePpcPredictor> Online() const {
      std::lock_guard<std::mutex> lock(online_mu);
      return online;
    }
    mutable std::mutex online_mu;
    std::shared_ptr<OnlinePpcPredictor> online;
  };

  Result<TemplateState*> FindTemplate(const std::string& name);

  const Catalog* catalog_;
  Config config_;
  Optimizer optimizer_;
  ExecutionSimulator simulator_;
  PlanCache plan_cache_;
  /// Mutable so const snapshot paths (MetricsSnapshot) can refresh the
  /// drift.* gauges; the registry is internally synchronized.
  mutable MetricsRegistry metrics_;
  /// Serving-path instruments, resolved once at construction so the hot
  /// path never takes the registry lock. See DESIGN.md for the naming
  /// scheme.
  struct {
    MetricsCounter* queries = nullptr;
    MetricsCounter* predictions_executed = nullptr;
    MetricsCounter* predictions_null = nullptr;
    MetricsCounter* predictions_evicted = nullptr;
    MetricsCounter* predictions_random_invocation = nullptr;
    MetricsCounter* negative_feedback = nullptr;
    MetricsCounter* optimizer_calls = nullptr;
    LatencyHistogram* predict_us = nullptr;
    LatencyHistogram* optimize_us = nullptr;
    LatencyHistogram* execute_us = nullptr;
    LatencyHistogram* feedback_us = nullptr;
  } instruments_;
  /// Guards templates_. Writers exist only before sealing; lookups take
  /// the (uncontended-after-seal) shared side.
  mutable std::shared_mutex templates_mu_;
  std::atomic<bool> sealed_{false};
  mutable std::atomic<uint64_t> snapshot_sequence_{0};
  std::map<std::string, std::unique_ptr<TemplateState>> templates_;
  /// Declared after templates_ (and destroyed first via the explicit
  /// destructor's Stop()) so the refit worker can never touch dead state.
  std::unique_ptr<RetuneController> retune_;
};

}  // namespace ppc

#endif  // PPC_PPC_PPC_FRAMEWORK_H_
