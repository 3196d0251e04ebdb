#include "ppc/ppc_framework.h"

#include <cmath>
#include <utility>

#include "common/hash.h"
#include "ppc/decision_step.h"

namespace ppc {

namespace {

/// Boundary validation for points arriving from outside the process (the
/// serving layer): `count` row-major points of `dims` coordinates each. A
/// wrong arity or a non-finite coordinate must fail as InvalidArgument
/// here, not trip PPC_DCHECKs (or silently corrupt histograms) inside the
/// LSH transform stack.
Status ValidatePoints(const QueryTemplate& tmpl, const double* points,
                      size_t count, size_t dims) {
  if (static_cast<int>(dims) != tmpl.ParameterDegree()) {
    return Status::InvalidArgument(
        "point has " + std::to_string(dims) + " dimensions; template " +
        tmpl.name + " has degree " + std::to_string(tmpl.ParameterDegree()));
  }
  for (size_t i = 0; i < count * dims; ++i) {
    if (!std::isfinite(points[i])) {
      return Status::InvalidArgument("point coordinate is not finite");
    }
  }
  return Status::OK();
}

}  // namespace

PpcFramework::PpcFramework(const Catalog* catalog, Config config,
                           CostModelParams cost_params)
    : catalog_(catalog),
      config_(config),
      optimizer_(catalog, cost_params),
      simulator_(&optimizer_.cost_model(),
                 ExecutionSimulator::Options{config.execution_noise_stddev,
                                             config.seed}),
      plan_cache_(config.plan_cache_capacity) {
  PPC_CHECK(catalog != nullptr);
  instruments_.queries = &metrics_.counter("framework.queries");
  instruments_.predictions_executed =
      &metrics_.counter("framework.predictions.executed");
  instruments_.predictions_null =
      &metrics_.counter("framework.predictions.null");
  instruments_.predictions_evicted =
      &metrics_.counter("framework.predictions.evicted");
  instruments_.predictions_random_invocation =
      &metrics_.counter("framework.predictions.random_invocation");
  instruments_.negative_feedback =
      &metrics_.counter("framework.negative_feedback");
  instruments_.optimizer_calls =
      &metrics_.counter("framework.optimizer.calls");
  instruments_.predict_us = &metrics_.histogram("framework.predict_us");
  instruments_.optimize_us = &metrics_.histogram("framework.optimize_us");
  instruments_.execute_us = &metrics_.histogram("framework.execute_us");
  instruments_.feedback_us = &metrics_.histogram("framework.feedback_us");
  if (config_.retune.enabled) {
    retune_ = std::make_unique<RetuneController>(this, config_.retune);
  }
}

PpcFramework::~PpcFramework() {
  // Join the refit worker before templates_ (which it reads through
  // shared_ptr snapshots) starts dying.
  if (retune_ != nullptr) retune_->Stop();
}

Status PpcFramework::RegisterTemplate(const QueryTemplate& tmpl) {
  if (sealed()) {
    return Status::FailedPrecondition(
        "template registry is sealed (queries already executed); register "
        "all templates before serving");
  }
  auto state = std::make_unique<TemplateState>();
  state->tmpl = tmpl;
  PPC_ASSIGN_OR_RETURN(state->prepared, optimizer_.Prepare(state->tmpl));
  state->mapper =
      std::make_unique<SelectivityMapper>(catalog_, &state->tmpl);
  PPC_RETURN_NOT_OK(state->mapper->Validate());

  OnlinePpcPredictor::Config online = config_.online;
  online.predictor.dimensions = state->tmpl.ParameterDegree();
  // FNV-1a, not std::hash: the per-template seed must be identical across
  // standard libraries so experiment runs reproduce cross-platform.
  online.seed = config_.seed ^ Fnv1a64(tmpl.name);
  state->online = std::make_shared<OnlinePpcPredictor>(online);

  std::unique_lock<std::shared_mutex> lock(templates_mu_);
  if (sealed()) {
    return Status::FailedPrecondition(
        "template registry is sealed (queries already executed); register "
        "all templates before serving");
  }
  if (!templates_.emplace(tmpl.name, std::move(state)).second) {
    return Status::AlreadyExists("template " + tmpl.name);
  }
  return Status::OK();
}

Result<PpcFramework::TemplateState*> PpcFramework::FindTemplate(
    const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(templates_mu_);
  auto it = templates_.find(name);
  if (it == templates_.end()) {
    return Status::NotFound("template " + name + " is not registered");
  }
  return it->second.get();
}

Result<PpcFramework::QueryReport> PpcFramework::ExecuteInstance(
    const QueryInstance& instance) {
  Seal();
  PPC_ASSIGN_OR_RETURN(TemplateState * state,
                       FindTemplate(instance.template_name));
  PPC_ASSIGN_OR_RETURN(std::vector<double> point,
                       state->mapper->ToPlanSpacePoint(instance));
  return ExecuteAtPoint(instance.template_name, point);
}

Result<PpcFramework::PredictReport> PpcFramework::PredictAtPoint(
    const std::string& template_name, const std::vector<double>& point) const {
  PredictReport report;
  PPC_RETURN_NOT_OK(PredictBatchInto(template_name, point.data(), 1,
                                     point.size(), &report));
  return report;
}

Result<std::vector<PpcFramework::PredictReport>> PpcFramework::PredictBatch(
    const std::string& template_name, const double* points, size_t count,
    size_t dims) const {
  std::vector<PredictReport> reports(count);
  PPC_RETURN_NOT_OK(
      PredictBatchInto(template_name, points, count, dims, reports.data()));
  return reports;
}

Status PpcFramework::PredictBatchInto(const std::string& template_name,
                                      const double* points, size_t count,
                                      size_t dims, PredictReport* out) const {
  std::shared_lock<std::shared_mutex> lock(templates_mu_);
  auto it = templates_.find(template_name);
  if (it == templates_.end()) {
    return Status::NotFound("template " + template_name +
                            " is not registered");
  }
  const TemplateState* state = it->second.get();
  if (count == 0) {
    return Status::InvalidArgument("empty prediction batch");
  }
  PPC_RETURN_NOT_OK(ValidatePoints(state->tmpl, points, count, dims));
  // One generation snapshot per request: a concurrent handoff cannot pull
  // the predictor out from under this read, and the predictor
  // synchronizes internally (shared read lock) against concurrent
  // EXECUTE-path mutators.
  const std::shared_ptr<OnlinePpcPredictor> online = state->Online();
  // Per-thread, like the predictor's arena: it grows to the largest batch
  // this thread has predicted and is reused from then on.
  thread_local std::vector<Prediction> predictions;
  if (predictions.size() < count) predictions.resize(count);
  online->predictor().PredictBatchInto(points, count, predictions.data());
  for (size_t p = 0; p < count; ++p) {
    out[p].plan = predictions[p].plan;
    out[p].confidence = predictions[p].confidence;
    out[p].cache_hit = predictions[p].has_value() &&
                       plan_cache_.Contains(predictions[p].plan);
  }
  return Status::OK();
}

Result<PpcFramework::QueryReport> PpcFramework::ExecuteAtPoint(
    const std::string& template_name, const std::vector<double>& point) {
  Seal();
  PPC_ASSIGN_OR_RETURN(TemplateState * state, FindTemplate(template_name));
  PPC_RETURN_NOT_OK(
      ValidatePoints(state->tmpl, point.data(), 1, point.size()));
  instruments_.queries->Increment();

  // One generation snapshot for the whole query: the decision and every
  // feedback report land on the same predictor even if a refit installs
  // a newer generation mid-query (late feedback to a superseded
  // generation is harmless — it is about to be dropped).
  const std::shared_ptr<OnlinePpcPredictor> online = state->Online();
  OptimizerOracle oracle(optimizer_, &simulator_, state->prepared);
  PPC_ASSIGN_OR_RETURN(
      StepOutcome step,
      RunDecisionStep(online.get(), &plan_cache_, &oracle, point));

  QueryReport report;
  report.executed_plan = step.executed_plan;
  report.optimal_plan = step.truth.plan;
  report.used_prediction = step.used_prediction;
  report.cache_hit = step.used_prediction;
  report.optimizer_invoked = step.optimized();
  report.prediction_evicted = step.prediction_evicted;
  report.negative_feedback_triggered = step.suspected;
  report.execution_cost = step.executed_cost;
  report.predict_micros = step.decide_micros + step.feedback_micros;
  instruments_.predict_us->Record(step.decide_micros);
  if (!step.decision.prediction.has_value()) {
    instruments_.predictions_null->Increment();
  } else if (step.decision.random_invocation) {
    instruments_.predictions_random_invocation->Increment();
  }
  if (step.used_prediction) {
    // A suspected prediction's corrective run is ground truth, not the
    // query's execution.
    report.execute_micros = oracle.execute_micros;
    instruments_.predictions_executed->Increment();
    instruments_.feedback_us->Record(step.feedback_micros);
    if (step.suspected) instruments_.negative_feedback->Increment();
  } else {
    report.execute_micros = oracle.run_micros;
    if (step.prediction_evicted) instruments_.predictions_evicted->Increment();
  }
  instruments_.execute_us->Record(report.execute_micros);
  if (step.optimized()) {
    report.optimize_micros = oracle.optimize_micros;
    instruments_.optimize_us->Record(report.optimize_micros);
    instruments_.optimizer_calls->Increment();
  }

  if (retune_ != nullptr) {
    // Without an optimizer call, the cost-validated prediction is still a
    // (point, plan, cost) observation of the live workload. Retaining it
    // keeps the refit reservoir tracking the recent query-point
    // distribution even when the cache is warm and optimizer calls are
    // rare.
    retune_->ObserveGroundTruth(
        template_name,
        step.optimized()
            ? step.truth
            : LabeledPoint{point, step.executed_plan, step.executed_cost});
    retune_->EvaluateTrigger(template_name, online->GetWindowedSignal());
  }
  return report;
}

std::shared_ptr<const OnlinePpcPredictor> PpcFramework::online_predictor(
    const std::string& template_name) const {
  std::shared_lock<std::shared_mutex> lock(templates_mu_);
  auto it = templates_.find(template_name);
  return it == templates_.end()
             ? nullptr
             : it->second->Online();
}

std::shared_ptr<OnlinePpcPredictor> PpcFramework::mutable_online_predictor(
    const std::string& template_name) {
  std::shared_lock<std::shared_mutex> lock(templates_mu_);
  auto it = templates_.find(template_name);
  return it == templates_.end()
             ? nullptr
             : it->second->Online();
}

Status PpcFramework::InstallPredictorGeneration(
    const std::string& template_name,
    std::shared_ptr<OnlinePpcPredictor> next) {
  if (next == nullptr) {
    return Status::InvalidArgument("null predictor generation");
  }
  std::shared_lock<std::shared_mutex> lock(templates_mu_);
  auto it = templates_.find(template_name);
  if (it == templates_.end()) {
    return Status::NotFound("template " + template_name +
                            " is not registered");
  }
  TemplateState* state = it->second.get();
  if (next->config().predictor.dimensions != state->tmpl.ParameterDegree()) {
    return Status::InvalidArgument(
        "predictor generation has " +
        std::to_string(next->config().predictor.dimensions) +
        " dimensions; template " + template_name + " has degree " +
        std::to_string(state->tmpl.ParameterDegree()));
  }
  const uint32_t next_generation = next->predictor().transform_generation();
  // Check and swap under one lock: a concurrent install (refit worker
  // racing a replication apply) can never regress the serving generation.
  // The superseded generation is released after the lock, so its
  // destruction never runs inside the critical section.
  std::shared_ptr<OnlinePpcPredictor> previous;
  {
    std::lock_guard<std::mutex> online_lock(state->online_mu);
    const uint32_t serving =
        state->online->predictor().transform_generation();
    if (next_generation <= serving) {
      return Status::InvalidArgument(
          "predictor generation " + std::to_string(next_generation) +
          " is not newer than serving generation " + std::to_string(serving));
    }
    previous = std::exchange(state->online, std::move(next));
  }
  metrics_.gauge("drift." + template_name + ".generation")
      .Set(static_cast<double>(next_generation));
  return Status::OK();
}

std::vector<std::string> PpcFramework::TemplateNames() const {
  std::shared_lock<std::shared_mutex> lock(templates_mu_);
  std::vector<std::string> names;
  names.reserve(templates_.size());
  for (const auto& [name, state] : templates_) names.push_back(name);
  return names;
}

PpcFramework::FrameworkMetrics PpcFramework::MetricsSnapshot() const {
  FrameworkMetrics snap;
  snap.cache = plan_cache_.GetStats();
  {
    std::shared_lock<std::shared_mutex> lock(templates_mu_);
    snap.templates.reserve(templates_.size());
    for (const auto& [name, state] : templates_) {
      const std::shared_ptr<OnlinePpcPredictor> online = state->Online();
      snap.templates.push_back(FrameworkMetrics::TemplateMetrics{
          name, online->GetStats(), online->predictor().transform_generation()});
      // Refresh the drift.* gauges from the same signal read, so the
      // registry snapshot below carries the current windowed
      // precision/recall per template (ISSUE: the Sec. IV-E drift signal
      // was internal-only).
      const OnlinePpcPredictor::WindowedSignal signal =
          online->GetWindowedSignal();
      metrics_.gauge("drift." + name + ".precision").Set(signal.precision);
      metrics_.gauge("drift." + name + ".recall").Set(signal.recall);
      metrics_.gauge("drift." + name + ".beta").Set(signal.beta);
      metrics_.gauge("drift." + name + ".window_full")
          .Set(signal.window_full ? 1.0 : 0.0);
      metrics_.gauge("drift." + name + ".generation")
          .Set(static_cast<double>(
              online->predictor().transform_generation()));
    }
  }
  snap.registry = metrics_.TakeSnapshot();
  return snap;
}

std::string PpcFramework::FrameworkMetrics::ToJson() const {
  // Splice the registry's own {"counters": ..., "histograms": ...} object
  // open and append the cache and template sections.
  std::string out = registry.ToJson();
  out.pop_back();  // trailing '}'

  out += ", \"cache\": {\"hits\": " + std::to_string(cache.hits);
  out += ", \"misses\": " + std::to_string(cache.misses);
  out += ", \"evictions\": " + std::to_string(cache.evictions);
  out += ", \"precision_evictions\": " +
         std::to_string(cache.precision_evictions);
  out += ", \"size\": " + std::to_string(cache.size);
  out += ", \"capacity\": " + std::to_string(cache.capacity);
  out += ", \"shards\": [";
  for (size_t i = 0; i < cache.shards.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"entries\": " + std::to_string(cache.shards[i].entries);
    out += ", \"hits\": " + std::to_string(cache.shards[i].hits);
    out += ", \"misses\": " + std::to_string(cache.shards[i].misses) + "}";
  }
  out += "]}";

  out += ", \"templates\": [";
  for (size_t i = 0; i < templates.size(); ++i) {
    if (i > 0) out += ", ";
    const OnlinePpcPredictor::Stats& s = templates[i].stats;
    out += "{\"name\": ";
    AppendJsonString(templates[i].name, &out);
    out += ", \"precision\": " + JsonNumber(s.precision);
    out += ", \"recall\": " + JsonNumber(s.recall);
    out += ", \"beta\": " + JsonNumber(s.beta);
    out += ", \"resets\": " + std::to_string(s.resets);
    out += ", \"random_invocations\": " +
           std::to_string(s.random_invocations);
    out += ", \"optimizer_insertions\": " +
           std::to_string(s.optimizer_insertions);
    out += ", \"positive_feedback_insertions\": " +
           std::to_string(s.positive_feedback_insertions);
    out += ", \"feedback_positive\": " + std::to_string(s.feedback_positive);
    out += ", \"feedback_negative\": " + std::to_string(s.feedback_negative);
    out += ", \"generation\": " + std::to_string(templates[i].generation);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace ppc
