// End-to-end throughput of the plan-prediction server (src/server/).
//
// Starts a real PlanServer on an ephemeral port, fronting a framework
// warmed over a clustered 4-template workload, then drives it over TCP
// with N client threads (one PpcClient each) issuing a 70/25/5 mix of
// PREDICT / EXECUTE / PING requests:
//
//   * closed loop — every client issues its next request when the
//     previous one completes, so concurrency is fixed at the client
//     count and the measured qps is the sustainable serving rate at
//     that concurrency;
//   * open loop — requests go out on the zipf_tenants scenario's
//     arrival clock at a fixed fraction of the closed-loop rate,
//     independent of response times, and latency runs from each
//     request's scheduled arrival; BUSY answers (queue overflow
//     backpressure) are counted rather than retried.
//
// Both loops are bench/loadgen.h's drivers.
//
// Prints a table and writes BENCH_server_throughput.json (schema in
// EXPERIMENTS.md); scripts/check.sh runs it and validates the file.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/alloc_counter.h"
#include "loadgen.h"
#include "lsh/simd.h"
#include "ppc/lsh_histograms_predictor.h"
#include "ppc/ppc_framework.h"
#include "server/client.h"
#include "server/failpoints.h"
#include "server/server.h"
#include "workload/scenarios.h"

namespace ppc {
namespace bench {
namespace {

constexpr size_t kWarmupQueries = 800;
constexpr int kClientThreads = 4;
constexpr int kServerWorkers = 4;
constexpr size_t kClosedPerClient = 1200;
constexpr size_t kOpenPerClient = 800;
constexpr double kOpenLoopFraction = 0.8;
const char* const kTemplates[] = {"Q1", "Q3", "Q5", "Q8"};
/// Batch-comparison phase: the same PREDICT points, once as single-point
/// round trips and once as PREDICT_BATCH frames of this many points.
constexpr uint32_t kBatchSize = 32;
constexpr size_t kBatchPointsPerClient = 4096;
/// Degraded-mode phase (DESIGN.md §14): a second server with a small
/// queue, 1% short writes injected at the send failpoint, and more client
/// threads than the queue + workers can hold, so BUSY backpressure and
/// the shedding ladder actually engage; clients retry under a RetryPolicy.
constexpr int kDegradedClientThreads = 12;
constexpr int kDegradedServerWorkers = 2;
constexpr size_t kDegradedQueueCapacity = 8;
constexpr size_t kDegradedPerClient = 300;
constexpr uint32_t kDegradedShortIoPermille = 10;  // 1% of sends
constexpr int64_t kDegradedCallDeadlineMs = 2000;

/// The 70/25/5 request mix.
loadgen::Kind PickKind(Rng* rng) {
  const double u = rng->Uniform();
  if (u < 0.70) return loadgen::kPredict;
  if (u < 0.95) return loadgen::kExecute;
  return loadgen::kPing;
}

/// One synchronous request of `kind` for `q`.
Status Issue(PpcClient* client, const Query& q, loadgen::Kind kind) {
  switch (kind) {
    case loadgen::kPredict:
      return client->Predict(q.tmpl, q.point).status();
    case loadgen::kExecute:
      return client->Execute(q.tmpl, q.point).status();
    case loadgen::kPing:
      return client->Ping();
  }
  return Status::Internal("unreachable");
}

/// Closed loop: client t sends `per_client` requests of its contiguous
/// workload slice, with kinds drawn from Rng(`mix_seed` + t).
loadgen::Phase MixedClosedLoop(uint16_t port, int threads,
                               const PpcClient::Options& options,
                               const std::vector<Query>& workload,
                               size_t per_client, uint64_t mix_seed) {
  std::vector<Rng> mix;
  for (int t = 0; t < threads; ++t) {
    mix.emplace_back(mix_seed + static_cast<uint64_t>(t));
  }
  return loadgen::ClosedLoop(
      port, threads, options,
      [&](size_t t, size_t i, PpcClient* client) -> loadgen::MaybeCall {
        if (i == per_client) return std::nullopt;
        const Query& q = workload[(t * per_client + i) % workload.size()];
        const loadgen::Kind kind = PickKind(&mix[t]);
        return loadgen::Call{kind, Issue(client, q, kind)};
      });
}

/// Open loop driven by the workload zoo's zipf_tenants scenario
/// (docs/WORKLOADS.md): each connection is paced by the scenario's own
/// Poisson arrival clock (at target_qps split evenly across
/// connections) instead of a fixed metronome, and draws (template,
/// point) from the Zipf-skewed tenant distribution instead of
/// round-robin — so the open-loop numbers cover skewed per-template
/// popularity, not just the uniform happy path.
loadgen::Phase ZipfTenantsOpenLoop(uint16_t port, double target_qps) {
  const double per_client_rate =
      target_qps / static_cast<double>(kClientThreads);
  std::vector<std::vector<loadgen::Scheduled>> schedules(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    ScenarioConfig scenario_config =
        ScenarioOver(kTemplates, 2000 + static_cast<uint64_t>(t));
    scenario_config.events_per_second = per_client_rate;
    auto scenario = MakeScenario("zipf_tenants", scenario_config);
    PPC_CHECK_MSG(scenario.ok(), scenario.status().ToString().c_str());
    Rng rng(2600 + static_cast<uint64_t>(t));
    for (size_t i = 0; i < kOpenPerClient; ++i) {
      const ScenarioEvent event = scenario.value()->Next();
      schedules[static_cast<size_t>(t)].push_back(
          {event.arrival_seconds, PickKind(&rng),
           scenario_config.templates[event.template_index].name,
           event.point});
    }
  }
  return loadgen::OpenLoop(port, schedules);
}

/// Clustered 2-dim Q1 points, flattened row-major (the PREDICT_BATCH
/// wire layout), so both comparison phases predict the exact same set.
std::vector<double> MakeQ1Points(size_t count, uint64_t seed) {
  const char* const kQ1[] = {"Q1"};
  std::vector<double> flat;
  for (const Query& q : ClusteredWorkload(kQ1, count, seed, 7)) {
    flat.insert(flat.end(), q.point.begin(), q.point.end());
  }
  return flat;
}

/// Heap allocations one warm PredictBatchInto performs on a trained
/// default-config predictor (0 after this PR's arena change; recorded in
/// the JSON so a regression shows up in the artifact, not just in tests).
uint64_t MeasureWarmBatchPredictAllocations() {
  LshHistogramsPredictor::Config config;
  config.dimensions = 2;
  LshHistogramsPredictor predictor(config);
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    LabeledPoint point;
    point.coords = {rng.Uniform(), rng.Uniform()};
    point.plan = 1 + (point.coords[0] > 0.5 ? 1 : 0);
    point.cost = rng.Uniform(1.0, 5.0);
    predictor.Insert(point);
  }
  const std::vector<double> flat = MakeQ1Points(kBatchSize, 29);
  std::vector<Prediction> out(kBatchSize);
  // Two warm-up calls: the thread-local arena consolidates its blocks at
  // the start of the second.
  predictor.PredictBatchInto(flat.data(), kBatchSize, out.data());
  predictor.PredictBatchInto(flat.data(), kBatchSize, out.data());
  const uint64_t before = ThreadAllocationCount();
  predictor.PredictBatchInto(flat.data(), kBatchSize, out.data());
  return ThreadAllocationCount() - before;
}

/// One side of the scalar-vs-batch comparison: the same predictions,
/// measured as completed points per second plus request-latency tails.
struct BatchPhase {
  loadgen::Phase load;
  size_t points = 0;

  /// Every request that was not answered OK, BUSY included.
  size_t failures() const { return load.failures + load.total_busy(); }
  size_t requests() const { return load.total() + failures(); }
  double points_per_second() const {
    return load.seconds > 0.0 ? static_cast<double>(points) / load.seconds
                              : 0.0;
  }
};

/// Runs the same per-client point slice either as single-point PREDICTs
/// (`batch_size` == 1) or as PREDICT_BATCH frames of `batch_size` points.
BatchPhase RunPredictComparison(uint16_t port, const std::vector<double>& flat,
                                uint32_t batch_size) {
  std::vector<size_t> points(kClientThreads, 0);
  BatchPhase phase;
  phase.load = loadgen::ClosedLoop(
      port, kClientThreads, PpcClient::Options{},
      [&](size_t t, size_t step, PpcClient* client) -> loadgen::MaybeCall {
        const size_t i = step * batch_size;
        if (i >= kBatchPointsPerClient) return std::nullopt;
        // Each client owns a contiguous slice of the shared point set.
        const size_t begin = t * kBatchPointsPerClient;
        const size_t n =
            std::min<size_t>(batch_size, kBatchPointsPerClient - i);
        const double* p = flat.data() + (begin + i) * 2;
        if (batch_size == 1) {
          const Status status = client->Predict("Q1", {p[0], p[1]}).status();
          if (status.ok()) ++points[t];
          return loadgen::Call{loadgen::kPredict, status};
        }
        auto result =
            client->PredictBatch("Q1", std::vector<double>(p, p + n * 2), 2);
        if (result.ok()) points[t] += result.value().size();
        return loadgen::Call{loadgen::kPredict, result.status()};
      });
  for (size_t answered : points) phase.points += answered;
  return phase;
}

/// Every point answered over the scalar path and the batch path must be
/// bit-identical (the acceptance bar for the batched fast path).
bool VerifyBatchBitIdentity(uint16_t port, const std::vector<double>& flat,
                            size_t count) {
  PpcClient client;
  if (!client.Connect("127.0.0.1", port).ok()) return false;
  auto batch = client.PredictBatch(
      "Q1", std::vector<double>(flat.begin(), flat.begin() + count * 2), 2);
  if (!batch.ok() || batch.value().size() != count) return false;
  for (size_t i = 0; i < count; ++i) {
    auto scalar = client.Predict("Q1", {flat[i * 2], flat[i * 2 + 1]});
    if (!scalar.ok()) return false;
    if (scalar.value().plan != batch.value()[i].plan) return false;
    if (scalar.value().confidence != batch.value()[i].confidence) {
      return false;
    }
  }
  return true;
}

/// The server's METRICS payload, fetched just before an orderly remote
/// shutdown.
std::string MetricsThenShutdown(uint16_t port) {
  PpcClient client;
  const Status connected = client.Connect("127.0.0.1", port);
  PPC_CHECK_MSG(connected.ok(), connected.ToString().c_str());
  auto metrics = client.Metrics();
  PPC_CHECK_MSG(metrics.ok(), metrics.status().ToString().c_str());
  const Status down = client.Shutdown();
  PPC_CHECK_MSG(down.ok(), down.ToString().c_str());
  return std::move(metrics).value();
}

void PrintBatchPhase(const char* name, const BatchPhase& phase) {
  std::printf(
      "%s: %.2fs, %zu points in %zu requests, %.0f points/s, "
      "%zu failures\n    p50 %.1f us  p95 %.1f us  p99 %.1f us\n",
      name, phase.load.seconds, phase.points, phase.requests(),
      phase.points_per_second(), phase.failures(),
      phase.load.LatencyUs(loadgen::kPredict, 0.50),
      phase.load.LatencyUs(loadgen::kPredict, 0.95),
      phase.load.LatencyUs(loadgen::kPredict, 0.99));
}

std::string BatchPhaseJson(const BatchPhase& phase) {
  std::string out = "{\"seconds\": " + JsonNumber(phase.load.seconds);
  out += ", \"points\": " + std::to_string(phase.points);
  out += ", \"requests\": " + std::to_string(phase.requests());
  out += ", \"points_per_second\": " + JsonNumber(phase.points_per_second());
  out += ", \"failures\": " + std::to_string(phase.failures());
  const loadgen::Phase& load = phase.load;
  out += ", \"p50_us\": " + JsonNumber(load.LatencyUs(loadgen::kPredict, 0.50));
  out += ", \"p95_us\": " + JsonNumber(load.LatencyUs(loadgen::kPredict, 0.95));
  out += ", \"p99_us\": " + JsonNumber(load.LatencyUs(loadgen::kPredict, 0.99));
  out += "}";
  return out;
}

void PrintPhase(const char* name, const loadgen::Phase& phase) {
  std::printf("%s: %.2fs, %zu requests, %.0f qps, %zu busy, %zu failures\n",
              name, phase.seconds, phase.total(), phase.qps(),
              phase.total_busy(), phase.failures);
  std::printf("%10s %8s %8s %10s %10s %10s\n", "type", "count", "busy",
              "p50 us", "p95 us", "p99 us");
  for (int kind = 0; kind < loadgen::kKinds; ++kind) {
    std::printf("%10s %8zu %8zu %10.1f %10.1f %10.1f\n",
                loadgen::kKindNames[kind], phase.count(kind), phase.busy[kind],
                phase.LatencyUs(kind, 0.50), phase.LatencyUs(kind, 0.95),
                phase.LatencyUs(kind, 0.99));
  }
  PrintRule();
}

std::string PhaseJson(const loadgen::Phase& phase) {
  std::string out = "{\"seconds\": " + JsonNumber(phase.seconds);
  out += ", \"total_requests\": " + std::to_string(phase.total());
  out += ", \"qps\": " + JsonNumber(phase.qps());
  out += ", \"busy\": " + std::to_string(phase.total_busy());
  out += ", \"failures\": " + std::to_string(phase.failures);
  out += ", \"per_type\": {";
  for (int kind = 0; kind < loadgen::kKinds; ++kind) {
    const double type_qps =
        phase.seconds > 0.0
            ? static_cast<double>(phase.count(kind)) / phase.seconds
            : 0.0;
    out += std::string(kind == 0 ? "" : ", ") + "\"" +
           loadgen::kKindNames[kind] +
           "\": {\"count\": " + std::to_string(phase.count(kind)) +
           ", \"qps\": " + JsonNumber(type_qps) +
           ", \"busy\": " + std::to_string(phase.busy[kind]) +
           ", \"p50_us\": " + JsonNumber(phase.LatencyUs(kind, 0.50)) +
           ", \"p95_us\": " + JsonNumber(phase.LatencyUs(kind, 0.95)) +
           ", \"p99_us\": " + JsonNumber(phase.LatencyUs(kind, 0.99)) + "}";
  }
  out += "}}";
  return out;
}

void Run() {
  PrintHeader("Plan-prediction server throughput (TCP, 4 templates)");
  std::printf(
      "hardware threads: %u; %d server workers, %d client threads, "
      "70/25/5 predict/execute/ping mix\n",
      std::thread::hardware_concurrency(), kServerWorkers, kClientThreads);
  PrintRule();

  PpcFramework framework(&BenchCatalog(), ServingConfig());
  RegisterAndSeal(&framework, kTemplates);
  for (const Query& q : ClusteredWorkload(kTemplates, kWarmupQueries, 11, 7)) {
    auto report = framework.ExecuteAtPoint(q.tmpl, q.point);
    PPC_CHECK_MSG(report.ok(), report.status().ToString().c_str());
  }

  PlanServer::Config server_config;
  server_config.worker_threads = kServerWorkers;
  PlanServer server(&framework, server_config);
  {
    const Status s = server.Start();
    PPC_CHECK_MSG(s.ok(), s.ToString().c_str());
  }
  std::printf("server listening on 127.0.0.1:%u\n\n", server.port());

  const std::vector<Query> workload =
      ClusteredWorkload(kTemplates, 4096, 13, 7);
  const loadgen::Phase closed =
      MixedClosedLoop(server.port(), kClientThreads, PpcClient::Options{},
                      workload, kClosedPerClient, 1000);
  PrintPhase("closed loop", closed);

  const double target_qps = kOpenLoopFraction * closed.qps();
  std::printf("open loop target: %.0f qps (%.0f%% of closed loop), "
              "zipf_tenants scenario arrivals\n",
              target_qps, 100.0 * kOpenLoopFraction);
  const loadgen::Phase open =
      ZipfTenantsOpenLoop(server.port(), target_qps);
  PrintPhase("open loop", open);

  PPC_CHECK(closed.failures == 0);
  PPC_CHECK(open.failures == 0);

  // Scalar-vs-batch comparison: the same Q1 points, once as synchronous
  // single-point PREDICTs and once as PREDICT_BATCH frames of kBatchSize
  // points (the batched fast path, DESIGN.md §13).
  const std::vector<double> q1_points =
      MakeQ1Points(static_cast<size_t>(kClientThreads) *
                       kBatchPointsPerClient,
                   17);
  const bool bit_identical =
      VerifyBatchBitIdentity(server.port(), q1_points, 256);
  PPC_CHECK_MSG(bit_identical, "batch answers diverge from scalar answers");
  const BatchPhase scalar_phase =
      RunPredictComparison(server.port(), q1_points, 1);
  PrintBatchPhase("scalar predicts", scalar_phase);
  const BatchPhase batch_phase =
      RunPredictComparison(server.port(), q1_points, kBatchSize);
  PrintBatchPhase("batch predicts", batch_phase);
  const double batch_speedup =
      scalar_phase.points_per_second() > 0.0
          ? batch_phase.points_per_second() / scalar_phase.points_per_second()
          : 0.0;
  std::printf("batch size %u speedup over scalar: %.2fx (bit-identical)\n",
              kBatchSize, batch_speedup);
  PrintRule();
  PPC_CHECK(scalar_phase.failures() == 0);
  PPC_CHECK(batch_phase.failures() == 0);

  // Final server-side view, then an orderly remote shutdown.
  const std::string metrics_json = MetricsThenShutdown(server.port());
  server.Wait();

  // Degraded-mode phase (DESIGN.md §14): a fresh server with a small
  // queue, driven by more retrying clients than queue + workers can
  // hold, with 1% of send() calls clamped to one byte by the kSend
  // failpoint — the clean numbers above are untouched because the
  // failpoint is armed only while this phase runs.
  PlanServer::Config degraded_config;
  degraded_config.worker_threads = kDegradedServerWorkers;
  degraded_config.queue_capacity = kDegradedQueueCapacity;
  PlanServer degraded_server(&framework, degraded_config);
  {
    const Status s = degraded_server.Start();
    PPC_CHECK_MSG(s.ok(), s.ToString().c_str());
  }
  std::printf(
      "degraded server listening on 127.0.0.1:%u "
      "(queue %zu, %d workers, %u permille short writes)\n",
      degraded_server.port(), kDegradedQueueCapacity, kDegradedServerWorkers,
      kDegradedShortIoPermille);

  failpoints::Config fault;
  fault.kind = failpoints::Kind::kShortIo;
  fault.arg = 1;
  fault.probability_permille = kDegradedShortIoPermille;
  fault.seed = 23;
  failpoints::Arm(failpoints::Site::kSend, fault);

  PpcClient::Options degraded_options;
  degraded_options.call_deadline_ms = kDegradedCallDeadlineMs;
  degraded_options.retry.max_attempts = 4;
  degraded_options.retry.initial_backoff_ms = 1;
  degraded_options.retry.max_backoff_ms = 50;

  // Clients retry BUSY under the policy, with a per-call deadline, so
  // backpressure is absorbed by backoff instead of dropped on the floor.
  const loadgen::Phase degraded = MixedClosedLoop(
      degraded_server.port(), kDegradedClientThreads, degraded_options,
      workload, kDegradedPerClient, 3000);
  const PpcClient::TransportStats& transport = degraded.transport;
  failpoints::DisarmAll();
  PrintPhase("degraded loop", degraded);
  std::printf(
      "degraded transport: %llu busy retries, %llu reconnects, "
      "%llu connect retries, %llu deadlines exceeded\n",
      static_cast<unsigned long long>(transport.busy_retries),
      static_cast<unsigned long long>(transport.reconnects),
      static_cast<unsigned long long>(transport.connect_retries),
      static_cast<unsigned long long>(transport.deadlines_exceeded));
  PrintRule();
  // Degradation must not become outage: the phase has to make progress.
  PPC_CHECK_MSG(degraded.total() > 0, "degraded phase made no progress");

  const std::string degraded_metrics_json =
      MetricsThenShutdown(degraded_server.port());
  degraded_server.Wait();

  std::string body = "  \"hardware_threads\": " +
                     std::to_string(std::thread::hardware_concurrency());
  body += ",\n  \"server_workers\": " + std::to_string(kServerWorkers);
  body += ",\n  \"client_threads\": " + std::to_string(kClientThreads);
  body += ",\n  \"open_loop_target_qps\": " + JsonNumber(target_qps);
  const ScenarioConfig::ZipfTenantsOptions zipf_defaults;
  body += ",\n  \"open_loop_scenario\": {\"name\": \"zipf_tenants\", "
          "\"seed_base\": 2000, \"tenant_count\": " +
          std::to_string(zipf_defaults.tenant_count) +
          ", \"exponent\": " + JsonNumber(zipf_defaults.exponent) + "}";
  body += ",\n  \"closed_loop\": " + PhaseJson(closed);
  body += ",\n  \"open_loop\": " + PhaseJson(open);
  body += ",\n  \"batch_comparison\": {\"batch_size\": " +
          std::to_string(kBatchSize);
  body += ", \"dims\": 2, \"bit_identical\": ";
  body += bit_identical ? "true" : "false";
  body += ", \"simd_tier\": \"";
  body += simd::TierName(simd::ActiveTier());
  body += "\", \"allocations_per_batch_predict\": " +
          std::to_string(MeasureWarmBatchPredictAllocations());
  body += ", \"speedup\": " + JsonNumber(batch_speedup);
  body += ", \"scalar\": " + BatchPhaseJson(scalar_phase);
  body += ", \"batch\": " + BatchPhaseJson(batch_phase);
  body += "}";
  body += ",\n  \"degraded\": {\"queue_capacity\": " +
          std::to_string(kDegradedQueueCapacity);
  body += ", \"server_workers\": " + std::to_string(kDegradedServerWorkers);
  body += ", \"client_threads\": " + std::to_string(kDegradedClientThreads);
  body += ", \"fault\": {\"site\": \"send\", \"kind\": \"short_io\", "
          "\"arg\": 1, \"probability_permille\": " +
          std::to_string(kDegradedShortIoPermille) + "}";
  body += ", \"call_deadline_ms\": " +
          std::to_string(kDegradedCallDeadlineMs);
  body += ", \"retry_policy\": {\"max_attempts\": " +
          std::to_string(degraded_options.retry.max_attempts) +
          ", \"initial_backoff_ms\": " +
          std::to_string(degraded_options.retry.initial_backoff_ms) +
          ", \"max_backoff_ms\": " +
          std::to_string(degraded_options.retry.max_backoff_ms) +
          ", \"multiplier\": " +
          JsonNumber(degraded_options.retry.multiplier) +
          ", \"jitter\": " + JsonNumber(degraded_options.retry.jitter) + "}";
  body += ", \"phase\": " + PhaseJson(degraded);
  body += ", \"transport\": {\"busy_retries\": " +
          std::to_string(transport.busy_retries) +
          ", \"connect_retries\": " + std::to_string(transport.connect_retries) +
          ", \"reconnects\": " + std::to_string(transport.reconnects) +
          ", \"deadlines_exceeded\": " +
          std::to_string(transport.deadlines_exceeded) + "}";
  body += ", \"server_metrics\": " + degraded_metrics_json;
  body += "}";
  body += ",\n  \"server_metrics\": " + metrics_json;
  WriteBenchJson("server_throughput", body);
}

}  // namespace
}  // namespace bench
}  // namespace ppc

int main() {
  ppc::bench::Run();
  return 0;
}
