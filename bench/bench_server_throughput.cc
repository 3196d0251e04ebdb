// Behaviour gates of the plan-prediction server (src/server/) under
// live TCP load. Throughput is measured by perfbench/, not here.
//
// Starts a real PlanServer on an ephemeral port, fronting a framework
// warmed over a clustered 4-template workload, then drives it over TCP
// with N client threads (one PpcClient each) issuing a 70/25/5 mix of
// PREDICT / EXECUTE / PING requests:
//
//   * closed loop — every client issues its next request when the
//     previous one completes, for a fixed kClosedSeconds; its sustained
//     rate is only the open loop's pacing input;
//   * open loop — requests go out on the zipf_tenants scenario's
//     arrival clock at kOpenLoopFraction of that rate, independent of
//     response times, and latency runs from each request's scheduled
//     arrival; BUSY answers (queue overflow backpressure) are counted
//     rather than retried;
//   * degraded loop — a second, under-provisioned server with short
//     writes injected, driven by retrying clients.
//
// Gates: zero failures in the clean loops, progress in the degraded
// one. scripts/check.sh also holds the open loop's PREDICT p50 within
// 10x of the closed loop's. All loops are bench/loadgen.h's drivers.
//
// Prints a table and writes BENCH_server_throughput.json (schema in
// EXPERIMENTS.md).

#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "loadgen.h"
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
/// The closed loop runs this long, so its rate is a sustained one and
/// not a burst a slow EXECUTE can halve.
constexpr double kClosedSeconds = 1.0;
/// The open loop's schedule spans this long too, so one host stall
/// cannot cover most of its requests.
constexpr double kOpenSeconds = 1.0;
/// Half the closed-loop rate leaves the open loop headroom for Poisson
/// bursts, so its p50 measures the driver, not an overrun server.
constexpr double kOpenLoopFraction = 0.5;
const char* const kTemplates[] = {"Q1", "Q3", "Q5", "Q8"};
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

/// Closed loop: client t walks the workload from its own offset, with
/// kinds drawn from Rng(`mix_seed` + t), and stops after `per_client`
/// requests or `seconds` into the phase, whichever comes first.
loadgen::Phase MixedClosedLoop(uint16_t port, int threads,
                               const PpcClient::Options& options,
                               const std::vector<Query>& workload,
                               size_t per_client, double seconds,
                               uint64_t mix_seed) {
  std::vector<Rng> mix;
  for (int t = 0; t < threads; ++t) {
    mix.emplace_back(mix_seed + static_cast<uint64_t>(t));
  }
  const auto start = loadgen::Clock::now();
  return loadgen::ClosedLoop(
      port, threads, options,
      [&](size_t t, size_t i, PpcClient* client) -> loadgen::MaybeCall {
        if (i == per_client || loadgen::SecondsSince(start) >= seconds) {
          return std::nullopt;
        }
        const size_t n = workload.size();
        const Query& q =
            workload[(t * n / static_cast<size_t>(threads) + i) % n];
        const loadgen::Kind kind = PickKind(&mix[t]);
        return loadgen::Call{kind, Issue(client, q, kind)};
      });
}

/// Open loop driven by the workload zoo's zipf_tenants scenario
/// (docs/WORKLOADS.md): each connection is paced by the scenario's own
/// Poisson arrival clock (at target_qps split evenly across
/// connections) instead of a fixed metronome, and draws (template,
/// point) from the Zipf-skewed tenant distribution instead of
/// round-robin — so the open loop covers skewed per-template
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
    for (;;) {
      const ScenarioEvent event = scenario.value()->Next();
      if (event.arrival_seconds >= kOpenSeconds) break;
      schedules[static_cast<size_t>(t)].push_back(
          {event.arrival_seconds, PickKind(&rng),
           scenario_config.templates[event.template_index].name,
           event.point});
    }
  }
  return loadgen::OpenLoop(port, schedules);
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

/// Answered, busy and failed requests per kind, with the p50 the
/// open/closed gate compares.
void PrintPhase(const char* name, const loadgen::Phase& phase) {
  std::printf("%s: %zu requests, %zu busy, %zu failures\n", name,
              phase.total(), phase.total_busy(), phase.failures);
  std::printf("%10s %8s %8s %10s\n", "type", "count", "busy", "p50 us");
  for (int kind = 0; kind < loadgen::kKinds; ++kind) {
    std::printf("%10s %8zu %8zu %10.1f\n", loadgen::kKindNames[kind],
                phase.count(kind), phase.busy[kind],
                phase.LatencyUs(kind, 0.50));
  }
  PrintRule();
}

std::string PhaseJson(const loadgen::Phase& phase) {
  std::string out = "{\"total_requests\": " + std::to_string(phase.total());
  out += ", \"busy\": " + std::to_string(phase.total_busy());
  out += ", \"failures\": " + std::to_string(phase.failures);
  out += ", \"per_type\": {";
  for (int kind = 0; kind < loadgen::kKinds; ++kind) {
    out += std::string(kind == 0 ? "" : ", ") + "\"" +
           loadgen::kKindNames[kind] +
           "\": {\"count\": " + std::to_string(phase.count(kind)) +
           ", \"busy\": " + std::to_string(phase.busy[kind]) +
           ", \"p50_us\": " + JsonNumber(phase.LatencyUs(kind, 0.50)) + "}";
  }
  out += "}}";
  return out;
}

void Run() {
  PrintHeader("Plan-prediction server behaviour under load (TCP, 4 templates)");
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
  const loadgen::Phase closed = MixedClosedLoop(
      server.port(), kClientThreads, PpcClient::Options{}, workload,
      std::numeric_limits<size_t>::max(), kClosedSeconds, 1000);
  PrintPhase("closed loop", closed);

  const double target_qps = kOpenLoopFraction * closed.qps();
  std::printf("open loop paced at %.0f%% of the closed loop's rate, "
              "zipf_tenants scenario arrivals\n",
              100.0 * kOpenLoopFraction);
  const loadgen::Phase open =
      ZipfTenantsOpenLoop(server.port(), target_qps);
  PrintPhase("open loop", open);

  PPC_CHECK(closed.failures == 0);
  PPC_CHECK(open.failures == 0);

  // Final server-side view, then an orderly remote shutdown.
  const std::string metrics_json = MetricsThenShutdown(server.port());
  server.Wait();

  // Degraded-mode phase (DESIGN.md §14): a fresh server with a small
  // queue, driven by more retrying clients than queue + workers can
  // hold, with 1% of send() calls clamped to one byte by the kSend
  // failpoint — the clean loops above are untouched because the
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
      workload, kDegradedPerClient, std::numeric_limits<double>::infinity(),
      3000);
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
  const ScenarioConfig::ZipfTenantsOptions zipf_defaults;
  body += ",\n  \"open_loop_scenario\": {\"name\": \"zipf_tenants\", "
          "\"seed_base\": 2000, \"tenant_count\": " +
          std::to_string(zipf_defaults.tenant_count) +
          ", \"exponent\": " + JsonNumber(zipf_defaults.exponent) + "}";
  body += ",\n  \"closed_loop\": " + PhaseJson(closed);
  body += ",\n  \"open_loop\": " + PhaseJson(open);
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
