// The workload zoo (docs/WORKLOADS.md): every named scenario of
// src/workload/scenarios.h driven end to end against a live PlanServer
// over TCP, so the serving gates cover more than the happy path.
//
// Per scenario: a fresh framework + server pair, a determinism check
// (two generators from the same config must emit byte-identical
// streams), a warm-up prefix executed in-process, then the measured
// event stream over the wire. Each scenario is aimed at the subsystem
// it was designed to stress, and the bench asserts the stress landed:
//
//   * zipf_tenants / correlated_predicates — closed-loop 3:1
//     PREDICT/EXECUTE mix; reported per-template precision/recall show
//     popularity skew and non-axis-aligned structure in the numbers.
//   * diurnal_flash — open-loop, paced by the scenario's arrival
//     clock, against a deliberately small server (one slowed worker,
//     tiny queue) so the flash crowds drive the EWMA shed ladder
//     through its rungs; asserts `server.shed.*` transitions happened.
//   * adversarial_drift — closed-loop EXECUTE-only against a
//     retune-enabled framework, with the drift box probed from the
//     optimizer exactly as in bench_drift_recovery; asserts the
//     concentration jump produced at least one retune refit.
//
// Prints a table and writes BENCH_workload_zoo.json (schema in
// EXPERIMENTS.md); scripts/check.sh runs it and validates the file.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "loadgen.h"
#include "ppc/ppc_framework.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/scenarios.h"

namespace ppc {
namespace bench {
namespace {

const char* const kZooTemplates[] = {"Q1", "Q3", "Q5", "Q8"};

// Closed-loop scenarios: warm-up in-process, then the measured stream.
constexpr size_t kClosedWarmup = 800;
constexpr size_t kClosedMeasured = 3000;

// diurnal_flash sizing: the base rate must undershoot the slowed
// single worker (~1s/kWorkerDelay ≈ 6.6k requests/s) while the flash
// rate overshoots it several times over, so the queue EWMA actually
// climbs the ladder. Events land mostly inside flash windows.
constexpr size_t kDiurnalWarmup = 600;
constexpr size_t kDiurnalMeasured = 4000;
constexpr double kDiurnalBaseRate = 800.0;
constexpr size_t kDiurnalQueueCapacity = 8;
constexpr auto kWorkerDelay = std::chrono::microseconds(150);

// adversarial_drift phase sizes, mirroring bench_drift_recovery: the
// retune cooldown spans the warm-up phases so the first refit the
// controller can schedule is a genuine post-drift one.
constexpr size_t kDriftUniform = 600;
constexpr size_t kDriftHome = 800;
constexpr size_t kDriftBox = 1600;
constexpr double kDriftBoxHalfWidth = 0.05;

/// Bit-exact stream equality — the determinism contract the zoo (and
/// the check.sh smoke) advertises.
bool SameEvent(const ScenarioEvent& a, const ScenarioEvent& b) {
  if (a.template_index != b.template_index) return false;
  if (std::memcmp(&a.arrival_seconds, &b.arrival_seconds,
                  sizeof(double)) != 0) {
    return false;
  }
  if (a.point.size() != b.point.size()) return false;
  return a.point.empty() ||
         std::memcmp(a.point.data(), b.point.data(),
                     a.point.size() * sizeof(double)) == 0;
}

bool StreamsIdentical(const std::string& name, const ScenarioConfig& config,
                      size_t count) {
  auto a = MakeScenario(name, config);
  auto b = MakeScenario(name, config);
  PPC_CHECK_MSG(a.ok() && b.ok(), "scenario construction failed");
  const std::vector<ScenarioEvent> ea = GenerateEvents(a.value().get(), count);
  const std::vector<ScenarioEvent> eb = GenerateEvents(b.value().get(), count);
  for (size_t i = 0; i < count; ++i) {
    if (!SameEvent(ea[i], eb[i])) return false;
  }
  return true;
}

struct ScenarioOutcome {
  std::string scenario;
  uint64_t seed = 0;
  const char* driver = "";
  size_t warmup_events = 0;
  size_t measured_events = 0;
  bool deterministic = false;
  loadgen::Phase load;
  /// EXECUTEs whose served prediction stuck (used_prediction and no
  /// negative-feedback overturn), over all measured EXECUTEs.
  size_t hits = 0;
  PpcFramework::FrameworkMetrics snapshot;

  size_t executes() const { return load.count(loadgen::kExecute); }
  double hit_rate() const {
    return executes() == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(executes());
  }
};

/// Warm-up: the prefix executes in-process (no wire), seeding the
/// predictors and the plan cache before measurement starts.
void WarmUp(PpcFramework* framework, const ScenarioConfig& config,
            const std::vector<ScenarioEvent>& events, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    const ScenarioEvent& e = events[i];
    auto report = framework->ExecuteAtPoint(
        config.templates[e.template_index].name, e.point);
    PPC_CHECK_MSG(report.ok(), report.status().ToString().c_str());
  }
}

/// Whether an EXECUTE answer counts as a hit: the served prediction
/// stuck (used, and not overturned by negative feedback).
bool IsHit(const wire::Response::Execute& execute) {
  return execute.used_prediction && !execute.negative_feedback_triggered;
}

/// Closed loop over TCP: one connection, one synchronous request per
/// event. Every 4th event EXECUTEs (carrying feedback), the rest PREDICT
/// — `execute_all` turns the mix into pure EXECUTE (adversarial_drift
/// needs every event to feed the drift window).
void ReplayClosed(uint16_t port, const ScenarioConfig& config,
                  const std::vector<ScenarioEvent>& events, size_t begin,
                  bool execute_all, ScenarioOutcome* out) {
  out->load = loadgen::ClosedLoop(
      port, 1, PpcClient::Options{},
      [&](size_t, size_t i, PpcClient* client) -> loadgen::MaybeCall {
        if (begin + i >= events.size()) return std::nullopt;
        const ScenarioEvent& e = events[begin + i];
        const std::string& tmpl = config.templates[e.template_index].name;
        if (execute_all || i % 4 == 0) {
          auto result = client->Execute(tmpl, e.point);
          if (result.ok() && IsHit(result.value())) ++out->hits;
          return loadgen::Call{loadgen::kExecute, result.status()};
        }
        return loadgen::Call{loadgen::kPredict,
                             client->Predict(tmpl, e.point).status()};
      });
}

/// Open loop over TCP, paced by the scenario's own arrival clock (sends
/// never wait for responses, so a flash crowd's arrival rate actually
/// reaches the server); even events EXECUTE, odd ones PREDICT. BUSY
/// answers are counted, not retried — they are the ladder's last rung
/// doing its job.
void ReplayOpen(uint16_t port, const ScenarioConfig& config,
                const std::vector<ScenarioEvent>& events, size_t begin,
                ScenarioOutcome* out) {
  std::vector<loadgen::Scheduled> schedule;
  for (size_t i = begin; i < events.size(); ++i) {
    const ScenarioEvent& e = events[i];
    schedule.push_back(
        {e.arrival_seconds - events[begin].arrival_seconds,
         (i - begin) % 2 == 0 ? loadgen::kExecute : loadgen::kPredict,
         config.templates[e.template_index].name, e.point});
  }
  out->load = loadgen::OpenLoop(
      port, {schedule},
      [&](const loadgen::Scheduled& request, const wire::Response& response) {
        if (request.kind == loadgen::kExecute && IsHit(response.execute)) {
          ++out->hits;
        }
      });
}

/// Stops the server through the wire (orderly remote shutdown), then
/// snapshots the framework the server was fronting.
void FinishScenario(PpcFramework* framework, PlanServer* server,
                    ScenarioOutcome* out) {
  {
    PpcClient client;
    const Status s = client.Connect("127.0.0.1", server->port());
    PPC_CHECK_MSG(s.ok(), s.ToString().c_str());
    const Status down = client.Shutdown();
    PPC_CHECK_MSG(down.ok(), down.ToString().c_str());
  }
  server->Wait();
  if (framework->retune_controller() != nullptr) {
    framework->retune_controller()->WaitIdle();
  }
  out->snapshot = framework->MetricsSnapshot();
}

ScenarioOutcome RunClosedScenario(const std::string& name, uint64_t seed) {
  ScenarioOutcome out;
  out.scenario = name;
  out.seed = seed;
  out.driver = "closed_loop_mixed";
  out.warmup_events = kClosedWarmup;
  out.measured_events = kClosedMeasured;

  const ScenarioConfig config = ScenarioOver(kZooTemplates, seed);
  out.deterministic =
      StreamsIdentical(name, config, kClosedWarmup + kClosedMeasured);
  auto generator = MakeScenario(name, config);
  PPC_CHECK_MSG(generator.ok(), generator.status().ToString().c_str());
  const std::vector<ScenarioEvent> events =
      GenerateEvents(generator.value().get(), kClosedWarmup + kClosedMeasured);

  PpcFramework framework(&BenchCatalog(), ServingConfig());
  RegisterAndSeal(&framework, kZooTemplates);
  WarmUp(&framework, config, events, kClosedWarmup);

  PlanServer::Config server_config;
  server_config.worker_threads = 2;
  PlanServer server(&framework, server_config);
  const Status started = server.Start();
  PPC_CHECK_MSG(started.ok(), started.ToString().c_str());

  ReplayClosed(server.port(), config, events, kClosedWarmup,
               /*execute_all=*/false, &out);
  FinishScenario(&framework, &server, &out);
  return out;
}

ScenarioOutcome RunDiurnalScenario(uint64_t seed) {
  ScenarioOutcome out;
  out.scenario = "diurnal_flash";
  out.seed = seed;
  out.driver = "open_loop_paced";
  out.warmup_events = kDiurnalWarmup;
  out.measured_events = kDiurnalMeasured;

  ScenarioConfig config = ScenarioOver(kZooTemplates, seed);
  config.events_per_second = kDiurnalBaseRate;
  config.diurnal_flash.period_seconds = 2.0;
  config.diurnal_flash.amplitude = 0.6;
  config.diurnal_flash.first_flash_at_seconds = 0.4;
  config.diurnal_flash.flash_every_seconds = 1.2;
  config.diurnal_flash.flash_duration_seconds = 0.3;
  config.diurnal_flash.flash_multiplier = 20.0;
  out.deterministic = StreamsIdentical("diurnal_flash", config,
                                       kDiurnalWarmup + kDiurnalMeasured);
  auto generator = MakeScenario("diurnal_flash", config);
  PPC_CHECK_MSG(generator.ok(), generator.status().ToString().c_str());
  const std::vector<ScenarioEvent> events = GenerateEvents(
      generator.value().get(), kDiurnalWarmup + kDiurnalMeasured);

  PpcFramework framework(&BenchCatalog(), ServingConfig());
  RegisterAndSeal(&framework, kZooTemplates);
  WarmUp(&framework, config, events, kDiurnalWarmup);

  // A deliberately small server: one worker slowed by the dispatch
  // hook (so saturation is machine-independent) behind a tiny queue.
  // The flash crowds overrun it; the base-rate valleys do not.
  PlanServer::Config server_config;
  server_config.worker_threads = 1;
  server_config.queue_capacity = kDiurnalQueueCapacity;
  server_config.pre_dispatch_hook = [](wire::MessageType) {
    std::this_thread::sleep_for(kWorkerDelay);
  };
  PlanServer server(&framework, server_config);
  const Status started = server.Start();
  PPC_CHECK_MSG(started.ok(), started.ToString().c_str());

  ReplayOpen(server.port(), config, events, kDiurnalWarmup, &out);
  FinishScenario(&framework, &server, &out);
  return out;
}

ScenarioOutcome RunDriftScenario(uint64_t seed) {
  ScenarioOutcome out;
  out.scenario = "adversarial_drift";
  out.seed = seed;
  out.driver = "closed_loop_execute";
  out.warmup_events = 0;
  out.measured_events = kDriftUniform + kDriftHome + kDriftBox;

  // The drift box and home cluster are probed from the optimizer (the
  // same probes bench_drift_recovery uses), then injected as the
  // scenario's phase schedule: uniform background, home cluster, jump.
  Experiment probe("Q5");
  const double box_center = FindDriftBoxCenter(probe, kDriftBoxHalfWidth);
  const double home_center =
      FindHomeCenter(probe, box_center, kDriftBoxHalfWidth);

  const char* const kDriftTemplate[] = {"Q5"};
  ScenarioConfig config = ScenarioOver(kDriftTemplate, seed);
  config.adversarial_drift.phases = {
      {kDriftUniform, 0.5, 0.48},
      {kDriftHome, home_center, kDriftBoxHalfWidth},
      {kDriftBox, box_center, kDriftBoxHalfWidth},
  };
  out.deterministic =
      StreamsIdentical("adversarial_drift", config, out.measured_events);
  auto generator = MakeScenario("adversarial_drift", config);
  PPC_CHECK_MSG(generator.ok(), generator.status().ToString().c_str());
  const std::vector<ScenarioEvent> events =
      GenerateEvents(generator.value().get(), out.measured_events);

  PpcFramework framework(
      &BenchCatalog(),
      DriftArmConfig(/*retune=*/true, kDriftUniform + kDriftHome));
  RegisterAndSeal(&framework, kDriftTemplate);

  PlanServer::Config server_config;
  server_config.worker_threads = 2;
  PlanServer server(&framework, server_config);
  const Status started = server.Start();
  PPC_CHECK_MSG(started.ok(), started.ToString().c_str());

  ReplayClosed(server.port(), config, events, 0, /*execute_all=*/true,
               &out);
  FinishScenario(&framework, &server, &out);
  return out;
}

/// A JSON object of registry counters, one `"key": value` per
/// (key, counter name) pair.
std::string CountersJson(
    const MetricsRegistry::Snapshot& snap,
    const std::vector<std::pair<const char*, const char*>>& fields) {
  std::string out = "{";
  for (const auto& [key, counter] : fields) {
    if (out.size() > 1) out += ", ";
    out += "\"" + std::string(key) +
           "\": " + std::to_string(CounterValue(snap, counter));
  }
  return out + "}";
}

std::string OutcomeJson(const ScenarioOutcome& out) {
  std::string json = "{\"scenario\": \"" + out.scenario + "\"";
  json += ", \"seed\": " + std::to_string(out.seed);
  json += ", \"driver\": \"" + std::string(out.driver) + "\"";
  json += ", \"deterministic\": ";
  json += out.deterministic ? "true" : "false";
  json += ", \"warmup_events\": " + std::to_string(out.warmup_events);
  json += ", \"measured_events\": " + std::to_string(out.measured_events);
  json += ", \"predicts\": " +
          std::to_string(out.load.count(loadgen::kPredict));
  json += ", \"executes\": " + std::to_string(out.executes());
  json += ", \"busy\": " + std::to_string(out.load.total_busy());
  json += ", \"failures\": " + std::to_string(out.load.failures);
  json += ", \"hit_rate\": " + JsonNumber(out.hit_rate());
  json += ", \"templates\": [";
  for (size_t i = 0; i < out.snapshot.templates.size(); ++i) {
    const auto& tmpl = out.snapshot.templates[i];
    if (i > 0) json += ", ";
    json += "{\"name\": \"" + tmpl.name + "\"";
    json += ", \"precision\": " + JsonNumber(tmpl.stats.precision);
    json += ", \"recall\": " + JsonNumber(tmpl.stats.recall);
    json += ", \"resets\": " + std::to_string(tmpl.stats.resets);
    json += ", \"generation\": " + std::to_string(tmpl.generation);
    json += "}";
  }
  json += "]";
  const MetricsRegistry::Snapshot& snap = out.snapshot.registry;
  json += ", \"shed\": " +
          CountersJson(
              snap, {{"enter_no_microbatch", "server.shed.enter_no_microbatch"},
                     {"enter_abstain", "server.shed.enter_abstain"},
                     {"recovered", "server.shed.recovered"},
                     {"abstained_predicts", "server.shed.abstained_predicts"},
                     {"responses_busy", "server.responses.busy"}});
  json += ", \"retune\": " +
          CountersJson(
              snap, {{"triggers", "server.retune.triggers"},
                     {"refits", "server.retune.refits"},
                     {"skipped", "server.retune.skipped"},
                     {"aborted", "server.retune.aborted"},
                     {"points_backfilled", "server.retune.points_backfilled"},
                     {"generations", "server.retune.generations"}});
  json += "}";
  return json;
}

void PrintOutcome(const ScenarioOutcome& out) {
  std::printf("%-22s %6zu pred %6zu exec %5zu busy %3zu fail  hit %.3f  "
              "det %s\n",
              out.scenario.c_str(), out.load.count(loadgen::kPredict),
              out.executes(),
              out.load.total_busy(), out.load.failures, out.hit_rate(),
              out.deterministic ? "yes" : "no");
}

void Run() {
  PrintHeader("Workload zoo: named scenarios against a live PlanServer");
  std::printf("scenarios: ");
  for (const std::string& name : ScenarioNames()) {
    std::printf("%s ", name.c_str());
  }
  std::printf("\n");
  PrintRule();

  std::vector<ScenarioOutcome> outcomes;
  outcomes.push_back(RunClosedScenario("zipf_tenants", 0xa11ce));
  PrintOutcome(outcomes.back());
  outcomes.push_back(RunDiurnalScenario(0xb0b));
  PrintOutcome(outcomes.back());
  outcomes.push_back(RunClosedScenario("correlated_predicates", 0xcafe));
  PrintOutcome(outcomes.back());
  outcomes.push_back(RunDriftScenario(0x10));
  PrintOutcome(outcomes.back());
  PrintRule();

  for (const ScenarioOutcome& out : outcomes) {
    PPC_CHECK_MSG(out.deterministic, "scenario stream not deterministic");
    PPC_CHECK_MSG(out.load.failures == 0, "scenario had request failures");
  }
  // The stress assertions of the zoo: diurnal_flash must climb the shed
  // ladder, adversarial_drift must force at least one retune refit.
  const ScenarioOutcome& diurnal = outcomes[1];
  const uint64_t shed_entries =
      CounterValue(diurnal.snapshot.registry,
                   "server.shed.enter_no_microbatch") +
      CounterValue(diurnal.snapshot.registry, "server.shed.enter_abstain");
  std::printf("diurnal_flash shed ladder: %llu rung entries, %llu abstained "
              "predicts, %zu busy\n",
              static_cast<unsigned long long>(shed_entries),
              static_cast<unsigned long long>(CounterValue(
                  diurnal.snapshot.registry,
                  "server.shed.abstained_predicts")),
              diurnal.load.total_busy());
  PPC_CHECK_MSG(shed_entries >= 1,
                "diurnal_flash did not engage the shed ladder");
  const ScenarioOutcome& drift = outcomes[3];
  const uint64_t refits =
      CounterValue(drift.snapshot.registry, "server.retune.refits");
  std::printf("adversarial_drift retune: %llu triggers, %llu refits, "
              "%llu skipped, %llu aborted\n",
              static_cast<unsigned long long>(CounterValue(
                  drift.snapshot.registry, "server.retune.triggers")),
              static_cast<unsigned long long>(refits),
              static_cast<unsigned long long>(CounterValue(
                  drift.snapshot.registry, "server.retune.skipped")),
              static_cast<unsigned long long>(CounterValue(
                  drift.snapshot.registry, "server.retune.aborted")));
  PPC_CHECK_MSG(refits >= 1,
                "adversarial_drift did not trigger a retune refit");

  std::string body = "  \"scenarios\": [";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (i > 0) body += ",";
    body += "\n    " + OutcomeJson(outcomes[i]);
  }
  body += "\n  ]";
  WriteBenchJson("workload_zoo", body);
}

}  // namespace
}  // namespace bench
}  // namespace ppc

int main() {
  ppc::bench::Run();
  return 0;
}
