// Fault tolerance of the sharded serving tier under shard loss
// (DESIGN.md §18).
//
// Spawns real processes — three ppc_server shards and one ppc_router
// with the health model on — and drives the workload zoo's zipf_tenants
// scenario through the router while a controller injects the failure:
//
//   1. all three shards start, the router fronts them, and the cluster
//      is warmed through the router; replication ships the warm state
//      to each template's ring-successor replica;
//   2. ground truth is recorded: for every well-warmed template, the
//      plan the cluster commits to at a fixed probe point;
//   3. load threads run the scenario open-ended while the controller
//      SIGKILLs the shard that owns the most probed templates, waits
//      for the router's breaker to open (detection), leaves the shard
//      dead through an outage window, then respawns it *cold* on the
//      same port and waits for the warm-rejoin gate to readmit it;
//   4. the whole run is scored: availability (excluding the detection
//      window), failover latency, the replica hit-rate dip, rejoin
//      warm-up time, and — via a ground-truth prober — wrong answers,
//      which must be zero: a failed-over or rejoining shard may
//      abstain, it must never contradict the pre-kill truth.
//
// Binary discovery: ../src/ppc_server and ../src/ppc_router relative to
// this binary, overridable via PPC_SERVER_BIN / PPC_ROUTER_BIN.
//
// Prints a table and writes BENCH_cluster_failover.json (schema in
// EXPERIMENTS.md); scripts/check.sh runs it and validates the file.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "loadgen.h"
#include "proc.h"
#include "server/client.h"
#include "server/hash_ring.h"
#include "server/wire_protocol.h"
#include "workload/scenarios.h"

namespace ppc {
namespace bench {
namespace {

using loadgen::Clock;
using loadgen::SecondsSince;

const char* const kTemplates[] = {"Q0", "Q1", "Q2", "Q3", "Q4",
                                  "Q5", "Q6", "Q7", "Q8"};
constexpr size_t kTemplateCount = sizeof(kTemplates) / sizeof(kTemplates[0]);
constexpr int kShards = 3;
constexpr uint64_t kSeed = 0xfa11;
constexpr size_t kWarmEvents = 3000;
constexpr size_t kStreamEvents = 60000;
constexpr int kLoadThreads = 2;
/// A probed template must have seen at least this many warm executes to
/// serve as ground truth (rare zipf tenants never warm up — they abstain
/// by design, which says nothing about failover).
constexpr size_t kMinWarmExecutes = 150;
constexpr double kPredictFraction = 0.5;
/// Detection-window grace appended after the breaker opens: failover is
/// engaged but the first few in-flight requests may still be draining.
constexpr double kDetectionGraceSeconds = 0.25;
constexpr double kPreKillSeconds = 1.5;
constexpr double kOutageSeconds = 2.0;
constexpr double kPostRejoinSeconds = 1.5;

// ---------------------------------------------------------------------
// Workload: the zoo's zipf_tenants stream, pre-generated once so every
// thread (and every run with the same seed) sees the same queries.
// ---------------------------------------------------------------------

std::vector<ScenarioEvent> MakeStream() {
  auto generator =
      MakeScenario("zipf_tenants", ScenarioOver(kTemplates, kSeed));
  PPC_CHECK_MSG(generator.ok(), generator.status().ToString().c_str());
  return GenerateEvents(generator.value().get(), kStreamEvents);
}

/// The breaker state the router's aggregated METRICS reports for
/// `address`, or "" when the address is missing from the payload.
std::string BreakerStateIn(const std::string& metrics,
                           const std::string& address) {
  const size_t at = metrics.find("\"" + address + "\"");
  if (at == std::string::npos) return "";
  const std::string key = "\"breaker_state\":\"";
  const size_t begin = metrics.find(key, at);
  if (begin == std::string::npos) return "";
  const size_t from = begin + key.size();
  const size_t end = metrics.find('"', from);
  if (end == std::string::npos) return "";
  return metrics.substr(from, end - from);
}

/// Polls the router's METRICS until the victim's breaker reports
/// `want`, returning the elapsed-seconds timestamp of the first sighting
/// (relative to `epoch`) or a negative value on timeout.
double AwaitBreakerState(PpcClient* admin, const std::string& address,
                         const std::string& want, Clock::time_point epoch,
                         double timeout_seconds) {
  const auto give_up =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_seconds));
  while (Clock::now() < give_up) {
    auto metrics = admin->Metrics();
    if (metrics.ok() &&
        BreakerStateIn(metrics.value(), address) == want) {
      return SecondsSince(epoch);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return -1.0;
}

// ---------------------------------------------------------------------
// Measurement.
// ---------------------------------------------------------------------

/// One timed request outcome from a load thread.
struct Sample {
  double t = 0.0;
  bool ok = false;
  bool victim_owned = false;
  bool is_predict = false;
  bool hit = false;  // predict committed to a plan
};

struct Window {
  size_t total = 0;
  size_t ok_count = 0;
  size_t predicts = 0;
  size_t hits = 0;

  double availability() const {
    return total == 0 ? 1.0
                      : static_cast<double>(ok_count) /
                            static_cast<double>(total);
  }
  double hit_rate() const {
    return predicts == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(predicts);
  }
};

void Run() {
  PrintHeader("Cluster failover (router + 3 ppc_server shards, SIGKILL)");
  const std::string server_bin =
      BinaryPath("PPC_SERVER_BIN", "/../src/ppc_server");
  const std::string router_bin =
      BinaryPath("PPC_ROUTER_BIN", "/../src/ppc_router");

  ChildProcess shards[kShards];
  std::string backends;
  for (int i = 0; i < kShards; ++i) {
    Spawn(server_bin, {"--port=0"}, &shards[i]);
    if (!backends.empty()) backends += ",";
    backends += "127.0.0.1:" + std::to_string(shards[i].port);
  }
  std::printf("shards: %s\n", backends.c_str());

  ChildProcess router;
  Spawn(router_bin,
        {"--port=0", "--backends=" + backends, "--backend-deadline-ms=2000",
         "--probe-interval-ms=50", "--probe-deadline-ms=500",
         "--breaker-failure-threshold=2", "--breaker-cooldown-ms=300",
         "--replication-interval-ms=300"},
        &router);
  std::printf("router on :%u\n", router.port);

  HashRing ring;
  std::vector<HashRing::Node> shard_nodes;
  for (int i = 0; i < kShards; ++i) {
    shard_nodes.push_back({"127.0.0.1", shards[i].port});
    ring.Add(shard_nodes.back());
  }
  // template index -> owning shard index (pure placement, same as the
  // router's).
  int owner_of[kTemplateCount] = {};
  for (size_t t = 0; t < kTemplateCount; ++t) {
    const auto owner = ring.Owner(kTemplates[t]).value();
    for (int i = 0; i < kShards; ++i) {
      if (owner == shard_nodes[static_cast<size_t>(i)]) owner_of[t] = i;
    }
  }

  const std::vector<ScenarioEvent> stream = MakeStream();

  // Warm through the router, then give replication a few intervals to
  // ship the state to the replicas.
  size_t warm_executes[kTemplateCount] = {};
  {
    PpcClient warm;
    PPC_CHECK(warm.Connect("127.0.0.1", router.port).ok());
    for (size_t i = 0; i < kWarmEvents; ++i) {
      const ScenarioEvent& event = stream[i];
      const auto executed =
          warm.Execute(kTemplates[event.template_index], event.point);
      PPC_CHECK_MSG(executed.ok(), executed.status().ToString().c_str());
      ++warm_executes[event.template_index];
    }
    std::printf("warmed cluster with %zu executes\n", kWarmEvents);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(900));

  // Ground truth: for each well-warmed template, the committed plan at a
  // fixed probe point (the template's last warm query).
  struct Probe {
    size_t tmpl = 0;
    std::vector<double> point;
    uint64_t plan = kNullPlanId;
  };
  std::vector<Probe> probes;
  {
    PpcClient admin;
    PPC_CHECK(admin.Connect("127.0.0.1", router.port).ok());
    std::vector<double> last_point[kTemplateCount];
    for (size_t i = 0; i < kWarmEvents; ++i) {
      last_point[stream[i].template_index] = stream[i].point;
    }
    for (size_t t = 0; t < kTemplateCount; ++t) {
      if (warm_executes[t] < kMinWarmExecutes) continue;
      auto predicted = admin.Predict(kTemplates[t], last_point[t]);
      if (predicted.ok() && predicted.value().plan != kNullPlanId) {
        probes.push_back({t, last_point[t], predicted.value().plan});
      }
    }
  }
  PPC_CHECK_MSG(!probes.empty(), "no template warmed to a committed plan");

  // Victim: the shard owning the most probed templates (the failure that
  // hurts the most).
  int probes_per_shard[kShards] = {};
  for (const Probe& probe : probes) ++probes_per_shard[owner_of[probe.tmpl]];
  int victim = 0;
  for (int i = 1; i < kShards; ++i) {
    if (probes_per_shard[i] > probes_per_shard[victim]) victim = i;
  }
  const std::string victim_address = shard_nodes[victim].Address();
  std::printf("%zu ground-truth probes; victim %s owns %d of them\n",
              probes.size(), victim_address.c_str(),
              probes_per_shard[victim]);
  PrintRule();

  // --- Live run: load + ground-truth prober + failure controller. ---
  std::atomic<bool> stop{false};
  std::atomic<size_t> wrong_answers{0};
  std::atomic<size_t> failed_over_executes{0};
  const auto epoch = Clock::now();

  // Load: closed-loop clients striding the shared stream so no two send
  // the same query, wrapping past the end (the stream is stationary),
  // until the controller calls stop.
  std::vector<Rng> mix;
  std::vector<std::vector<Sample>> per_thread(kLoadThreads);
  for (int t = 0; t < kLoadThreads; ++t) {
    mix.emplace_back(kSeed + 77 + static_cast<uint64_t>(t));
  }
  // A client that cannot connect shows up as failed samples (its calls
  // redial and fail), never as a missing thread.
  std::thread load_thread([&] {
    loadgen::ClosedLoop(
        router.port, kLoadThreads, PpcClient::Options{},
        [&](size_t t, size_t i, PpcClient* client) -> loadgen::MaybeCall {
          if (stop.load(std::memory_order_relaxed)) return std::nullopt;
          const ScenarioEvent& event =
              stream[(kWarmEvents + t + i * kLoadThreads) % kStreamEvents];
          const char* name = kTemplates[event.template_index];
          Sample sample;
          sample.t = SecondsSince(epoch);
          sample.victim_owned = owner_of[event.template_index] == victim;
          Status status;
          if (mix[t].Uniform() < kPredictFraction) {
            sample.is_predict = true;
            auto predicted = client->Predict(name, event.point);
            status = predicted.status();
            sample.hit =
                predicted.ok() && predicted.value().plan != kNullPlanId;
          } else {
            auto executed = client->Execute(name, event.point);
            status = executed.status();
            if (executed.ok() && executed.value().failed_over) {
              failed_over_executes.fetch_add(1, std::memory_order_relaxed);
            }
          }
          sample.ok = status.ok();
          per_thread[t].push_back(sample);
          return loadgen::Call{
              sample.is_predict ? loadgen::kPredict : loadgen::kExecute,
              status};
        });
  });

  // Ground-truth prober. A prober that cannot connect aborts the bench:
  // silently skipping it would pass the zero-wrong-answers gate vacuously.
  size_t probe_rounds = 0;
  std::thread prober([&] {
    PpcClient client;
    const Status connected = client.Connect("127.0.0.1", router.port);
    PPC_CHECK_MSG(connected.ok(), connected.ToString().c_str());
    while (!stop.load(std::memory_order_relaxed)) {
      for (const Probe& probe : probes) {
        auto predicted = client.Predict(kTemplates[probe.tmpl], probe.point);
        // Abstaining (null) and failing are availability problems, not
        // correctness ones; committing to a *different* plan than the
        // pre-kill truth is a wrong answer.
        if (predicted.ok() && predicted.value().plan != kNullPlanId &&
            predicted.value().plan != probe.plan) {
          wrong_answers.fetch_add(1, std::memory_order_relaxed);
        }
      }
      ++probe_rounds;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  });

  // Controller (this thread): pre-kill steady state, SIGKILL, detection,
  // outage, cold respawn, rejoin, post-rejoin steady state.
  PpcClient admin;
  PPC_CHECK(admin.Connect("127.0.0.1", router.port).ok());
  std::this_thread::sleep_for(
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kPreKillSeconds)));

  const double t_kill = SecondsSince(epoch);
  shards[victim].Kill();
  std::printf("t=%.3fs SIGKILL %s\n", t_kill, victim_address.c_str());

  const double t_open =
      AwaitBreakerState(&admin, victim_address, "open", epoch, 15.0);
  PPC_CHECK_MSG(t_open >= 0.0, "breaker never opened after SIGKILL");
  std::printf("t=%.3fs breaker open (detection %.0f ms)\n", t_open,
              (t_open - t_kill) * 1e3);

  std::this_thread::sleep_for(
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kOutageSeconds)));

  // Respawn cold on the same port: a crashed process restarted by an
  // operator or supervisor, with no memory of what it had learned.
  const double t_respawn = SecondsSince(epoch);
  Spawn(server_bin, {"--port=" + std::to_string(shards[victim].port)},
        &shards[victim]);
  std::printf("t=%.3fs respawned %s cold\n", SecondsSince(epoch),
              victim_address.c_str());

  const double t_rejoined =
      AwaitBreakerState(&admin, victim_address, "closed", epoch, 20.0);
  const bool auto_rejoined = t_rejoined >= 0.0;
  if (auto_rejoined) {
    std::printf("t=%.3fs rejoined (warm rejoin took %.0f ms)\n", t_rejoined,
                (t_rejoined - t_respawn) * 1e3);
  } else {
    std::printf("shard never rejoined\n");
  }

  std::this_thread::sleep_for(
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kPostRejoinSeconds)));
  stop.store(true, std::memory_order_relaxed);
  load_thread.join();
  prober.join();
  PrintRule();
  std::vector<Sample> samples;
  for (const std::vector<Sample>& mine : per_thread) {
    samples.insert(samples.end(), mine.begin(), mine.end());
  }

  // --- Scoring. ---
  const double detection_end = t_open + kDetectionGraceSeconds;
  Window all, excluding_detection, victim_before, victim_outage;
  Window victim_after, others_after;
  double first_failover_ok = -1.0;
  for (const Sample& sample : samples) {
    ++all.total;
    if (sample.ok) ++all.ok_count;
    const bool in_detection = sample.t >= t_kill && sample.t < detection_end;
    if (!in_detection) {
      ++excluding_detection.total;
      if (sample.ok) ++excluding_detection.ok_count;
    }
    if (sample.victim_owned && sample.ok && sample.t >= t_kill &&
        (first_failover_ok < 0.0 || sample.t < first_failover_ok)) {
      first_failover_ok = sample.t;
    }
    Window* window = nullptr;
    if (sample.victim_owned && sample.t < t_kill) {
      window = &victim_before;
    } else if (sample.victim_owned && sample.t >= detection_end &&
               (!auto_rejoined || sample.t < t_rejoined)) {
      window = &victim_outage;
    } else if (auto_rejoined && sample.t >= t_rejoined) {
      window = sample.victim_owned ? &victim_after : &others_after;
    }
    if (window != nullptr && sample.is_predict) {
      ++window->predicts;
      if (sample.hit) ++window->hits;
    }
  }
  const double failover_latency_ms =
      first_failover_ok < 0.0 ? -1.0 : (first_failover_ok - t_kill) * 1e3;
  const double dip =
      std::max(0.0, victim_before.hit_rate() - victim_outage.hit_rate());
  const double rejoin_gap =
      std::max(0.0, victim_before.hit_rate() - victim_after.hit_rate());

  std::printf("availability: %.4f overall, %.4f excluding detection "
              "(%zu samples)\n",
              all.availability(), excluding_detection.availability(),
              all.total);
  std::printf("failover: first victim-owned answer %.0f ms after kill, "
              "%zu FAILED_OVER executes\n",
              failover_latency_ms,
              failed_over_executes.load());
  std::printf("replica hit rate on victim templates: %.3f before kill, "
              "%.3f during outage (dip %.3f)\n",
              victim_before.hit_rate(), victim_outage.hit_rate(), dip);
  std::printf("rejoin: warm-up %.3fs, victim hit rate %.3f after rejoin "
              "(gap vs pre-kill %.3f), others %.3f\n",
              auto_rejoined ? t_rejoined - t_respawn : -1.0,
              victim_after.hit_rate(), rejoin_gap,
              others_after.hit_rate());
  std::printf("wrong answers: %zu in %zu probe rounds\n",
              wrong_answers.load(), probe_rounds);
  PrintRule();

  // The robustness claims, enforced here as well as in check.sh. The
  // first two keep the others from passing on no evidence: an empty
  // window's availability is 1.0, and zero wrong answers means nothing
  // without a probe.
  PPC_CHECK_MSG(all.total > 0, "the load threads recorded no samples");
  PPC_CHECK_MSG(probe_rounds >= 1, "the ground-truth prober never probed");
  PPC_CHECK_MSG(wrong_answers.load() == 0,
                "a failed-over or rejoined shard contradicted ground truth");
  PPC_CHECK_MSG(excluding_detection.availability() >= 0.99,
                "availability below 99% outside the detection window");
  PPC_CHECK_MSG(auto_rejoined, "killed shard was never readmitted");
  PPC_CHECK_MSG(failed_over_executes.load() >= 1,
                "no EXECUTE was answered FAILED_OVER during the outage");
  PPC_CHECK_MSG(rejoin_gap <= 0.05,
                "rejoined shard trails its pre-kill hit rate by more than "
                "5 points — warm rejoin is not working");

  std::string body = "\"availability\": " + JsonNumber(all.availability());
  body += ",\n\"availability_excluding_detection\": " +
          JsonNumber(excluding_detection.availability());
  body += ",\n\"samples\": " + std::to_string(all.total);
  body += ",\n\"detection_seconds\": " + JsonNumber(t_open - t_kill);
  body += ",\n\"wrong_answers\": " + std::to_string(wrong_answers.load());
  body += ",\n\"failed_over_executes\": " +
          std::to_string(failed_over_executes.load());
  body += ",\n\"failover\": {\"latency_ms\": " +
          JsonNumber(failover_latency_ms);
  body += ", \"victim_hit_rate_before_kill\": " +
          JsonNumber(victim_before.hit_rate());
  body += ", \"replica_hit_rate_during_outage\": " +
          JsonNumber(victim_outage.hit_rate());
  body += ", \"hit_rate_dip\": " + JsonNumber(dip);
  body += "}";
  body += ",\n\"rejoin\": {\"auto_rejoined\": ";
  body += auto_rejoined ? "true" : "false";
  body += ", \"warmup_seconds\": " +
          JsonNumber(auto_rejoined ? t_rejoined - t_respawn : -1.0);
  body += ", \"victim_hit_rate_after_rejoin\": " +
          JsonNumber(victim_after.hit_rate());
  body += ", \"others_hit_rate_after_rejoin\": " +
          JsonNumber(others_after.hit_rate());
  body += ", \"hit_rate_gap\": " + JsonNumber(rejoin_gap);
  body += "}";
  body += ",\n\"probes\": " + std::to_string(probes.size());
  body += ",\n\"probe_rounds\": " + std::to_string(probe_rounds);
  body += ",\n\"load_threads\": " + std::to_string(kLoadThreads);
  body += ",\n\"scenario\": \"zipf_tenants\"";
  body += ",\n\"seed\": " + std::to_string(kSeed);
  WriteBenchJson("cluster_failover", body);

  router.Terminate();
  for (int i = 0; i < kShards; ++i) shards[i].Terminate();
}

}  // namespace
}  // namespace bench
}  // namespace ppc

int main() {
  ppc::bench::Run();
  return 0;
}
