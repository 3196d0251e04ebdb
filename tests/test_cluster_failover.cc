// The health model end to end (DESIGN.md §18): circuit-breaker unit
// tests, then a 3-shard cluster behind a router with fast probe /
// breaker / replication knobs — failover to a warm replica, aggregated
// metrics across a dead backend, warm rejoin gating, and a seeded chaos
// run that kills and restarts shards under armed failpoints while
// asserting zero wrong answers.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "server/circuit_breaker.h"
#include "server/client.h"
#include "server/failpoints.h"
#include "server/hash_ring.h"
#include "server/router.h"
#include "server/server.h"
#include "test_util.h"
#include "workload/templates.h"

namespace ppc {
namespace {

using testutil::JsonValidator;
using testutil::SmallTpch;

// ---------------------------------------------------------------------
// CircuitBreaker unit tests.
// ---------------------------------------------------------------------

CircuitBreaker::Options FastBreaker(int threshold = 3,
                                    int64_t cooldown_ms = 20,
                                    int successes = 1) {
  CircuitBreaker::Options options;
  options.failure_threshold = threshold;
  options.open_cooldown_ms = cooldown_ms;
  options.successes_to_close = successes;
  return options;
}

TEST(CircuitBreakerTest, OpensOnlyAtConsecutiveFailureThreshold) {
  CircuitBreaker breaker(FastBreaker(/*threshold=*/3));
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.RecordFailure());
  EXPECT_FALSE(breaker.RecordFailure());
  EXPECT_TRUE(breaker.AllowRequest()) << "below threshold must stay closed";
  // A success in between resets the consecutive count.
  EXPECT_FALSE(breaker.RecordSuccess());
  EXPECT_FALSE(breaker.RecordFailure());
  EXPECT_FALSE(breaker.RecordFailure());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // Third consecutive failure trips it, and exactly that call reports
  // the transition.
  EXPECT_TRUE(breaker.RecordFailure());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  // Further failures on an open breaker are not new transitions.
  EXPECT_FALSE(breaker.RecordFailure());
}

TEST(CircuitBreakerTest, ProbeIsAdmittedOnlyAfterCooldown) {
  CircuitBreaker breaker(FastBreaker(/*threshold=*/1, /*cooldown_ms=*/60));
  EXPECT_TRUE(breaker.RecordFailure());
  EXPECT_FALSE(breaker.TryBeginProbe()) << "cooldown has not elapsed";
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_TRUE(breaker.TryBeginProbe());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  // Half-open reserves capacity for the prober, not regular traffic.
  EXPECT_FALSE(breaker.AllowRequest());
  // Re-admission while half-open is allowed (retry of a failed trial).
  EXPECT_TRUE(breaker.TryBeginProbe());
}

TEST(CircuitBreakerTest, HalfOpenSuccessClosesAndFailureReopens) {
  CircuitBreaker breaker(FastBreaker(/*threshold=*/1, /*cooldown_ms=*/0));
  EXPECT_TRUE(breaker.RecordFailure());
  ASSERT_TRUE(breaker.TryBeginProbe());
  // A failed trial goes straight back to open and restarts the cooldown.
  EXPECT_TRUE(breaker.RecordFailure());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  ASSERT_TRUE(breaker.TryBeginProbe());
  EXPECT_TRUE(breaker.RecordSuccess()) << "the closing call reports it";
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest());
}

TEST(CircuitBreakerTest, SuccessesToCloseRequiresThatManyTrials) {
  CircuitBreaker breaker(
      FastBreaker(/*threshold=*/1, /*cooldown_ms=*/0, /*successes=*/2));
  EXPECT_TRUE(breaker.RecordFailure());
  ASSERT_TRUE(breaker.TryBeginProbe());
  EXPECT_FALSE(breaker.RecordSuccess());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  ASSERT_TRUE(breaker.TryBeginProbe());
  EXPECT_TRUE(breaker.RecordSuccess());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

// ---------------------------------------------------------------------
// Cluster fixture: three in-process shards behind a router with the
// health model tuned fast (probes every 25 ms, breaker opens after two
// failures, replication every 100 ms).
// ---------------------------------------------------------------------

struct TemplateSpec {
  const char* name;
  int dims;
};

constexpr TemplateSpec kTemplates[] = {
    {"Q0", 2}, {"Q1", 2}, {"Q2", 2}, {"Q3", 3}, {"Q4", 3},
    {"Q5", 4}, {"Q6", 4}, {"Q7", 5}, {"Q8", 6}};

std::vector<double> CenterPoint(const std::string& name) {
  for (const TemplateSpec& spec : kTemplates) {
    if (name == spec.name) return std::vector<double>(spec.dims, 0.5);
  }
  return {};
}

class ClusterFailoverTest : public ::testing::Test {
 protected:
  static constexpr int kShards = 3;

  void SetUp() override {
    for (int i = 0; i < kShards; ++i) {
      ASSERT_TRUE(StartShard(i, /*port=*/0));
    }
    PlanRouter::Config config;
    config.backend_deadline_ms = 2000;
    config.probe_interval_ms = 25;
    config.probe_deadline_ms = 250;
    config.replication_interval_ms = 100;
    config.breaker.failure_threshold = 2;
    config.breaker.open_cooldown_ms = 100;
    for (int i = 0; i < kShards; ++i) {
      config.backends.push_back(ShardNode(i));
    }
    router_ = std::make_unique<PlanRouter>(config);
    ASSERT_TRUE(router_->Start().ok());
  }

  void TearDown() override {
    failpoints::DisarmAll();
    if (router_ != nullptr) router_->Stop();
    for (auto& shard : shards_) {
      if (shard != nullptr) shard->Stop();
    }
  }

  /// Builds a fresh (cold) framework and serves it on `port` (0 =
  /// ephemeral). Replaces any previous incarnation of the shard.
  bool StartShard(int i, uint16_t port) {
    if (shards_[i] != nullptr) shards_[i]->Stop();
    shards_[i].reset();
    frameworks_[i] =
        std::make_unique<PpcFramework>(&SmallTpch(), ServingConfig());
    for (const TemplateSpec& spec : kTemplates) {
      if (!frameworks_[i]
               ->RegisterTemplate(EvaluationTemplate(spec.name))
               .ok()) {
        return false;
      }
    }
    PlanServer::Config config;
    config.port = port;
    // The dead listener's port lingers briefly even with SO_REUSEADDR
    // (its accept thread must finish exiting); retry the bind.
    for (int attempt = 0; attempt < 100; ++attempt) {
      shards_[i] = std::make_unique<PlanServer>(frameworks_[i].get(), config);
      if (shards_[i]->Start().ok()) return true;
      shards_[i].reset();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  HashRing::Node ShardNode(int i) const {
    return HashRing::Node{"127.0.0.1", shards_[i]->port()};
  }

  Status ConnectClient(PpcClient* client) {
    return client->Connect("127.0.0.1", router_->port());
  }

  /// Shard index for a router-ring node address, or -1.
  int IndexOf(const HashRing::Node& node) const {
    for (int i = 0; i < kShards; ++i) {
      if (node == ShardNode(i)) return i;
    }
    return -1;
  }

  /// Placement on a local replica of the router's ring (placement is a
  /// pure function of the backend set).
  HashRing::Placement PlacementOf(const std::string& name) const {
    HashRing ring;
    for (int i = 0; i < kShards; ++i) ring.Add(ShardNode(i));
    return ring.PlacementFor(name).value();
  }

  /// Drives `count` EXECUTEs for `name` through the router, tightly
  /// clustered around the template's center so the owning shard learns a
  /// confident cluster.
  void Warm(PpcClient* client, const std::string& name, int count,
            uint64_t seed = 7) {
    Rng rng(seed);
    const std::vector<double> center = CenterPoint(name);
    for (int i = 0; i < count; ++i) {
      std::vector<double> x = center;
      for (double& v : x) v += rng.Uniform(-0.02, 0.02);
      ASSERT_TRUE(client->Execute(name, x).ok()) << name;
    }
  }

  /// Polls until `pred` holds, false on timeout.
  bool WaitFor(const std::function<bool()>& pred, int64_t timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
  }

  CircuitBreaker::State BreakerOf(const HashRing::Node& node) const {
    for (const auto& status : router_->backend_status()) {
      if (status.node == node) return status.breaker;
    }
    return CircuitBreaker::State::kClosed;
  }

  /// True once a shard-direct PREDICT for `name` on shard `i` commits to
  /// a plan — how the tests observe that replication (or a warm start)
  /// actually delivered state to a shard that never saw an EXECUTE.
  bool ShardPredictsNonNull(int i, const std::string& name) {
    PpcClient direct;
    if (!direct.Connect("127.0.0.1", shards_[i]->port()).ok()) return false;
    auto predicted = direct.Predict(name, CenterPoint(name));
    return predicted.ok() && predicted.value().plan != kNullPlanId;
  }

  uint64_t RouterCounter(const std::string& name) {
    return router_->metrics().counter(name).value();
  }

  std::unique_ptr<PpcFramework> frameworks_[kShards];
  std::unique_ptr<PlanServer> shards_[kShards];
  std::unique_ptr<PlanRouter> router_;
};

TEST_F(ClusterFailoverTest, PredictFailsOverToWarmReplicaWhenPrimaryDies) {
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());

  const std::string name = kTemplates[1].name;  // any template works
  const auto placement = PlacementOf(name);
  const int primary = IndexOf(placement.primary);
  const int replica = IndexOf(placement.replica);
  ASSERT_GE(primary, 0);
  ASSERT_GE(replica, 0);
  ASSERT_NE(primary, replica);

  Warm(&client, name, 300);
  auto truth = client.Predict(name, CenterPoint(name));
  ASSERT_TRUE(truth.ok());
  ASSERT_NE(truth.value().plan, kNullPlanId) << "template failed to warm";

  // Replication must deliver the primary's state to the ring-successor
  // replica — observable as the replica committing shard-direct, without
  // ever having executed this template.
  ASSERT_TRUE(WaitFor([&] { return ShardPredictsNonNull(replica, name); },
                      5000))
      << "replica never went warm";

  shards_[primary]->Stop();

  // Inline failover answers immediately (the breaker need not be open
  // yet), from the *warm* replica: same plan, no abstain.
  auto predicted = client.Predict(name, CenterPoint(name));
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
  EXPECT_EQ(predicted.value().plan, truth.value().plan);
  auto executed = client.Execute(name, CenterPoint(name));
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_TRUE(executed.value().failed_over);
  EXPECT_GE(RouterCounter("router.failovers"), 1u);

  // The prober notices and opens the breaker.
  EXPECT_TRUE(WaitFor(
      [&] {
        return BreakerOf(placement.primary) != CircuitBreaker::State::kClosed;
      },
      3000));
}

TEST_F(ClusterFailoverTest, DeadBackendDoesNotFailAggregatedMetrics) {
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());

  shards_[0]->Stop();
  const HashRing::Node dead = ShardNode(0);
  ASSERT_TRUE(WaitFor(
      [&] { return BreakerOf(dead) == CircuitBreaker::State::kOpen; }, 3000));

  // Aggregated METRICS still answers, reporting the dead backend down
  // and the survivors up — not a wholesale INTERNAL.
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_TRUE(JsonValidator::Valid(metrics.value())) << metrics.value();
  EXPECT_NE(metrics.value().find(dead.Address()), std::string::npos);
  EXPECT_NE(metrics.value().find("\"up\":false"), std::string::npos);
  EXPECT_NE(metrics.value().find("\"up\":true"), std::string::npos);
  EXPECT_NE(metrics.value().find("\"breaker_state\":\"open\""),
            std::string::npos);
}

TEST_F(ClusterFailoverTest, RejoinWarmStartsFromReplicaBeforeReadmission) {
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());

  const std::string name = kTemplates[2].name;
  const auto placement = PlacementOf(name);
  const int primary = IndexOf(placement.primary);
  const int replica = IndexOf(placement.replica);
  ASSERT_GE(primary, 0);
  ASSERT_GE(replica, 0);
  const uint16_t port = shards_[primary]->port();

  Warm(&client, name, 300);
  auto truth = client.Predict(name, CenterPoint(name));
  ASSERT_TRUE(truth.ok());
  ASSERT_NE(truth.value().plan, kNullPlanId);
  ASSERT_TRUE(WaitFor([&] { return ShardPredictsNonNull(replica, name); },
                      5000));

  // Kill the primary and let the breaker open.
  shards_[primary]->Stop();
  ASSERT_TRUE(WaitFor(
      [&] {
        return BreakerOf(placement.primary) == CircuitBreaker::State::kOpen;
      },
      3000));

  // Restart it on the same port with a *fresh, cold* framework: the old
  // process state is gone, exactly like a crashed shard coming back.
  ASSERT_TRUE(StartShard(primary, port));
  ASSERT_FALSE(frameworks_[primary]->metrics()
                   .counter("framework.queries")
                   .value() > 0)
      << "restarted shard must start cold";

  // The prober warm-starts it from its replicas and only then records
  // the half-open success that closes the breaker.
  ASSERT_TRUE(WaitFor(
      [&] {
        return BreakerOf(placement.primary) == CircuitBreaker::State::kClosed;
      },
      10000))
      << "shard never rejoined";
  EXPECT_GE(RouterCounter("router.rejoin.warm_starts"), 1u);

  // By the time it is back in rotation its own copy of the template is
  // warm again — restored over the wire from the replica, not relearned.
  EXPECT_TRUE(ShardPredictsNonNull(primary, name))
      << "rejoined shard is cold; warm start did not precede readmission";
  auto predicted = client.Predict(name, CenterPoint(name));
  ASSERT_TRUE(predicted.ok());
  EXPECT_EQ(predicted.value().plan, truth.value().plan);
}

// ---------------------------------------------------------------------
// Chaos: seeded saboteur kills and restarts shards while load and
// ground-truth probes run, with recoverable IO failpoints armed in every
// socket path. Asserts zero wrong answers and ≥99% availability outside
// the detection windows. Tunables: PPC_CHAOS_SECONDS (default 3),
// PPC_CHAOS_SEED (default 42).
// ---------------------------------------------------------------------

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoll(value, nullptr, 10);
}

TEST_F(ClusterFailoverTest, ClusterChaosSurvivesShardKillsUnderFailpoints) {
  const int64_t seconds = EnvInt("PPC_CHAOS_SECONDS", 3);
  const uint64_t seed = static_cast<uint64_t>(EnvInt("PPC_CHAOS_SEED", 42));

  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());

  // Warm every template and capture ground truth before any faults.
  std::map<std::string, uint64_t> truth;
  for (const TemplateSpec& spec : kTemplates) {
    Warm(&client, spec.name, 200, seed + std::hash<std::string>{}(spec.name));
    auto predicted = client.Predict(spec.name, CenterPoint(spec.name));
    ASSERT_TRUE(predicted.ok());
    if (predicted.value().plan != kNullPlanId) {
      truth[spec.name] = predicted.value().plan;
    }
  }
  ASSERT_FALSE(truth.empty()) << "no template warmed to a committed plan";
  // Let the first replication pass ship the warm state.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Recoverable IO faults everywhere: clamped writes, spurious EINTR and
  // EAGAIN on reads. These must never corrupt an answer — only slow it.
  {
    failpoints::Config fault;
    fault.kind = failpoints::Kind::kShortIo;
    fault.arg = 3;
    fault.probability_permille = 30;
    fault.seed = seed;
    failpoints::Arm(failpoints::Site::kSend, fault);
    fault.kind = failpoints::Kind::kEintr;
    fault.probability_permille = 30;
    fault.seed = seed + 1;
    failpoints::Arm(failpoints::Site::kRecv, fault);
  }

  struct Sample {
    double t = 0;
    bool ok = false;
  };
  std::atomic<bool> stop{false};
  std::atomic<int> wrong_answers{0};
  std::vector<Sample> samples;
  std::mutex samples_mu;
  std::vector<double> kill_times;
  std::mutex kill_mu;
  const auto epoch = std::chrono::steady_clock::now();
  const auto now_seconds = [&epoch] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
  };

  // Load: clustered EXECUTEs round-robining the warm templates.
  std::thread load([&] {
    PpcClient mine;
    if (!ConnectClient(&mine).ok()) return;
    Rng rng(seed + 100);
    std::vector<std::string> names;
    for (const auto& [name, plan] : truth) names.push_back(name);
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string& name = names[i++ % names.size()];
      std::vector<double> x = CenterPoint(name);
      for (double& v : x) v += rng.Uniform(-0.02, 0.02);
      const double t = now_seconds();
      const bool ok = mine.Execute(name, x).ok();
      std::lock_guard<std::mutex> lock(samples_mu);
      samples.push_back({t, ok});
    }
  });

  // Prober: ground-truth PREDICTs. A committed plan that differs from
  // the pre-chaos truth is a *wrong answer* (abstaining is allowed — a
  // failed-over cold path may abstain; it must never fabricate).
  std::thread prober([&] {
    PpcClient mine;
    if (!ConnectClient(&mine).ok()) return;
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& [name, plan] : truth) {
        auto predicted = mine.Predict(name, CenterPoint(name));
        if (predicted.ok() && predicted.value().plan != kNullPlanId &&
            predicted.value().plan != plan) {
          ++wrong_answers;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  });

  // Saboteur: kill a seeded-random shard, wait, restart it cold on the
  // same port, wait for rejoin, repeat.
  std::thread saboteur([&] {
    Rng rng(seed + 200);
    while (!stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
      if (stop.load(std::memory_order_relaxed)) break;
      const int victim =
          static_cast<int>(rng.Uniform(0.0, 1.0) * kShards) % kShards;
      const uint16_t port = shards_[victim]->port();
      {
        std::lock_guard<std::mutex> lock(kill_mu);
        kill_times.push_back(now_seconds());
      }
      shards_[victim]->Stop();
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      ASSERT_TRUE(StartShard(victim, port));
      // Block until the router readmits it so we never hold two shards
      // down at once (two deaths lose both copies by design).
      WaitFor(
          [&] {
            return BreakerOf(ShardNode(victim)) ==
                       CircuitBreaker::State::kClosed ||
                   stop.load(std::memory_order_relaxed);
          },
          10000);
    }
  });

  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  stop.store(true, std::memory_order_relaxed);
  load.join();
  prober.join();
  saboteur.join();
  failpoints::DisarmAll();

  EXPECT_EQ(wrong_answers.load(), 0)
      << "a shard answered with a plan that contradicts pre-chaos truth";

  // Availability outside the detection windows (0.5 s after each kill,
  // covering probe cadence + breaker threshold + failover engagement).
  int total = 0;
  int ok_count = 0;
  for (const Sample& sample : samples) {
    bool in_window = false;
    for (const double kill : kill_times) {
      if (sample.t >= kill && sample.t < kill + 0.5) {
        in_window = true;
        break;
      }
    }
    if (in_window) continue;
    ++total;
    if (sample.ok) ++ok_count;
  }
  ASSERT_GT(total, 0);
  const double availability =
      static_cast<double>(ok_count) / static_cast<double>(total);
  EXPECT_GE(availability, 0.99)
      << ok_count << "/" << total << " outside detection windows";

  // The cluster is whole again: every breaker closed, every template
  // answering.
  EXPECT_TRUE(WaitFor(
      [&] {
        for (const auto& status : router_->backend_status()) {
          if (status.breaker != CircuitBreaker::State::kClosed) return false;
        }
        return true;
      },
      10000));
  for (const auto& [name, plan] : truth) {
    auto predicted = client.Predict(name, CenterPoint(name));
    EXPECT_TRUE(predicted.ok())
        << name << ": " << predicted.status().ToString();
  }
}

}  // namespace
}  // namespace ppc
