#include "server/router.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "server/client.h"
#include "server/hash_ring.h"
#include "server/net_util.h"
#include "server/server.h"
#include "test_util.h"
#include "workload/templates.h"

namespace ppc {
namespace {

using testutil::JsonValidator;
using testutil::SmallTpch;

// ---------------------------------------------------------------------
// HashRing unit tests.
// ---------------------------------------------------------------------

std::vector<std::string> SyntheticKeys(int count) {
  std::vector<std::string> keys;
  keys.reserve(count);
  for (int i = 0; i < count; ++i) keys.push_back("Q" + std::to_string(i));
  return keys;
}

TEST(HashRingTest, OwnershipIsDeterministicAcrossInsertionOrder) {
  const std::vector<HashRing::Node> nodes = {
      {"10.0.0.1", 9001}, {"10.0.0.2", 9002}, {"10.0.0.3", 9003}};
  HashRing forward;
  for (const auto& n : nodes) forward.Add(n);
  HashRing reverse;
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) reverse.Add(*it);
  for (const std::string& key : SyntheticKeys(500)) {
    auto a = forward.Owner(key);
    auto b = reverse.Owner(key);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().Address(), b.value().Address()) << key;
  }
}

TEST(HashRingTest, VnodesSpreadOwnershipAcrossNodes) {
  HashRing ring(/*vnodes_per_node=*/64);
  ring.Add({"10.0.0.1", 9001});
  ring.Add({"10.0.0.2", 9002});
  ring.Add({"10.0.0.3", 9003});
  std::map<std::string, int> owned;
  const auto keys = SyntheticKeys(3000);
  for (const std::string& key : keys) {
    owned[ring.Owner(key).value().Address()]++;
  }
  ASSERT_EQ(owned.size(), 3u) << "every node must own some keys";
  for (const auto& [address, count] : owned) {
    // With 64 vnodes each, no node should fall below ~1/3 of fair share.
    EXPECT_GT(count, static_cast<int>(keys.size()) / 9) << address;
  }
}

TEST(HashRingTest, RemovalOnlyMovesTheRemovedNodesKeys) {
  HashRing ring;
  const HashRing::Node a{"10.0.0.1", 9001};
  const HashRing::Node b{"10.0.0.2", 9002};
  const HashRing::Node c{"10.0.0.3", 9003};
  ring.Add(a);
  ring.Add(b);
  ring.Add(c);
  const auto keys = SyntheticKeys(2000);
  std::map<std::string, std::string> before;
  for (const std::string& key : keys) {
    before[key] = ring.Owner(key).value().Address();
  }
  ASSERT_TRUE(ring.Remove(c));
  int moved = 0;
  for (const std::string& key : keys) {
    const std::string after = ring.Owner(key).value().Address();
    if (before[key] == c.Address()) {
      ++moved;
      EXPECT_NE(after, c.Address());
    } else {
      // The defining consistent-hashing property: keys on surviving
      // nodes never move when some *other* node leaves.
      EXPECT_EQ(after, before[key]) << key;
    }
  }
  EXPECT_GT(moved, 0);
}

TEST(HashRingTest, AddIsIdempotentAndRemoveReportsAbsence) {
  HashRing ring;
  const HashRing::Node a{"10.0.0.1", 9001};
  ring.Add(a);
  ring.Add(a);
  EXPECT_EQ(ring.node_count(), 1u);
  EXPECT_TRUE(ring.Remove(a));
  EXPECT_FALSE(ring.Remove(a));
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.Owner("Q1").status().code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------
// Replica placement (DESIGN.md §18).
// ---------------------------------------------------------------------

TEST(HashRingTest, ReplicaIsAlwaysADistinctShard) {
  // With few nodes and many vnodes per node, runs of *adjacent* vnodes
  // belonging to the same backend are common on the ring — exactly the
  // collision the successor walk must skip past. Exercise node counts
  // from 2 up and both sparse and dense vnode settings.
  for (const int vnodes : {1, 64, 256}) {
    for (int node_count = 2; node_count <= 5; ++node_count) {
      HashRing ring(vnodes);
      for (int i = 0; i < node_count; ++i) {
        ring.Add({"10.0.0." + std::to_string(i + 1),
                  static_cast<uint16_t>(9001 + i)});
      }
      for (const std::string& key : SyntheticKeys(2000)) {
        const auto placement = ring.PlacementFor(key);
        ASSERT_TRUE(placement.ok());
        ASSERT_TRUE(placement.value().has_replica)
            << key << " with " << node_count << " nodes";
        EXPECT_FALSE(placement.value().replica == placement.value().primary)
            << key;
        // The primary leg of the placement must agree with Owner().
        EXPECT_EQ(placement.value().primary.Address(),
                  ring.Owner(key).value().Address())
            << key;
      }
    }
  }
}

TEST(HashRingTest, SingleNodeRingHasNoReplica) {
  HashRing ring;
  ring.Add({"10.0.0.1", 9001});
  const auto placement = ring.PlacementFor("Q1");
  ASSERT_TRUE(placement.ok());
  EXPECT_FALSE(placement.value().has_replica);
  EXPECT_EQ(placement.value().primary.Address(), "10.0.0.1:9001");
  HashRing empty;
  EXPECT_EQ(empty.PlacementFor("Q1").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(HashRingTest, PlacementIsDeterministicAcrossRebuilds) {
  const std::vector<HashRing::Node> nodes = {{"10.0.0.1", 9001},
                                             {"10.0.0.2", 9002},
                                             {"10.0.0.3", 9003},
                                             {"10.0.0.4", 9004}};
  HashRing forward;
  for (const auto& n : nodes) forward.Add(n);
  HashRing reverse;
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) reverse.Add(*it);
  // A third rebuild that churns through add/remove before converging on
  // the same set — placement must be a pure function of the final set.
  HashRing churned;
  churned.Add({"10.9.9.9", 1234});
  for (const auto& n : nodes) churned.Add(n);
  ASSERT_TRUE(churned.Remove({"10.9.9.9", 1234}));
  for (const std::string& key : SyntheticKeys(1000)) {
    const auto a = forward.PlacementFor(key);
    const auto b = reverse.PlacementFor(key);
    const auto c = churned.PlacementFor(key);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(a.value().primary.Address(), b.value().primary.Address());
    EXPECT_EQ(a.value().replica.Address(), b.value().replica.Address());
    EXPECT_EQ(a.value().primary.Address(), c.value().primary.Address());
    EXPECT_EQ(a.value().replica.Address(), c.value().replica.Address());
  }
}

TEST(HashRingTest, PlacementMovementStaysNearOneOverNOnAddAndRemove) {
  const auto keys = SyntheticKeys(4000);
  // Adding a 5th node should re-home roughly 1/5 of the primaries; the
  // wide tolerance absorbs vnode-placement variance without letting a
  // broken ring (all keys move, or none do) slip through.
  HashRing ring;
  for (int i = 0; i < 4; ++i) {
    ring.Add({"10.0.0." + std::to_string(i + 1),
              static_cast<uint16_t>(9001 + i)});
  }
  std::map<std::string, std::string> before;
  for (const std::string& key : keys) {
    before[key] = ring.PlacementFor(key).value().primary.Address();
  }
  const HashRing::Node fifth{"10.0.0.5", 9005};
  ring.Add(fifth);
  int moved_on_add = 0;
  for (const std::string& key : keys) {
    const auto placement = ring.PlacementFor(key).value();
    if (placement.primary.Address() != before[key]) {
      ++moved_on_add;
      // Keys only ever move *to* the new node on an add.
      EXPECT_TRUE(placement.primary == fifth) << key;
    }
  }
  const double add_fraction =
      static_cast<double>(moved_on_add) / static_cast<double>(keys.size());
  EXPECT_GT(add_fraction, 0.10);
  EXPECT_LT(add_fraction, 0.35);

  // Removing it again restores the 4-node placement exactly, so the
  // movement fraction on remove equals the fraction the node owned.
  ASSERT_TRUE(ring.Remove(fifth));
  int moved_on_remove = 0;
  for (const std::string& key : keys) {
    if (ring.PlacementFor(key).value().primary.Address() != before[key]) {
      ++moved_on_remove;
    }
  }
  EXPECT_EQ(moved_on_remove, 0)
      << "removal must restore the prior placement bit for bit";
}

// ---------------------------------------------------------------------
// Router end-to-end tests (two in-process shards behind a router).
// ---------------------------------------------------------------------

struct TemplateSpec {
  const char* name;
  int dims;
};

/// Every evaluation template, so placement-sensitive tests always find
/// work on both shards regardless of where the ephemeral-port ring puts
/// each template.
constexpr TemplateSpec kTemplates[] = {
    {"Q0", 2}, {"Q1", 2}, {"Q2", 2}, {"Q3", 3}, {"Q4", 3},
    {"Q5", 4}, {"Q6", 4}, {"Q7", 5}, {"Q8", 6}};

/// A point for template `name`, or for an alias of it ("Q1_alias3").
std::vector<double> PointFor(const std::string& name) {
  for (const TemplateSpec& spec : kTemplates) {
    if (name == spec.name || name.rfind(std::string(spec.name) + "_", 0) == 0) {
      return std::vector<double>(spec.dims, 0.5);
    }
  }
  return {};
}

class RouterTest : public ::testing::Test {
 protected:
  static constexpr int kShards = 2;

  void SetUp() override {
    for (int i = 0; i < kShards; ++i) {
      frameworks_[i] =
          std::make_unique<PpcFramework>(&SmallTpch(), ServingConfig());
      for (const TemplateSpec& spec : kTemplates) {
        ASSERT_TRUE(frameworks_[i]
                        ->RegisterTemplate(EvaluationTemplate(spec.name))
                        .ok());
      }
      PlanServer::Config shard_config;
      // While hung_[i] is set, shard i's workers hold every request, as a
      // shard that stops answering without closing its connections does.
      shard_config.pre_dispatch_hook = [this, i](wire::MessageType) {
        while (hung_[i].load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      };
      shards_[i] = std::make_unique<PlanServer>(frameworks_[i].get(),
                                                shard_config);
      ASSERT_TRUE(shards_[i]->Start().ok());
    }
  }

  void StartRouter(std::vector<int> backend_indices = {0, 1},
                   int64_t backend_deadline_ms =
                       PlanRouter::Config{}.backend_deadline_ms) {
    PlanRouter::Config config;
    config.backend_deadline_ms = backend_deadline_ms;
    // Keep these tests deterministic: no background prober, so breaker
    // state moves only on the passive failures each test provokes. The
    // full health model (probes, rejoin, replication) is exercised by
    // tests/test_cluster_failover.cc.
    config.probe_interval_ms = 0;
    for (int i : backend_indices) {
      config.backends.push_back(ShardNode(i));
    }
    router_ = std::make_unique<PlanRouter>(config);
    ASSERT_TRUE(router_->Start().ok());
    ASSERT_GT(router_->port(), 0);
  }

  HashRing::Node ShardNode(int i) const {
    return HashRing::Node{"127.0.0.1", shards_[i]->port()};
  }

  /// The shard index the router's ring assigns `name` to — computed with
  /// an identical local ring (placement is a pure function of the
  /// backend set).
  int OwnerIndex(const std::string& name) const {
    HashRing ring;
    for (int i = 0; i < kShards; ++i) ring.Add(ShardNode(i));
    const auto owner = ring.Owner(name);
    for (int i = 0; i < kShards; ++i) {
      if (owner.value() == ShardNode(i)) return i;
    }
    return -1;
  }

  /// A template the ring places on shard `index`: the first evaluation
  /// template it owns. With two ephemeral ports the ring puts all nine on
  /// one shard about 1 run in 100; then an alias of Q1 whose name the
  /// ring places there is registered on every shard (the ring places
  /// names, not templates). Call it before the first EXECUTE, which
  /// seals the template registries.
  std::string TemplateOwnedBy(int index) {
    for (const TemplateSpec& spec : kTemplates) {
      if (OwnerIndex(spec.name) == index) return spec.name;
    }
    for (int k = 0;; ++k) {
      const std::string name = "Q1_alias" + std::to_string(k);
      if (OwnerIndex(name) != index) continue;
      QueryTemplate alias = EvaluationTemplate("Q1");
      alias.name = name;
      for (auto& framework : frameworks_) {
        EXPECT_TRUE(framework->RegisterTemplate(alias).ok());
      }
      return name;
    }
  }

  Status ConnectClient(PpcClient* client) {
    return client->Connect("127.0.0.1", router_->port());
  }

  /// `clients` concurrent router clients, each sending `per_client`
  /// EXECUTEs for `name`; returns how many calls failed.
  int ExecuteConcurrently(const std::string& name, int clients,
                          int per_client) {
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < clients; ++t) {
      threads.emplace_back([&] {
        PpcClient client;
        if (!ConnectClient(&client).ok()) {
          ++failures;
          return;
        }
        for (int i = 0; i < per_client; ++i) {
          if (!client.Execute(name, PointFor(name)).ok()) ++failures;
        }
      });
    }
    for (auto& thread : threads) thread.join();
    return failures.load();
  }

  uint64_t ShardCounter(int i, const std::string& name) {
    return frameworks_[i]->metrics().counter(name).value();
  }

  // A shard replies *before* bumping its request counters (the recorded
  // latency deliberately covers the response write), so reading the
  // counter right after the client's reply races the increment by a few
  // microseconds. Poll briefly before asserting exact counts.
  uint64_t AwaitShardCounter(int i, const std::string& name,
                             uint64_t at_least) {
    for (int spin = 0; spin < 2000; ++spin) {
      const uint64_t value = ShardCounter(i, name);
      if (value >= at_least) return value;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return ShardCounter(i, name);
  }

  void TearDown() override {
    for (auto& hung : hung_) hung.store(false);
    if (router_ != nullptr) router_->Stop();
    for (auto& shard : shards_) {
      if (shard != nullptr) shard->Stop();
    }
  }

  std::unique_ptr<PpcFramework> frameworks_[kShards];
  std::atomic<bool> hung_[kShards] = {};
  std::unique_ptr<PlanServer> shards_[kShards];
  std::unique_ptr<PlanRouter> router_;
};

TEST_F(RouterTest, PingAndMetricsAreAnsweredLocally) {
  StartRouter();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  EXPECT_TRUE(client.Ping().ok());
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_TRUE(JsonValidator::Valid(metrics.value())) << metrics.value();
  EXPECT_NE(metrics.value().find("\"router\""), std::string::npos);
  EXPECT_NE(metrics.value().find("\"shards\""), std::string::npos);
  // Both shard payloads are spliced in, keyed by address, with the
  // health fields wrapped around each.
  for (int i = 0; i < kShards; ++i) {
    EXPECT_NE(metrics.value().find(ShardNode(i).Address()),
              std::string::npos);
  }
  EXPECT_NE(metrics.value().find("\"up\":true"), std::string::npos);
  EXPECT_NE(metrics.value().find("\"breaker_state\":\"closed\""),
            std::string::npos);
}

TEST_F(RouterTest, RoutesEveryRequestForATemplateToOneShard) {
  StartRouter();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());

  // Drive learning for both templates straight through the router.
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x = {0.5 + rng.Uniform(-0.02, 0.02),
                             0.5 + rng.Uniform(-0.02, 0.02)};
    ASSERT_TRUE(client.Execute("Q1", x).ok());
  }
  for (int i = 0; i < 50; ++i) {
    std::vector<double> x = {0.5, 0.5, 0.5};
    ASSERT_TRUE(client.Execute("Q3", x).ok());
  }

  // Every EXECUTE for a template landed on its owning shard, none on the
  // other — the property that keeps per-template learning coherent.
  const int q1_owner = OwnerIndex("Q1");
  const int q3_owner = OwnerIndex("Q3");
  ASSERT_GE(q1_owner, 0);
  ASSERT_GE(q3_owner, 0);
  uint64_t expected[kShards] = {};
  expected[q1_owner] += 300;
  expected[q3_owner] += 50;
  for (int i = 0; i < kShards; ++i) {
    EXPECT_EQ(AwaitShardCounter(i, "server.requests.execute", expected[i]),
              expected[i])
        << "shard " << i;
  }

  // The warmed template predicts through the router exactly as it would
  // shard-direct.
  auto predicted = client.Predict("Q1", {0.5, 0.5});
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
  EXPECT_NE(predicted.value().plan, kNullPlanId);
  EXPECT_GE(predicted.value().confidence, 0.8);

  // Batches route like scalars.
  auto batch = client.PredictBatch("Q1", {0.5, 0.5, 0.51, 0.49}, 2);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch.value().size(), 2u);
}

TEST_F(RouterTest, SnapshotMessagesAreRefusedAtTheRouter) {
  StartRouter();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  EXPECT_EQ(client.FetchSnapshot().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.ApplySnapshot("ignored").status().code(),
            StatusCode::kInvalidArgument);
  // The refusal is an answer, not a connection drop.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(RouterTest, UnknownTemplateErrorsRelayVerbatim) {
  StartRouter();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  auto missing = client.Predict("Q999", {0.5, 0.5});
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound)
      << missing.status().ToString();
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(RouterTest, ShardLossFailsOverToReplicaAndTopologyRemoveRehomes) {
  StartRouter();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());

  // Shard ports are ephemeral, so ring placement differs run to run;
  // find a template homed on each shard (with 9 templates and 64 vnodes
  // per node an empty shard is a sub-percent accident — skip then).
  std::string lost_template, surviving_template;
  const int victim = OwnerIndex(kTemplates[0].name);
  for (const TemplateSpec& spec : kTemplates) {
    (OwnerIndex(spec.name) == victim ? lost_template : surviving_template) =
        spec.name;
  }
  if (lost_template.empty() || surviving_template.empty()) {
    GTEST_SKIP() << "ring placement put every template on one shard";
  }

  shards_[victim]->Stop();

  // The victim's templates keep answering: with two shards on the ring,
  // the survivor is every template's replica, so the router fails the
  // PREDICT over to it (cold for this template, so it may abstain — but
  // it answers instead of surfacing the dead shard as INTERNAL).
  auto lost = client.Predict(lost_template, PointFor(lost_template));
  EXPECT_TRUE(lost.ok()) << lost.status().ToString();
  // An EXECUTE fails over too, and carries the FAILED_OVER flag so the
  // client knows its corrective feedback landed off the home shard.
  auto failed_over = client.Execute(lost_template, PointFor(lost_template));
  ASSERT_TRUE(failed_over.ok()) << failed_over.status().ToString();
  EXPECT_TRUE(failed_over.value().failed_over);
  // The surviving shard's own templates serve primary-side, unflagged,
  // through the same router connection.
  auto direct =
      client.Execute(surviving_template, PointFor(surviving_template));
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_FALSE(direct.value().failed_over);
  EXPECT_TRUE(client.Ping().ok());

  // Draining the dead shard from the ring re-homes its templates onto
  // the survivor.
  auto removed = client.Topology(wire::TopologyOp::kRemove, "127.0.0.1",
                                 shards_[victim]->port());
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed.value(), 1u);
  EXPECT_EQ(router_->backend_count(), 1u);
  auto rehomed = client.Predict(lost_template, PointFor(lost_template));
  EXPECT_TRUE(rehomed.ok()) << rehomed.status().ToString();

  // Removing an address that is not on the ring is NotFound.
  EXPECT_EQ(client
                .Topology(wire::TopologyOp::kRemove, "127.0.0.1",
                          shards_[victim]->port())
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(RouterTest, TopologyAddBringsAJoiningShardIntoRotation) {
  StartRouter({0});  // start with one backend
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  EXPECT_EQ(router_->backend_count(), 1u);

  // Everything routes to shard 0 while it is alone on the ring.
  ASSERT_TRUE(client.Execute("Q1", {0.5, 0.5}).ok());
  ASSERT_TRUE(client.Execute("Q3", {0.5, 0.5, 0.5}).ok());
  EXPECT_EQ(AwaitShardCounter(0, "server.requests.execute", 2u), 2u);

  auto added = client.Topology(wire::TopologyOp::kAdd, "127.0.0.1",
                               shards_[1]->port());
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(added.value(), 2u);

  // With both shards on the ring, traffic follows the two-node placement.
  ASSERT_TRUE(client.Execute("Q1", {0.5, 0.5}).ok());
  ASSERT_TRUE(client.Execute("Q3", {0.5, 0.5, 0.5}).ok());
  const int q1_owner = OwnerIndex("Q1");
  const int q3_owner = OwnerIndex("Q3");
  const uint64_t expected_joined =
      (q1_owner == 1 ? 1u : 0u) + (q3_owner == 1 ? 1u : 0u);
  EXPECT_EQ(
      AwaitShardCounter(1, "server.requests.execute", expected_joined),
      expected_joined);
}

TEST_F(RouterTest, ConcurrentClientsRouteWithoutInterference) {
  StartRouter();
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 60;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PpcClient client;
      if (!ConnectClient(&client).ok()) {
        ++failures;
        return;
      }
      Rng rng(100 + t);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const bool use_q1 = (i + t) % 2 == 0;
        std::vector<double> x =
            use_q1 ? std::vector<double>{rng.Uniform(), rng.Uniform()}
                   : std::vector<double>{rng.Uniform(), rng.Uniform(),
                                         rng.Uniform()};
        if (!client.Execute(use_q1 ? "Q1" : "Q3", x).ok()) ++failures;
        if (i % 10 == 0 && !client.Ping().ok()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // Conservation: every execute landed on exactly one shard. Wait on
  // either counter to flush the in-flight increments, then sum.
  constexpr uint64_t kTotal =
      static_cast<uint64_t>(kThreads * kQueriesPerThread);
  uint64_t sum = 0;
  for (int spin = 0; spin < 2000 && sum < kTotal; ++spin) {
    sum = ShardCounter(0, "server.requests.execute") +
          ShardCounter(1, "server.requests.execute");
    if (sum < kTotal) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(sum, kTotal);
}

/// One numeric field of /proc/self/status (sizes are in kB), or -1.
long ProcStatusField(const std::string& field) {
  std::ifstream status("/proc/self/status");
  const std::string prefix = field + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtol(line.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return -1;
}

TEST_F(RouterTest, ConnectionChurnLeavesThreadsAndAddressSpaceBounded) {
  StartRouter();
  // Let every serving thread allocate once first, so a per-thread malloc
  // arena reserved on first use is not mistaken for growth.
  for (int i = 0; i < 20; ++i) {
    PpcClient client;
    ASSERT_TRUE(ConnectClient(&client).ok());
    ASSERT_TRUE(client.Ping().ok());
  }
  const long threads_before = ProcStatusField("Threads");
  const long vm_before_kb = ProcStatusField("VmSize");
  const long rss_before_kb = ProcStatusField("VmRSS");
  ASSERT_GT(threads_before, 0);
  ASSERT_GT(vm_before_kb, 0);
  ASSERT_GT(rss_before_kb, 0);

  for (int i = 0; i < 2000; ++i) {
    Result<int> fd = net::Connect("127.0.0.1", router_->port(),
                                  net::Deadline::AfterMs(5000));
    ASSERT_TRUE(fd.ok()) << "cycle " << i << ": " << fd.status().ToString();
    ::close(fd.value());
  }

  // A thread per connection would exit on the peer's close but keep its
  // stack mapped until joined: the thread count recovers, VmSize does not
  // (gigabytes after 2000 cycles) and VmRSS keeps every stack's touched
  // pages (megabytes).
  long threads_after = ProcStatusField("Threads");
  for (int spin = 0; spin < 500 && threads_after != threads_before; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    threads_after = ProcStatusField("Threads");
  }
  EXPECT_EQ(threads_after, threads_before);
  // A healthy process may still map one more 64 MiB glibc malloc arena
  // when a thread first allocates under contention. The arena is address
  // space, barely touched, so VmSize gets one arena of slack on top of
  // its 64 MiB bound, while VmRSS (tens of kB here) stays tightly bounded.
  constexpr long kArenaKb = 64 * 1024;
  const long vm_growth_kb = ProcStatusField("VmSize") - vm_before_kb;
  EXPECT_LT(vm_growth_kb, 64 * 1024 + kArenaKb)
      << "VmSize grew " << vm_growth_kb << " kB over 2000 connect/close cycles";
  const long rss_growth_kb = ProcStatusField("VmRSS") - rss_before_kb;
  EXPECT_LT(rss_growth_kb, 4 * 1024)
      << "VmRSS grew " << rss_growth_kb << " kB over 2000 connect/close cycles";
}

TEST_F(RouterTest, ConnectionsAboveTheLimitAreAcceptedThenClosed) {
  StartRouter();
  PpcClient::Options options;
  options.call_deadline_ms = 5000;
  std::vector<std::unique_ptr<PpcClient>> admitted;
  const size_t limit = PlanServer::Config{}.max_connections;
  for (size_t i = 0; i < limit; ++i) {
    auto client = std::make_unique<PpcClient>(options);
    ASSERT_TRUE(ConnectClient(client.get()).ok());
    ASSERT_TRUE(client->Ping().ok()) << "connection " << i;
    admitted.push_back(std::move(client));
  }

  // The kernel completes the handshake; the router then closes the
  // connection without reading from it.
  PpcClient extra(options);
  ASSERT_TRUE(ConnectClient(&extra).ok());
  EXPECT_FALSE(extra.Ping().ok());
  EXPECT_GE(router_->metrics().counter("server.connections.rejected").value(),
            1u);
  // The admitted connections are unaffected.
  EXPECT_TRUE(admitted.front()->Ping().ok());
  EXPECT_TRUE(admitted.back()->Ping().ok());
}

TEST_F(RouterTest, PipelinedPredictsGetTheShardDirectAnswers) {
  StartRouter();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(client
                    .Execute("Q1", {0.5 + rng.Uniform(-0.02, 0.02),
                                    0.5 + rng.Uniform(-0.02, 0.02)})
                    .ok());
  }

  // 64 PREDICTs in flight on one connection; the router's workers may
  // forward runs of them as one PREDICT_BATCH.
  std::vector<std::vector<double>> points;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 64; ++i) {
    const double spread = (i % 3 == 0) ? 0.45 : 0.03;
    points.push_back({0.5 + rng.Uniform(-spread, spread),
                      0.5 + rng.Uniform(-spread, spread)});
    auto id = client.SendPredict("Q1", points.back());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }

  PpcClient direct;
  ASSERT_TRUE(
      direct.Connect("127.0.0.1", shards_[OwnerIndex("Q1")]->port()).ok());
  int committed = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    auto routed = client.Wait(ids[i]);
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    ASSERT_TRUE(routed.value().ok()) << routed.value().error;
    auto expected = direct.Predict("Q1", points[i]);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_EQ(routed.value().predict.plan, expected.value().plan)
        << "point " << i;
    EXPECT_EQ(routed.value().predict.confidence, expected.value().confidence)
        << "point " << i;
    if (expected.value().plan != kNullPlanId) ++committed;
  }
  EXPECT_GT(committed, 0) << "the template never warmed to a committed plan";
}

TEST_F(RouterTest, ExecuteAfterAShardRestartIsNotFailedOver) {
  StartRouter();
  const std::string name = "Q1";
  const int owner = OwnerIndex(name);
  ASSERT_GE(owner, 0);

  // Enough EXECUTEs in flight at once that every router worker opens its
  // own connection to the owning shard.
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  std::vector<uint64_t> ids;
  for (int i = 0; i < 64; ++i) {
    auto id = client.SendExecute(name, PointFor(name));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }
  for (uint64_t id : ids) ASSERT_TRUE(client.Wait(id).ok());

  // Restart the shard on its port: every cached worker connection to it
  // is now closed by the peer.
  const uint16_t port = shards_[owner]->port();
  shards_[owner]->Stop();
  PlanServer::Config config;
  config.port = port;
  bool restarted = false;
  for (int attempt = 0; attempt < 100 && !restarted; ++attempt) {
    shards_[owner] =
        std::make_unique<PlanServer>(frameworks_[owner].get(), config);
    restarted = shards_[owner]->Start().ok();
    if (!restarted) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(restarted);

  // Each worker re-dials instead of failing the EXECUTE (which is never
  // replayed on the primary) over to the replica.
  for (int i = 0; i < 16; ++i) {
    auto executed = client.Execute(name, PointFor(name));
    ASSERT_TRUE(executed.ok()) << executed.status().ToString();
    EXPECT_FALSE(executed.value().failed_over) << "execute " << i;
  }
  EXPECT_EQ(router_->metrics().counter("router.failovers").value(), 0u);
}

TEST_F(RouterTest, AHungShardLeavesTheOtherShardsTemplatesServed) {
  StartRouter({0, 1}, /*backend_deadline_ms=*/1500);
  const std::string hung_template = TemplateOwnedBy(0);
  const std::string live_template = TemplateOwnedBy(1);

  // Shard 0 hangs. Twice as many EXECUTEs for it as the router has
  // workers; each forward it accepts blocks until the backend deadline.
  hung_[0].store(true);
  PpcClient hung_client;
  ASSERT_TRUE(ConnectClient(&hung_client).ok());
  std::vector<uint64_t> ids;
  for (int i = 0; i < 2 * PlanServer::Config{}.worker_threads; ++i) {
    auto id = hung_client.SendExecute(hung_template, PointFor(hung_template));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Shard 1's templates are still answered well inside that deadline.
  PpcClient live_client;
  ASSERT_TRUE(ConnectClient(&live_client).ok());
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 5; ++i) {
    auto predicted =
        live_client.Predict(live_template, PointFor(live_template));
    ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
    auto executed =
        live_client.Execute(live_template, PointFor(live_template));
    ASSERT_TRUE(executed.ok()) << executed.status().ToString();
    EXPECT_FALSE(executed.value().failed_over);
  }
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed_ms, 750)
      << "requests for the live shard waited behind the hung one";

  hung_[0].store(false);
  for (uint64_t id : ids) ASSERT_TRUE(hung_client.Wait(id).ok());
}

TEST_F(RouterTest, PipelinedPredictsForALiveShardDoNotWaitBehindAHungOne) {
  // A forward blocks its worker, so the router's micro-batch runs take
  // one template only. A run that mixed a hung shard's template with a
  // live shard's would hold the live answers until the backend deadline.
  StartRouter({0, 1}, /*backend_deadline_ms=*/1500);
  const std::string hung_template = TemplateOwnedBy(0);
  const std::string live_template = TemplateOwnedBy(1);

  hung_[0].store(true);
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  std::vector<uint64_t> hung_ids;
  std::vector<uint64_t> live_ids;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 32; ++i) {
    const std::string& name = i % 2 == 0 ? hung_template : live_template;
    auto id = client.SendPredict(name, PointFor(name));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    (i % 2 == 0 ? hung_ids : live_ids).push_back(id.value());
  }
  for (uint64_t id : live_ids) {
    auto answer = client.Wait(id);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_TRUE(answer.value().ok()) << answer.value().error;
  }
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed_ms, 750)
      << "a live template's PREDICTs waited behind the hung shard's";

  hung_[0].store(false);
  for (uint64_t id : hung_ids) ASSERT_TRUE(client.Wait(id).ok());
}

TEST_F(RouterTest, ARoutersWorkersForwardEachExecuteAlone) {
  // A forward blocks its worker, so the router's core forms no EXECUTE
  // runs: pipelined EXECUTEs queued behind one for a hung shard go to the
  // other workers, one forward each, instead of waiting in its run.
  StartRouter({0, 1}, /*backend_deadline_ms=*/1500);
  const std::string hung_template = TemplateOwnedBy(0);
  const std::string live_template = TemplateOwnedBy(1);

  hung_[0].store(true);
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  auto hung_id = client.SendExecute(hung_template, PointFor(hung_template));
  ASSERT_TRUE(hung_id.ok()) << hung_id.status().ToString();
  constexpr uint64_t kLive = 15;
  std::vector<uint64_t> live_ids;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kLive; ++i) {
    auto id = client.SendExecute(live_template, PointFor(live_template));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    live_ids.push_back(id.value());
  }
  for (uint64_t id : live_ids) {
    auto answer = client.Wait(id);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_TRUE(answer.value().ok()) << answer.value().error;
    EXPECT_FALSE(answer.value().execute.failed_over);
  }
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed_ms, 750)
      << "an EXECUTE waited in a run behind the hung shard's forward";
  EXPECT_EQ(AwaitShardCounter(1, "server.requests.execute", kLive), kLive);

  hung_[0].store(false);
  ASSERT_TRUE(client.Wait(hung_id.value()).ok());
  EXPECT_EQ(AwaitShardCounter(0, "server.requests.execute", 1), 1u);
}

TEST_F(RouterTest, AFailedRunIsForwardedOnceNotOncePerItem) {
  StartRouter();
  shards_[0]->Stop();
  shards_[1]->Stop();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  constexpr int kRequests = 64;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kRequests; ++i) {
    auto id = client.SendPredict("Q1", PointFor("Q1"));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }
  for (uint64_t id : ids) {
    auto answer = client.Wait(id);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer.value().status, wire::WireStatus::kInternal);
  }

  // Each run of PREDICTs the core batched is one forward, and so one
  // failure, like each PREDICT it forwarded alone. The core counts a run
  // after writing its answers, so poll briefly.
  MetricsRegistry& metrics = router_->metrics();
  uint64_t failures = 0;
  uint64_t forwards = 0;
  for (int spin = 0; spin < 2000; ++spin) {
    failures = metrics.counter("router.forward_failures").value();
    forwards = kRequests -
               metrics.counter("server.microbatched_predicts").value() +
               metrics.counter("server.microbatches").value();
    if (failures == forwards) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(failures, forwards);
  EXPECT_GT(metrics.counter("server.microbatches").value(), 0u)
      << "no run formed, so the batch path went untested";
}

TEST_F(RouterTest, ARoutersIoThreadAnswersNoPredictItself) {
  // A forward blocks for a backend round trip, so the router's core keeps
  // every PREDICT on its workers; only a server in front of its own
  // framework answers PREDICTs on its IO thread.
  StartRouter();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  constexpr uint64_t kRequests = 64;
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < kRequests; ++i) {
    auto id = client.SendPredict("Q1", PointFor("Q1"));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }
  for (uint64_t id : ids) {
    auto answer = client.Wait(id);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_TRUE(answer.value().ok()) << answer.value().error;
  }
  // The core counts a request after writing its answer, so poll briefly.
  MetricsRegistry& metrics = router_->metrics();
  for (int spin = 0; spin < 2000; ++spin) {
    if (metrics.counter("server.requests.predict").value() >= kRequests) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(metrics.counter("server.requests.predict").value(), kRequests);
  EXPECT_EQ(metrics.counter("server.inline_predicts").value(), 0u);
}

/// Connections this network namespace holds open to local `port`: the
/// ESTABLISHED rows of /proc/net/tcp{,6} whose remote port is `port` (the
/// client side of each connection, so the router's side of its shard
/// connections).
int EstablishedConnectionsTo(uint16_t port) {
  int count = 0;
  for (const char* table : {"/proc/net/tcp", "/proc/net/tcp6"}) {
    std::ifstream in(table);
    std::string line;
    std::getline(in, line);  // the header
    while (std::getline(in, line)) {
      std::istringstream row(line);
      std::string slot, local, remote, state;
      row >> slot >> local >> remote >> state;
      const size_t colon = remote.rfind(':');
      if (state == "01" && colon != std::string::npos &&
          std::stoul(remote.substr(colon + 1), nullptr, 16) == port) {
        ++count;
      }
    }
  }
  return count;
}

TEST_F(RouterTest, ConcurrentClientsOpenAtMostOneConnectionPerForwardSlot) {
  StartRouter();
  const std::string name = TemplateOwnedBy(0);
  // Twice as many clients as the router has workers, so every worker
  // forwards to shard 0 at once, again and again.
  ASSERT_EQ(ExecuteConcurrently(name, 8, 40), 0);
  const int open = EstablishedConnectionsTo(shards_[0]->port());
  EXPECT_GT(open, 0);
  // A shard gets worker_threads - 1 forwards in flight, and the router
  // keeps no more connections to it than that.
  EXPECT_LE(open, PlanServer::Config{}.worker_threads - 1);
}

TEST_F(RouterTest, ATopologyRemoveClosesTheRemovedShardsConnections) {
  StartRouter();
  const std::string name = TemplateOwnedBy(0);
  ASSERT_EQ(ExecuteConcurrently(name, 8, 40), 0);
  const uint16_t port = shards_[0]->port();
  ASSERT_GT(EstablishedConnectionsTo(port), 0);

  PpcClient admin;
  ASSERT_TRUE(ConnectClient(&admin).ok());
  auto removed = admin.Topology(wire::TopologyOp::kRemove, "127.0.0.1", port);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  // The shard is still up, but off the ring: nothing the router holds may
  // keep a connection to it open.
  int open = EstablishedConnectionsTo(port);
  for (int spin = 0; spin < 100 && open > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    open = EstablishedConnectionsTo(port);
  }
  EXPECT_EQ(open, 0) << "connections to the removed shard outlived 1 s";
  // Its templates re-home onto the remaining shard.
  auto rehomed = admin.Execute(name, PointFor(name));
  ASSERT_TRUE(rehomed.ok()) << rehomed.status().ToString();
}

TEST_F(RouterTest, ShutdownOverTheWireDrainsTheRouter) {
  StartRouter();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  ASSERT_TRUE(client.Shutdown().ok());
  router_->Wait();
  EXPECT_FALSE(router_->running());
  // The shards are untouched — the router drains, the fleet stays up.
  PpcClient direct;
  ASSERT_TRUE(direct.Connect("127.0.0.1", shards_[0]->port()).ok());
  EXPECT_TRUE(direct.Ping().ok());
}

}  // namespace
}  // namespace ppc
