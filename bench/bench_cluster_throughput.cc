// Behaviour gates of the sharded serving tier (DESIGN.md §15).
// Throughput is measured by perfbench/, not here.
//
// Spawns real processes — two ppc_server shards and one ppc_router —
// and drives the router over TCP, exercising the full scale-out story:
//
//   1. shard A starts and is warmed shard-direct with a clustered
//      workload over Q0..Q8;
//   2. a steady phase records routed per-template hit rates with A
//      alone on the ring;
//   3. shard B starts with --warm-start-from=A, pulling A's predictor
//      snapshot over the wire before it reports ready; an adoption
//      probe predicts the same points shard-direct against A and B and
//      requires byte-identical answers (B holds A's exact state), then
//      B joins the ring via a TOPOLOGY add;
//   4. a joined phase records the per-shard predict hit rate. Because
//      B adopted A's state, the templates the ring moved to B must
//      predict as well as they did *on A in the steady phase* — the
//      bench fails if the joiner's hit rate trails
//      the steady-phase rate on its own templates by more than five
//      points (cold-learning would trail by far more).
//
// The gap is computed per-template against the steady baseline, not as
// leader-vs-joiner aggregates: per-template hit rates differ (template
// dimensionality 2..6 trains at different speeds from the same warm-up),
// and which templates land on which shard depends on the shards'
// ephemeral ports through the hash ring — aggregate-vs-aggregate would
// compare different template mixtures and flake on unlucky splits.
//
// Binary discovery: ../src/ppc_server and ../src/ppc_router relative to
// this binary, overridable via PPC_SERVER_BIN / PPC_ROUTER_BIN.
//
// Prints a table and writes BENCH_cluster_throughput.json (schema in
// EXPERIMENTS.md); scripts/check.sh runs it and validates the file.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "loadgen.h"
#include "proc.h"
#include "server/client.h"
#include "server/hash_ring.h"
#include "server/wire_protocol.h"

namespace ppc {
namespace bench {
namespace {

const char* const kTemplates[] = {"Q0", "Q1", "Q2", "Q3", "Q4",
                                  "Q5", "Q6", "Q7", "Q8"};
constexpr size_t kTemplateCount = sizeof(kTemplates) / sizeof(kTemplates[0]);
constexpr size_t kWarmupPerTemplate = 120;
constexpr int kClientThreads = 3;
constexpr size_t kSteadyPerClient = 1200;
constexpr size_t kJoinedPerClient = 1800;
/// Shard-direct probe points per template for the adoption-equality
/// check (leader and joiner must answer each one identically).
constexpr size_t kAdoptionProbesPerTemplate = 30;
/// 70/30 predict/execute mix: predicts measure the hit rate, executes
/// keep the shards learning like a live system.
constexpr double kPredictFraction = 0.7;

/// Per-shard-owner tallies for one phase. `hits` counts predicts the
/// predictor answered (non-null plan); abstentions and failures miss.
struct ShardTally {
  size_t predicts = 0;
  size_t hits = 0;
  size_t executes = 0;

  void Add(const ShardTally& other) {
    predicts += other.predicts;
    hits += other.hits;
    executes += other.executes;
  }
  double hit_rate() const {
    return predicts == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(predicts);
  }
};

struct PhaseStats {
  loadgen::Phase load;
  ShardTally per_shard[2];
  ShardTally per_template[kTemplateCount];

  /// Every request that was not answered OK, BUSY included.
  size_t failures() const { return load.failures + load.total_busy(); }
};

/// Drives `per_client` queries from each of kClientThreads through the
/// router, attributing each template to its owning shard via `ring` (the
/// same pure placement function the router uses).
PhaseStats DriveRouter(uint16_t router_port, const HashRing& ring,
                       const std::vector<HashRing::Node>& shard_nodes,
                       size_t per_client, uint64_t seed) {
  std::vector<Rng> mix;
  std::vector<std::vector<Query>> workloads;
  std::vector<std::vector<ShardTally>> tallies(
      kClientThreads, std::vector<ShardTally>(kTemplateCount));
  for (int t = 0; t < kClientThreads; ++t) {
    mix.emplace_back(seed + static_cast<uint64_t>(t) * 7919);
    workloads.push_back(ClusteredWorkload(
        kTemplates, per_client, seed + 1000 + static_cast<uint64_t>(t), 5));
  }
  PhaseStats merged;
  merged.load = loadgen::ClosedLoop(
      router_port, kClientThreads, PpcClient::Options{},
      [&](size_t t, size_t i, PpcClient* client) -> loadgen::MaybeCall {
        if (i == per_client) return std::nullopt;
        const Query& q = workloads[t][i];
        ShardTally& tally = tallies[t][q.template_index];
        if (mix[t].Uniform() < kPredictFraction) {
          auto predicted = client->Predict(q.tmpl, q.point);
          if (predicted.ok()) {
            ++tally.predicts;
            if (predicted.value().plan != kNullPlanId) ++tally.hits;
          }
          return loadgen::Call{loadgen::kPredict, predicted.status()};
        }
        const Status executed = client->Execute(q.tmpl, q.point).status();
        if (executed.ok()) ++tally.executes;
        return loadgen::Call{loadgen::kExecute, executed};
      });
  for (size_t t = 0; t < kTemplateCount; ++t) {
    for (const std::vector<ShardTally>& mine : tallies) {
      merged.per_template[t].Add(mine[t]);
    }
    const auto owner = ring.Owner(kTemplates[t]);
    for (size_t s = 0; s < shard_nodes.size(); ++s) {
      if (owner.ok() && owner.value() == shard_nodes[s]) {
        merged.per_shard[s].Add(merged.per_template[t]);
        break;
      }
    }
  }
  return merged;
}

/// How many of the stream's templates `ring` places on `node`.
size_t TemplatesOwnedBy(const HashRing& ring, const HashRing::Node& node) {
  size_t owned = 0;
  for (const char* name : kTemplates) {
    const auto owner = ring.Owner(name);
    if (owner.ok() && owner.value() == node) ++owned;
  }
  return owned;
}

/// Predicts the same fresh points shard-direct against both shards and
/// counts answers that differ. The joiner adopted the leader's exact
/// predictor state over the wire, and PREDICT is deterministic in that
/// state, so any mismatch means the snapshot path corrupted something —
/// this is the adoption claim checked exactly, with no sampling noise.
size_t AdoptionMismatches(uint16_t leader_port, uint16_t joiner_port,
                          size_t* probes_out) {
  PpcClient leader;
  PpcClient joiner;
  PPC_CHECK(leader.Connect("127.0.0.1", leader_port).ok());
  PPC_CHECK(joiner.Connect("127.0.0.1", joiner_port).ok());
  const std::vector<Query> probes =
      ClusteredWorkload(kTemplates, kAdoptionProbesPerTemplate * kTemplateCount,
                        59, 5);
  size_t mismatches = 0;
  for (const Query& q : probes) {
    const auto from_leader = leader.Predict(q.tmpl, q.point);
    const auto from_joiner = joiner.Predict(q.tmpl, q.point);
    PPC_CHECK_MSG(from_leader.ok() && from_joiner.ok(),
                  "adoption probe PREDICT failed");
    if (from_leader.value().plan != from_joiner.value().plan) ++mismatches;
  }
  *probes_out = probes.size();
  return mismatches;
}

std::string TallyJson(const ShardTally& tally) {
  std::string out = "{\"predicts\": " + std::to_string(tally.predicts);
  out += ", \"hits\": " + std::to_string(tally.hits);
  out += ", \"executes\": " + std::to_string(tally.executes);
  out += ", \"hit_rate\": " + JsonNumber(tally.hit_rate());
  out += "}";
  return out;
}

std::string PhaseJson(const PhaseStats& phase) {
  std::string out = "{\"requests\": " + std::to_string(phase.load.total());
  out += ", \"failures\": " + std::to_string(phase.failures());
  out += ", \"per_shard\": {\"leader\": " + TallyJson(phase.per_shard[0]);
  out += ", \"joiner\": " + TallyJson(phase.per_shard[1]);
  out += "}, \"per_template_hit_rate\": [";
  for (size_t t = 0; t < kTemplateCount; ++t) {
    if (t > 0) out += ", ";
    out += JsonNumber(phase.per_template[t].hit_rate());
  }
  out += "]}";
  return out;
}

void Run() {
  PrintHeader("Sharded cluster warm start (router + 2 ppc_server shards)");
  const std::string server_bin = BinaryPath("PPC_SERVER_BIN",
                                            "/../src/ppc_server");
  const std::string router_bin = BinaryPath("PPC_ROUTER_BIN",
                                            "/../src/ppc_router");

  // Shard A: the leader, warmed shard-direct.
  ChildProcess leader;
  Spawn(server_bin, {"--port=0"}, &leader);
  std::printf("leader shard on :%u\n", leader.port);
  {
    PpcClient warm;
    PPC_CHECK(warm.Connect("127.0.0.1", leader.port).ok());
    const std::vector<Query> warmup =
        ClusteredWorkload(kTemplates, kWarmupPerTemplate * kTemplateCount, 17,
                          5);
    for (const Query& q : warmup) {
      const auto executed = warm.Execute(q.tmpl, q.point);
      PPC_CHECK_MSG(executed.ok(), executed.status().ToString().c_str());
    }
    std::printf("warmed leader with %zu executes over %zu templates\n",
                warmup.size(), kTemplateCount);
  }

  // Router fronting A alone.
  ChildProcess router;
  Spawn(router_bin,
        {"--port=0", "--backends=127.0.0.1:" + std::to_string(leader.port)},
        &router);
  std::printf("router on :%u\n", router.port);
  PrintRule();

  const HashRing::Node leader_node{"127.0.0.1", leader.port};
  HashRing single_ring;
  single_ring.Add(leader_node);
  PhaseStats steady =
      DriveRouter(router.port, single_ring, {leader_node, leader_node},
                  kSteadyPerClient, 23);
  std::printf("steady (1 shard): %zu requests, hit rate %.3f, %zu failures\n",
              steady.load.total(), steady.per_shard[0].hit_rate(),
              steady.failures());

  // Shard B: warm-started from A over the wire. Its readiness line is
  // printed only after the snapshot is fetched, validated, and applied,
  // so LISTENING-time IS the warm-up-to-steady time. The ring places the
  // templates by the shards' ephemeral ports, and an unlucky port gives B
  // none of them, so the joined phase would judge nothing; then B is
  // respawned on a fresh port until the joined ring (the router's
  // placement, mirrored) gives it a template.
  ChildProcess joiner;
  HashRing joined_ring;
  double warmup_seconds = 0.0;
  for (int attempt = 1;; ++attempt) {
    const auto join_start = loadgen::Clock::now();
    Spawn(server_bin,
          {"--port=0",
           "--warm-start-from=127.0.0.1:" + std::to_string(leader.port)},
          &joiner);
    warmup_seconds = loadgen::SecondsSince(join_start);
    const HashRing::Node node{"127.0.0.1", joiner.port};
    joined_ring = HashRing();
    joined_ring.Add(leader_node);
    joined_ring.Add(node);
    if (TemplatesOwnedBy(joined_ring, node) > 0) break;
    PPC_CHECK_MSG(attempt < 10, "the ring gave ten joiners no template");
    std::printf("joiner on :%u would own no template; respawning\n",
                joiner.port);
    joiner.Terminate();
  }
  std::printf("joiner shard on :%u (warm start + ready in %.3fs)\n",
              joiner.port, warmup_seconds);

  // Adoption check before any routed traffic reaches the joiner: both
  // shards hold identical state, so they must answer identically.
  size_t adoption_probes = 0;
  const size_t adoption_mismatches =
      AdoptionMismatches(leader.port, joiner.port, &adoption_probes);
  std::printf("adoption probe: %zu/%zu identical answers\n",
              adoption_probes - adoption_mismatches, adoption_probes);
  PPC_CHECK_MSG(adoption_mismatches == 0,
                "warm-started joiner answers differently from the leader "
                "— the snapshot path corrupted the adopted state");

  const HashRing::Node joiner_node{"127.0.0.1", joiner.port};
  {
    PpcClient admin;
    PPC_CHECK(admin.Connect("127.0.0.1", router.port).ok());
    const auto added =
        admin.Topology(wire::TopologyOp::kAdd, "127.0.0.1", joiner.port);
    PPC_CHECK_MSG(added.ok(), added.status().ToString().c_str());
    PPC_CHECK_MSG(added.value() == 2, "expected 2 backends after join");
  }

  PhaseStats joined =
      DriveRouter(router.port, joined_ring, {leader_node, joiner_node},
                  kJoinedPerClient, 41);
  const double leader_rate = joined.per_shard[0].hit_rate();
  const double joiner_rate = joined.per_shard[1].hit_rate();
  std::printf("joined (2 shards): %zu requests, %zu failures\n",
              joined.load.total(), joined.failures());
  std::printf("  leader: %zu predicts, hit rate %.3f\n",
              joined.per_shard[0].predicts, leader_rate);
  std::printf("  joiner: %zu predicts, hit rate %.3f\n",
              joined.per_shard[1].predicts, joiner_rate);
  PrintRule();

  PPC_CHECK_MSG(joined.failures() == 0, "joined phase had failures");
  PPC_CHECK_MSG(joined.per_shard[1].predicts > 0,
                "ring placement sent the joiner no predicts");
  // The scale-out claim: a warm-started joiner serves its templates at
  // the rate the *leader* served those same templates in the steady
  // phase. A cold shard would sit near zero until its own executes
  // re-learned the workload. The baseline is per-template because hit
  // rates vary across templates and the ring's template split depends
  // on the shards' ephemeral ports — aggregate leader-vs-joiner would
  // compare different mixtures. In-phase executes keep training both
  // shards, so actual rates drift *above* the steady baseline; only a
  // genuine adoption failure pulls the joiner below it.
  double gap_vs_steady[2] = {0.0, 0.0};
  for (size_t s = 0; s < 2; ++s) {
    double expected_hits = 0.0;
    size_t predicts = 0;
    for (size_t t = 0; t < kTemplateCount; ++t) {
      const auto owner = joined_ring.Owner(kTemplates[t]);
      const HashRing::Node& node = s == 0 ? leader_node : joiner_node;
      if (!owner.ok() || !(owner.value() == node)) continue;
      expected_hits += steady.per_template[t].hit_rate() *
                       static_cast<double>(joined.per_template[t].predicts);
      predicts += joined.per_template[t].predicts;
    }
    const double expected_rate =
        predicts == 0 ? 0.0 : expected_hits / static_cast<double>(predicts);
    gap_vs_steady[s] = expected_rate - joined.per_shard[s].hit_rate();
  }
  std::printf("hit-rate gap vs steady baseline (same templates): "
              "leader %+.3f, joiner %+.3f\n",
              gap_vs_steady[0], gap_vs_steady[1]);
  PPC_CHECK_MSG(gap_vs_steady[1] <= 0.05,
                "warm-started joiner trails the steady-phase rate on its "
                "own templates by more than 5 points — warm start is not "
                "working");

  std::string body = "\"steady\": " + PhaseJson(steady);
  body += ",\n\"joined\": " + PhaseJson(joined);
  body += ",\n\"warmup_seconds\": " + JsonNumber(warmup_seconds);
  body += ",\n\"adoption\": {\"probes\": " +
          std::to_string(adoption_probes) +
          ", \"mismatches\": " + std::to_string(adoption_mismatches) + "}";
  body += ",\n\"hit_rate_gap\": " + JsonNumber(gap_vs_steady[1]);
  body += ",\n\"leader_gap_vs_steady\": " + JsonNumber(gap_vs_steady[0]);
  body += ",\n\"client_threads\": " + std::to_string(kClientThreads);
  body += ",\n\"templates\": " + std::to_string(kTemplateCount);
  WriteBenchJson("cluster_throughput", body);

  // Orderly teardown: router first (drains its backend connections),
  // then the shards. ~ChildProcess would do the same on scope exit.
  router.Terminate();
  joiner.Terminate();
  leader.Terminate();
}

}  // namespace
}  // namespace bench
}  // namespace ppc

int main() {
  ppc::bench::Run();
  return 0;
}
