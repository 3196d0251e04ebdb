#ifndef PPC_SERVER_ROUTER_H_
#define PPC_SERVER_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ppc/metrics_registry.h"
#include "server/circuit_breaker.h"
#include "server/client.h"
#include "server/hash_ring.h"
#include "server/server.h"
#include "server/wire_protocol.h"

namespace ppc {

/// The scale-out front door (DESIGN.md §15, §18): a fault-tolerant TCP
/// proxy that speaks the same wire protocol as PlanServer and
/// consistent-hashes PREDICT / PREDICT_BATCH / EXECUTE requests across N
/// shard servers by template name. Because the LSH predictor's state is
/// strictly per-template, routing by template makes each shard
/// authoritative for its arc of the ring: all feedback for a template
/// lands on the shard that predicts it, so sharding changes *where*
/// learning happens but never *what* is learned.
///
/// Fault tolerance (DESIGN.md §18): every template has a primary and a
/// ring-successor replica on a distinct shard (HashRing::PlacementFor).
/// A per-backend circuit breaker — fed by passive forward failures and a
/// background prober's PINGs — takes a dead shard out of rotation after
/// `breaker.failure_threshold` consecutive failures; requests for its
/// templates fail over to the replica, which the prober has been keeping
/// warm by periodically shipping the primary's changed predictor state
/// (content-hash-gated SNAPSHOT_APPLY). When the shard comes back, the
/// prober warm-starts it from its replicas *before* recording the
/// half-open success that re-admits it — a rejoining shard is never
/// observable cold.
///
/// Request handling:
///
///   * kPredict / kPredictBatch / kExecute — forwarded to the owning
///     shard; the shard's answer (wire status included) is relayed
///     verbatim under the client's request id. When the primary is open
///     or fails mid-call, the request is retried on the replica; an
///     EXECUTE answered by the replica carries the FAILED_OVER flag so
///     the client knows its corrective feedback landed off the template's
///     home shard. An EXECUTE that *timed out* on the primary is not
///     replayed (it may still be running there); PREDICTs are read-only
///     and always safe to retry. Only when both copies fail does the
///     client see INTERNAL / TIMEOUT.
///   * kPing — answered locally (the router's own liveness).
///   * kMetrics — aggregated: the router's own registry plus every
///     *reachable* shard's METRICS payload, keyed by shard address with
///     per-backend `up` / `breaker_state` fields; open backends are
///     reported down without burning a dial on them.
///   * kTopology — add / remove a shard at runtime (the join path of the
///     warm-start protocol). Answers with the new backend count.
///   * kSnapshot / kSnapshotApply — BAD_REQUEST: replication is
///     shard-to-shard, not routed.
///   * kShutdown — ack, then drain the router itself.
///
/// Threading model: PlanServer's serving core (server.h) with this class
/// as its forwarding RequestHandler, plus one health thread (prober +
/// replicator + rejoin driver). Router clients get the core's connection
/// limit, deadlines, backpressure, shed ladder and pipelining. Each
/// shard's BackendState owns every connection the router holds to it: a
/// pool of forwarding PpcClients that the workers take one at a time, and
/// the health thread's client. A forward blocks its worker, so the pool
/// caps a shard at `worker_threads` - 1 forwards in flight, and as many
/// forwarding connections: a shard that hangs without closing its
/// connections holds at most that many workers, and its excess requests
/// fail over to the replica (DESIGN.md §15). The ring and the backend
/// states change together behind a shared_mutex; a shard taken off the
/// ring closes its connections once its last in-flight forward or probe
/// lets go of its state.
///
/// Shutdown()/drain: the core drains (a SHUTDOWN request, Shutdown(), or a
/// signal via InstallShutdownSignalHandlers); Wait() then stops the health
/// thread.
class PlanRouter : private RequestHandler {
 public:
  struct Config {
    /// The serving core takes bind_address and port; every other core
    /// setting is PlanServer::Config's default.
    std::string bind_address = "127.0.0.1";
    /// 0 picks an ephemeral port; see port() after Start().
    uint16_t port = 0;
    /// Initial shard set; extendable at runtime via kTopology.
    std::vector<HashRing::Node> backends;
    /// Per-forward wall clock, spanning the backend retry policy. 0 waits
    /// forever (not recommended — a hung shard then hangs its clients).
    int64_t backend_deadline_ms = 5000;

    /// --- Health model (DESIGN.md §18). ---

    /// Cadence of the background prober (active PING per backend). 0
    /// disables the health thread entirely: no probes, no replica
    /// warm-keeping, no automatic rejoin — breakers still open from
    /// passive forward failures and inline failover still engages.
    int64_t probe_interval_ms = 250;
    /// Per-probe and per-replication-call deadline (single attempt; the
    /// breaker, not a retry loop, owns failure policy here).
    int64_t probe_deadline_ms = 1000;
    /// Per-backend breaker tuning.
    CircuitBreaker::Options breaker;
    /// Cadence of replica warm-keeping: every interval the prober
    /// captures each live primary's state and ships the changed
    /// templates to their ring-successor replicas. 0 disables shipping
    /// (failover then reaches a cold replica: available, but abstaining
    /// until it learns).
    int64_t replication_interval_ms = 2000;
  };

  explicit PlanRouter(Config config);
  ~PlanRouter();

  PlanRouter(const PlanRouter&) = delete;
  PlanRouter& operator=(const PlanRouter&) = delete;

  /// Binds, listens, and starts the serving core + health thread. Does not
  /// wait on the backends — a shard is dialed lazily on its first
  /// forwarded request or probe, so the router can start ahead of its
  /// shards.
  Status Start();

  /// Initiates the drain. Non-blocking and idempotent.
  void Shutdown();

  /// Blocks until the core has drained and the health thread has exited.
  void Wait();

  /// Shutdown() + Wait().
  void Stop();

  uint16_t port() const { return server_.port(); }
  bool running() const { return server_.running(); }
  size_t backend_count() const;
  std::vector<HashRing::Node> backends() const;

  /// Health-model observability for tests and benches: each backend with
  /// its current breaker state.
  struct BackendStatus {
    HashRing::Node node;
    CircuitBreaker::State breaker = CircuitBreaker::State::kClosed;
  };
  std::vector<BackendStatus> backend_status() const;

  /// The router's instruments (router.*) and its core's (server.*).
  MetricsRegistry& metrics() { return metrics_; }

 private:
  friend Status InstallShutdownSignalHandlers(PlanRouter* router);

  /// One shard's breaker and every connection the router holds to it.
  /// Held by shared_ptr so a forward or probe in flight keeps it alive
  /// across a concurrent topology remove; the connections close with it.
  struct BackendState {
    explicit BackendState(const CircuitBreaker::Options& options)
        : breaker(options) {}
    /// Takes one of `cap` forwarding slots, and an idle pooled connection
    /// into `*client` when there is one (null: the caller dials). At the
    /// cap it waits briefly for a slot to free, unless an earlier wait
    /// already timed out since the last forward finished; false means the
    /// shard is saturated. Slots and idle connections together never
    /// exceed `cap`, so neither do the shard's forwarding connections.
    bool Acquire(size_t cap, std::unique_ptr<PpcClient>* client);
    /// Frees the slot and pools `client`; pass null for a client whose
    /// call failed, which is then destroyed.
    void Release(std::unique_ptr<PpcClient> client);

    CircuitBreaker breaker;
    /// The probe and replication client (probe deadline, single attempt).
    /// Only the health thread touches it.
    std::unique_ptr<PpcClient> health_client;

    std::mutex pool_mu;
    std::condition_variable slot_freed;
    /// Guarded by pool_mu: forwards in flight, the idle connections (a
    /// stack, so the most recently used is reused first), and whether a
    /// wait for a slot timed out since the last forward finished.
    size_t in_flight = 0;
    std::vector<std::unique_ptr<PpcClient>> idle;
    bool saturated = false;
  };

  /// Every ring node with its state.
  using Backends =
      std::vector<std::pair<HashRing::Node, std::shared_ptr<BackendState>>>;

  /// One resolved routing decision: placement plus the breakers of both
  /// candidate shards, taken under a single topology read lock.
  struct Route {
    HashRing::Node primary;
    HashRing::Node replica;
    bool has_replica = false;
    std::shared_ptr<BackendState> primary_state;
    std::shared_ptr<BackendState> replica_state;
  };

  /// The forwarding handler, called by the core's workers.
  void Handle(const wire::Request& request, wire::Response* out) override;
  wire::Response Forward(const wire::Request& request);
  wire::Response AggregateMetrics();
  wire::Response ApplyTopology(const wire::Request& request);
  /// Puts `node` on the ring with a state, keeping an existing one. Runs
  /// under topology_mu_ held exclusively, or in the constructor.
  void AddBackend(const HashRing::Node& node);
  /// A new forwarding connection to `node`; null when the dial fails.
  std::unique_ptr<PpcClient> DialBackend(const HashRing::Node& node) const;
  /// Every ring node with its state, under one topology read lock; a
  /// non-null `ring` also gets the ring as of that moment.
  Backends SnapshotBackends(HashRing* ring = nullptr) const;

  Result<Route> ResolveRoute(const std::string& template_name) const;
  /// Breaker bookkeeping around one backend call outcome, with the open /
  /// close transition counters.
  void RecordBackendSuccess(BackendState* state);
  void RecordBackendFailure(BackendState* state);

  /// --- Health thread (prober + replicator + rejoin driver). ---

  /// Content hashes already shipped, keyed primary address -> replica
  /// address -> template name. Cleared for a shard when it rejoins (its
  /// restart lost everything previously shipped to it).
  using ShippedHashes =
      std::map<std::string, std::map<std::string, std::map<std::string, uint64_t>>>;

  void HealthLoop();
  /// `state`'s health client, dialed on first use.
  PpcClient* HealthClientFor(const HashRing::Node& node,
                             BackendState* state) const;
  void ProbeBackend(const HashRing::Node& node,
                    const std::shared_ptr<BackendState>& state,
                    ShippedHashes* shipped);
  /// Wire-level warm start of a rejoining shard from its replicas: for
  /// every other live backend, fetch its state and apply the subset of
  /// templates whose placement says primary == `node`. True only when
  /// every reachable replica's subset applied cleanly.
  bool WarmRejoin(const HashRing::Node& node, BackendState* state);
  /// One replica warm-keeping pass: capture each live primary's state,
  /// ship changed templates to their replicas (hash-gated per pair).
  void ReplicateOnce(ShippedHashes* shipped);

  const Config config_;

  /// Stops the health thread. Set under health_mu_ so a health thread
  /// sleeping on health_cv_ wakes at once.
  std::atomic<bool> draining_{false};
  std::mutex health_mu_;
  std::condition_variable health_cv_;

  /// The ring and one BackendState per ring node, changed together under
  /// topology_mu_ (every ring node has a state); shared across the workers
  /// and the health thread.
  mutable std::shared_mutex topology_mu_;
  HashRing ring_;
  std::map<std::string, std::shared_ptr<BackendState>> backend_states_;

  std::thread health_thread_;

  MetricsRegistry metrics_;
  /// Forwards one shard may have in flight, and forwarding connections it
  /// may hold: one fewer than the workers, so a shard that hangs without
  /// closing its connections can never hold every worker (DESIGN.md §15).
  const size_t forward_slots_;
  PlanServer server_;
  struct {
    MetricsCounter* requests_forwarded = nullptr;
    MetricsCounter* requests_local = nullptr;
    MetricsCounter* forward_failures = nullptr;
    MetricsCounter* topology_adds = nullptr;
    MetricsCounter* topology_removes = nullptr;
    LatencyHistogram* forward_us = nullptr;
    /// Health model (DESIGN.md §18).
    MetricsCounter* health_probes = nullptr;
    MetricsCounter* health_probe_failures = nullptr;
    MetricsCounter* breaker_opens = nullptr;
    MetricsCounter* breaker_closes = nullptr;
    MetricsCounter* failovers = nullptr;
    MetricsCounter* replication_ships = nullptr;
    MetricsCounter* replication_skipped = nullptr;
    MetricsCounter* replication_ship_failures = nullptr;
    MetricsCounter* replication_templates_shipped = nullptr;
    MetricsCounter* rejoin_warm_starts = nullptr;
    MetricsCounter* rejoin_failures = nullptr;
  } instruments_;
};

/// Routes SIGINT/SIGTERM to the router's serving core (see the PlanServer
/// overload in server.h); the caller should follow with Wait().
Status InstallShutdownSignalHandlers(PlanRouter* router);

}  // namespace ppc

#endif  // PPC_SERVER_ROUTER_H_
