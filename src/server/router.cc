#include "server/router.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "ppc/predictor_state.h"

namespace ppc {

namespace {

/// Maps a failed forward to the wire vocabulary: a backend deadline is
/// the client's TIMEOUT; everything else (connection loss, refused dial)
/// is INTERNAL — the router itself is healthy, the shard is not.
wire::WireStatus ForwardFailureStatus(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded
             ? wire::WireStatus::kTimeout
             : wire::WireStatus::kInternal;
}

/// Whether a health-path failure looks like the *transport* (peer gone,
/// refused dial, deadline) rather than the server rejecting the payload.
/// Only transport failures feed the breaker: a replica that NACKs one
/// snapshot apply (e.g. a generation conflict) is still alive and
/// serving.
bool IsTransportFailure(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kInternal;
}

/// Applied to shard connects and BUSY answers (server/client.h).
constexpr RetryPolicy kBackendRetry{/*max_attempts=*/3};

/// How long a forward waits for a saturated shard's slot before failing
/// over. A healthy shard frees one within a forward's latency; a hung one
/// does not, and then only the first waiter pays this.
constexpr auto kSlotWait = std::chrono::milliseconds(100);

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The serving core's settings: the router's listener, PlanServer's
/// defaults for everything else.
PlanServer::Config CoreConfig(const PlanRouter::Config& config) {
  PlanServer::Config core;
  core.bind_address = config.bind_address;
  core.port = config.port;
  return core;
}

}  // namespace

PlanRouter::PlanRouter(Config config)
    : config_(std::move(config)),
      forward_slots_(static_cast<size_t>(
          std::max(CoreConfig(config_).worker_threads - 1, 1))),
      server_(this, &metrics_, CoreConfig(config_)) {
  for (const HashRing::Node& node : config_.backends) AddBackend(node);
}

PlanRouter::~PlanRouter() { Stop(); }

Status PlanRouter::Start() {
  if (server_.running()) {
    return Status::FailedPrecondition("router already started");
  }
  instruments_.requests_forwarded =
      &metrics_.counter("router.requests.forwarded");
  instruments_.requests_local = &metrics_.counter("router.requests.local");
  instruments_.forward_failures =
      &metrics_.counter("router.forward_failures");
  instruments_.topology_adds = &metrics_.counter("router.topology.adds");
  instruments_.topology_removes =
      &metrics_.counter("router.topology.removes");
  instruments_.forward_us = &metrics_.histogram("router.forward_us");
  instruments_.health_probes = &metrics_.counter("router.health.probes");
  instruments_.health_probe_failures =
      &metrics_.counter("router.health.probe_failures");
  instruments_.breaker_opens = &metrics_.counter("router.breaker.opens");
  instruments_.breaker_closes = &metrics_.counter("router.breaker.closes");
  instruments_.failovers = &metrics_.counter("router.failovers");
  instruments_.replication_ships =
      &metrics_.counter("router.replication.ships");
  instruments_.replication_skipped =
      &metrics_.counter("router.replication.skipped");
  instruments_.replication_ship_failures =
      &metrics_.counter("router.replication.ship_failures");
  instruments_.replication_templates_shipped =
      &metrics_.counter("router.replication.templates_shipped");
  instruments_.rejoin_warm_starts =
      &metrics_.counter("router.rejoin.warm_starts");
  instruments_.rejoin_failures = &metrics_.counter("router.rejoin.failures");
  PPC_RETURN_NOT_OK(server_.Start());
  draining_.store(false, std::memory_order_release);
  if (config_.probe_interval_ms > 0) {
    health_thread_ = std::thread(&PlanRouter::HealthLoop, this);
  }
  return Status::OK();
}

void PlanRouter::Shutdown() {
  server_.Shutdown();
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    draining_.store(true, std::memory_order_release);
  }
  health_cv_.notify_all();
}

void PlanRouter::Wait() {
  // The core drains on its own after a SHUTDOWN request or a signal; the
  // health thread stops once it has.
  server_.Wait();
  Shutdown();
  if (health_thread_.joinable()) health_thread_.join();
}

void PlanRouter::Stop() {
  Shutdown();
  Wait();
}

size_t PlanRouter::backend_count() const {
  std::shared_lock<std::shared_mutex> lock(topology_mu_);
  return ring_.node_count();
}

std::vector<HashRing::Node> PlanRouter::backends() const {
  std::shared_lock<std::shared_mutex> lock(topology_mu_);
  return ring_.nodes();
}

std::vector<PlanRouter::BackendStatus> PlanRouter::backend_status() const {
  std::vector<BackendStatus> statuses;
  for (const auto& [node, backend] : SnapshotBackends()) {
    statuses.push_back({node, backend->breaker.state()});
  }
  return statuses;
}

PlanRouter::Backends PlanRouter::SnapshotBackends(HashRing* ring) const {
  std::shared_lock<std::shared_mutex> lock(topology_mu_);
  if (ring != nullptr) *ring = ring_;
  Backends backends;
  for (const HashRing::Node& node : ring_.nodes()) {
    backends.emplace_back(node, backend_states_.at(node.Address()));
  }
  return backends;
}

bool PlanRouter::BackendState::Acquire(size_t cap,
                                       std::unique_ptr<PpcClient>* client) {
  std::unique_lock<std::mutex> lock(pool_mu);
  if (in_flight >= cap &&
      (saturated || !slot_freed.wait_for(lock, kSlotWait, [this, cap] {
        return in_flight < cap;
      }))) {
    saturated = true;
    return false;
  }
  ++in_flight;
  if (!idle.empty()) {
    *client = std::move(idle.back());
    idle.pop_back();
  }
  return true;
}

void PlanRouter::BackendState::Release(std::unique_ptr<PpcClient> client) {
  {
    std::lock_guard<std::mutex> lock(pool_mu);
    --in_flight;
    saturated = false;
    if (client != nullptr) idle.push_back(std::move(client));
  }
  slot_freed.notify_one();
}

void PlanRouter::RecordBackendSuccess(BackendState* state) {
  if (state->breaker.RecordSuccess()) {
    instruments_.breaker_closes->Increment();
  }
}

void PlanRouter::RecordBackendFailure(BackendState* state) {
  if (state->breaker.RecordFailure()) {
    instruments_.breaker_opens->Increment();
  }
}

void PlanRouter::Handle(const wire::Request& request, wire::Response* out) {
  wire::Response& response = *out;
  response.type = request.type;
  response.id = request.id;
  switch (request.type) {
    case wire::MessageType::kPredict:
    case wire::MessageType::kPredictBatch:
    case wire::MessageType::kExecute:
      response = Forward(request);
      break;
    case wire::MessageType::kPing:
      instruments_.requests_local->Increment();
      break;
    case wire::MessageType::kMetrics:
      instruments_.requests_local->Increment();
      response = AggregateMetrics();
      response.id = request.id;
      break;
    case wire::MessageType::kTopology:
      instruments_.requests_local->Increment();
      response = ApplyTopology(request);
      break;
    case wire::MessageType::kSnapshot:
    case wire::MessageType::kSnapshotApply:
      instruments_.requests_local->Increment();
      response.status = wire::WireStatus::kBadRequest;
      response.error =
          "snapshot replication is shard-to-shard; connect to the shard "
          "directly";
      break;
    case wire::MessageType::kShutdown:
      // The core writes the ack, then drains.
      instruments_.requests_local->Increment();
      break;
    case wire::MessageType::kInvalid:
      response.status = wire::WireStatus::kBadRequest;
      response.error = "invalid request type";
      break;
  }
}

Result<PlanRouter::Route> PlanRouter::ResolveRoute(
    const std::string& template_name) const {
  std::shared_lock<std::shared_mutex> lock(topology_mu_);
  PPC_ASSIGN_OR_RETURN(HashRing::Placement placement,
                       ring_.PlacementFor(template_name));
  Route route;
  route.primary = placement.primary;
  route.has_replica = placement.has_replica;
  route.primary_state = backend_states_.at(placement.primary.Address());
  if (placement.has_replica) {
    route.replica = placement.replica;
    route.replica_state = backend_states_.at(placement.replica.Address());
  }
  return route;
}

wire::Response PlanRouter::Forward(const wire::Request& request) {
  wire::Response response;
  response.type = request.type;
  response.id = request.id;
  Result<Route> resolved = ResolveRoute(request.template_name);
  if (!resolved.ok()) {
    instruments_.forward_failures->Increment();
    response.status = wire::WireStatus::kInternal;
    response.error = "no backend shards on the ring";
    return response;
  }
  const Route& route = resolved.value();

  struct Attempt {
    const HashRing::Node* node;
    BackendState* backend;
    bool is_primary;
  };
  // Candidate order: the primary unless its breaker has it out of
  // rotation, then the replica. With no distinct replica (single-shard
  // ring) the primary is attempted even through an open breaker —
  // fast-failing would trade a possible answer for a certain error.
  std::vector<Attempt> attempts;
  if (route.primary_state->breaker.AllowRequest() || !route.has_replica) {
    attempts.push_back({&route.primary, route.primary_state.get(), true});
  }
  if (route.has_replica && route.replica_state->breaker.AllowRequest()) {
    attempts.push_back({&route.replica, route.replica_state.get(), false});
  }
  if (attempts.empty()) {
    // Both breakers open: try the primary anyway rather than failing
    // without a single attempt — it may have just come back, and the
    // prober will re-admit it properly either way.
    attempts.push_back({&route.primary, route.primary_state.get(), true});
  }

  Status failure = Status::Unavailable("no backend attempt made");
  for (const Attempt& attempt : attempts) {
    std::unique_ptr<PpcClient> client;
    if (!attempt.backend->Acquire(forward_slots_, &client)) {
      // Every slot has been taken for longer than a healthy shard needs:
      // it is hung or badly overloaded. Nothing was sent, so even an
      // EXECUTE may go to the replica.
      failure = Status::Unavailable("shard " + attempt.node->Address() +
                                    " has all its forwards in flight");
      continue;
    }
    // A pooled connection can be stale — the shard restarted (or dropped
    // idle peers) since its last exchange — in which case the call fails
    // Unavailable even though the shard is healthy again. Read-only
    // requests get one retry on a fresh dial before the failure counts
    // against the backend. An EXECUTE is never auto-replayed once any
    // bytes may have reached a shard, so it is never sent down a
    // connection the shard has already closed.
    const bool is_execute = request.type == wire::MessageType::kExecute;
    if (is_execute && client != nullptr && client->PeerClosed()) {
      client.reset();
    }
    const int tries = is_execute ? 1 : 2;
    Result<wire::Response> answer = failure;
    for (int attempt_try = 0; attempt_try < tries; ++attempt_try) {
      if (client == nullptr) client = DialBackend(*attempt.node);
      if (client == nullptr) {
        answer = Status::Unavailable("shard " + attempt.node->Address() +
                                     " is unreachable");
        break;
      }
      const auto start = std::chrono::steady_clock::now();
      answer = client->Call(request);
      instruments_.forward_us->Record(MicrosSince(start));
      if (answer.ok()) break;
      // The client closed its connection on the failure; destroy it so
      // the retry, or the next forward to this shard, dials a fresh one.
      client.reset();
      if (answer.status().code() != StatusCode::kUnavailable) break;
    }
    attempt.backend->Release(std::move(client));
    if (!answer.ok()) {
      RecordBackendFailure(attempt.backend);
      failure = answer.status();
      if (is_execute &&
          answer.status().code() == StatusCode::kDeadlineExceeded) {
        // The EXECUTE may still be running on the timed-out shard;
        // replaying it on the replica could run the query twice. PREDICTs
        // are read-only and always safe to retry.
        break;
      }
      continue;
    }
    RecordBackendSuccess(attempt.backend);
    instruments_.requests_forwarded->Increment();
    response = std::move(answer.value());
    // The shard answered under the router's internal request id; the
    // client must see its own.
    response.id = request.id;
    if (!attempt.is_primary) {
      instruments_.failovers->Increment();
      if (request.type == wire::MessageType::kExecute && response.ok()) {
        // The answer is live, but the corrective feedback landed on the
        // replica — clients tracking learning locality need to know.
        response.execute.failed_over = true;
      }
    }
    return response;
  }
  instruments_.forward_failures->Increment();
  response.status = ForwardFailureStatus(failure);
  response.error =
      "shard " + route.primary.Address() + ": " + failure.message();
  return response;
}

wire::Response PlanRouter::AggregateMetrics() {
  wire::Response response;
  response.type = wire::MessageType::kMetrics;
  std::string json = "{\"router\":";
  json += metrics_.TakeSnapshot().ToJson();
  json += ",\"shards\":{";
  bool first = true;
  for (const auto& [node, backend] : SnapshotBackends()) {
    if (!first) json += ",";
    first = false;
    AppendJsonString(node.Address(), &json);
    json += ":";
    const CircuitBreaker::State breaker_state = backend->breaker.state();
    if (breaker_state != CircuitBreaker::State::kClosed) {
      // Already known down: report it without burning a dial + deadline —
      // aggregated METRICS must not become as slow as the outage itself.
      json += "{\"up\":false,\"breaker_state\":\"";
      json += CircuitBreaker::StateName(breaker_state);
      json += "\"}";
      continue;
    }
    // A shard with every forwarding slot taken may be hung; asking it
    // would hold this worker too, so it is reported without a call.
    std::unique_ptr<PpcClient> client;
    const bool asked = backend->Acquire(forward_slots_, &client);
    Result<std::string> shard_json =
        Status::Unavailable("all its forwards are in flight");
    if (asked) {
      if (client == nullptr) client = DialBackend(node);
      shard_json = client == nullptr
                       ? Result<std::string>(Status::Unavailable("unreachable"))
                       : client->Metrics();
      if (!shard_json.ok()) client.reset();
      backend->Release(std::move(client));
    }
    if (shard_json.ok()) {
      RecordBackendSuccess(backend.get());
      // Shard payloads are themselves JSON objects; splice verbatim.
      json += "{\"up\":true,\"breaker_state\":\"closed\",\"metrics\":";
      json += shard_json.value();
      json += "}";
    } else {
      // One dead shard degrades its own entry, never the aggregate.
      if (asked) RecordBackendFailure(backend.get());
      json += "{\"up\":false,\"breaker_state\":\"";
      json += CircuitBreaker::StateName(backend->breaker.state());
      json += "\",\"error\":";
      AppendJsonString(shard_json.status().ToString(), &json);
      json += "}";
    }
  }
  json += "}}";
  response.metrics_json = std::move(json);
  return response;
}

wire::Response PlanRouter::ApplyTopology(const wire::Request& request) {
  wire::Response response;
  response.type = wire::MessageType::kTopology;
  response.id = request.id;
  const HashRing::Node node{request.topology_host, request.topology_port};
  std::unique_lock<std::shared_mutex> lock(topology_mu_);
  if (request.topology_op == wire::TopologyOp::kAdd) {
    AddBackend(node);
    instruments_.topology_adds->Increment();
  } else {
    if (!ring_.Remove(node)) {
      response.status = wire::WireStatus::kNotFound;
      response.error = "backend " + node.Address() + " is not on the ring";
      response.backend_count = static_cast<uint32_t>(ring_.node_count());
      return response;
    }
    backend_states_.erase(node.Address());
    instruments_.topology_removes->Increment();
  }
  response.backend_count = static_cast<uint32_t>(ring_.node_count());
  return response;
}

void PlanRouter::AddBackend(const HashRing::Node& node) {
  ring_.Add(node);
  std::shared_ptr<BackendState>& state = backend_states_[node.Address()];
  if (state == nullptr) {
    state = std::make_shared<BackendState>(config_.breaker);
  }
}

std::unique_ptr<PpcClient> PlanRouter::DialBackend(
    const HashRing::Node& node) const {
  PpcClient::Options options;
  options.call_deadline_ms = config_.backend_deadline_ms;
  options.retry = kBackendRetry;
  auto client = std::make_unique<PpcClient>(options);
  if (!client->Connect(node.host, node.port).ok()) return nullptr;
  return client;
}

PpcClient* PlanRouter::HealthClientFor(const HashRing::Node& node,
                                       BackendState* state) const {
  if (state->health_client == nullptr) {
    PpcClient::Options options;
    options.call_deadline_ms = config_.probe_deadline_ms;
    // Single attempt: the breaker, not a retry loop, owns failure policy
    // on the health path.
    options.retry.max_attempts = 1;
    state->health_client = std::make_unique<PpcClient>(options);
    // A failed dial is fine — the client remembers the endpoint and each
    // later call re-attempts the connection under its own deadline.
    (void)state->health_client->Connect(node.host, node.port);
  }
  return state->health_client.get();
}

void PlanRouter::HealthLoop() {
  ShippedHashes shipped;
  auto last_replication = std::chrono::steady_clock::now();
  while (!draining_.load(std::memory_order_acquire)) {
    // Sleep one probe interval; Shutdown() wakes the wait at once.
    {
      std::unique_lock<std::mutex> lock(health_mu_);
      health_cv_.wait_for(
          lock, std::chrono::milliseconds(config_.probe_interval_ms),
          [this] { return draining_.load(std::memory_order_acquire); });
    }
    if (draining_.load(std::memory_order_acquire)) break;

    const Backends targets = SnapshotBackends();

    // Forget shipped-hash bookkeeping for shards no longer on the ring.
    std::set<std::string> live;
    for (const auto& [node, backend] : targets) live.insert(node.Address());
    for (auto it = shipped.begin(); it != shipped.end();) {
      if (!live.count(it->first)) {
        it = shipped.erase(it);
        continue;
      }
      auto& per_replica = it->second;
      for (auto jt = per_replica.begin(); jt != per_replica.end();) {
        jt = live.count(jt->first) ? std::next(jt) : per_replica.erase(jt);
      }
      ++it;
    }

    for (const auto& [node, backend] : targets) {
      if (draining_.load(std::memory_order_acquire)) break;
      ProbeBackend(node, backend, &shipped);
    }

    if (config_.replication_interval_ms > 0 &&
        !draining_.load(std::memory_order_acquire) &&
        std::chrono::steady_clock::now() - last_replication >=
            std::chrono::milliseconds(config_.replication_interval_ms)) {
      ReplicateOnce(&shipped);
      last_replication = std::chrono::steady_clock::now();
    }
  }
}

void PlanRouter::ProbeBackend(const HashRing::Node& node,
                              const std::shared_ptr<BackendState>& state,
                              ShippedHashes* shipped) {
  if (state->breaker.state() == CircuitBreaker::State::kClosed) {
    instruments_.health_probes->Increment();
    const Status alive = HealthClientFor(node, state.get())->Ping();
    if (alive.ok()) {
      RecordBackendSuccess(state.get());
    } else {
      instruments_.health_probe_failures->Increment();
      RecordBackendFailure(state.get());
    }
    return;
  }
  if (!state->breaker.TryBeginProbe()) return;  // open, still cooling down
  // Half-open trial. The shard re-enters rotation only after a PING
  // succeeds AND a wire-level warm start from its replicas applied
  // cleanly — a rejoining shard must never be observable cold.
  instruments_.health_probes->Increment();
  const Status alive = HealthClientFor(node, state.get())->Ping();
  if (!alive.ok()) {
    instruments_.health_probe_failures->Increment();
    RecordBackendFailure(state.get());
    return;
  }
  if (!WarmRejoin(node, state.get())) {
    instruments_.rejoin_failures->Increment();
    RecordBackendFailure(state.get());
    return;
  }
  instruments_.rejoin_warm_starts->Increment();
  // The restart lost everything ever shipped *to* this shard, and its
  // own outbound bookkeeping is equally stale: forget both directions so
  // the next replication pass re-ships from scratch.
  shipped->erase(node.Address());
  for (auto& [primary, per_replica] : *shipped) {
    per_replica.erase(node.Address());
  }
  RecordBackendSuccess(state.get());
}

bool PlanRouter::WarmRejoin(const HashRing::Node& node, BackendState* state) {
  // Snapshot the ring + the backends under the lock; the wire transfers
  // run outside it.
  HashRing ring_snapshot;
  const Backends sources = SnapshotBackends(&ring_snapshot);
  const std::string rejoining = node.Address();
  for (const auto& [source, backend] : sources) {
    if (source == node) continue;
    // A replica that is itself down cannot warm anyone; the templates it
    // held for the rejoining shard restart cold (both copies were lost —
    // there is nothing better to restore from).
    if (backend->breaker.state() != CircuitBreaker::State::kClosed) continue;
    Result<std::string> blob =
        HealthClientFor(source, backend.get())->FetchSnapshot();
    if (!blob.ok()) return false;  // retry the whole rejoin next tick
    Result<PredictorState> full = PredictorState::Restore(blob.value());
    if (!full.ok()) return false;
    const std::string source_address = source.Address();
    // Only the templates this source holds *as the designated replica* of
    // the rejoining primary — its other entries are cold or authoritative
    // elsewhere.
    const PredictorState subset = full.value().Filtered(
        [&](const PredictorState::TemplateEntry& entry) {
          Result<HashRing::Placement> placement =
              ring_snapshot.PlacementFor(entry.name);
          return placement.ok() && placement.value().has_replica &&
                 placement.value().primary.Address() == rejoining &&
                 placement.value().replica.Address() == source_address;
        });
    if (subset.entries().empty()) continue;
    Result<uint32_t> applied =
        HealthClientFor(node, state)->ApplySnapshot(subset.Serialize());
    if (!applied.ok()) return false;
  }
  return true;
}

void PlanRouter::ReplicateOnce(ShippedHashes* shipped) {
  HashRing ring_snapshot;
  const Backends targets = SnapshotBackends(&ring_snapshot);
  if (targets.size() < 2) return;  // no distinct replica exists

  for (const auto& [primary, primary_backend] : targets) {
    if (draining_.load(std::memory_order_acquire)) return;
    if (primary_backend->breaker.state() != CircuitBreaker::State::kClosed) {
      continue;
    }
    Result<std::string> blob =
        HealthClientFor(primary, primary_backend.get())->FetchSnapshot();
    if (!blob.ok()) {
      instruments_.replication_ship_failures->Increment();
      if (IsTransportFailure(blob.status())) {
        RecordBackendFailure(primary_backend.get());
      }
      continue;
    }
    Result<PredictorState> full = PredictorState::Restore(blob.value());
    if (!full.ok()) {
      instruments_.replication_ship_failures->Increment();
      continue;
    }
    const std::string primary_address = primary.Address();
    for (const auto& [replica, replica_backend] : targets) {
      if (replica == primary) continue;
      if (replica_backend->breaker.state() !=
          CircuitBreaker::State::kClosed) {
        continue;
      }
      const std::string replica_address = replica.Address();
      auto& pair_hashes = (*shipped)[primary_address][replica_address];
      // Ship only this primary's authoritative templates whose replica is
      // this shard, and only when their content hash changed since the
      // last ship: a delta, sent as a full-format Filtered subset, since
      // the receiving shard keeps no base to merge one against.
      const PredictorState subset = full.value().Filtered(
          [&](const PredictorState::TemplateEntry& entry) {
            Result<HashRing::Placement> placement =
                ring_snapshot.PlacementFor(entry.name);
            if (!placement.ok() || !placement.value().has_replica) {
              return false;
            }
            if (placement.value().primary.Address() != primary_address ||
                placement.value().replica.Address() != replica_address) {
              return false;
            }
            const auto it = pair_hashes.find(entry.name);
            return it == pair_hashes.end() ||
                   it->second != entry.content_hash;
          });
      if (subset.entries().empty()) {
        instruments_.replication_skipped->Increment();
        continue;
      }
      Result<uint32_t> applied =
          HealthClientFor(replica, replica_backend.get())
              ->ApplySnapshot(subset.Serialize());
      if (!applied.ok()) {
        instruments_.replication_ship_failures->Increment();
        if (IsTransportFailure(applied.status())) {
          RecordBackendFailure(replica_backend.get());
        }
        continue;
      }
      instruments_.replication_ships->Increment();
      instruments_.replication_templates_shipped->Increment(
          subset.entries().size());
      for (const PredictorState::TemplateEntry& entry : subset.entries()) {
        pair_hashes[entry.name] = entry.content_hash;
      }
    }
  }
}

Status InstallShutdownSignalHandlers(PlanRouter* router) {
  return InstallShutdownSignalHandlers(&router->server_);
}

}  // namespace ppc
