#ifndef PPC_SERVER_CLIENT_H_
#define PPC_SERVER_CLIENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "plan/fingerprint.h"
#include "server/net_util.h"
#include "server/wire_protocol.h"

namespace ppc {

/// How a PpcClient retries recoverable failures: BUSY answers (the
/// server's backpressure — the request was *not* executed, so retrying is
/// always safe) and transient connect failures. Backoff is capped
/// exponential with multiplicative jitter, from a seeded stream so load
/// tests are reproducible. The default policy does not retry at all —
/// exactly the pre-PR-5 behavior.
struct RetryPolicy {
  /// Total attempts, including the first; 1 disables retries.
  int max_attempts = 1;
  int64_t initial_backoff_ms = 2;
  int64_t max_backoff_ms = 200;
  double multiplier = 2.0;
  /// Each backoff is scaled by a uniform draw from [1-jitter, 1+jitter].
  double jitter = 0.2;
  uint64_t seed = 0x5eed;
};

/// Blocking client for the plan-prediction server (server/server.h).
///
/// Two usage styles:
///
///   * Synchronous: Predict / Execute / Metrics / Ping / Shutdown — one
///     round trip per call.
///   * Pipelined: SendX() writes the request immediately and returns its
///     id without waiting; Wait(id) later collects that response.
///     Requests in flight overlap on the wire, which is what makes a
///     single connection saturate the server's worker pool. Responses
///     arriving out of order are parked until their Wait() call.
///
/// Resilience (DESIGN.md §14): every call observes the per-call deadline
/// in Options (DeadlineExceeded closes the connection — the stream can no
/// longer be matched to ids), synchronous calls retry BUSY answers under
/// the RetryPolicy, and Connect retries transient failures the same way.
///
/// Not thread-safe: use one PpcClient per thread (the closed loop of the
/// benches' load generator, bench/loadgen.h, does exactly that).
class PpcClient {
 public:
  struct Options {
    /// Wall-clock budget per synchronous call / per Wait(), spanning all
    /// retry attempts. 0 = wait forever (the pre-PR-5 behavior).
    int64_t call_deadline_ms = 0;
    RetryPolicy retry;
  };

  PpcClient() : PpcClient(Options{}) {}
  explicit PpcClient(const Options& options);
  ~PpcClient() { Close(); }

  PpcClient(const PpcClient&) = delete;
  PpcClient& operator=(const PpcClient&) = delete;

  /// Connects (retrying transient failures per the RetryPolicy) and
  /// remembers host:port so later calls can reconnect after a loss. The
  /// per-call deadline bounds the whole attempt sequence including the
  /// TCP handshake itself — an unreachable peer fails with
  /// DeadlineExceeded instead of blocking in connect(2).
  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }
  /// True when no connection is open or the server has closed or reset
  /// it (a restarted peer, an idle timeout). Never blocks; lets a cached
  /// client re-dial instead of failing its next call.
  bool PeerClosed() const;

  /// Cumulative resilience accounting (reset by neither Close nor
  /// Connect): what the RetryPolicy and the deadline did for this client.
  struct TransportStats {
    uint64_t busy_retries = 0;
    uint64_t connect_retries = 0;
    uint64_t reconnects = 0;
    uint64_t deadlines_exceeded = 0;
  };
  const TransportStats& transport_stats() const { return stats_; }

  /// --- Synchronous API. Non-OK wire statuses map to Status codes via
  /// wire::ToStatus (BUSY -> ResourceExhausted, etc.); BUSY is retried
  /// per the RetryPolicy before surfacing. ---

  struct PredictResult {
    PlanId plan = kNullPlanId;
    double confidence = 0.0;
    bool cache_hit = false;
  };
  Result<PredictResult> Predict(const std::string& template_name,
                                const std::vector<double>& point);

  /// Batched Predict: `count` points of `dims` coordinates each,
  /// flattened row-major in `points` (one PREDICT_BATCH frame, one
  /// answer per point in request order). All points must target one
  /// template; validation is all-or-nothing on the server, and a point
  /// the predictor abstains on comes back as kNullPlanId with confidence
  /// 0 rather than an error.
  Result<std::vector<PredictResult>> PredictBatch(
      const std::string& template_name, const std::vector<double>& points,
      uint32_t dims);

  Result<wire::Response::Execute> Execute(const std::string& template_name,
                                          const std::vector<double>& point);

  /// The server's MetricsSnapshot().ToJson() payload.
  Result<std::string> Metrics();

  Status Ping();

  /// Asks the server to drain and exit. Returns once the server acks.
  Status Shutdown();

  /// Pulls the server's serialized PredictorState (one SNAPSHOT round
  /// trip). The blob is opaque here; feed it to PredictorState::Restore
  /// or to ApplySnapshot on another shard.
  Result<std::string> FetchSnapshot();

  /// Ships a serialized PredictorState to the server (SNAPSHOT_APPLY);
  /// returns the number of templates the server warm-started from it.
  Result<uint32_t> ApplySnapshot(const std::string& blob);

  /// Router admin: add or remove a backend shard (TOPOLOGY). Returns the
  /// backend count after the operation. Plain shards answer BAD_REQUEST.
  Result<uint32_t> Topology(wire::TopologyOp op, const std::string& host,
                            uint16_t port);

  /// One synchronous round trip for an arbitrary pre-built request (the
  /// id is assigned here, fresh per attempt). BUSY answers are retried
  /// per the RetryPolicy; any other response comes back verbatim, wire
  /// status included. This is the router's forwarding primitive: it
  /// preserves the backend's exact answer instead of collapsing it into
  /// a Status.
  Result<wire::Response> Call(wire::Request request) {
    return RoundTrip(std::move(request));
  }

  /// --- Pipelined API: send now, collect later. ---

  Result<uint64_t> SendPredict(const std::string& template_name,
                               const std::vector<double>& point);
  /// Pipelined PredictBatch (layout as in PredictBatch); collect the
  /// response with Wait(id) and read Response::batch.
  Result<uint64_t> SendPredictBatch(const std::string& template_name,
                                    const std::vector<double>& points,
                                    uint32_t dims);
  Result<uint64_t> SendExecute(const std::string& template_name,
                               const std::vector<double>& point);
  Result<uint64_t> SendPing();
  Result<uint64_t> SendShutdown();

  /// Blocks until the response for `id` arrives or the per-call deadline
  /// expires (responses for other outstanding ids are parked for their
  /// own Wait calls). The returned Response may itself carry a non-OK
  /// wire status (e.g. BUSY) — the Result is non-OK only for
  /// transport/protocol failures and deadline expiry.
  ///
  /// An id that was sent on a connection lost since (the client
  /// reconnects transparently under synchronous calls) fails immediately
  /// with Unavailable: its response can never arrive on the current
  /// stream, and before the connection-generation bookkeeping existed
  /// such a Wait would read the *new* connection — forever, under an
  /// infinite deadline. Waiting on an id this client never issued (or
  /// already collected) is FailedPrecondition.
  Result<wire::Response> Wait(uint64_t id);

 private:
  /// One synchronous round trip with BUSY-retry and reconnect-on-loss.
  /// Assigns the request id (fresh per attempt).
  Result<wire::Response> RoundTrip(wire::Request request);
  Status SendEncoded(const std::string& frame, const net::Deadline& deadline);
  Result<uint64_t> SendRequest(wire::MessageType type,
                               const std::string& template_name,
                               const std::vector<double>& point);
  /// Reads frames off the socket until `id`'s response shows up.
  Result<wire::Response> ReadUntil(uint64_t id, const net::Deadline& deadline);
  /// Sleeps the capped-exponential backoff for 0-based retry `attempt`,
  /// bounded by `deadline`; false when the deadline cannot absorb it.
  bool BackoffBeforeRetry(int attempt, const net::Deadline& deadline);
  net::Deadline CallDeadline() const {
    return net::Deadline::AfterMsOrInfinite(options_.call_deadline_ms);
  }

  Options options_;
  Rng backoff_rng_;
  TransportStats stats_;
  std::string host_;
  uint16_t port_ = 0;
  int fd_ = -1;
  /// Monotonic across the client's lifetime — never reset by Close() or
  /// reconnect, so ids stay unique across connections and a stale
  /// response (were one ever read) could not match a new request's id.
  uint64_t next_id_ = 1;
  /// Bumped on every successful (re)connect. Each pipelined id records
  /// the generation it was sent under; Wait() refuses ids from dead
  /// generations instead of reading the wrong stream.
  uint64_t connection_generation_ = 0;
  /// Pipelined ids awaiting Wait(): id -> generation it was sent under.
  /// Entries leave when the response is returned or parked, or when
  /// Wait() reports the generation dead.
  std::map<uint64_t, uint64_t> in_flight_;
  wire::FrameBuffer frames_;
  /// Fully received responses awaiting their Wait() call. Survives
  /// Close(): a complete, decoded answer stays collectable even after
  /// the connection that carried it is gone.
  std::map<uint64_t, wire::Response> parked_;
};

}  // namespace ppc

#endif  // PPC_SERVER_CLIENT_H_
