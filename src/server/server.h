#ifndef PPC_SERVER_SERVER_H_
#define PPC_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "ppc/metrics_registry.h"
#include "ppc/ppc_framework.h"
#include "server/bounded_queue.h"
#include "server/load_shed.h"
#include "server/wire_protocol.h"

namespace ppc {

namespace net {
class TimerWheel;
}  // namespace net

/// Answers one decoded request for the serving core: the framework
/// handler behind PlanServer(PpcFramework*, Config), or PlanRouter's
/// forwarding handler (server/router.h).
class RequestHandler {
 public:
  virtual ~RequestHandler() = default;
  /// Called concurrently by every worker; `worker_index` in
  /// [0, worker_threads) lets a handler keep per-worker state unlocked.
  virtual wire::Response Handle(const wire::Request& request,
                                size_t worker_index) = 0;
};

/// The network serving layer (DESIGN.md §12): a Linux epoll-based TCP
/// server speaking the wire protocol of server/wire_protocol.h in front
/// of a RequestHandler.
///
/// Threading model — one IO thread plus a fixed worker pool:
///
///   * The IO thread owns the epoll set: it accepts connections, reads
///     bytes, deframes and decodes requests, and enqueues work items onto
///     a bounded MPMC queue. It never executes a query.
///   * `worker_threads` workers drain the queue, pass each request to the
///     handler, and append the response frame to the connection's outbox.
///     The thread that finds no flush running writes the outbox out until
///     it is empty; the others return to work at once, so pipelined
///     responses never queue on each other's socket writes.
///
/// Robustness semantics:
///
///   * Backpressure: when the queue is full the IO thread answers BUSY
///     immediately — requests are never buffered without bound.
///   * Limits: frames above `max_frame_bytes` and connections above
///     `max_connections` are refused (error frame + close, and
///     accept-then-close respectively).
///   * Malformed input: framing violations and undecodable payloads get a
///     clean BAD_REQUEST error frame, then the connection is dropped (the
///     byte stream can no longer be trusted).
///   * Graceful shutdown: a SHUTDOWN request, Shutdown(), or an installed
///     SIGINT/SIGTERM handler stops accepting work; requests already
///     admitted to the queue drain to completion before threads exit, and
///     requests that were on the wire but never admitted get an explicit
///     SHUTTING_DOWN error reply (never a silent drop) before the
///     connection closes.
///   * Deadlines (DESIGN.md §14): a timer wheel in the epoll loop closes
///     connections that sit idle past `idle_timeout_ms` or dribble a
///     frame slower than `read_deadline_ms` (slow-loris protection);
///     each flush of a connection's outbox is bounded by
///     `write_deadline_ms`.
///   * Graceful degradation: under sustained queue pressure a shedding
///     ladder first disables worker micro-batching, then answers PREDICT
///     with the predictor's abstain shape instead of queueing, and
///     finally (queue full) returns BUSY — every rung observable via the
///     `server.shed.*` instruments.
class PlanServer {
 public:
  struct Config {
    std::string bind_address = "127.0.0.1";
    /// 0 picks an ephemeral port; see port() after Start().
    uint16_t port = 0;
    int worker_threads = 4;
    /// Bounded request-queue capacity; overflow answers BUSY.
    size_t queue_capacity = 256;
    /// Connections above this are accepted and immediately closed.
    size_t max_connections = 64;
    size_t max_frame_bytes = wire::kDefaultMaxFrameBytes;
    /// Opportunistic micro-batching: when a worker pops a single-point
    /// PREDICT, it also takes the same-template PREDICTs queued right
    /// behind it (without blocking, up to this many in all) and hands
    /// them to the handler as one PREDICT_BATCH, so even non-batching
    /// clients amortize the lock/transform/histogram costs under load
    /// (DESIGN.md §13). 1 (or 0) disables it; each answer is still its own
    /// frame, so clients observe identical frames either way.
    size_t max_microbatch = 16;
    /// A connection with no inbound bytes for this long is closed
    /// (slow-loris / leaked-peer protection). 0 disables.
    int64_t idle_timeout_ms = 30000;
    /// Once the first byte of a frame has arrived, the complete frame
    /// must arrive within this window or the connection is closed (a
    /// peer dribbling one byte per poll can otherwise hold a connection
    /// forever). 0 disables.
    int64_t read_deadline_ms = 5000;
    /// Bound on one flush: one write of everything a connection's outbox
    /// held when the flush took it. A peer that stops reading long enough
    /// to exceed it gets its connection poisoned and closed. 0 means wait
    /// forever. max_frame_bytes also caps the outbox: workers wait while it
    /// is full, and the IO thread closes the connection instead.
    int64_t write_deadline_ms = 10000;
    /// Degradation-ladder thresholds (EWMA queue occupancy; DESIGN.md
    /// §14). Rungs: disable micro-batching, then abstain on PREDICT.
    net::ShedController::Options shed;
    /// Test hook, run by a worker before each request is dispatched (lets
    /// tests hold the pool to provoke backpressure deterministically).
    std::function<void(wire::MessageType)> pre_dispatch_hook;
  };

  /// Serves `framework`; the `server.*` instruments go to its registry.
  PlanServer(PpcFramework* framework, Config config);
  /// Serves `handler`; both it and `metrics` must outlive the server.
  PlanServer(RequestHandler* handler, MetricsRegistry* metrics,
             Config config);
  ~PlanServer();

  PlanServer(const PlanServer&) = delete;
  PlanServer& operator=(const PlanServer&) = delete;

  /// Binds, listens and spawns the IO thread + worker pool.
  Status Start();

  /// Initiates graceful drain: stop accepting connections and requests,
  /// finish everything already queued. Non-blocking and idempotent; also
  /// triggered by a SHUTDOWN request. Safe from any thread (including
  /// workers and signal-watching contexts).
  void Shutdown();

  /// Blocks until the drain completes and all threads have exited.
  void Wait();

  /// Shutdown() + Wait().
  void Stop();

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  /// Requests admitted but not yet picked up by a worker (observability;
  /// also lets tests wait for admission deterministically).
  size_t queued_requests() const;

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Current rung of the degradation ladder (observability and tests).
  net::ShedController::Level shed_level() const { return shed_.level(); }

 private:
  friend Status InstallShutdownSignalHandlers(PlanServer* server);

  struct Connection;
  struct WorkItem;

  void IoLoop();
  void WorkerLoop(size_t worker_index);
  void AcceptConnections(net::TimerWheel* wheel);
  /// Timer-wheel bookkeeping (IO thread only): (re)arms a connection's
  /// wheel entry from its idle/frame deadlines, and refreshes those
  /// deadlines after inbound activity.
  void ScheduleConnDeadline(net::TimerWheel* wheel,
                            const std::shared_ptr<Connection>& conn);
  void TouchConnActivity(net::TimerWheel* wheel,
                         const std::shared_ptr<Connection>& conn);
  /// Reads everything currently available; returns false when the
  /// connection must be dropped.
  bool DrainReadable(const std::shared_ptr<Connection>& conn);
  /// Deframes + decodes + enqueues; returns false on protocol violation.
  bool ProcessFrames(const std::shared_ptr<Connection>& conn);
  void CloseConnection(int fd);
  /// Folds one occupancy sample into the shed controller and counts rung
  /// transitions (IO thread only).
  net::ShedController::Level UpdateShedLevel();
  /// Answers a single-point PREDICT with the predictor's abstain shape
  /// (NULL plan, confidence 0) straight from the IO thread. False when the
  /// connection must be closed: the frame was dropped or its write failed.
  bool SendShedAbstain(const std::shared_ptr<Connection>& conn, uint64_t id);
  /// Post-drain pass over the surviving connections: any request bytes
  /// that arrived after the IO loop stopped reading are answered with a
  /// SHUTTING_DOWN error instead of being silently dropped.
  void SweepUnansweredOnShutdown();
  /// Answers one work item the scalar way: hook, handle, write, account.
  void ProcessSingle(WorkItem* item, size_t worker_index);
  /// Answers `count` same-template single-point PREDICT items with one
  /// PREDICT_BATCH through the handler; falls back to one request per
  /// item when the batch is rejected (e.g. one point is non-finite), so
  /// grouping never changes which requests succeed. Any other failure
  /// answers every item with the batch's error.
  void ProcessPredictRun(WorkItem* items, size_t count, size_t worker_index);
  /// Sends `response` to the item's connection, then Account()s it.
  void Reply(WorkItem* item, const wire::Response& response);
  /// Records the item's request counter and latency (admission to reply
  /// handed off), and the error counter when `ok` is false.
  void Account(const WorkItem& item, bool ok);
  /// Sends one error frame without waiting (IO thread, shutdown sweep).
  /// False when the connection must be closed: the frame was dropped or
  /// its write failed.
  bool SendError(const std::shared_ptr<Connection>& conn,
                 wire::MessageType type, uint64_t id, wire::WireStatus status,
                 const std::string& message);
  /// Raises `server.outbox_peak_bytes` to `bytes` if that is a new peak.
  void ObserveOutbox(size_t bytes);

  /// Set only when this server built its own framework handler.
  std::unique_ptr<RequestHandler> owned_handler_;
  RequestHandler* const handler_;
  MetricsRegistry* const metrics_;
  const Config config_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  /// eventfd the IO thread sleeps on besides the sockets; Shutdown() (and
  /// the async-signal-safe signal handler) write to it to wake the loop.
  int wake_fd_ = -1;
  uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};

  /// Degradation ladder (DESIGN.md §14): occupancy observed by the IO
  /// thread at every admission, rung read lock-free by workers.
  net::ShedController shed_;
  /// Previous rung, for transition counting (IO thread only).
  net::ShedController::Level prev_shed_level_ = net::ShedController::kNormal;

  BoundedQueue<WorkItem> queue_;
  std::thread io_thread_;
  std::vector<std::thread> workers_;
  /// Owned by the IO thread exclusively (workers hold their own
  /// shared_ptr copies inside work items).
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;

  /// Largest outbox seen since Start(); raised under outbox_peak_mu_.
  std::atomic<size_t> outbox_peak_bytes_{0};
  std::mutex outbox_peak_mu_;

  /// Serving-layer instruments, resolved once at Start() from the
  /// registry (DESIGN.md §11 naming scheme).
  struct {
    MetricsCounter* requests_predict = nullptr;
    MetricsCounter* requests_predict_batch = nullptr;
    MetricsCounter* requests_execute = nullptr;
    MetricsCounter* requests_metrics = nullptr;
    MetricsCounter* requests_ping = nullptr;
    MetricsCounter* requests_shutdown = nullptr;
    /// Micro-batching effectiveness: runs answered through one
    /// PREDICT_BATCH, and single-point PREDICTs answered through them.
    MetricsCounter* microbatches = nullptr;
    MetricsCounter* microbatched_predicts = nullptr;
    MetricsCounter* responses_busy = nullptr;
    MetricsCounter* responses_error = nullptr;
    MetricsCounter* frames_malformed = nullptr;
    MetricsCounter* connections_accepted = nullptr;
    MetricsCounter* connections_rejected = nullptr;
    /// Deadline enforcement (server.timeouts.*): connections closed for
    /// inactivity / slow frames, and flushes cut off mid-write.
    MetricsCounter* timeouts_idle = nullptr;
    MetricsCounter* timeouts_read = nullptr;
    MetricsCounter* timeouts_write = nullptr;
    /// Outbox writes (responses ÷ flushes = frames per write), and the
    /// largest outbox any connection held, in bytes.
    MetricsCounter* flushes = nullptr;
    MetricsGauge* outbox_peak_bytes = nullptr;
    /// Degradation ladder (server.shed.*): rung transitions, PREDICTs
    /// answered via the abstain path, and requests swept with a
    /// SHUTTING_DOWN reply during the final drain.
    MetricsCounter* shed_enter_no_microbatch = nullptr;
    MetricsCounter* shed_enter_abstain = nullptr;
    MetricsCounter* shed_recovered = nullptr;
    MetricsCounter* shed_abstained_predicts = nullptr;
    MetricsCounter* shutdown_swept = nullptr;
    /// Replication requests and their latency; the framework handler
    /// counts what they shipped and applied (server.replication.*).
    MetricsCounter* requests_snapshot = nullptr;
    MetricsCounter* requests_snapshot_apply = nullptr;
    LatencyHistogram* replication_snapshot_us = nullptr;
    LatencyHistogram* replication_apply_us = nullptr;
    LatencyHistogram* predict_us = nullptr;
    LatencyHistogram* predict_batch_us = nullptr;
    LatencyHistogram* execute_us = nullptr;
    LatencyHistogram* metrics_us = nullptr;
    LatencyHistogram* ping_us = nullptr;
  } instruments_;
};

/// Installs SIGINT/SIGTERM handlers that trigger `server->Shutdown()`
/// asynchronously (the handler only writes to the server's wake eventfd —
/// async-signal-safe). At most one server per process may install
/// handlers; call after Start(). The caller should follow with Wait().
Status InstallShutdownSignalHandlers(PlanServer* server);

}  // namespace ppc

#endif  // PPC_SERVER_SERVER_H_
