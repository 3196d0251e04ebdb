#ifndef PPC_SERVER_SERVER_H_
#define PPC_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
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

/// Answers one decoded request for the serving core: the framework
/// handler behind PlanServer(PpcFramework*, Config), or PlanRouter's
/// forwarding handler (server/router.h).
class RequestHandler {
 public:
  virtual ~RequestHandler() = default;
  /// Answers `request` into `*out`, which arrives cleared
  /// (wire::Response::Clear) and is owned by the run being answered: it
  /// may keep the storage of an earlier answer, so an answer that fits it
  /// allocates nothing. Called concurrently by every worker, so it keeps
  /// no per-thread state. A PlanServer in front of its own framework also
  /// calls its framework handler from the IO thread; one in front of
  /// another handler never does.
  virtual void Handle(const wire::Request& request, wire::Response* out) = 0;
};

/// The network serving layer (DESIGN.md §12): a Linux epoll-based TCP
/// server speaking the wire protocol of server/wire_protocol.h in front
/// of a RequestHandler.
///
/// Threading model — one IO thread plus a fixed worker pool:
///
///   * The IO thread owns the epoll set: it accepts connections, reads
///     bytes, deframes and decodes requests, and enqueues work items onto
///     a bounded MPMC queue. In front of its own framework it answers the
///     single-point PREDICTs of one read itself, as runs of up to
///     kMaxMicrobatch, when the shed ladder is at normal, the queue is
///     empty, the epoll wake reported this connection as the only ready
///     one, the connection has nothing waiting to be written, and the
///     drain has not begun (DESIGN.md §13). It never executes an EXECUTE
///     or any other request.
///   * The IO thread never blocks on a socket. Every frame it writes (its
///     PREDICT replies, BUSY and SHUTTING_DOWN, shed abstains, BAD_REQUEST
///     and TIMEOUT) goes out through one non-blocking send; what the socket
///     does not take, the IO thread writes itself when epoll reports the
///     connection writable (EPOLLOUT is armed only while such bytes wait).
///   * `worker_threads` workers drain the queue, pass each request to the
///     handler, and append the response frame to the connection's outbox.
///     A worker answers runs: with a single-point PREDICT it takes the
///     single-point PREDICTs queued right behind it, and in front of its
///     own framework, with an EXECUTE, the EXECUTEs of the same connection
///     queued right behind it, up to its fair share of the queue (see
///     kMaxMicrobatch). A run's replies to one connection go in one append.
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
///   * Deadlines (DESIGN.md §14): each connection carries its own idle,
///     frame and write deadlines, and one sweep over the connections in the
///     epoll loop closes those that sit idle past `idle_timeout_ms`,
///     dribble a frame slower than `read_deadline_ms` (slow-loris
///     protection), or keep bytes unwritten past `write_deadline_ms`.
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
    /// A connection with no inbound bytes for this long is closed
    /// (slow-loris / leaked-peer protection). 0 disables.
    int64_t idle_timeout_ms = 30000;
    /// Once the first byte of a frame has arrived, the complete frame
    /// must arrive within this window or the connection is closed (a
    /// peer dribbling one byte per poll can otherwise hold a connection
    /// forever). 0 disables.
    int64_t read_deadline_ms = 5000;
    /// Bound on one flush: one write of everything a connection's outbox
    /// held when the flush took it, by a worker's blocking write or by the
    /// IO thread's non-blocking sends as epoll reports room. A peer that
    /// stops reading long enough to exceed it gets its connection poisoned
    /// and closed. 0 means wait forever. max_frame_bytes also caps the
    /// outbox: workers wait while it is full, and the IO thread closes the
    /// connection instead.
    int64_t write_deadline_ms = 10000;
    /// Test hook, run before each request is dispatched by the thread that
    /// dispatches it: a worker, or the IO thread for the PREDICTs it
    /// answers itself (lets tests hold the pool to provoke backpressure
    /// deterministically).
    std::function<void(wire::MessageType)> pre_dispatch_hook;
  };

  /// Opportunistic micro-batching: when a worker pops a single-point
  /// PREDICT, it also takes the single-point PREDICTs queued right behind
  /// it (without blocking, up to this many in all) as one run; a run the
  /// IO thread answers itself is cut from one read at this size. A server
  /// in front of its own framework takes them whatever their template; one
  /// in front of another handler (PlanRouter) takes only the head's
  /// template, so a blocking forward never holds another template's
  /// answers. The run goes to the handler as one PREDICT_BATCH per
  /// (template, arity), and its replies leave in one write per
  /// connection, so even non-batching clients amortize the
  /// lock/transform/histogram costs and the socket writes under load
  /// (DESIGN.md §13). Each answer is still its own frame, so clients
  /// observe identical frames either way.
  ///
  /// EXECUTE runs: in front of its own framework, a worker that pops an
  /// EXECUTE also takes the EXECUTEs of the same connection queued right
  /// behind it, up to its fair share, min(kMaxMicrobatch, ⌈(1 + queued) /
  /// worker count⌉) with `queued` read once after the pop, so a pipelined
  /// window is spread over the workers. They are answered one by one in
  /// queue order and their replies leave in one write. A router's
  /// forwarded EXECUTEs stay runs of one, and the first shed rung turns
  /// both kinds of run off.
  static constexpr size_t kMaxMicrobatch = 16;

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

  using Clock = std::chrono::steady_clock;
  struct Connection;
  struct WorkItem;
  struct RunScratch;

  void IoLoop();
  void WorkerLoop();
  /// worker_threads, at least 1.
  size_t WorkerCount() const;
  void AcceptConnections();
  /// Refreshes a connection's deadlines after inbound activity (IO thread
  /// only): the idle deadline restarts, and the frame deadline arms when
  /// an incomplete frame stays buffered and disarms when none does.
  void TouchConnActivity(Connection* conn);
  /// Closes every connection whose deadline has passed (IO thread only):
  /// a write deadline poisons it, an idle or frame deadline sends a
  /// TIMEOUT frame first. Recomputes next_deadline_ from the survivors.
  void SweepDeadlines(Clock::time_point now, std::vector<int>* expired);
  /// One read of up to 16 KB per epoll wake, then its requests; returns
  /// false when the connection must be dropped. Level-triggered epoll
  /// reports a connection with more bytes again at once, so a peer that
  /// keeps its socket readable gets one read per wake, and the other
  /// connections, the listener, the deadline sweep and the wake fd are
  /// served in between. `sole_ready`: this epoll wake reported no other
  /// connection ready.
  bool ReadOnce(const std::shared_ptr<Connection>& conn, bool sole_ready);
  /// Deframes + decodes + admits one read's requests; returns false when
  /// the connection must be dropped (protocol violation, failed write).
  bool ProcessFrames(const std::shared_ptr<Connection>& conn,
                     bool sole_ready);
  /// Answers or admits the pending run of single-point PREDICTs
  /// (`io_run_`'s items) and empties it: AnswerRunInline when the IO
  /// thread may answer it (see the threading model above), else Admit per
  /// item. False when the connection must be dropped.
  bool AdmitRun(const std::shared_ptr<Connection>& conn, bool sole_ready);
  /// Answers `io_run_` on the IO thread through the workers' run path
  /// (AnswerRun, then CountRun) and writes the replies with SendFrames.
  bool AnswerRunInline(const std::shared_ptr<Connection>& conn);
  /// Admission of one request: shed sample and abstain rung, then the
  /// queue, or BUSY (SHUTTING_DOWN while draining) when it refuses.
  bool Admit(const std::shared_ptr<Connection>& conn, WorkItem item);
  /// Refuses later appends and stops reading `conn`. A connection with
  /// bytes the IO thread has not yet written stays registered for EPOLLOUT
  /// until they are written or its write deadline passes, so an
  /// explanatory frame still precedes the close; any other goes at once.
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  /// Keeps `conn`'s epoll registration in step after the IO thread wrote
  /// to or closed it: EPOLLIN while it is read, EPOLLOUT while it has
  /// unwritten bytes. A closing connection with none left is removed.
  void Watch(const std::shared_ptr<Connection>& conn);
  /// The IO thread's one write path: Connection::SendWithoutBlocking, then
  /// Watch. False when the connection must be closed: the frames were
  /// dropped or the send failed.
  bool SendFrames(const std::shared_ptr<Connection>& conn,
                  const std::string& frames);
  /// Folds one occupancy sample into the shed controller and counts rung
  /// transitions (IO thread only).
  net::ShedController::Level UpdateShedLevel();
  /// Answers a single-point PREDICT with the predictor's abstain shape
  /// (NULL plan, confidence 0) straight from the IO thread. False when the
  /// connection must be closed: the frame was dropped or its write failed.
  bool SendShedAbstain(const std::shared_ptr<Connection>& conn, uint64_t id);
  /// Post-drain pass over the surviving connections, after every thread
  /// has exited: bytes the IO thread left unwritten are written first, and
  /// any request bytes that arrived after the IO loop stopped reading are
  /// answered with a SHUTTING_DOWN error instead of being silently dropped.
  void SweepUnansweredOnShutdown();
  /// Answers a worker's run: any one request, single-point PREDICTs the
  /// worker took together, or one connection's EXECUTEs. AnswerRun, or for
  /// EXECUTEs the hook and the handler per item in order; then every reply
  /// appended and each connection flushed once, then CountRun; an
  /// acknowledged SHUTDOWN then starts the drain.
  void ProcessRun(RunScratch* run);
  /// Runs the hook for each item, then one AnswerPredictGroup per
  /// (template, arity) group, in order of first appearance, answering
  /// into the run's responses in item order. The kDispatch failpoint
  /// stays with the workers (ProcessRun).
  void AnswerRun(RunScratch* run);
  /// Account for every item of an answered run, and the micro-batch
  /// counters when it holds two or more PREDICTs.
  void CountRun(const RunScratch& run);
  /// Answers the items of the run's current group (one template and
  /// arity) into the same slots of its responses, with one PREDICT_BATCH
  /// through the handler (a group of one, which may be any request, goes
  /// to the handler as it is); falls back to one request per item when
  /// the batch is rejected (e.g. one point is non-finite), so grouping
  /// never changes which requests succeed. Any other failure answers
  /// every item of the group with the batch's error.
  void AnswerPredictGroup(RunScratch* run);
  /// Records `count` requests of `type` that waited `micros` from
  /// admission to reply handed off: the request counter and the latency
  /// histogram.
  void Account(wire::MessageType type, double micros, uint64_t count);
  /// Sends one error frame with SendFrames (IO thread). False when the
  /// connection must be closed.
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
  /// Whether a micro-batch run may mix templates: true when this server
  /// answers from its own framework, false in front of another handler.
  const bool runs_span_templates_;

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

  /// The IO thread's run storage (IO thread only): a read's single-point
  /// PREDICTs are decoded straight into its items, and AdmitRun answers
  /// them from it (DESIGN.md §13).
  std::unique_ptr<RunScratch> io_run_;

  BoundedQueue<WorkItem> queue_;
  std::thread io_thread_;
  std::vector<std::thread> workers_;
  /// Owned by the IO thread exclusively (workers hold their own
  /// shared_ptr copies inside work items).
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;
  /// No connection has a deadline before this (IO thread only): the epoll
  /// timeout, and max() when none is armed. A read only lowers it, when it
  /// arms a frame deadline; the sweep recomputes it.
  Clock::time_point next_deadline_ = Clock::time_point::max();

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
    /// Micro-batching effectiveness: runs of two or more single-point
    /// PREDICTs a worker or the IO thread answered together, and the
    /// PREDICTs in them.
    MetricsCounter* microbatches = nullptr;
    MetricsCounter* microbatched_predicts = nullptr;
    /// PREDICTs the IO thread answered itself (AnswerRunInline).
    MetricsCounter* inline_predicts = nullptr;
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
    /// Connections the IO thread closed because a reply would have taken
    /// their outbox past max_frame_bytes: the other bound on a peer that
    /// does not read, beside the write deadline of timeouts_write.
    MetricsCounter* outbox_overflows = nullptr;
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

/// The predictor configuration of the serving stack: 5 transforms of 40
/// buckets, radius 0.05, an 80% confidence gate and a 64-plan cache. The
/// shards, the benches and the tests all build from it, because AdoptState
/// requires exact config equality: a warm-started shard must be built
/// from the same values as its leader.
PpcFramework::Config ServingConfig();

/// Installs SIGINT/SIGTERM handlers that trigger `server->Shutdown()`
/// asynchronously (the handler only writes to the server's wake eventfd —
/// async-signal-safe). At most one server per process may install
/// handlers; call after Start(). The caller should follow with Wait().
Status InstallShutdownSignalHandlers(PlanServer* server);

}  // namespace ppc

#endif  // PPC_SERVER_SERVER_H_
