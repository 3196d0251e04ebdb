#include "server/server.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "ppc/predictor_state.h"
#include "server/failpoints.h"
#include "server/net_util.h"

namespace ppc {

namespace {

using Clock = std::chrono::steady_clock;

/// Signal-handler plumbing: the handler may only do async-signal-safe
/// work, so it flags the request and writes the server's wake eventfd;
/// the IO thread notices and runs the ordinary Shutdown() path.
std::atomic<int> g_signal_wake_fd{-1};
std::atomic<bool> g_signal_pending{false};

void ShutdownSignalHandler(int /*signo*/) {
  g_signal_pending.store(true, std::memory_order_relaxed);
  const int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof(one));
  }
}

wire::WireStatus WireStatusFrom(const Status& status) {
  switch (status.code()) {
    case StatusCode::kNotFound:
      return wire::WireStatus::kNotFound;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return wire::WireStatus::kBadRequest;
    default:
      return wire::WireStatus::kInternal;
  }
}

/// Appends one error reply frame to `*out`.
void EncodeError(wire::MessageType type, uint64_t id, wire::WireStatus status,
                 const std::string& message, std::string* out) {
  wire::Response response;
  response.type = type;
  response.id = id;
  response.status = status;
  response.error = message;
  wire::EncodeResponse(response, out);
}

/// Requests whose only effect is their reply: a worker drops one whose
/// connection is already closed instead of answering it.
bool AnswerOnly(wire::MessageType type) {
  switch (type) {
    case wire::MessageType::kPredict:
    case wire::MessageType::kPredictBatch:
    case wire::MessageType::kPing:
    case wire::MessageType::kMetrics:
    case wire::MessageType::kSnapshot:
      return true;
    default:
      return false;
  }
}

bool SinglePointPredict(const wire::Request& request) {
  return request.type == wire::MessageType::kPredict &&
         !request.point.empty();
}

/// The framework handler: answers every request against one PpcFramework,
/// and counts the replication traffic it serves (server.replication.*).
class FrameworkHandler final : public RequestHandler {
 public:
  explicit FrameworkHandler(PpcFramework* framework) : framework_(framework) {
    PPC_CHECK(framework != nullptr);
    MetricsRegistry& metrics = framework_->metrics();
    instruments_.replication_snapshots_served =
        &metrics.counter("server.replication.snapshots_served");
    instruments_.replication_snapshot_bytes =
        &metrics.counter("server.replication.snapshot_bytes");
    instruments_.replication_applies =
        &metrics.counter("server.replication.applies");
    instruments_.replication_apply_failures =
        &metrics.counter("server.replication.apply_failures");
  }

  void Handle(const wire::Request& request, wire::Response* out) override;

 private:
  PpcFramework* const framework_;
  /// Replication: snapshots served to joining shards (count + bytes
  /// shipped), snapshots applied here via SNAPSHOT_APPLY, and apply
  /// rejections (corrupt/stale/mismatched blobs).
  struct {
    MetricsCounter* replication_snapshots_served = nullptr;
    MetricsCounter* replication_snapshot_bytes = nullptr;
    MetricsCounter* replication_applies = nullptr;
    MetricsCounter* replication_apply_failures = nullptr;
  } instruments_;
};

}  // namespace

/// Per-connection state. The IO thread owns reading (FrameBuffer), the
/// deadlines and the epoll registration. Replies go through the outbox
/// (DESIGN.md §16): any thread appends complete frames under a short
/// mutex, and the thread that finds no flush in progress becomes the
/// connection's one flusher, writing the outbox out until it is empty. No
/// thread queues behind another's socket write. A worker's flush blocks on
/// the socket under write_deadline_ms; the IO thread's never does: it
/// sends what the socket takes now and keeps the rest in `unsent`, which
/// it writes as epoll reports room. The fd is closed only by the
/// destructor, i.e. after the last in-flight work item released its
/// reference — so a flusher never writes to a recycled fd.
struct PlanServer::Connection {
  /// What a worker's Append does when the outbox is full (holds
  /// max_frame_bytes or more while a flush is running).
  enum class WhenFull {
    kWait,    ///< Wait for the flush to make room.
    kAppend,  ///< The worker holds an unflushed connection: append anyway.
  };

  /// What an Append left the caller to do.
  enum class Queued {
    kFlush,    ///< No flush was running: the caller now owns it; Flush().
    kQueued,   ///< The running flush writes the frames.
    kDropped,  ///< Closed.
  };

  Connection(int fd_in, PlanServer* server_in)
      : fd(fd_in), frames(server_in->config_.max_frame_bytes),
        server(server_in) {}
  ~Connection() { ::close(fd); }

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// A worker's append: moves complete frames (length prefixes included)
  /// onto the outbox, leaving `*frames_in` empty. Waiting workers make a
  /// peer that reads slowly slow down only its own repliers, and keep the
  /// outbox within the cap plus one append.
  Queued Append(std::string* frames_in, WhenFull when_full) {
    const size_t cap = server->config_.max_frame_bytes;
    std::unique_lock<std::mutex> lock(mu);
    if (when_full == WhenFull::kWait) {
      room.wait(lock,
                [&] { return closed || !flushing || outbox.size() < cap; });
    }
    if (closed) return Queued::kDropped;
    if (outbox.empty()) {
      outbox.swap(*frames_in);
    } else {
      outbox.append(*frames_in);
    }
    server->ObserveOutbox(outbox.size());
    if (flushing) return Queued::kQueued;
    flushing = true;
    return Queued::kFlush;
  }

  /// True when nothing is waiting to be written and no flush is running,
  /// so a reply written now would be the next bytes on the wire.
  bool Idle() {
    std::lock_guard<std::mutex> lock(mu);
    return !closed && !flushing && outbox.empty();
  }

  bool Closed() {
    std::lock_guard<std::mutex> lock(mu);
    return closed;
  }

  /// The IO thread's write of its frames: it never waits for room and
  /// never blocks on the socket. Behind a running flush, a worker's or its
  /// own, the frames are appended if they keep the outbox within the cap,
  /// and dropped if not. Otherwise the IO thread becomes the flusher for
  /// one non-blocking send of them, which no cap limits, as no cap limits a
  /// worker's first append; what the socket does not take stays in
  /// `unsent` for WriteUnsent. False when the frames were dropped or the
  /// send failed.
  bool SendWithoutBlocking(const std::string& frames_in) {
    const size_t cap = server->config_.max_frame_bytes;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (closed) return false;
      if (flushing) {
        if (outbox.size() + frames_in.size() > cap) {
          server->instruments_.outbox_overflows->Increment();
          return false;
        }
        outbox.append(frames_in);
        server->ObserveOutbox(outbox.size());
        return true;
      }
      flushing = true;
    }
    size_t sent = 0;
    const bool ok = SendNow(frames_in.data(), frames_in.size(), &sent);
    if (ok && sent < frames_in.size()) {
      unsent.assign(frames_in, sent);
      ArmWriteDeadline();
    }
    return EndSend(ok);
  }

  /// The IO thread's next send of `unsent`, when epoll reports the socket
  /// writable. False when it failed.
  bool WriteUnsent() {
    size_t sent = 0;
    const bool ok = SendNow(unsent.data(), unsent.size(), &sent);
    unsent.erase(0, sent);
    return EndSend(ok);
  }

  /// Poisons the connection when the IO thread gives up on its flush (a
  /// failed send, or the write deadline): a partly written frame can never
  /// be completed coherently, so the unsent bytes and the outbox are
  /// dropped and waiting appenders wake to find the connection closed.
  void Poison() { EndSend(false); }

  /// The IO loop is ending: the unsent bytes go back on the front of the
  /// outbox and the IO thread's flush ends, so the next worker to append
  /// takes them over (one waiting for room wakes to do so), or Wait()'s
  /// sweep writes them.
  void ReleaseUnsent() {
    if (unsent.empty()) return;
    {
      std::lock_guard<std::mutex> lock(mu);
      unsent.append(outbox);
      outbox.swap(unsent);
      unsent.clear();
      flushing = false;
    }
    room.notify_all();
  }

  /// Run by the thread Append handed kFlush, and by Wait()'s sweep. Each
  /// round swaps the outbox out under the mutex and writes it without the
  /// mutex, within the write deadline, until a round finds the outbox
  /// empty. A failed or timed-out write poisons the connection, as
  /// Poison() does. False when it is closed.
  bool Flush() {
    std::string batch;
    std::unique_lock<std::mutex> lock(mu);
    while (!outbox.empty()) {
      batch.swap(outbox);
      lock.unlock();
      room.notify_all();
      const Status st = net::WriteAll(
          fd, batch.data(), batch.size(),
          net::Deadline::AfterMsOrInfinite(server->config_.write_deadline_ms));
      server->instruments_.flushes->Increment();
      batch.clear();
      lock.lock();
      if (!st.ok()) {
        if (st.code() == StatusCode::kDeadlineExceeded) {
          server->instruments_.timeouts_write->Increment();
        }
        closed = true;
        outbox.clear();
      }
    }
    flushing = false;
    const bool open = !closed;
    lock.unlock();
    room.notify_all();
    return open;
  }

  /// Refuses every later append. A flush already running still writes
  /// what was appended before, so an explanatory frame survives the close.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
    }
    room.notify_all();
  }

  /// The earliest deadline armed on the connection (IO thread only): the
  /// write deadline while bytes are unsent, and the idle and frame
  /// deadlines while the connection is read.
  Clock::time_point NextDeadline() const {
    Clock::time_point due =
        unsent.empty() ? Clock::time_point::max() : write_deadline;
    if (!closing) due = std::min({due, idle_deadline, frame_deadline});
    return due;
  }

  const int fd;
  wire::FrameBuffer frames;
  PlanServer* const server;

  std::mutex mu;
  /// Signalled whenever the outbox is swapped out or the flush ends.
  std::condition_variable room;
  /// Guarded by mu. Invariant: a non-empty outbox has a flusher — a worker
  /// in Flush, or the IO thread while `unsent` is not empty — except after
  /// ReleaseUnsent, until a worker's append or Wait()'s sweep takes it.
  std::string outbox;
  bool flushing = false;
  bool closed = false;

  /// IO thread only. The bytes of the IO thread's flush that the socket
  /// has not taken yet (non-empty exactly while the IO thread is the
  /// flusher and waits for EPOLLOUT), and the deadline of the round they
  /// belong to: one round is what one send or one swap of the outbox took.
  std::string unsent;
  Clock::time_point write_deadline = Clock::time_point::max();
  /// IO thread only. idle_deadline advances on every inbound byte;
  /// frame_deadline is armed when a frame sits incomplete in the buffer
  /// and disarmed (max()) once it completes (slow-loris guard). max()
  /// means disabled.
  Clock::time_point idle_deadline = Clock::time_point::max();
  Clock::time_point frame_deadline = Clock::time_point::max();
  /// IO thread only: no longer read, kept only to write `unsent` out.
  bool closing = false;
  /// IO thread only: the events the fd is registered for.
  uint32_t events = EPOLLIN;

 private:
  /// One non-blocking send of `data`: an expired deadline makes WriteAll
  /// write what the socket takes now and report DeadlineExceeded for the
  /// rest instead of waiting. False when the send failed.
  bool SendNow(const char* data, size_t size, size_t* sent) {
    const Status st =
        net::WriteAll(fd, data, size, net::Deadline::AfterMs(0), sent);
    server->instruments_.flushes->Increment();
    return st.ok() || st.code() == StatusCode::kDeadlineExceeded;
  }

  /// Ends one of the IO thread's sends. A failed one poisons the
  /// connection. Otherwise, once `unsent` is written, the frames appended
  /// meanwhile become the next round's `unsent`, and the flush ends when
  /// there are none.
  bool EndSend(bool ok) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!ok) {
        closed = true;
        outbox.clear();
        unsent.clear();
        flushing = false;
      } else if (unsent.empty()) {
        if (outbox.empty()) {
          flushing = false;
        } else {
          unsent.swap(outbox);
          ArmWriteDeadline();
        }
      }
    }
    room.notify_all();
    return ok;
  }

  void ArmWriteDeadline() {
    const int64_t ms = server->config_.write_deadline_ms;
    write_deadline = ms > 0 ? Clock::now() + std::chrono::milliseconds(ms)
                            : Clock::time_point::max();
  }
};

struct PlanServer::WorkItem {
  /// Unset while the item waits in the IO thread's run: that run's
  /// connection is the one being read.
  std::shared_ptr<Connection> conn;
  wire::Request request;
  /// When the read that completed the request's frame returned.
  Clock::time_point admitted;
};

/// The storage a run is answered in (DESIGN.md §13), owned by the thread
/// that answers it and reused run after run: the IO thread's is a member
/// (io_run_), each worker's a WorkerLoop local. It holds the run's items,
/// their responses, the grouping state, one group's PREDICT_BATCH and its
/// answer, and the encoded replies. Each holds at most kMaxMicrobatch
/// entries or one group's points, and keeps its storage between runs, so
/// once warm a run of single-point PREDICTs is answered without a heap
/// allocation.
struct PlanServer::RunScratch {
  RunScratch() { group.reserve(kMaxMicrobatch); }

  /// Drops the items' connection references and empties the run. The
  /// requests and replies keep their storage for the next run, except
  /// those of a run of one other request (METRICS, SNAPSHOT, ...): its
  /// reply can be large, so it is freed, and what a run keeps stays within
  /// kMaxMicrobatch single-point PREDICTs or EXECUTEs and their replies.
  void Release() {
    for (size_t p = 0; p < size; ++p) items[p].conn.reset();
    if (size == 1 && items[0].request.type != wire::MessageType::kPredict) {
      items[0].request = wire::Request();
      responses[0] = wire::Response();
      frames = std::string();
    }
    size = 0;
  }

  std::array<WorkItem, kMaxMicrobatch> items;
  size_t size = 0;
  std::array<wire::Response, kMaxMicrobatch> responses;
  std::array<bool, kMaxMicrobatch> grouped{};
  /// The item indices of the group being answered.
  std::vector<size_t> group;
  wire::Request batch;
  wire::Response answer;
  std::string frames;
};

PlanServer::PlanServer(PpcFramework* framework, Config config)
    : owned_handler_(std::make_unique<FrameworkHandler>(framework)),
      handler_(owned_handler_.get()),
      metrics_(&framework->metrics()),
      config_(std::move(config)),
      runs_span_templates_(true),
      io_run_(std::make_unique<RunScratch>()),
      queue_(config_.queue_capacity) {}

PlanServer::PlanServer(RequestHandler* handler, MetricsRegistry* metrics,
                       Config config)
    : handler_(handler),
      metrics_(metrics),
      config_(std::move(config)),
      runs_span_templates_(false),
      io_run_(std::make_unique<RunScratch>()),
      queue_(config_.queue_capacity) {
  PPC_CHECK(handler != nullptr && metrics != nullptr);
}

PlanServer::~PlanServer() { Stop(); }

Status PlanServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  PPC_ASSIGN_OR_RETURN(
      listen_fd_,
      net::Listen(config_.bind_address, config_.port, /*backlog=*/128,
                  &port_));
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("eventfd failed");
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    ::close(listen_fd_);
    ::close(wake_fd_);
    listen_fd_ = wake_fd_ = -1;
    return Status::Internal("epoll_create1 failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  MetricsRegistry& metrics = *metrics_;
  instruments_.requests_predict = &metrics.counter("server.requests.predict");
  instruments_.requests_predict_batch =
      &metrics.counter("server.requests.predict_batch");
  instruments_.requests_execute = &metrics.counter("server.requests.execute");
  instruments_.requests_metrics = &metrics.counter("server.requests.metrics");
  instruments_.requests_ping = &metrics.counter("server.requests.ping");
  instruments_.requests_shutdown =
      &metrics.counter("server.requests.shutdown");
  instruments_.microbatches = &metrics.counter("server.microbatches");
  instruments_.microbatched_predicts =
      &metrics.counter("server.microbatched_predicts");
  instruments_.inline_predicts = &metrics.counter("server.inline_predicts");
  instruments_.responses_busy = &metrics.counter("server.responses.busy");
  instruments_.responses_error = &metrics.counter("server.responses.error");
  instruments_.frames_malformed = &metrics.counter("server.frames.malformed");
  instruments_.connections_accepted =
      &metrics.counter("server.connections.accepted");
  instruments_.connections_rejected =
      &metrics.counter("server.connections.rejected");
  instruments_.timeouts_idle = &metrics.counter("server.timeouts.idle");
  instruments_.timeouts_read = &metrics.counter("server.timeouts.read");
  instruments_.timeouts_write = &metrics.counter("server.timeouts.write");
  instruments_.outbox_overflows = &metrics.counter("server.outbox_overflows");
  instruments_.flushes = &metrics.counter("server.flushes");
  instruments_.outbox_peak_bytes = &metrics.gauge("server.outbox_peak_bytes");
  outbox_peak_bytes_.store(0, std::memory_order_relaxed);
  instruments_.outbox_peak_bytes->Set(0.0);
  instruments_.shed_enter_no_microbatch =
      &metrics.counter("server.shed.enter_no_microbatch");
  instruments_.shed_enter_abstain =
      &metrics.counter("server.shed.enter_abstain");
  instruments_.shed_recovered = &metrics.counter("server.shed.recovered");
  instruments_.shed_abstained_predicts =
      &metrics.counter("server.shed.abstained_predicts");
  instruments_.shutdown_swept = &metrics.counter("server.shutdown.swept");
  instruments_.requests_snapshot =
      &metrics.counter("server.requests.snapshot");
  instruments_.requests_snapshot_apply =
      &metrics.counter("server.requests.snapshot_apply");
  instruments_.replication_snapshot_us =
      &metrics.histogram("server.replication.snapshot_us");
  instruments_.replication_apply_us =
      &metrics.histogram("server.replication.apply_us");
  instruments_.predict_us = &metrics.histogram("server.predict_us");
  instruments_.predict_batch_us =
      &metrics.histogram("server.predict_batch_us");
  instruments_.execute_us = &metrics.histogram("server.execute_us");
  instruments_.metrics_us = &metrics.histogram("server.metrics_us");
  instruments_.ping_us = &metrics.histogram("server.ping_us");

  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { IoLoop(); });
  workers_.reserve(WorkerCount());
  for (size_t i = 0; i < WorkerCount(); ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

size_t PlanServer::queued_requests() const { return queue_.size(); }

size_t PlanServer::WorkerCount() const {
  return config_.worker_threads > 0
             ? static_cast<size_t>(config_.worker_threads)
             : 1;
}

void PlanServer::Shutdown() {
  if (!running_.load(std::memory_order_acquire)) return;
  draining_.store(true, std::memory_order_release);
  queue_.Close();
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

void PlanServer::Wait() {
  if (io_thread_.joinable()) io_thread_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // All threads are gone. Before the connections close, answer every
  // request that reached the wire but was never admitted — a pipelined
  // client must observe a reply (here: SHUTTING_DOWN) for every id it
  // sent, never a silent drop.
  SweepUnansweredOnShutdown();
  // Closing the remaining connections (fds close in the Connection
  // destructors) and the listener is single-threaded now.
  connections_.clear();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) {
    // Detach the signal handler's fd reference before the fd dies.
    int expected = wake_fd_;
    g_signal_wake_fd.compare_exchange_strong(expected, -1);
    ::close(wake_fd_);
  }
  epoll_fd_ = listen_fd_ = wake_fd_ = -1;
  running_.store(false, std::memory_order_release);
}

void PlanServer::Stop() {
  Shutdown();
  Wait();
}

namespace {

/// The deadline sweep runs at most this often: a deadline fires between
/// its time and one interval later, an order of magnitude below the
/// shortest sensible connection timeout.
constexpr auto kSweepInterval = std::chrono::milliseconds(50);

}  // namespace

void PlanServer::TouchConnActivity(Connection* conn) {
  const Clock::time_point now = Clock::now();
  if (config_.idle_timeout_ms > 0) {
    conn->idle_deadline =
        now + std::chrono::milliseconds(config_.idle_timeout_ms);
  }
  if (config_.read_deadline_ms <= 0 || conn->frames.buffered_bytes() == 0) {
    conn->frame_deadline = Clock::time_point::max();
  } else if (conn->frame_deadline == Clock::time_point::max()) {
    conn->frame_deadline =
        now + std::chrono::milliseconds(config_.read_deadline_ms);
    next_deadline_ = std::min(next_deadline_, conn->frame_deadline);
  }
  // An already-armed frame deadline keeps ticking: progress on the *same*
  // frame must not extend it, or a slow-loris peer could dribble forever.
  // The idle deadline only moves later, so next_deadline_ stays a bound.
}

void PlanServer::SweepDeadlines(Clock::time_point now,
                                std::vector<int>* expired) {
  next_deadline_ = Clock::time_point::max();
  expired->clear();
  for (const auto& [fd, conn] : connections_) {
    const Clock::time_point due = conn->NextDeadline();
    if (due <= now) {
      expired->push_back(fd);
    } else {
      next_deadline_ = std::min(next_deadline_, due);
    }
  }
  for (const int fd : *expired) {
    const std::shared_ptr<Connection> conn = connections_.at(fd);
    if (!conn->unsent.empty() && now >= conn->write_deadline) {
      instruments_.timeouts_write->Increment();
      conn->Poison();
      CloseConnection(conn);
      continue;
    }
    const bool frame_timed_out = now >= conn->frame_deadline;
    if (frame_timed_out) {
      instruments_.timeouts_read->Increment();
    } else {
      instruments_.timeouts_idle->Increment();
    }
    // Best-effort explanation, then drop: the peer proved it cannot keep
    // the stream moving, and half-read frames cannot be resumed.
    SendError(conn, wire::MessageType::kInvalid, 0, wire::WireStatus::kTimeout,
              frame_timed_out ? "read deadline exceeded"
                              : "idle timeout exceeded");
    CloseConnection(conn);
  }
}

void PlanServer::IoLoop() {
  std::vector<epoll_event> events(64);
  std::vector<int> expired;
  next_deadline_ = Clock::time_point::max();
  Clock::time_point now = Clock::now();
  Clock::time_point last_sweep = now;
  while (!draining_.load(std::memory_order_acquire)) {
    // Sleep until the earliest armed deadline, but sweep at most once per
    // interval; with no deadline armed, only an event wakes the loop.
    int timeout_ms = -1;
    if (next_deadline_ != Clock::time_point::max()) {
      const Clock::time_point due =
          std::max(next_deadline_, last_sweep + kSweepInterval);
      timeout_ms = due <= now
                       ? 0
                       : static_cast<int>(
                             std::chrono::ceil<std::chrono::milliseconds>(
                                 due - now)
                                 .count());
    }
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0 && errno != EINTR) break;
    // The IO thread answers a connection's PREDICTs itself only when that
    // connection is the one this wake reported readable (AdmitRun).
    int ready_connections = 0;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[i].data.fd;
      if (fd != wake_fd_ && fd != listen_fd_ &&
          (events[i].events & EPOLLIN) != 0) {
        ++ready_connections;
      }
    }
    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        if (g_signal_pending.exchange(false, std::memory_order_relaxed)) {
          Shutdown();
        }
        continue;
      }
      if (fd == listen_fd_) {
        AcceptConnections();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      const std::shared_ptr<Connection> conn = it->second;
      const uint32_t ready = events[i].events;
      bool open = (ready & (EPOLLHUP | EPOLLERR)) == 0;
      // A hung-up peer reads nothing more: unsent bytes are dropped.
      if (!open && !conn->unsent.empty()) conn->Poison();
      if (open && (ready & EPOLLOUT) != 0) open = conn->WriteUnsent();
      if (open && (ready & EPOLLIN) != 0 && !conn->closing) {
        open = ReadOnce(conn, ready_connections == 1);
        if (open) TouchConnActivity(conn.get());
      }
      if (open) {
        Watch(conn);
      } else {
        CloseConnection(conn);
      }
    }
    now = Clock::now();
    if (now >= next_deadline_ && now >= last_sweep + kSweepInterval) {
      SweepDeadlines(now, &expired);
      last_sweep = now;
    }
  }
  for (const auto& [fd, conn] : connections_) conn->ReleaseUnsent();
}

void PlanServer::AcceptConnections() {
  while (true) {
    const failpoints::Action fault =
        failpoints::Hit(failpoints::Site::kAccept);
    failpoints::MaybeStall(fault);
    if (fault.kind == failpoints::Kind::kError) {
      // Simulated transient accept failure (EMFILE and friends): give up
      // on this readiness wave; level-triggered epoll retries.
      return;
    }
    const int cfd = ::accept4(listen_fd_, nullptr, nullptr,
                              SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or transient accept failure.
    }
    if (connections_.size() >= config_.max_connections) {
      instruments_.connections_rejected->Increment();
      ::close(cfd);
      continue;
    }
    const int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = cfd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, cfd, &ev) != 0) {
      ::close(cfd);
      continue;
    }
    auto conn = std::make_shared<Connection>(cfd, this);
    if (config_.idle_timeout_ms > 0) {
      conn->idle_deadline =
          Clock::now() + std::chrono::milliseconds(config_.idle_timeout_ms);
      next_deadline_ = std::min(next_deadline_, conn->idle_deadline);
    }
    connections_.emplace(cfd, std::move(conn));
    instruments_.connections_accepted->Increment();
  }
}

bool PlanServer::ReadOnce(const std::shared_ptr<Connection>& conn,
                          bool sole_ready) {
  char buffer[16 * 1024];
  size_t received = 0;
  switch (net::RecvNonBlocking(conn->fd, buffer, sizeof(buffer),
                               &received)) {
    case net::RecvOutcome::kData:
      conn->frames.Append(buffer, received);
      return ProcessFrames(conn, sole_ready);
    case net::RecvOutcome::kWouldBlock:
      return true;
    case net::RecvOutcome::kEof:
    case net::RecvOutcome::kError:
      break;
  }
  return false;
}

bool PlanServer::ProcessFrames(const std::shared_ptr<Connection>& conn,
                               bool sole_ready) {
  const Clock::time_point read_at = Clock::now();
  RunScratch& run = *io_run_;
  std::string_view payload;
  while (true) {
    Result<bool> next = conn->frames.Next(&payload);
    if (!next.ok()) {
      // Framing violation: the stream is unrecoverable. Answer what was
      // decoded before it, then one explanatory error frame, then drop the
      // connection.
      AdmitRun(conn, sole_ready);
      instruments_.frames_malformed->Increment();
      SendError(conn, wire::MessageType::kInvalid, 0,
                wire::WireStatus::kBadRequest, next.status().message());
      return false;
    }
    if (!next.value()) return AdmitRun(conn, sole_ready);
    // Each frame is decoded in place into the run's next free item, whose
    // request keeps its storage from earlier runs.
    WorkItem& item = run.items[run.size];
    const Status decoded = wire::DecodeRequest(payload, &item.request);
    if (!decoded.ok()) {
      AdmitRun(conn, sole_ready);
      instruments_.frames_malformed->Increment();
      SendError(conn, wire::MessageType::kInvalid, 0,
                wire::WireStatus::kBadRequest, decoded.message());
      return false;
    }
    item.admitted = read_at;
    // In front of its own framework, the single-point PREDICTs of one read
    // form runs (up to kMaxMicrobatch) that AdmitRun may answer here.
    if (runs_span_templates_ && SinglePointPredict(item.request)) {
      if (++run.size == kMaxMicrobatch && !AdmitRun(conn, sole_ready)) {
        return false;
      }
      continue;
    }
    // Any other request leaves the run's storage for the queue, after the
    // run decoded ahead of it (AdmitRun answers only the items below it).
    if (!AdmitRun(conn, sole_ready) ||
        !Admit(conn, WorkItem{conn, std::move(item.request), read_at})) {
      return false;
    }
  }
}

bool PlanServer::AdmitRun(const std::shared_ptr<Connection>& conn,
                          bool sole_ready) {
  RunScratch& run = *io_run_;
  if (run.size == 0) return true;
  bool open = true;
  if (sole_ready && shed_.level() == net::ShedController::kNormal &&
      queue_.size() == 0 && !draining_.load(std::memory_order_acquire) &&
      conn->Idle()) {
    open = AnswerRunInline(conn);
  } else {
    for (size_t p = 0; p < run.size; ++p) {
      WorkItem& item = run.items[p];
      if (!Admit(conn,
                 WorkItem{conn, std::move(item.request), item.admitted})) {
        open = false;
        break;
      }
    }
  }
  run.size = 0;
  return open;
}

bool PlanServer::AnswerRunInline(const std::shared_ptr<Connection>& conn) {
  RunScratch& run = *io_run_;
  AnswerRun(&run);
  run.frames.clear();
  for (size_t p = 0; p < run.size; ++p) {
    wire::EncodeResponse(run.responses[p], &run.frames);
  }
  // Counted before the write, so a peer that has read an answer sees it
  // counted.
  instruments_.inline_predicts->Increment(run.size);
  const bool open = SendFrames(conn, run.frames);
  CountRun(run);
  return open;
}

bool PlanServer::Admit(const std::shared_ptr<Connection>& conn,
                       WorkItem item) {
  const wire::MessageType type = item.request.type;
  const uint64_t id = item.request.id;
  // Degradation ladder: fold this admission's queue occupancy into the
  // shed controller, and at the abstain rung answer single-point
  // PREDICTs from here — the predictor's abstain shape costs nothing
  // and the client falls back to its own optimizer (DESIGN.md §14).
  const net::ShedController::Level level = UpdateShedLevel();
  if (level >= net::ShedController::kAbstainPredict &&
      type == wire::MessageType::kPredict) {
    return SendShedAbstain(conn, id);
  }
  const bool enqueue_fault =
      failpoints::Hit(failpoints::Site::kEnqueue).kind ==
      failpoints::Kind::kError;
  if (!enqueue_fault && queue_.TryPush(std::move(item))) return true;
  // Backpressure: reject now rather than buffer without bound.
  const bool draining = draining_.load(std::memory_order_acquire);
  instruments_.responses_busy->Increment();
  return SendError(conn, type, id,
                   draining ? wire::WireStatus::kShuttingDown
                            : wire::WireStatus::kBusy,
                   draining ? "server shutting down" : "request queue full");
}

net::ShedController::Level PlanServer::UpdateShedLevel() {
  const double capacity = static_cast<double>(config_.queue_capacity);
  const double occupancy =
      capacity > 0.0
          ? std::min(1.0, static_cast<double>(queue_.size()) / capacity)
          : 1.0;
  const net::ShedController::Level level = shed_.Observe(occupancy);
  if (level != prev_shed_level_) {
    if (level > prev_shed_level_) {
      // Count every rung entered, even when pressure jumps two at once.
      if (prev_shed_level_ < net::ShedController::kNoMicrobatch &&
          level >= net::ShedController::kNoMicrobatch) {
        instruments_.shed_enter_no_microbatch->Increment();
      }
      if (level >= net::ShedController::kAbstainPredict) {
        instruments_.shed_enter_abstain->Increment();
      }
    } else {
      instruments_.shed_recovered->Increment();
    }
    prev_shed_level_ = level;
  }
  return level;
}

bool PlanServer::SendShedAbstain(const std::shared_ptr<Connection>& conn,
                                 uint64_t id) {
  wire::Response response;
  response.type = wire::MessageType::kPredict;
  response.id = id;
  // Identical on the wire to a genuine predictor abstention: NULL plan,
  // zero confidence, OK status.
  std::string frame;
  wire::EncodeResponse(response, &frame);
  // Count before the write: an observer who has seen the response (a
  // test polling the counter, an operator correlating with client logs)
  // must also see it counted.
  instruments_.shed_abstained_predicts->Increment();
  return SendFrames(conn, frame);
}

void PlanServer::SweepUnansweredOnShutdown() {
  char buffer[16 * 1024];
  std::string_view payload;
  wire::Request request;
  std::string replies;
  for (auto& [fd, conn] : connections_) {
    // What the IO thread handed back when its loop ended goes out first.
    conn->Flush();
    if (conn->closing) continue;
    // Pull whatever arrived after the IO loop stopped reading (bounded:
    // the kernel receive buffer), then deframe and answer each complete
    // request. Decode failures and framing violations just end the sweep
    // for this connection — it is closing anyway.
    bool reading = true;
    while (reading) {
      size_t received = 0;
      switch (net::RecvNonBlocking(fd, buffer, sizeof(buffer), &received)) {
        case net::RecvOutcome::kData:
          conn->frames.Append(buffer, received);
          break;
        case net::RecvOutcome::kWouldBlock:
        case net::RecvOutcome::kEof:
        case net::RecvOutcome::kError:
          reading = false;
          break;
      }
    }
    replies.clear();
    while (true) {
      Result<bool> next = conn->frames.Next(&payload);
      if (!next.ok() || !next.value()) break;
      if (!wire::DecodeRequest(payload, &request).ok()) break;
      EncodeError(request.type, request.id, wire::WireStatus::kShuttingDown,
                  "server shutting down", &replies);
      instruments_.shutdown_swept->Increment();
    }
    if (!replies.empty() &&
        conn->Append(&replies, Connection::WhenFull::kAppend) ==
            Connection::Queued::kFlush) {
      conn->Flush();
    }
  }
}

void PlanServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  conn->Close();
  conn->closing = true;
  // The fd itself closes in ~Connection, once in-flight work items drop
  // their references.
  Watch(conn);
}

void PlanServer::Watch(const std::shared_ptr<Connection>& conn) {
  const bool writing = !conn->unsent.empty();
  if (conn->closing && !writing) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    connections_.erase(conn->fd);
    return;
  }
  uint32_t events = 0;
  if (!conn->closing) events |= EPOLLIN;
  if (writing) events |= EPOLLOUT;
  if (events == conn->events) return;
  if (writing) next_deadline_ = std::min(next_deadline_, conn->write_deadline);
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->events = events;
}

bool PlanServer::SendFrames(const std::shared_ptr<Connection>& conn,
                            const std::string& frames) {
  if (!conn->SendWithoutBlocking(frames)) return false;
  Watch(conn);
  return true;
}

bool PlanServer::SendError(const std::shared_ptr<Connection>& conn,
                           wire::MessageType type, uint64_t id,
                           wire::WireStatus status,
                           const std::string& message) {
  std::string frame;
  EncodeError(type, id, status, message, &frame);
  return SendFrames(conn, frame);
}

void PlanServer::ObserveOutbox(size_t bytes) {
  if (bytes <= outbox_peak_bytes_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(outbox_peak_mu_);
  if (bytes <= outbox_peak_bytes_.load(std::memory_order_relaxed)) return;
  outbox_peak_bytes_.store(bytes, std::memory_order_relaxed);
  instruments_.outbox_peak_bytes->Set(static_cast<double>(bytes));
}

void FrameworkHandler::Handle(const wire::Request& request,
                              wire::Response* out) {
  wire::Response& response = *out;
  response.type = request.type;
  response.id = request.id;
  switch (request.type) {
    case wire::MessageType::kPing:
    case wire::MessageType::kShutdown:
      break;
    case wire::MessageType::kPredict: {
      const Status predicted = framework_->PredictBatchInto(
          request.template_name, request.point.data(), 1,
          request.point.size(), &response.predict);
      if (!predicted.ok()) {
        response.status = WireStatusFrom(predicted);
        response.error = predicted.message();
      }
      break;
    }
    case wire::MessageType::kExecute: {
      Result<PpcFramework::QueryReport> report =
          framework_->ExecuteAtPoint(request.template_name, request.point);
      if (!report.ok()) {
        response.status = WireStatusFrom(report.status());
        response.error = report.status().message();
        break;
      }
      const PpcFramework::QueryReport& r = report.value();
      response.execute.executed_plan = r.executed_plan;
      response.execute.optimal_plan = r.optimal_plan;
      response.execute.used_prediction = r.used_prediction;
      response.execute.cache_hit = r.cache_hit;
      response.execute.optimizer_invoked = r.optimizer_invoked;
      response.execute.prediction_evicted = r.prediction_evicted;
      response.execute.negative_feedback_triggered =
          r.negative_feedback_triggered;
      response.execute.execution_cost = r.execution_cost;
      response.execute.optimize_micros = r.optimize_micros;
      response.execute.predict_micros = r.predict_micros;
      response.execute.execute_micros = r.execute_micros;
      break;
    }
    case wire::MessageType::kPredictBatch: {
      // The answers go straight into the reply: the batch vector keeps the
      // storage of the run's earlier groups.
      response.batch.resize(request.batch_count());
      const Status predicted = framework_->PredictBatchInto(
          request.template_name, request.batch_points.data(),
          request.batch_count(), request.batch_dims, response.batch.data());
      if (!predicted.ok()) {
        response.batch.clear();
        response.status = WireStatusFrom(predicted);
        response.error = predicted.message();
      }
      break;
    }
    case wire::MessageType::kMetrics:
      response.metrics_json = framework_->MetricsSnapshot().ToJson();
      break;
    case wire::MessageType::kSnapshot: {
      // Replication pull: ship every template's predictor state. The
      // capture is read-side only (per-predictor shared locks), so
      // serving traffic is never paused by a joining shard.
      response.snapshot_blob = PredictorState::Capture(*framework_).Serialize();
      instruments_.replication_snapshots_served->Increment();
      instruments_.replication_snapshot_bytes->Increment(
          response.snapshot_blob.size());
      break;
    }
    case wire::MessageType::kSnapshotApply: {
      Result<PredictorState> state =
          PredictorState::Restore(request.snapshot_blob);
      if (!state.ok()) {
        response.status = WireStatusFrom(state.status());
        response.error = state.status().message();
        instruments_.replication_apply_failures->Increment();
        break;
      }
      Result<PredictorState::ApplyReport> report =
          state.value().ApplyTo(framework_);
      if (!report.ok()) {
        response.status = WireStatusFrom(report.status());
        response.error = report.status().message();
        instruments_.replication_apply_failures->Increment();
        break;
      }
      response.snapshot_applied =
          static_cast<uint32_t>(report.value().templates_applied);
      instruments_.replication_applies->Increment();
      break;
    }
    case wire::MessageType::kTopology:
      response.status = wire::WireStatus::kBadRequest;
      response.error = "topology operations are handled by the router";
      break;
    case wire::MessageType::kInvalid:
      response.status = wire::WireStatus::kBadRequest;
      response.error = "invalid message type";
      break;
  }
}

void PlanServer::AnswerRun(RunScratch* run) {
  const size_t count = run->size;
  if (config_.pre_dispatch_hook) {
    for (size_t p = 0; p < count; ++p) {
      config_.pre_dispatch_hook(run->items[p].request.type);
    }
  }
  for (size_t p = 0; p < count; ++p) {
    run->responses[p].Clear();
    run->grouped[p] = false;
  }
  // One PREDICT_BATCH per (template, arity) group, in order of first
  // appearance.
  for (size_t first = 0; first < count; ++first) {
    if (run->grouped[first]) continue;
    const wire::Request& head = run->items[first].request;
    run->group.clear();
    for (size_t p = first; p < count; ++p) {
      const wire::Request& request = run->items[p].request;
      if (!run->grouped[p] && request.template_name == head.template_name &&
          request.point.size() == head.point.size()) {
        run->grouped[p] = true;
        run->group.push_back(p);
      }
    }
    AnswerPredictGroup(run);
  }
}

void PlanServer::ProcessRun(RunScratch* run) {
  failpoints::MaybeStall(failpoints::Hit(failpoints::Site::kDispatch));
  if (run->items[0].request.type == wire::MessageType::kExecute) {
    // One connection's EXECUTEs, answered one by one in queue order, each
    // as it would be in a run of its own.
    for (size_t p = 0; p < run->size; ++p) {
      if (config_.pre_dispatch_hook) {
        config_.pre_dispatch_hook(wire::MessageType::kExecute);
      }
      run->responses[p].Clear();
      handler_->Handle(run->items[p].request, &run->responses[p]);
    }
  } else {
    AnswerRun(run);
  }
  // Append every reply first, then flush each connection this worker was
  // handed once, so a run's replies to one connection leave in one write.
  // While it holds an unflushed connection the worker must not wait for
  // outbox room: the flush it would wait on might be its own, or held by
  // a worker waiting on one of this worker's connections.
  std::array<Connection*, kMaxMicrobatch> to_flush;
  size_t flushes = 0;
  run->frames.clear();
  for (size_t p = 0; p < run->size; ++p) {
    wire::EncodeResponse(run->responses[p], &run->frames);
    Connection* conn = run->items[p].conn.get();
    // Consecutive replies to one connection go in one append.
    if (p + 1 < run->size && run->items[p + 1].conn.get() == conn) continue;
    const Connection::WhenFull when_full =
        flushes == 0 ? Connection::WhenFull::kWait
                     : Connection::WhenFull::kAppend;
    if (conn->Append(&run->frames, when_full) == Connection::Queued::kFlush) {
      to_flush[flushes++] = conn;
    }
    run->frames.clear();
  }
  for (size_t i = 0; i < flushes; ++i) to_flush[i]->Flush();
  CountRun(*run);
  // Only single-point PREDICTs and one connection's EXECUTEs join a run,
  // so a SHUTDOWN is a run of one.
  if (run->responses[0].type == wire::MessageType::kShutdown &&
      run->responses[0].ok()) {
    // Ack already on the outbox; now start the drain. Everything admitted
    // before this point still completes, and every flush finishes before
    // its worker exits.
    Shutdown();
  }
}

void PlanServer::CountRun(const RunScratch& run) {
  // One clock read for the run: its replies were handed off together. A
  // stretch of items of one type admitted by the same read (all of an
  // inline run) shares one latency, and is recorded at once.
  const Clock::time_point now = Clock::now();
  uint64_t errors = 0;
  size_t first = 0;
  for (size_t p = 0; p < run.size; ++p) {
    if (!run.responses[p].ok()) ++errors;
    const WorkItem& head = run.items[first];
    if (p + 1 < run.size &&
        run.items[p + 1].request.type == head.request.type &&
        run.items[p + 1].admitted == head.admitted) {
      continue;
    }
    Account(head.request.type,
            std::chrono::duration<double, std::micro>(now - head.admitted)
                .count(),
            p + 1 - first);
    first = p + 1;
  }
  if (errors > 0) instruments_.responses_error->Increment(errors);
  // PREDICT runs only: server.microbatch_share divides these by PREDICTs.
  // An EXECUTE run shows in server.flushes instead.
  if (run.size >= 2 &&
      run.items[0].request.type == wire::MessageType::kPredict) {
    instruments_.microbatches->Increment();
    instruments_.microbatched_predicts->Increment(run.size);
  }
}

void PlanServer::AnswerPredictGroup(RunScratch* run) {
  const std::vector<size_t>& group = run->group;
  const WorkItem* items = run->items.data();
  wire::Response* responses = run->responses.data();
  if (group.size() == 1) {
    handler_->Handle(items[group[0]].request, &responses[group[0]]);
    return;
  }
  const wire::Request& head = items[group[0]].request;
  wire::Request& batch = run->batch;
  batch.type = wire::MessageType::kPredictBatch;
  batch.id = head.id;
  batch.template_name = head.template_name;
  batch.batch_dims = static_cast<uint32_t>(head.point.size());
  batch.batch_points.clear();
  for (const size_t p : group) {
    batch.batch_points.insert(batch.batch_points.end(),
                              items[p].request.point.begin(),
                              items[p].request.point.end());
  }
  wire::Response& answer = run->answer;
  answer.Clear();
  handler_->Handle(batch, &answer);
  const bool rejected = answer.status == wire::WireStatus::kBadRequest ||
                        answer.status == wire::WireStatus::kNotFound;
  if (answer.ok() ? answer.batch.size() != group.size() : rejected) {
    // A rejection of the request (unknown template, bad arity, non-finite
    // coordinate) must not fail items that would succeed alone: answer
    // each request on its own instead. Any other failure (a shard behind
    // the router is down or timed out) would recur per item, so the
    // batch's error answers every item of the group.
    for (const size_t p : group) {
      handler_->Handle(items[p].request, &responses[p]);
    }
    return;
  }
  for (size_t k = 0; k < group.size(); ++k) {
    wire::Response& response = responses[group[k]];
    response.type = wire::MessageType::kPredict;
    response.id = items[group[k]].request.id;
    if (answer.ok()) {
      response.predict = answer.batch[k];
    } else {
      response.status = answer.status;
      response.error = answer.error;
    }
  }
}

void PlanServer::Account(wire::MessageType type, double micros,
                         uint64_t count) {
  switch (type) {
    case wire::MessageType::kPredict:
      instruments_.requests_predict->Increment(count);
      instruments_.predict_us->Record(micros, count);
      break;
    case wire::MessageType::kPredictBatch:
      instruments_.requests_predict_batch->Increment(count);
      instruments_.predict_batch_us->Record(micros, count);
      break;
    case wire::MessageType::kExecute:
      instruments_.requests_execute->Increment(count);
      instruments_.execute_us->Record(micros, count);
      break;
    case wire::MessageType::kMetrics:
      instruments_.requests_metrics->Increment(count);
      instruments_.metrics_us->Record(micros, count);
      break;
    case wire::MessageType::kPing:
      instruments_.requests_ping->Increment(count);
      instruments_.ping_us->Record(micros, count);
      break;
    case wire::MessageType::kShutdown:
      instruments_.requests_shutdown->Increment(count);
      break;
    case wire::MessageType::kSnapshot:
      instruments_.requests_snapshot->Increment(count);
      instruments_.replication_snapshot_us->Record(micros, count);
      break;
    case wire::MessageType::kSnapshotApply:
      instruments_.requests_snapshot_apply->Increment(count);
      instruments_.replication_apply_us->Record(micros, count);
      break;
    case wire::MessageType::kTopology:
    case wire::MessageType::kInvalid:
      break;
  }
}

void PlanServer::WorkerLoop() {
  // Made for the first run this worker answers: behind an IO thread that
  // answers every PREDICT itself, a worker may never need one.
  std::unique_ptr<RunScratch> run;
  while (std::optional<WorkItem> item = queue_.Pop()) {
    // Dead work: nobody reads the reply of a request whose connection the
    // IO thread already closed. Requests with effects still run.
    if (AnswerOnly(item->request.type) && item->conn->Closed()) continue;
    if (run == nullptr) run = std::make_unique<RunScratch>();
    run->items[run->size++] = std::move(*item);
    // Opportunistic runs: after popping a single-point PREDICT or an
    // EXECUTE, take the requests queued right behind it that may join it
    // (never blocking), stopping at the first that may not, and answer
    // them as one run. Single-point PREDICTs join a PREDICT, up to
    // kMaxMicrobatch. In front of its own framework they may be of any
    // template. In front of another handler (the router's forwards) only
    // the head's template and arity join: a forward blocks the worker, and
    // a mixed run would make one template's answers wait behind another
    // shard's round trip, or a hung shard's deadline. A zero-arity point
    // cannot form a PREDICT_BATCH. EXECUTEs of the head's connection join
    // an EXECUTE, in front of its own framework only (each would be a
    // blocking forward in front of the router), up to this worker's fair
    // share of the queue: a worker that took a pipelined window whole
    // would leave the others idle (DESIGN.md §13). Anything else stays
    // queued for the other workers. The first shed rung turns runs off —
    // under sustained pressure one slow run must not grow head-of-line
    // latency (DESIGN.md §14).
    const WorkItem& head = run->items[0];
    const bool predicts = SinglePointPredict(head.request);
    const bool executes = runs_span_templates_ &&
                          head.request.type == wire::MessageType::kExecute;
    if (shed_.level() < net::ShedController::kNoMicrobatch &&
        (predicts || executes)) {
      const size_t cap =
          predicts ? kMaxMicrobatch
                   : std::min(kMaxMicrobatch,
                              (queue_.size() + WorkerCount()) / WorkerCount());
      const auto joins_run = [&](const WorkItem& next) {
        if (executes) {
          return next.request.type == wire::MessageType::kExecute &&
                 next.conn == head.conn;
        }
        return SinglePointPredict(next.request) &&
               (runs_span_templates_ ||
                (next.request.template_name == head.request.template_name &&
                 next.request.point.size() == head.request.point.size()));
      };
      while (run->size < cap) {
        std::optional<WorkItem> extra = queue_.TryPopIf(joins_run);
        if (!extra.has_value()) break;
        if (AnswerOnly(extra->request.type) && extra->conn->Closed()) {
          continue;
        }
        run->items[run->size++] = std::move(*extra);
      }
    }
    ProcessRun(run.get());
    // Drop the connection references before blocking in Pop: the last
    // one closes the fd of a connection the IO thread already closed, and
    // its peer is waiting for that EOF.
    run->Release();
  }
}

PpcFramework::Config ServingConfig() {
  PpcFramework::Config cfg;
  cfg.online.predictor.transform_count = 5;
  cfg.online.predictor.histogram_buckets = 40;
  cfg.online.predictor.radius = 0.05;
  cfg.online.predictor.confidence_threshold = 0.8;
  cfg.online.predictor.noise_fraction = 0.002;
  cfg.online.estimator_window = 100;
  cfg.plan_cache_capacity = 64;
  return cfg;
}

Status InstallShutdownSignalHandlers(PlanServer* server) {
  if (server == nullptr || !server->running()) {
    return Status::FailedPrecondition(
        "install signal handlers after a successful Start()");
  }
  g_signal_wake_fd.store(server->wake_fd_, std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = &ShutdownSignalHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  if (::sigaction(SIGINT, &sa, nullptr) != 0 ||
      ::sigaction(SIGTERM, &sa, nullptr) != 0) {
    return Status::Internal("sigaction failed");
  }
  return Status::OK();
}

}  // namespace ppc
