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
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "ppc/predictor_state.h"
#include "server/failpoints.h"
#include "server/net_util.h"
#include "server/timer_wheel.h"

namespace ppc {

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

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

  wire::Response Handle(const wire::Request& request,
                        size_t worker_index) override;

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

/// Per-connection state. The IO thread owns reading (FrameBuffer) and the
/// deadline bookkeeping. Replies go through the outbox (DESIGN.md §16):
/// any thread appends complete frames under a short mutex, and the thread
/// that finds no flush in progress becomes the connection's one flusher,
/// writing the outbox out until it is empty. No thread queues behind
/// another's socket write. The fd is closed only by the destructor, i.e.
/// after the last in-flight work item released its reference — so a
/// flusher never writes to a recycled fd.
struct PlanServer::Connection {
  /// What Append does when the outbox is full (holds max_frame_bytes or
  /// more while a flush is running).
  enum class WhenFull {
    kWait,    ///< A worker: wait for the flush to make room.
    kAppend,  ///< A worker holding an unflushed connection: append anyway.
    kDrop,    ///< The IO thread: never wait; drop if it would pass the cap.
  };

  /// What an Append left the caller to do.
  enum class Queued {
    kFlush,    ///< No flush was running: the caller now owns it; Flush().
    kQueued,   ///< The running flush writes the frames.
    kDropped,  ///< Closed, or dropped under WhenFull::kDrop.
  };

  Connection(int fd_in, PlanServer* server_in)
      : fd(fd_in), frames(server_in->config_.max_frame_bytes),
        server(server_in) {}
  ~Connection() { ::close(fd); }

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Moves complete frames (length prefixes included) onto the outbox,
  /// leaving `*frames_in` empty. Waiting workers make a peer that reads
  /// slowly slow down only its own repliers, and keep the outbox within
  /// the cap plus one append. The IO thread never waits: frames that would
  /// take the outbox past the cap come back kDropped, and it closes the
  /// connection instead of stalling every other one.
  Queued Append(std::string* frames_in, WhenFull when_full) {
    const size_t cap = server->config_.max_frame_bytes;
    std::unique_lock<std::mutex> lock(mu);
    if (when_full == WhenFull::kWait) {
      room.wait(lock,
                [&] { return closed || !flushing || outbox.size() < cap; });
    } else if (when_full == WhenFull::kDrop &&
               outbox.size() + frames_in->size() > cap) {
      return Queued::kDropped;
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

  /// Run by the thread Append handed kFlush. Each round swaps the outbox
  /// out under the mutex and writes it without the mutex, within the
  /// write deadline, until a round finds the outbox empty. A failed or
  /// timed-out write poisons the connection: a partly written frame can
  /// never be completed coherently, so the outbox is dropped and waiting
  /// appenders wake to find the connection closed. False when it is closed.
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

  /// Append, then Flush when handed the flush. False when the frames were
  /// dropped or the flush left the connection closed.
  bool Send(std::string* frames_in, WhenFull when_full) {
    switch (Append(frames_in, when_full)) {
      case Queued::kFlush:
        return Flush();
      case Queued::kQueued:
        return true;
      case Queued::kDropped:
        break;
    }
    return false;
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

  const int fd;
  wire::FrameBuffer frames;
  PlanServer* const server;

  std::mutex mu;
  /// Signalled whenever the outbox is swapped out or the flush ends.
  std::condition_variable room;
  /// Guarded by mu. Invariant: a non-empty outbox has a flusher.
  std::string outbox;
  bool flushing = false;
  bool closed = false;

  /// Deadline state, IO thread only. idle_deadline advances on every
  /// inbound byte; frame_deadline is armed when a frame sits incomplete
  /// in the buffer and cleared once it completes (slow-loris guard).
  Clock::time_point idle_deadline{};
  Clock::time_point frame_deadline{};
  bool frame_pending = false;
};

struct PlanServer::WorkItem {
  std::shared_ptr<Connection> conn;
  wire::Request request;
  Clock::time_point admitted;
};

PlanServer::PlanServer(PpcFramework* framework, Config config)
    : owned_handler_(std::make_unique<FrameworkHandler>(framework)),
      handler_(owned_handler_.get()),
      metrics_(&framework->metrics()),
      config_(std::move(config)),
      shed_(config_.shed),
      queue_(config_.queue_capacity) {}

PlanServer::PlanServer(RequestHandler* handler, MetricsRegistry* metrics,
                       Config config)
    : handler_(handler),
      metrics_(metrics),
      config_(std::move(config)),
      shed_(config_.shed),
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
  const int workers = config_.worker_threads > 0 ? config_.worker_threads : 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back(
        [this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
  return Status::OK();
}

size_t PlanServer::queued_requests() const { return queue_.size(); }

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

/// Wheel geometry: 50 ms resolution is an order of magnitude below the
/// minimum sensible connection timeout, and 512 slots cover 25.6 s per
/// turn (longer deadlines survive extra turns via the lazy scheme).
constexpr size_t kWheelSlots = 512;
constexpr auto kWheelTick = std::chrono::milliseconds(50);

}  // namespace

/// Re-arms `conn`'s wheel entry from its idle/frame deadlines. IO thread
/// only. With both timeouts disabled the connection carries no timer.
void PlanServer::ScheduleConnDeadline(net::TimerWheel* wheel,
                                      const std::shared_ptr<Connection>& conn) {
  const bool have_idle = config_.idle_timeout_ms > 0;
  const bool have_frame = conn->frame_pending;
  if (!have_idle && !have_frame) {
    wheel->Cancel(conn->fd);
    return;
  }
  Clock::time_point deadline;
  if (have_idle && have_frame) {
    deadline = std::min(conn->idle_deadline, conn->frame_deadline);
  } else {
    deadline = have_idle ? conn->idle_deadline : conn->frame_deadline;
  }
  wheel->Schedule(conn->fd, deadline);
}

/// Refreshes a connection's deadlines after inbound activity: the idle
/// clock restarts, and the read deadline arms exactly when an incomplete
/// frame remains buffered (and disarms when the buffer is drained).
void PlanServer::TouchConnActivity(net::TimerWheel* wheel,
                                   const std::shared_ptr<Connection>& conn) {
  const Clock::time_point now = Clock::now();
  conn->idle_deadline =
      now + std::chrono::milliseconds(config_.idle_timeout_ms);
  if (config_.read_deadline_ms > 0 && conn->frames.buffered_bytes() > 0) {
    if (!conn->frame_pending) {
      conn->frame_pending = true;
      conn->frame_deadline =
          now + std::chrono::milliseconds(config_.read_deadline_ms);
    }
    // An already-armed frame deadline keeps ticking: progress on the
    // *same* frame must not extend it, or a slow-loris peer could dribble
    // forever.
  } else {
    conn->frame_pending = false;
  }
  ScheduleConnDeadline(wheel, conn);
}

void PlanServer::IoLoop() {
  net::TimerWheel wheel(kWheelSlots, kWheelTick);
  std::vector<epoll_event> events(64);
  std::vector<int> expired;
  while (!draining_.load(std::memory_order_acquire)) {
    const int timeout_ms = wheel.PollTimeoutMs(Clock::now());
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        if (g_signal_pending.exchange(false, std::memory_order_relaxed)) {
          Shutdown();
        }
      } else if (fd == listen_fd_) {
        AcceptConnections(&wheel);
      } else {
        auto it = connections_.find(fd);
        if (it == connections_.end()) continue;
        std::shared_ptr<Connection> conn = it->second;
        const bool broken =
            (events[i].events & (EPOLLHUP | EPOLLERR)) != 0;
        if (broken || !DrainReadable(conn)) {
          wheel.Cancel(fd);
          CloseConnection(fd);
        } else {
          TouchConnActivity(&wheel, conn);
        }
      }
    }
    expired.clear();
    wheel.PopExpired(Clock::now(), &expired);
    for (const int fd : expired) {
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      const std::shared_ptr<Connection>& conn = it->second;
      const Clock::time_point now = Clock::now();
      const bool frame_timed_out =
          conn->frame_pending && now >= conn->frame_deadline;
      if (frame_timed_out) {
        instruments_.timeouts_read->Increment();
      } else {
        instruments_.timeouts_idle->Increment();
      }
      // Best-effort explanation, then drop: the peer proved it cannot
      // keep the stream moving, and half-read frames cannot be resumed.
      SendError(conn, wire::MessageType::kInvalid, 0,
                wire::WireStatus::kTimeout,
                frame_timed_out ? "read deadline exceeded"
                                : "idle timeout exceeded");
      CloseConnection(fd);
    }
  }
}

void PlanServer::AcceptConnections(net::TimerWheel* wheel) {
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
      ScheduleConnDeadline(wheel, conn);
    }
    connections_.emplace(cfd, std::move(conn));
    instruments_.connections_accepted->Increment();
  }
}

bool PlanServer::DrainReadable(const std::shared_ptr<Connection>& conn) {
  char buffer[16 * 1024];
  while (true) {
    size_t received = 0;
    switch (net::RecvNonBlocking(conn->fd, buffer, sizeof(buffer),
                                 &received)) {
      case net::RecvOutcome::kData:
        conn->frames.Append(buffer, received);
        if (!ProcessFrames(conn)) return false;
        break;
      case net::RecvOutcome::kWouldBlock:
        return true;
      case net::RecvOutcome::kEof:
      case net::RecvOutcome::kError:
        return false;
    }
  }
}

bool PlanServer::ProcessFrames(const std::shared_ptr<Connection>& conn) {
  std::string payload;
  while (true) {
    Result<bool> next = conn->frames.Next(&payload);
    if (!next.ok()) {
      // Framing violation: the stream is unrecoverable. One explanatory
      // error frame, then drop the connection.
      instruments_.frames_malformed->Increment();
      SendError(conn, wire::MessageType::kInvalid, 0,
                wire::WireStatus::kBadRequest, next.status().message());
      return false;
    }
    if (!next.value()) return true;
    Result<wire::Request> request = wire::DecodeRequest(payload);
    if (!request.ok()) {
      instruments_.frames_malformed->Increment();
      SendError(conn, wire::MessageType::kInvalid, 0,
                wire::WireStatus::kBadRequest, request.status().message());
      return false;
    }
    WorkItem item{conn, std::move(request).value(), Clock::now()};
    const wire::MessageType type = item.request.type;
    const uint64_t id = item.request.id;
    // Degradation ladder: fold this admission's queue occupancy into the
    // shed controller, and at the abstain rung answer single-point
    // PREDICTs from here — the predictor's abstain shape costs nothing
    // and the client falls back to its own optimizer (DESIGN.md §14).
    const net::ShedController::Level level = UpdateShedLevel();
    if (level >= net::ShedController::kAbstainPredict &&
        type == wire::MessageType::kPredict) {
      if (!SendShedAbstain(conn, id)) return false;
      continue;
    }
    const bool enqueue_fault =
        failpoints::Hit(failpoints::Site::kEnqueue).kind ==
        failpoints::Kind::kError;
    if (enqueue_fault || !queue_.TryPush(std::move(item))) {
      // Backpressure: reject now rather than buffer without bound.
      const bool draining = draining_.load(std::memory_order_acquire);
      instruments_.responses_busy->Increment();
      const bool sent =
          SendError(conn, type, id,
                    draining ? wire::WireStatus::kShuttingDown
                             : wire::WireStatus::kBusy,
                    draining ? "server shutting down" : "request queue full");
      if (!sent) return false;
    }
  }
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
  return conn->Send(&frame, Connection::WhenFull::kDrop);
}

void PlanServer::SweepUnansweredOnShutdown() {
  char buffer[16 * 1024];
  for (auto& [fd, conn] : connections_) {
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
    std::string payload;
    while (true) {
      Result<bool> next = conn->frames.Next(&payload);
      if (!next.ok() || !next.value()) break;
      Result<wire::Request> request = wire::DecodeRequest(payload);
      if (!request.ok()) break;
      SendError(conn, request.value().type, request.value().id,
                wire::WireStatus::kShuttingDown, "server shutting down");
      instruments_.shutdown_swept->Increment();
    }
  }
}

void PlanServer::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  it->second->Close();
  // The fd itself closes in ~Connection, once in-flight work items drop
  // their references.
  connections_.erase(it);
}

bool PlanServer::SendError(const std::shared_ptr<Connection>& conn,
                           wire::MessageType type, uint64_t id,
                           wire::WireStatus status,
                           const std::string& message) {
  wire::Response response;
  response.type = type;
  response.id = id;
  response.status = status;
  response.error = message;
  std::string frame;
  wire::EncodeResponse(response, &frame);
  return conn->Send(&frame, Connection::WhenFull::kDrop);
}

void PlanServer::ObserveOutbox(size_t bytes) {
  if (bytes <= outbox_peak_bytes_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(outbox_peak_mu_);
  if (bytes <= outbox_peak_bytes_.load(std::memory_order_relaxed)) return;
  outbox_peak_bytes_.store(bytes, std::memory_order_relaxed);
  instruments_.outbox_peak_bytes->Set(static_cast<double>(bytes));
}

wire::Response FrameworkHandler::Handle(const wire::Request& request,
                                        size_t /*worker_index*/) {
  wire::Response response;
  response.type = request.type;
  response.id = request.id;
  switch (request.type) {
    case wire::MessageType::kPing:
    case wire::MessageType::kShutdown:
      break;
    case wire::MessageType::kPredict: {
      Result<PpcFramework::PredictReport> report =
          framework_->PredictAtPoint(request.template_name, request.point);
      if (!report.ok()) {
        response.status = WireStatusFrom(report.status());
        response.error = report.status().message();
        break;
      }
      response.predict.plan = report.value().plan;
      response.predict.confidence = report.value().confidence;
      response.predict.cache_hit = report.value().cache_hit;
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
      Result<std::vector<PpcFramework::PredictReport>> reports =
          framework_->PredictBatch(request.template_name,
                                   request.batch_points.data(),
                                   request.batch_count(), request.batch_dims);
      if (!reports.ok()) {
        response.status = WireStatusFrom(reports.status());
        response.error = reports.status().message();
        break;
      }
      response.batch.reserve(reports.value().size());
      for (const PpcFramework::PredictReport& r : reports.value()) {
        response.batch.push_back(
            wire::Response::Predict{r.plan, r.confidence, r.cache_hit});
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
  return response;
}

void PlanServer::ProcessSingle(WorkItem* item, size_t worker_index) {
  failpoints::MaybeStall(failpoints::Hit(failpoints::Site::kDispatch));
  if (config_.pre_dispatch_hook) {
    config_.pre_dispatch_hook(item->request.type);
  }
  const wire::Response response =
      handler_->Handle(item->request, worker_index);
  Reply(item, response);
  if (response.type == wire::MessageType::kShutdown && response.ok()) {
    // Ack already on the outbox; now start the drain. Everything admitted
    // before this point still completes, and every flush finishes before
    // its worker exits.
    Shutdown();
  }
}

void PlanServer::ProcessPredictRun(WorkItem* items, size_t count,
                                   size_t worker_index) {
  failpoints::MaybeStall(failpoints::Hit(failpoints::Site::kDispatch));
  const wire::Request& head = items[0].request;
  wire::Request batch;
  batch.type = wire::MessageType::kPredictBatch;
  batch.id = head.id;
  batch.template_name = head.template_name;
  batch.batch_dims = static_cast<uint32_t>(head.point.size());
  batch.batch_points.reserve(count * head.point.size());
  for (size_t p = 0; p < count; ++p) {
    if (config_.pre_dispatch_hook) {
      config_.pre_dispatch_hook(items[p].request.type);
    }
    batch.batch_points.insert(batch.batch_points.end(),
                              items[p].request.point.begin(),
                              items[p].request.point.end());
  }
  const wire::Response answer = handler_->Handle(batch, worker_index);
  const bool rejected = answer.status == wire::WireStatus::kBadRequest ||
                        answer.status == wire::WireStatus::kNotFound;
  if (answer.ok() ? answer.batch.size() != count : rejected) {
    // A rejection of the request (unknown template, bad arity, non-finite
    // coordinate) must not fail items that would succeed alone: answer
    // each request on its own instead. The hooks already ran. Any other
    // failure (a shard behind the router is down or timed out) would
    // recur per item, so the batch's error answers every item.
    for (size_t p = 0; p < count; ++p) {
      Reply(&items[p], handler_->Handle(items[p].request, worker_index));
    }
    return;
  }
  // Append every reply first, then flush each connection this worker was
  // handed once, so a run's replies to one connection leave in one write.
  // While it holds an unflushed connection the worker must not wait for
  // outbox room: the flush it would wait on might be its own, or held by
  // a worker waiting on one of this worker's connections.
  std::vector<Connection*> to_flush;
  std::string frame;
  for (size_t p = 0; p < count; ++p) {
    wire::Response response;
    response.type = wire::MessageType::kPredict;
    response.id = items[p].request.id;
    if (answer.ok()) {
      response.predict = answer.batch[p];
    } else {
      response.status = answer.status;
      response.error = answer.error;
    }
    frame.clear();
    wire::EncodeResponse(response, &frame);
    Connection* conn = items[p].conn.get();
    const Connection::WhenFull when_full =
        to_flush.empty() ? Connection::WhenFull::kWait
                         : Connection::WhenFull::kAppend;
    if (conn->Append(&frame, when_full) == Connection::Queued::kFlush) {
      to_flush.push_back(conn);
    }
  }
  for (Connection* conn : to_flush) conn->Flush();
  for (size_t p = 0; p < count; ++p) Account(items[p], answer.ok());
  instruments_.microbatches->Increment();
  instruments_.microbatched_predicts->Increment(count);
}

void PlanServer::Reply(WorkItem* item, const wire::Response& response) {
  std::string frame;
  wire::EncodeResponse(response, &frame);
  item->conn->Send(&frame, Connection::WhenFull::kWait);
  Account(*item, response.ok());
}

void PlanServer::Account(const WorkItem& item, bool ok) {
  const double micros = MicrosSince(item.admitted);
  switch (item.request.type) {
    case wire::MessageType::kPredict:
      instruments_.requests_predict->Increment();
      instruments_.predict_us->Record(micros);
      break;
    case wire::MessageType::kPredictBatch:
      instruments_.requests_predict_batch->Increment();
      instruments_.predict_batch_us->Record(micros);
      break;
    case wire::MessageType::kExecute:
      instruments_.requests_execute->Increment();
      instruments_.execute_us->Record(micros);
      break;
    case wire::MessageType::kMetrics:
      instruments_.requests_metrics->Increment();
      instruments_.metrics_us->Record(micros);
      break;
    case wire::MessageType::kPing:
      instruments_.requests_ping->Increment();
      instruments_.ping_us->Record(micros);
      break;
    case wire::MessageType::kShutdown:
      instruments_.requests_shutdown->Increment();
      break;
    case wire::MessageType::kSnapshot:
      instruments_.requests_snapshot->Increment();
      instruments_.replication_snapshot_us->Record(micros);
      break;
    case wire::MessageType::kSnapshotApply:
      instruments_.requests_snapshot_apply->Increment();
      instruments_.replication_apply_us->Record(micros);
      break;
    case wire::MessageType::kTopology:
    case wire::MessageType::kInvalid:
      break;
  }
  if (!ok) instruments_.responses_error->Increment();
}

void PlanServer::WorkerLoop(size_t worker_index) {
  std::vector<WorkItem> run;
  while (std::optional<WorkItem> item = queue_.Pop()) {
    run.push_back(std::move(*item));
    // Opportunistic micro-batch: after popping a single-point PREDICT,
    // take the same-(template, arity) PREDICTs queued right behind it
    // (never blocking) up to the cap, and answer them as one
    // PREDICT_BATCH. Anything else stays queued for the other workers, so
    // a handler that blocks (the router's forwards) keeps its
    // parallelism. A zero-arity point cannot form a PREDICT_BATCH. The
    // first shed rung turns this off — under sustained pressure one slow
    // batch must not grow head-of-line latency (DESIGN.md §14).
    if (config_.max_microbatch > 1 &&
        shed_.level() < net::ShedController::kNoMicrobatch &&
        run.front().request.type == wire::MessageType::kPredict &&
        !run.front().request.point.empty()) {
      const auto same_run = [&run](const WorkItem& next) {
        const wire::Request& head = run.front().request;
        return next.request.type == wire::MessageType::kPredict &&
               next.request.template_name == head.template_name &&
               next.request.point.size() == head.point.size();
      };
      while (run.size() < config_.max_microbatch) {
        std::optional<WorkItem> extra = queue_.TryPopIf(same_run);
        if (!extra.has_value()) break;
        run.push_back(std::move(*extra));
      }
    }
    if (run.size() >= 2) {
      ProcessPredictRun(run.data(), run.size(), worker_index);
    } else {
      ProcessSingle(&run.front(), worker_index);
    }
    // Drop the connection references before blocking in Pop: the last
    // one closes the fd of a connection the IO thread already closed, and
    // its peer is waiting for that EOF.
    run.clear();
  }
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
