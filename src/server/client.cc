#include "server/client.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

namespace ppc {

PpcClient::PpcClient(const Options& options)
    : options_(options), backoff_rng_(options.retry.seed) {}

Status PpcClient::Connect(const std::string& host, uint16_t port) {
  if (connected()) return Status::FailedPrecondition("already connected");
  host_ = host;
  port_ = port;
  const net::Deadline deadline = CallDeadline();
  const int attempts = std::max(1, options_.retry.max_attempts);
  Status last = Status::Internal("connect never attempted");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.connect_retries;
      if (!BackoffBeforeRetry(attempt - 1, deadline)) break;
    }
    // The call deadline spans the handshake too: an unreachable peer
    // surfaces as DeadlineExceeded here instead of blocking in connect(2)
    // for the kernel's SYN-retry schedule.
    Result<int> fd = net::Connect(host, port, deadline);
    if (fd.ok()) {
      fd_ = fd.value();
      ++connection_generation_;
      return Status::OK();
    }
    last = fd.status();
  }
  return last;
}

bool PpcClient::PeerClosed() const {
  if (fd_ < 0) return true;
  struct pollfd entry = {fd_, POLLRDHUP, 0};
  return ::poll(&entry, 1, 0) > 0 &&
         (entry.revents & (POLLRDHUP | POLLHUP | POLLERR)) != 0;
}

void PpcClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // Partial frames died with the stream, but parked responses were
  // received whole and decoded — they still answer their Wait() calls
  // after the loss.
  frames_.Reset();
}

bool PpcClient::BackoffBeforeRetry(int attempt,
                                   const net::Deadline& deadline) {
  const RetryPolicy& retry = options_.retry;
  double backoff_ms = static_cast<double>(retry.initial_backoff_ms);
  for (int i = 0; i < attempt; ++i) backoff_ms *= retry.multiplier;
  backoff_ms = std::min(backoff_ms, static_cast<double>(retry.max_backoff_ms));
  const double jitter = std::clamp(retry.jitter, 0.0, 1.0);
  backoff_ms *= 1.0 - jitter + 2.0 * jitter * backoff_rng_.Uniform();
  const int64_t sleep_ms = std::max<int64_t>(0, std::llround(backoff_ms));
  // A backoff the deadline cannot absorb means the retry would wake up
  // already expired — report exhaustion instead of sleeping pointlessly.
  if (!deadline.infinite() && deadline.PollTimeoutMs() < sleep_ms) {
    return false;
  }
  if (sleep_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
  return true;
}

Status PpcClient::SendEncoded(const std::string& frame,
                              const net::Deadline& deadline) {
  Status status = net::WriteAll(fd_, frame.data(), frame.size(), deadline);
  if (!status.ok()) {
    // Whatever was mid-frame is unrecoverable; the stream is dead either
    // way (deadline, peer loss, or hard error).
    Close();
    if (status.code() == StatusCode::kDeadlineExceeded) {
      ++stats_.deadlines_exceeded;
    }
  }
  return status;
}

Result<wire::Response> PpcClient::RoundTrip(wire::Request request) {
  const net::Deadline deadline = CallDeadline();
  const int attempts = std::max(1, options_.retry.max_attempts);
  Status last = Status::Internal("round trip never attempted");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0 && !BackoffBeforeRetry(attempt - 1, deadline)) break;
    if (!connected()) {
      // Only attempt to re-establish a connection we made ourselves;
      // without a remembered endpoint this is a plain usage error.
      if (host_.empty()) return Status::FailedPrecondition("not connected");
      Result<int> fd = net::Connect(host_, port_, deadline);
      if (!fd.ok()) {
        // Transient connect failures are the second retryable class
        // (besides BUSY): nothing was sent, so retrying is always safe.
        last = fd.status();
        ++stats_.connect_retries;
        continue;
      }
      fd_ = fd.value();
      ++connection_generation_;
      ++stats_.reconnects;
    }
    request.id = next_id_++;
    std::string frame;
    wire::EncodeRequest(request, &frame);
    Status sent = SendEncoded(frame, deadline);
    // A send failure is NOT retried automatically: part of the frame may
    // already be on the wire, and re-sending an EXECUTE would run the
    // query twice. The caller decides (the request id was never answered).
    if (!sent.ok()) return sent;
    Result<wire::Response> response = ReadUntil(request.id, deadline);
    if (!response.ok()) return response.status();
    if (response.value().status == wire::WireStatus::kBusy &&
        attempt + 1 < attempts) {
      // BUSY is the server's explicit "not admitted" — safe to retry.
      ++stats_.busy_retries;
      last = wire::ToStatus(response.value().status,
                            response.value().error);
      continue;
    }
    return response;
  }
  return last;
}

Result<uint64_t> PpcClient::SendRequest(wire::MessageType type,
                                        const std::string& template_name,
                                        const std::vector<double>& point) {
  if (!connected()) return Status::FailedPrecondition("not connected");
  wire::Request request;
  request.type = type;
  request.id = next_id_++;
  request.template_name = template_name;
  request.point = point;
  std::string frame;
  wire::EncodeRequest(request, &frame);
  PPC_RETURN_NOT_OK(SendEncoded(frame, CallDeadline()));
  in_flight_[request.id] = connection_generation_;
  return request.id;
}

Result<uint64_t> PpcClient::SendPredict(const std::string& template_name,
                                        const std::vector<double>& point) {
  return SendRequest(wire::MessageType::kPredict, template_name, point);
}

Result<uint64_t> PpcClient::SendPredictBatch(
    const std::string& template_name, const std::vector<double>& points,
    uint32_t dims) {
  if (!connected()) return Status::FailedPrecondition("not connected");
  if (dims == 0 || points.empty() || points.size() % dims != 0) {
    return Status::InvalidArgument(
        "batch points must be a non-empty multiple of dims doubles");
  }
  wire::Request request;
  request.type = wire::MessageType::kPredictBatch;
  request.id = next_id_++;
  request.template_name = template_name;
  request.batch_dims = dims;
  request.batch_points = points;
  std::string frame;
  wire::EncodeRequest(request, &frame);
  PPC_RETURN_NOT_OK(SendEncoded(frame, CallDeadline()));
  in_flight_[request.id] = connection_generation_;
  return request.id;
}

Result<uint64_t> PpcClient::SendExecute(const std::string& template_name,
                                        const std::vector<double>& point) {
  return SendRequest(wire::MessageType::kExecute, template_name, point);
}

Result<uint64_t> PpcClient::SendPing() {
  return SendRequest(wire::MessageType::kPing, {}, {});
}

Result<uint64_t> PpcClient::SendShutdown() {
  return SendRequest(wire::MessageType::kShutdown, {}, {});
}

Result<wire::Response> PpcClient::Wait(uint64_t id) {
  auto parked = parked_.find(id);
  if (parked != parked_.end()) {
    wire::Response response = std::move(parked->second);
    parked_.erase(parked);
    return response;
  }
  auto sent = in_flight_.find(id);
  if (sent == in_flight_.end()) {
    return Status::FailedPrecondition(
        "request " + std::to_string(id) +
        " is not in flight (never sent, or already collected)");
  }
  // A response can only ever arrive on the stream its request was sent
  // on. If that connection is gone — whether or not a synchronous call
  // has since reconnected and bumped the generation — reading would at
  // best block until the deadline and at worst (infinite deadline, new
  // connection) hang forever on bytes that can never match.
  if (sent->second != connection_generation_ || !connected()) {
    in_flight_.erase(sent);
    return Status::Unavailable(
        "connection lost after request " + std::to_string(id) +
        " was sent; its response can never arrive");
  }
  Result<wire::Response> response = ReadUntil(id, CallDeadline());
  in_flight_.erase(id);
  return response;
}

Result<wire::Response> PpcClient::ReadUntil(uint64_t id,
                                            const net::Deadline& deadline) {
  if (!connected()) return Status::FailedPrecondition("not connected");
  char buffer[16 * 1024];
  while (true) {
    // Deframe everything already buffered before touching the socket.
    std::string payload;
    while (true) {
      Result<bool> have = frames_.Next(&payload);
      if (!have.ok()) {
        Close();
        return have.status();
      }
      if (!have.value()) break;
      Result<wire::Response> decoded = wire::DecodeResponse(payload);
      if (!decoded.ok()) {
        Close();
        return decoded.status();
      }
      if (decoded.value().id == id) return std::move(decoded.value());
      // Fully received: from here the parked copy answers its Wait(),
      // so the in-flight record (tied to the connection) is done.
      in_flight_.erase(decoded.value().id);
      parked_[decoded.value().id] = std::move(decoded.value());
    }
    Result<size_t> received =
        net::RecvSome(fd_, buffer, sizeof(buffer), deadline);
    if (!received.ok()) {
      // After a timeout the stream can no longer be matched to request
      // ids (the response may arrive later, half-read) — close it.
      Close();
      if (received.status().code() == StatusCode::kDeadlineExceeded) {
        ++stats_.deadlines_exceeded;
        return Status::DeadlineExceeded(
            "deadline expired while awaiting response " + std::to_string(id));
      }
      return received.status();
    }
    if (received.value() == 0) {
      Close();
      return Status::Unavailable(
          "connection closed by server while awaiting response " +
          std::to_string(id));
    }
    frames_.Append(buffer, received.value());
  }
}

Result<PpcClient::PredictResult> PpcClient::Predict(
    const std::string& template_name, const std::vector<double>& point) {
  wire::Request request;
  request.type = wire::MessageType::kPredict;
  request.template_name = template_name;
  request.point = point;
  PPC_ASSIGN_OR_RETURN(wire::Response response, RoundTrip(std::move(request)));
  PPC_RETURN_NOT_OK(wire::ToStatus(response.status, response.error));
  return PredictResult{response.predict.plan, response.predict.confidence,
                       response.predict.cache_hit};
}

Result<std::vector<PpcClient::PredictResult>> PpcClient::PredictBatch(
    const std::string& template_name, const std::vector<double>& points,
    uint32_t dims) {
  if (dims == 0 || points.empty() || points.size() % dims != 0) {
    return Status::InvalidArgument(
        "batch points must be a non-empty multiple of dims doubles");
  }
  wire::Request request;
  request.type = wire::MessageType::kPredictBatch;
  request.template_name = template_name;
  request.batch_dims = dims;
  request.batch_points = points;
  PPC_ASSIGN_OR_RETURN(wire::Response response, RoundTrip(std::move(request)));
  PPC_RETURN_NOT_OK(wire::ToStatus(response.status, response.error));
  std::vector<PredictResult> results;
  results.reserve(response.batch.size());
  for (const wire::Response::Predict& p : response.batch) {
    results.push_back(PredictResult{p.plan, p.confidence, p.cache_hit});
  }
  return results;
}

Result<wire::Response::Execute> PpcClient::Execute(
    const std::string& template_name, const std::vector<double>& point) {
  wire::Request request;
  request.type = wire::MessageType::kExecute;
  request.template_name = template_name;
  request.point = point;
  PPC_ASSIGN_OR_RETURN(wire::Response response, RoundTrip(std::move(request)));
  PPC_RETURN_NOT_OK(wire::ToStatus(response.status, response.error));
  return response.execute;
}

Result<std::string> PpcClient::Metrics() {
  wire::Request request;
  request.type = wire::MessageType::kMetrics;
  PPC_ASSIGN_OR_RETURN(wire::Response response, RoundTrip(std::move(request)));
  PPC_RETURN_NOT_OK(wire::ToStatus(response.status, response.error));
  return std::move(response.metrics_json);
}

Status PpcClient::Ping() {
  wire::Request request;
  request.type = wire::MessageType::kPing;
  PPC_ASSIGN_OR_RETURN(wire::Response response, RoundTrip(std::move(request)));
  return wire::ToStatus(response.status, response.error);
}

Status PpcClient::Shutdown() {
  wire::Request request;
  request.type = wire::MessageType::kShutdown;
  PPC_ASSIGN_OR_RETURN(wire::Response response, RoundTrip(std::move(request)));
  return wire::ToStatus(response.status, response.error);
}

Result<std::string> PpcClient::FetchSnapshot() {
  wire::Request request;
  request.type = wire::MessageType::kSnapshot;
  PPC_ASSIGN_OR_RETURN(wire::Response response, RoundTrip(std::move(request)));
  PPC_RETURN_NOT_OK(wire::ToStatus(response.status, response.error));
  return std::move(response.snapshot_blob);
}

Result<uint32_t> PpcClient::ApplySnapshot(const std::string& blob) {
  wire::Request request;
  request.type = wire::MessageType::kSnapshotApply;
  request.snapshot_blob = blob;
  PPC_ASSIGN_OR_RETURN(wire::Response response, RoundTrip(std::move(request)));
  PPC_RETURN_NOT_OK(wire::ToStatus(response.status, response.error));
  return response.snapshot_applied;
}

Result<uint32_t> PpcClient::Topology(wire::TopologyOp op,
                                     const std::string& host, uint16_t port) {
  wire::Request request;
  request.type = wire::MessageType::kTopology;
  request.topology_op = op;
  request.topology_host = host;
  request.topology_port = port;
  PPC_ASSIGN_OR_RETURN(wire::Response response, RoundTrip(std::move(request)));
  PPC_RETURN_NOT_OK(wire::ToStatus(response.status, response.error));
  return response.backend_count;
}

}  // namespace ppc
