#include "server/wire_protocol.h"

#include <cstring>

#include "common/bytes.h"

namespace ppc {
namespace wire {

namespace {

bool ValidRequestType(uint8_t type) {
  return type >= static_cast<uint8_t>(MessageType::kPredict) &&
         type <= static_cast<uint8_t>(MessageType::kTopology);
}

bool ValidStatus(uint8_t status) {
  return status <= static_cast<uint8_t>(WireStatus::kTimeout);
}

bool HasPointBody(MessageType type) {
  return type == MessageType::kPredict || type == MessageType::kExecute;
}

/// Starts a frame at the end of `out`: reserves its u32 length prefix,
/// for a ByteWriter on `out` to write the payload after it in place.
/// Returns where the frame starts, for FinishFrame.
size_t BeginFrame(std::string* out) {
  const size_t start = out->size();
  out->append(sizeof(uint32_t), '\0');
  return start;
}

/// Fills in the length prefix of the frame BeginFrame started at `start`.
void FinishFrame(size_t start, std::string* out) {
  const uint32_t length =
      static_cast<uint32_t>(out->size() - start - sizeof(uint32_t));
  std::memcpy(out->data() + start, &length, sizeof(length));
}

Status ArityError(uint32_t dims) {
  return Status::InvalidArgument("point arity " + std::to_string(dims) +
                                 " exceeds the protocol limit of " +
                                 std::to_string(kMaxPointDimensions));
}

/// Decodes a u32 arity and that many coordinates into `*point`, which
/// keeps its storage. The arity is checked against the protocol limit
/// before anything is sized from it.
Status DecodePoint(ByteReader* reader, std::vector<double>* point) {
  uint32_t dims = 0;
  if (!reader->Read(&dims)) return reader->Truncated();
  if (dims > kMaxPointDimensions) return ArityError(dims);
  point->resize(dims);
  if (!reader->ReadDoubles(point->data(), dims)) return reader->Truncated();
  return Status::OK();
}

/// Decodes the kPredictBatch body into the Request's flat row-major
/// storage. Both the point count and the arity are validated against the
/// protocol limits before any allocation is sized from them.
Status DecodeBatchBody(ByteReader* reader, Request* request) {
  uint32_t count = 0;
  if (!reader->Read(&count)) return reader->Truncated();
  if (count == 0) {
    return Status::InvalidArgument("PREDICT_BATCH with zero points");
  }
  if (count > kMaxBatchPoints) {
    return Status::InvalidArgument("batch of " + std::to_string(count) +
                                   " points exceeds the protocol limit of " +
                                   std::to_string(kMaxBatchPoints));
  }
  uint32_t dims = 0;
  if (!reader->Read(&dims)) return reader->Truncated();
  if (dims == 0) {
    return Status::InvalidArgument("PREDICT_BATCH with zero-arity points");
  }
  if (dims > kMaxPointDimensions) return ArityError(dims);
  request->batch_dims = dims;
  request->batch_points.resize(static_cast<size_t>(count) * dims);
  if (!reader->ReadDoubles(request->batch_points.data(),
                           request->batch_points.size())) {
    return reader->Truncated();
  }
  return Status::OK();
}

Status RequireAtEnd(const ByteReader& reader) {
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after message body");
  }
  return Status::OK();
}

}  // namespace

void Request::Clear() {
  type = MessageType::kInvalid;
  id = 0;
  template_name.clear();
  point.clear();
  batch_dims = 0;
  batch_points.clear();
  snapshot_blob.clear();
  topology_op = TopologyOp::kAdd;
  topology_host.clear();
  topology_port = 0;
}

void Response::Clear() {
  type = MessageType::kInvalid;
  id = 0;
  status = WireStatus::kOk;
  error.clear();
  predict = Predict{};
  batch.clear();
  execute = Execute{};
  metrics_json.clear();
  snapshot_blob.clear();
  snapshot_applied = 0;
  backend_count = 0;
}

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kInvalid:
      return "INVALID";
    case MessageType::kPredict:
      return "PREDICT";
    case MessageType::kExecute:
      return "EXECUTE";
    case MessageType::kMetrics:
      return "METRICS";
    case MessageType::kPing:
      return "PING";
    case MessageType::kShutdown:
      return "SHUTDOWN";
    case MessageType::kPredictBatch:
      return "PREDICT_BATCH";
    case MessageType::kSnapshot:
      return "SNAPSHOT";
    case MessageType::kSnapshotApply:
      return "SNAPSHOT_APPLY";
    case MessageType::kTopology:
      return "TOPOLOGY";
  }
  return "UNKNOWN";
}

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return "OK";
    case WireStatus::kBusy:
      return "BUSY";
    case WireStatus::kBadRequest:
      return "BAD_REQUEST";
    case WireStatus::kNotFound:
      return "NOT_FOUND";
    case WireStatus::kInternal:
      return "INTERNAL";
    case WireStatus::kShuttingDown:
      return "SHUTTING_DOWN";
    case WireStatus::kTimeout:
      return "TIMEOUT";
  }
  return "UNKNOWN";
}

void EncodeRequest(const Request& request, std::string* out) {
  const size_t start = BeginFrame(out);
  ByteWriter writer(out);
  writer.PutU8(static_cast<uint8_t>(request.type));
  writer.PutU64(request.id);
  if (HasPointBody(request.type)) {
    writer.PutString(request.template_name);
    writer.PutU32(static_cast<uint32_t>(request.point.size()));
    writer.PutDoubles(request.point.data(), request.point.size());
  } else if (request.type == MessageType::kPredictBatch) {
    writer.PutString(request.template_name);
    writer.PutU32(request.batch_count());
    writer.PutU32(request.batch_dims);
    writer.PutDoubles(request.batch_points.data(),
                      request.batch_points.size());
  } else if (request.type == MessageType::kSnapshotApply) {
    writer.PutString(request.snapshot_blob);
  } else if (request.type == MessageType::kTopology) {
    writer.PutU8(static_cast<uint8_t>(request.topology_op));
    writer.PutString(request.topology_host);
    writer.PutU32(request.topology_port);
  }
  FinishFrame(start, out);
}

void EncodeResponse(const Response& response, std::string* out) {
  const size_t start = BeginFrame(out);
  ByteWriter writer(out);
  writer.PutU8(static_cast<uint8_t>(response.type));
  writer.PutU64(response.id);
  writer.PutU8(static_cast<uint8_t>(response.status));
  if (!response.ok()) {
    writer.PutString(response.error);
  } else {
    switch (response.type) {
      case MessageType::kPredict:
        writer.PutU64(response.predict.plan);
        writer.PutDouble(response.predict.confidence);
        writer.PutU8(response.predict.cache_hit ? 1 : 0);
        break;
      case MessageType::kExecute: {
        const Response::Execute& e = response.execute;
        writer.PutU64(e.executed_plan);
        writer.PutU64(e.optimal_plan);
        uint8_t flags = 0;
        if (e.used_prediction) flags |= 1u << 0;
        if (e.cache_hit) flags |= 1u << 1;
        if (e.optimizer_invoked) flags |= 1u << 2;
        if (e.prediction_evicted) flags |= 1u << 3;
        if (e.negative_feedback_triggered) flags |= 1u << 4;
        if (e.failed_over) flags |= 1u << 5;
        writer.PutU8(flags);
        writer.PutDouble(e.execution_cost);
        writer.PutDouble(e.optimize_micros);
        writer.PutDouble(e.predict_micros);
        writer.PutDouble(e.execute_micros);
        break;
      }
      case MessageType::kMetrics:
        writer.PutString(response.metrics_json);
        break;
      case MessageType::kPredictBatch:
        writer.PutU32(static_cast<uint32_t>(response.batch.size()));
        for (const Response::Predict& p : response.batch) {
          writer.PutU64(p.plan);
          writer.PutDouble(p.confidence);
          writer.PutU8(p.cache_hit ? 1 : 0);
        }
        break;
      case MessageType::kSnapshot:
        writer.PutString(response.snapshot_blob);
        break;
      case MessageType::kSnapshotApply:
        writer.PutU32(response.snapshot_applied);
        break;
      case MessageType::kTopology:
        writer.PutU32(response.backend_count);
        break;
      case MessageType::kPing:
      case MessageType::kShutdown:
      case MessageType::kInvalid:
        break;
    }
  }
  FinishFrame(start, out);
}

Status DecodeRequest(std::string_view payload, Request* request) {
  request->Clear();
  ByteReader reader(payload);
  uint8_t type_byte = 0;
  if (!reader.Read(&type_byte)) return reader.Truncated();
  if (!ValidRequestType(type_byte)) {
    return Status::InvalidArgument("unknown request type " +
                                   std::to_string(type_byte));
  }
  request->type = static_cast<MessageType>(type_byte);
  if (!reader.Read(&request->id)) return reader.Truncated();
  if (HasPointBody(request->type)) {
    if (!reader.ReadString(&request->template_name)) return reader.Truncated();
    PPC_RETURN_NOT_OK(DecodePoint(&reader, &request->point));
  } else if (request->type == MessageType::kPredictBatch) {
    if (!reader.ReadString(&request->template_name)) return reader.Truncated();
    PPC_RETURN_NOT_OK(DecodeBatchBody(&reader, request));
  } else if (request->type == MessageType::kSnapshotApply) {
    if (!reader.ReadString(&request->snapshot_blob)) return reader.Truncated();
  } else if (request->type == MessageType::kTopology) {
    uint8_t op_byte = 0;
    if (!reader.Read(&op_byte)) return reader.Truncated();
    if (op_byte != static_cast<uint8_t>(TopologyOp::kAdd) &&
        op_byte != static_cast<uint8_t>(TopologyOp::kRemove)) {
      return Status::InvalidArgument("unknown topology operation " +
                                     std::to_string(op_byte));
    }
    request->topology_op = static_cast<TopologyOp>(op_byte);
    if (!reader.ReadString(&request->topology_host)) return reader.Truncated();
    uint32_t port = 0;
    if (!reader.Read(&port)) return reader.Truncated();
    if (port == 0 || port > 65535) {
      return Status::InvalidArgument("topology port " + std::to_string(port) +
                                     " outside (0, 65535]");
    }
    request->topology_port = static_cast<uint16_t>(port);
  }
  return RequireAtEnd(reader);
}

Result<Request> DecodeRequest(const std::string& payload) {
  Request request;
  PPC_RETURN_NOT_OK(DecodeRequest(std::string_view(payload), &request));
  return request;
}

Result<Response> DecodeResponse(const std::string& payload) {
  ByteReader reader(payload);
  uint8_t type_byte = 0;
  if (!reader.Read(&type_byte)) return reader.Truncated();
  if (type_byte > static_cast<uint8_t>(MessageType::kTopology)) {
    return Status::InvalidArgument("unknown response type " +
                                   std::to_string(type_byte));
  }
  Response response;
  response.type = static_cast<MessageType>(type_byte);
  uint8_t status_byte = 0;
  if (!reader.Read(&response.id) || !reader.Read(&status_byte)) {
    return reader.Truncated();
  }
  if (!ValidStatus(status_byte)) {
    return Status::InvalidArgument("unknown response status " +
                                   std::to_string(status_byte));
  }
  response.status = static_cast<WireStatus>(status_byte);
  // Reads a Predict body (plan, confidence, cache-hit byte).
  const auto get_predict = [&reader](Response::Predict* p) {
    uint8_t hit = 0;
    if (!reader.Read(&p->plan) || !reader.Read(&p->confidence) ||
        !reader.Read(&hit)) {
      return false;
    }
    p->cache_hit = hit != 0;
    return true;
  };
  bool complete = true;
  if (!response.ok()) {
    complete = reader.ReadString(&response.error);
  } else {
    switch (response.type) {
      case MessageType::kPredict:
        complete = get_predict(&response.predict);
        break;
      case MessageType::kExecute: {
        Response::Execute& e = response.execute;
        uint8_t flags = 0;
        complete = reader.Read(&e.executed_plan) &&
                   reader.Read(&e.optimal_plan) && reader.Read(&flags) &&
                   reader.Read(&e.execution_cost) &&
                   reader.Read(&e.optimize_micros) &&
                   reader.Read(&e.predict_micros) &&
                   reader.Read(&e.execute_micros);
        e.used_prediction = (flags & (1u << 0)) != 0;
        e.cache_hit = (flags & (1u << 1)) != 0;
        e.optimizer_invoked = (flags & (1u << 2)) != 0;
        e.prediction_evicted = (flags & (1u << 3)) != 0;
        e.negative_feedback_triggered = (flags & (1u << 4)) != 0;
        e.failed_over = (flags & (1u << 5)) != 0;
        break;
      }
      case MessageType::kMetrics:
        complete = reader.ReadString(&response.metrics_json);
        break;
      case MessageType::kPredictBatch: {
        uint32_t count = 0;
        if (!reader.Read(&count)) return reader.Truncated();
        if (count > kMaxBatchPoints) {
          return Status::InvalidArgument(
              "batch of " + std::to_string(count) +
              " answers exceeds the protocol limit of " +
              std::to_string(kMaxBatchPoints));
        }
        response.batch.resize(count);
        for (Response::Predict& p : response.batch) {
          if (!(complete = get_predict(&p))) break;
        }
        break;
      }
      case MessageType::kSnapshot:
        complete = reader.ReadString(&response.snapshot_blob);
        break;
      case MessageType::kSnapshotApply:
        complete = reader.Read(&response.snapshot_applied);
        break;
      case MessageType::kTopology:
        complete = reader.Read(&response.backend_count);
        break;
      case MessageType::kPing:
      case MessageType::kShutdown:
      case MessageType::kInvalid:
        break;
    }
  }
  if (!complete) return reader.Truncated();
  PPC_RETURN_NOT_OK(RequireAtEnd(reader));
  return response;
}

void FrameBuffer::Append(const char* data, size_t size) {
  buffer_.append(data, size);
}

Result<bool> FrameBuffer::Next(std::string_view* payload) {
  if (poisoned_) {
    return Status::InvalidArgument("frame stream previously violated "
                                   "framing; connection must be dropped");
  }
  // Compact lazily so a long-lived connection does not grow its buffer
  // without bound on the consumed prefix.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  if (buffer_.size() - consumed_ < sizeof(uint32_t)) return false;
  uint32_t length = 0;
  std::memcpy(&length, buffer_.data() + consumed_, sizeof(length));
  if (length == 0 || length > max_frame_bytes_) {
    poisoned_ = true;
    return Status::InvalidArgument(
        "declared frame length " + std::to_string(length) +
        " outside (0, " + std::to_string(max_frame_bytes_) + "]");
  }
  if (buffer_.size() - consumed_ < sizeof(uint32_t) + length) return false;
  *payload = std::string_view(buffer_).substr(consumed_ + sizeof(uint32_t),
                                              length);
  consumed_ += sizeof(uint32_t) + length;
  return true;
}

Result<bool> FrameBuffer::Next(std::string* payload) {
  std::string_view view;
  Result<bool> next = Next(&view);
  if (next.ok() && next.value()) payload->assign(view);
  return next;
}

Status ToStatus(WireStatus status, const std::string& message) {
  switch (status) {
    case WireStatus::kOk:
      return Status::OK();
    case WireStatus::kBusy:
      return Status::ResourceExhausted(message.empty() ? "server busy"
                                                       : message);
    case WireStatus::kBadRequest:
      return Status::InvalidArgument(message);
    case WireStatus::kNotFound:
      return Status::NotFound(message);
    case WireStatus::kInternal:
      return Status::Internal(message);
    case WireStatus::kShuttingDown:
      return Status::FailedPrecondition(
          message.empty() ? "server shutting down" : message);
    case WireStatus::kTimeout:
      return Status::DeadlineExceeded(message.empty() ? "server-side timeout"
                                                      : message);
  }
  return Status::Internal("unknown wire status");
}

}  // namespace wire
}  // namespace ppc
