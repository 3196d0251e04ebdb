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

/// Wraps a finished payload in the u32 length prefix and appends it.
void AppendFrame(const std::string& payload, std::string* out) {
  const uint32_t length = static_cast<uint32_t>(payload.size());
  char prefix[sizeof(length)];
  std::memcpy(prefix, &length, sizeof(length));
  out->append(prefix, sizeof(length));
  out->append(payload);
}

Result<std::vector<double>> DecodePoint(ByteReader* reader) {
  PPC_ASSIGN_OR_RETURN(uint32_t dims, reader->GetU32());
  if (dims > kMaxPointDimensions) {
    return Status::InvalidArgument("point arity " + std::to_string(dims) +
                                   " exceeds the protocol limit of " +
                                   std::to_string(kMaxPointDimensions));
  }
  std::vector<double> point;
  point.reserve(dims);
  for (uint32_t i = 0; i < dims; ++i) {
    PPC_ASSIGN_OR_RETURN(double v, reader->GetDouble());
    point.push_back(v);
  }
  return point;
}

/// Decodes the kPredictBatch body into the Request's flat row-major
/// storage. Both the point count and the arity are validated against the
/// protocol limits before any allocation is sized from them.
Status DecodeBatchBody(ByteReader* reader, Request* request) {
  PPC_ASSIGN_OR_RETURN(uint32_t count, reader->GetU32());
  if (count == 0) {
    return Status::InvalidArgument("PREDICT_BATCH with zero points");
  }
  if (count > kMaxBatchPoints) {
    return Status::InvalidArgument("batch of " + std::to_string(count) +
                                   " points exceeds the protocol limit of " +
                                   std::to_string(kMaxBatchPoints));
  }
  PPC_ASSIGN_OR_RETURN(uint32_t dims, reader->GetU32());
  if (dims == 0) {
    return Status::InvalidArgument("PREDICT_BATCH with zero-arity points");
  }
  if (dims > kMaxPointDimensions) {
    return Status::InvalidArgument("point arity " + std::to_string(dims) +
                                   " exceeds the protocol limit of " +
                                   std::to_string(kMaxPointDimensions));
  }
  request->batch_dims = dims;
  request->batch_points.resize(static_cast<size_t>(count) * dims);
  return reader->GetDoubles(request->batch_points.data(),
                            request->batch_points.size());
}

Status RequireAtEnd(const ByteReader& reader) {
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after message body");
  }
  return Status::OK();
}

}  // namespace

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
  ByteWriter writer;
  writer.PutU8(static_cast<uint8_t>(request.type));
  writer.PutU64(request.id);
  if (HasPointBody(request.type)) {
    writer.PutString(request.template_name);
    writer.PutU32(static_cast<uint32_t>(request.point.size()));
    for (double v : request.point) writer.PutDouble(v);
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
  AppendFrame(writer.buffer(), out);
}

namespace {

/// The response payload: everything after the length prefix.
std::string ResponsePayload(const Response& response) {
  ByteWriter writer;
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
  return writer.Take();
}

}  // namespace

void EncodeResponse(const Response& response, std::string* out) {
  AppendFrame(ResponsePayload(response), out);
}

Result<Request> DecodeRequest(const std::string& payload) {
  ByteReader reader(payload);
  PPC_ASSIGN_OR_RETURN(uint8_t type_byte, reader.GetU8());
  if (!ValidRequestType(type_byte)) {
    return Status::InvalidArgument("unknown request type " +
                                   std::to_string(type_byte));
  }
  Request request;
  request.type = static_cast<MessageType>(type_byte);
  PPC_ASSIGN_OR_RETURN(request.id, reader.GetU64());
  if (HasPointBody(request.type)) {
    PPC_ASSIGN_OR_RETURN(request.template_name, reader.GetString());
    PPC_ASSIGN_OR_RETURN(request.point, DecodePoint(&reader));
  } else if (request.type == MessageType::kPredictBatch) {
    PPC_ASSIGN_OR_RETURN(request.template_name, reader.GetString());
    PPC_RETURN_NOT_OK(DecodeBatchBody(&reader, &request));
  } else if (request.type == MessageType::kSnapshotApply) {
    PPC_ASSIGN_OR_RETURN(request.snapshot_blob, reader.GetString());
  } else if (request.type == MessageType::kTopology) {
    PPC_ASSIGN_OR_RETURN(uint8_t op_byte, reader.GetU8());
    if (op_byte != static_cast<uint8_t>(TopologyOp::kAdd) &&
        op_byte != static_cast<uint8_t>(TopologyOp::kRemove)) {
      return Status::InvalidArgument("unknown topology operation " +
                                     std::to_string(op_byte));
    }
    request.topology_op = static_cast<TopologyOp>(op_byte);
    PPC_ASSIGN_OR_RETURN(request.topology_host, reader.GetString());
    PPC_ASSIGN_OR_RETURN(uint32_t port, reader.GetU32());
    if (port == 0 || port > 65535) {
      return Status::InvalidArgument("topology port " + std::to_string(port) +
                                     " outside (0, 65535]");
    }
    request.topology_port = static_cast<uint16_t>(port);
  }
  PPC_RETURN_NOT_OK(RequireAtEnd(reader));
  return request;
}

Result<Response> DecodeResponse(const std::string& payload) {
  ByteReader reader(payload);
  PPC_ASSIGN_OR_RETURN(uint8_t type_byte, reader.GetU8());
  if (type_byte > static_cast<uint8_t>(MessageType::kTopology)) {
    return Status::InvalidArgument("unknown response type " +
                                   std::to_string(type_byte));
  }
  Response response;
  response.type = static_cast<MessageType>(type_byte);
  PPC_ASSIGN_OR_RETURN(response.id, reader.GetU64());
  PPC_ASSIGN_OR_RETURN(uint8_t status_byte, reader.GetU8());
  if (!ValidStatus(status_byte)) {
    return Status::InvalidArgument("unknown response status " +
                                   std::to_string(status_byte));
  }
  response.status = static_cast<WireStatus>(status_byte);
  if (!response.ok()) {
    PPC_ASSIGN_OR_RETURN(response.error, reader.GetString());
  } else {
    switch (response.type) {
      case MessageType::kPredict: {
        PPC_ASSIGN_OR_RETURN(response.predict.plan, reader.GetU64());
        PPC_ASSIGN_OR_RETURN(response.predict.confidence, reader.GetDouble());
        PPC_ASSIGN_OR_RETURN(uint8_t hit, reader.GetU8());
        response.predict.cache_hit = hit != 0;
        break;
      }
      case MessageType::kExecute: {
        Response::Execute& e = response.execute;
        PPC_ASSIGN_OR_RETURN(e.executed_plan, reader.GetU64());
        PPC_ASSIGN_OR_RETURN(e.optimal_plan, reader.GetU64());
        PPC_ASSIGN_OR_RETURN(uint8_t flags, reader.GetU8());
        e.used_prediction = (flags & (1u << 0)) != 0;
        e.cache_hit = (flags & (1u << 1)) != 0;
        e.optimizer_invoked = (flags & (1u << 2)) != 0;
        e.prediction_evicted = (flags & (1u << 3)) != 0;
        e.negative_feedback_triggered = (flags & (1u << 4)) != 0;
        e.failed_over = (flags & (1u << 5)) != 0;
        PPC_ASSIGN_OR_RETURN(e.execution_cost, reader.GetDouble());
        PPC_ASSIGN_OR_RETURN(e.optimize_micros, reader.GetDouble());
        PPC_ASSIGN_OR_RETURN(e.predict_micros, reader.GetDouble());
        PPC_ASSIGN_OR_RETURN(e.execute_micros, reader.GetDouble());
        break;
      }
      case MessageType::kMetrics: {
        PPC_ASSIGN_OR_RETURN(response.metrics_json, reader.GetString());
        break;
      }
      case MessageType::kPredictBatch: {
        PPC_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
        if (count > kMaxBatchPoints) {
          return Status::InvalidArgument(
              "batch of " + std::to_string(count) +
              " answers exceeds the protocol limit of " +
              std::to_string(kMaxBatchPoints));
        }
        response.batch.reserve(count);
        for (uint32_t i = 0; i < count; ++i) {
          Response::Predict p;
          PPC_ASSIGN_OR_RETURN(p.plan, reader.GetU64());
          PPC_ASSIGN_OR_RETURN(p.confidence, reader.GetDouble());
          PPC_ASSIGN_OR_RETURN(uint8_t hit, reader.GetU8());
          p.cache_hit = hit != 0;
          response.batch.push_back(p);
        }
        break;
      }
      case MessageType::kSnapshot: {
        PPC_ASSIGN_OR_RETURN(response.snapshot_blob, reader.GetString());
        break;
      }
      case MessageType::kSnapshotApply: {
        PPC_ASSIGN_OR_RETURN(response.snapshot_applied, reader.GetU32());
        break;
      }
      case MessageType::kTopology: {
        PPC_ASSIGN_OR_RETURN(response.backend_count, reader.GetU32());
        break;
      }
      case MessageType::kPing:
      case MessageType::kShutdown:
      case MessageType::kInvalid:
        break;
    }
  }
  PPC_RETURN_NOT_OK(RequireAtEnd(reader));
  return response;
}

void FrameBuffer::Append(const char* data, size_t size) {
  buffer_.append(data, size);
}

Result<bool> FrameBuffer::Next(std::string* payload) {
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
  payload->assign(buffer_, consumed_ + sizeof(uint32_t), length);
  consumed_ += sizeof(uint32_t) + length;
  return true;
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
