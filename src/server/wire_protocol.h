#ifndef PPC_SERVER_WIRE_PROTOCOL_H_
#define PPC_SERVER_WIRE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "plan/fingerprint.h"
#include "ppc/predict_report.h"

namespace ppc {
namespace wire {

/// Length-prefixed binary protocol of the plan-prediction server
/// (DESIGN.md §12). Every message on the wire is one frame:
///
///   frame    = u32 payload_length (little-endian) | payload
///   request  = u8 type | u64 request_id | body
///   response = u8 type | u64 request_id | u8 status | body
///
/// Direction disambiguates request from response (clients only send
/// requests, servers only send responses). `request_id` is chosen by the
/// client and echoed verbatim, which is what makes pipelining work:
/// responses may be matched out of order. All integers are little-endian;
/// doubles are IEEE-754 bit patterns.
///
/// Decoding is fully bounds-checked: any truncated, oversized or
/// otherwise malformed payload yields an error Status, never undefined
/// behavior — the fuzz tests in tests/test_wire_protocol.cc hold the
/// codec to that contract under ASan.

enum class MessageType : uint8_t {
  kInvalid = 0,  ///< Only in error responses to undecodable requests.
  kPredict = 1,  ///< template + point -> plan id, confidence, cache-hit.
  kExecute = 2,  ///< template + point -> full QueryReport (with feedback).
  kMetrics = 3,  ///< -> MetricsSnapshot().ToJson().
  kPing = 4,     ///< liveness probe.
  kShutdown = 5, ///< ack, then drain-and-exit.
  kPredictBatch = 6,  ///< template + N points -> N (plan, confidence, hit).
  kSnapshot = 7,      ///< -> serialized PredictorState (replication pull).
  kSnapshotApply = 8, ///< serialized PredictorState -> templates applied.
  kTopology = 9,      ///< router admin: add/remove a backend shard.
};

/// kTopology body operation. Routers accept these; plain shards answer
/// kTopology with BAD_REQUEST.
enum class TopologyOp : uint8_t {
  kAdd = 1,
  kRemove = 2,
};

enum class WireStatus : uint8_t {
  kOk = 0,
  kBusy = 1,          ///< request queue full — backpressure, retry later.
  kBadRequest = 2,    ///< malformed frame or semantically invalid body.
  kNotFound = 3,      ///< unknown template.
  kInternal = 4,      ///< server-side failure.
  kShuttingDown = 5,  ///< server is draining; no new work accepted.
  kTimeout = 6,       ///< a server-side deadline expired (read/write).
};

const char* MessageTypeName(MessageType type);
const char* WireStatusName(WireStatus status);

/// Hard protocol limits, enforced by both codec and server.
/// kMaxFrameBytes bounds a frame's payload (a declared length above it is
/// a framing violation that closes the connection); kMaxPointDimensions
/// bounds the selectivity-vector arity so a hostile frame cannot request
/// enormous allocations that its payload length alone would permit.
inline constexpr size_t kDefaultMaxFrameBytes = 1u << 20;
inline constexpr uint32_t kMaxPointDimensions = 1024;
/// Bounds the point count of one PREDICT_BATCH frame. Together with
/// kMaxPointDimensions this caps a batch body's decoded size independently
/// of the declared frame length.
inline constexpr uint32_t kMaxBatchPoints = 1024;

/// One client request. `template_name` / `point` are meaningful for
/// kPredict and kExecute only; `template_name` / `batch_dims` /
/// `batch_points` for kPredictBatch only.
struct Request {
  MessageType type = MessageType::kInvalid;
  uint64_t id = 0;
  std::string template_name;
  std::vector<double> point;

  /// kPredictBatch body: `batch_points` holds N points of `batch_dims`
  /// coordinates each, flattened row-major (point i is the slice
  /// [i * batch_dims, (i + 1) * batch_dims)). The wire body is
  /// `string template | u32 count | u32 dims | count*dims f64`, so the
  /// contiguous layout survives the codec without per-point allocations.
  uint32_t batch_dims = 0;
  std::vector<double> batch_points;

  /// kSnapshotApply body: an opaque serialized PredictorState blob
  /// (validated by the PredictorState codec, not here).
  std::string snapshot_blob;

  /// kTopology body: operation + backend address.
  TopologyOp topology_op = TopologyOp::kAdd;
  std::string topology_host;
  uint16_t topology_port = 0;

  /// Number of points in a kPredictBatch body.
  uint32_t batch_count() const {
    return batch_dims == 0
               ? 0
               : static_cast<uint32_t>(batch_points.size() / batch_dims);
  }

  /// Resets every field to its default. The strings and vectors keep
  /// their storage, so a Request decoded into again and again stops
  /// allocating once it has held its largest body.
  void Clear();
};

/// One server response. Exactly one body section is meaningful, selected
/// by (type, status): `error` for any non-OK status, `predict` for an OK
/// kPredict, `batch` for an OK kPredictBatch, `execute` for an OK
/// kExecute, `metrics_json` for an OK kMetrics; OK kPing / kShutdown have
/// empty bodies.
struct Response {
  MessageType type = MessageType::kInvalid;
  uint64_t id = 0;
  WireStatus status = WireStatus::kOk;
  std::string error;

  /// OK kPredict body: the framework's answer as it is.
  using Predict = PredictReport;
  Predict predict;

  /// OK kPredictBatch body: one Predict per request point, in request
  /// order. A point the predictor abstains on carries kNullPlanId with
  /// confidence 0 — per-point abstention is an answer, not an error
  /// (DESIGN.md §13).
  std::vector<Predict> batch;

  struct Execute {
    PlanId executed_plan = kNullPlanId;
    PlanId optimal_plan = kNullPlanId;
    bool used_prediction = false;
    bool cache_hit = false;
    bool optimizer_invoked = false;
    bool prediction_evicted = false;
    bool negative_feedback_triggered = false;
    /// Set by the router (never by a shard) when the primary's breaker
    /// forced this EXECUTE onto the replica: the answer is live, but the
    /// corrective feedback landed on the replica's predictor, not the
    /// template's home shard (DESIGN.md §18).
    bool failed_over = false;
    double execution_cost = 0.0;
    double optimize_micros = 0.0;
    double predict_micros = 0.0;
    double execute_micros = 0.0;
  } execute;

  std::string metrics_json;

  /// OK kSnapshot body: serialized PredictorState.
  std::string snapshot_blob;
  /// OK kSnapshotApply body: templates warm-started on the server.
  uint32_t snapshot_applied = 0;
  /// OK kTopology body: backend count after the operation.
  uint32_t backend_count = 0;

  bool ok() const { return status == WireStatus::kOk; }

  /// Resets every field to its default, keeping the storage of the
  /// strings and vectors (see Request::Clear).
  void Clear();
};

/// Appends one complete frame (length prefix included) to `out`, written
/// in place: nothing is allocated beyond what `out` grows by.
void EncodeRequest(const Request& request, std::string* out);
void EncodeResponse(const Response& response, std::string* out);

/// Decodes one frame *payload* (the bytes after the length prefix) into
/// `*request`, parsing it in place. Every field is overwritten (Clear), and
/// the strings and vectors keep their storage, so the server decodes each
/// frame into a request it reuses without allocating. Returns
/// InvalidArgument (OutOfRange when truncated) on any malformed input, and
/// then leaves `*request` unspecified.
Status DecodeRequest(std::string_view payload, Request* request);
/// The same decoder, into a fresh Request.
Result<Request> DecodeRequest(const std::string& payload);
Result<Response> DecodeResponse(const std::string& payload);

/// Incremental deframer: feed raw bytes as they arrive off a socket,
/// extract complete frame payloads. A declared payload length of zero or
/// above the limit poisons the buffer (framing can no longer be trusted)
/// and every subsequent call returns the same error.
class FrameBuffer {
 public:
  explicit FrameBuffer(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Append(const char* data, size_t size);

  /// Finds the next complete payload and points `*payload` at it inside
  /// the buffer: no copy. The view stays valid until the next call to
  /// Next, Append or Reset. Returns true when one was found, false when
  /// more bytes are needed, or an error on a framing violation.
  Result<bool> Next(std::string_view* payload);
  /// The same, copied into `*payload`.
  Result<bool> Next(std::string* payload);

  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

  /// Forgets buffered bytes and clears poisoning, so the buffer can be
  /// reused for a brand-new byte stream (client reconnect).
  void Reset() {
    buffer_.clear();
    consumed_ = 0;
    poisoned_ = false;
  }

 private:
  const size_t max_frame_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;
  bool poisoned_ = false;
};

/// Maps a wire status to the library's Status vocabulary (kOk -> OK,
/// kBusy -> ResourceExhausted, kBadRequest -> InvalidArgument, ...).
Status ToStatus(WireStatus status, const std::string& message);

}  // namespace wire
}  // namespace ppc

#endif  // PPC_SERVER_WIRE_PROTOCOL_H_
