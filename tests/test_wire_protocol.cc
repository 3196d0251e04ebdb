#include "server/wire_protocol.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"

namespace ppc {
namespace wire {
namespace {

/// Strips the u32 length prefix off a single encoded frame.
std::string PayloadOf(const std::string& frame) {
  EXPECT_GE(frame.size(), sizeof(uint32_t));
  return frame.substr(sizeof(uint32_t));
}

Request MakePredictRequest(uint64_t id) {
  Request request;
  request.type = MessageType::kPredict;
  request.id = id;
  request.template_name = "Q3";
  request.point = {0.25, 0.5, 0.75};
  return request;
}

Request MakeBatchRequest(uint64_t id, uint32_t count, uint32_t dims) {
  Request request;
  request.type = MessageType::kPredictBatch;
  request.id = id;
  request.template_name = "Q3";
  request.batch_dims = dims;
  for (uint32_t p = 0; p < count; ++p) {
    for (uint32_t j = 0; j < dims; ++j) {
      request.batch_points.push_back(0.01 * static_cast<double>(p * dims + j));
    }
  }
  return request;
}

/// Byte offset of the u32 point count in an encoded PREDICT_BATCH
/// payload: type(1) + id(8) + name_len(4) + name.
size_t BatchCountOffset(const Request& request) {
  return 1 + 8 + 4 + request.template_name.size();
}

TEST(WireProtocolTest, RequestRoundTripsAllTypes) {
  for (MessageType type :
       {MessageType::kPredict, MessageType::kExecute, MessageType::kMetrics,
        MessageType::kPing, MessageType::kShutdown}) {
    Request request;
    request.type = type;
    request.id = 42;
    if (type == MessageType::kPredict || type == MessageType::kExecute) {
      request.template_name = "Q7";
      request.point = {0.1, 0.9};
    }
    std::string frame;
    EncodeRequest(request, &frame);
    auto decoded = DecodeRequest(PayloadOf(frame));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().type, type);
    EXPECT_EQ(decoded.value().id, 42u);
    EXPECT_EQ(decoded.value().template_name, request.template_name);
    EXPECT_EQ(decoded.value().point, request.point);
  }
}

TEST(WireProtocolTest, PredictResponseRoundTrips) {
  Response response;
  response.type = MessageType::kPredict;
  response.id = 7;
  response.predict.plan = 987654321;
  response.predict.confidence = 0.875;
  response.predict.cache_hit = true;
  std::string frame;
  EncodeResponse(response, &frame);
  auto decoded = DecodeResponse(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().predict.plan, 987654321u);
  EXPECT_DOUBLE_EQ(decoded.value().predict.confidence, 0.875);
  EXPECT_TRUE(decoded.value().predict.cache_hit);
}

TEST(WireProtocolTest, ExecuteResponseRoundTripsAllFlags) {
  Response response;
  response.type = MessageType::kExecute;
  response.id = 9;
  response.execute.executed_plan = 11;
  response.execute.optimal_plan = 12;
  response.execute.used_prediction = true;
  response.execute.cache_hit = true;
  response.execute.optimizer_invoked = true;
  response.execute.prediction_evicted = true;
  response.execute.negative_feedback_triggered = true;
  response.execute.failed_over = true;
  response.execute.execution_cost = 123.5;
  response.execute.optimize_micros = 10.0;
  response.execute.predict_micros = 2.0;
  response.execute.execute_micros = 5.5;
  std::string frame;
  EncodeResponse(response, &frame);
  auto decoded = DecodeResponse(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok());
  const Response::Execute& e = decoded.value().execute;
  EXPECT_EQ(e.executed_plan, 11u);
  EXPECT_EQ(e.optimal_plan, 12u);
  EXPECT_TRUE(e.used_prediction);
  EXPECT_TRUE(e.cache_hit);
  EXPECT_TRUE(e.optimizer_invoked);
  EXPECT_TRUE(e.prediction_evicted);
  EXPECT_TRUE(e.negative_feedback_triggered);
  EXPECT_TRUE(e.failed_over);
  EXPECT_DOUBLE_EQ(e.execution_cost, 123.5);
}

TEST(WireProtocolTest, ErrorResponseRoundTrips) {
  Response response;
  response.type = MessageType::kExecute;
  response.id = 3;
  response.status = WireStatus::kBusy;
  response.error = "request queue full";
  std::string frame;
  EncodeResponse(response, &frame);
  auto decoded = DecodeResponse(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().status, WireStatus::kBusy);
  EXPECT_EQ(decoded.value().error, "request queue full");
  EXPECT_FALSE(decoded.value().ok());
}

TEST(WireProtocolTest, MetricsResponseCarriesJson) {
  Response response;
  response.type = MessageType::kMetrics;
  response.id = 1;
  response.metrics_json = "{\"counters\": {}}";
  std::string frame;
  EncodeResponse(response, &frame);
  auto decoded = DecodeResponse(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().metrics_json, "{\"counters\": {}}");
}

TEST(WireProtocolTest, RejectsUnknownTypeStatusAndTrailingBytes) {
  std::string frame;
  EncodeRequest(MakePredictRequest(1), &frame);
  std::string payload = PayloadOf(frame);
  payload[0] = 99;  // unknown type
  EXPECT_FALSE(DecodeRequest(payload).ok());

  payload = PayloadOf(frame);
  payload.push_back('x');  // trailing garbage
  EXPECT_FALSE(DecodeRequest(payload).ok());

  Response pong;
  pong.type = MessageType::kPing;
  pong.id = 2;
  frame.clear();
  EncodeResponse(pong, &frame);
  payload = PayloadOf(frame);
  payload[sizeof(uint8_t) + sizeof(uint64_t)] = 77;  // unknown status
  EXPECT_FALSE(DecodeResponse(payload).ok());
}

TEST(WireProtocolTest, RejectsOversizedPointArity) {
  // A frame can *declare* a huge arity without carrying the doubles; the
  // decoder must refuse before any allocation sized from the claim.
  std::string frame;
  EncodeRequest(MakePredictRequest(1), &frame);
  std::string payload = PayloadOf(frame);
  // Locate the u32 arity: type(1) + id(8) + name_len(4) + name(2).
  const size_t arity_offset = 1 + 8 + 4 + 2;
  const uint32_t huge = kMaxPointDimensions + 1;
  std::memcpy(payload.data() + arity_offset, &huge, sizeof(huge));
  EXPECT_FALSE(DecodeRequest(payload).ok());
}

TEST(WireProtocolTest, PredictBatchRequestRoundTrips) {
  const Request request = MakeBatchRequest(21, /*count=*/5, /*dims=*/3);
  std::string frame;
  EncodeRequest(request, &frame);
  auto decoded = DecodeRequest(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().type, MessageType::kPredictBatch);
  EXPECT_EQ(decoded.value().id, 21u);
  EXPECT_EQ(decoded.value().template_name, "Q3");
  EXPECT_EQ(decoded.value().batch_dims, 3u);
  EXPECT_EQ(decoded.value().batch_count(), 5u);
  EXPECT_EQ(decoded.value().batch_points, request.batch_points);
}

TEST(WireProtocolTest, PredictBatchResponseRoundTripsIncludingNullPlans) {
  Response response;
  response.type = MessageType::kPredictBatch;
  response.id = 4;
  response.batch.push_back(Response::Predict{77, 0.9, true});
  // An abstention is an answer: NULL plan, zero confidence, no cache hit.
  response.batch.push_back(Response::Predict{kNullPlanId, 0.0, false});
  response.batch.push_back(Response::Predict{12345, 0.75, false});
  std::string frame;
  EncodeResponse(response, &frame);
  auto decoded = DecodeResponse(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().batch.size(), 3u);
  EXPECT_EQ(decoded.value().batch[0].plan, 77u);
  EXPECT_DOUBLE_EQ(decoded.value().batch[0].confidence, 0.9);
  EXPECT_TRUE(decoded.value().batch[0].cache_hit);
  EXPECT_EQ(decoded.value().batch[1].plan, kNullPlanId);
  EXPECT_FALSE(decoded.value().batch[1].cache_hit);
  EXPECT_EQ(decoded.value().batch[2].plan, 12345u);
}

TEST(WireProtocolTest, RejectsZeroLengthBatch) {
  // A zero-point batch is semantically meaningless; the decoder refuses
  // it outright rather than leaving each layer to special-case emptiness.
  const Request request = MakeBatchRequest(1, /*count=*/4, /*dims=*/2);
  std::string frame;
  EncodeRequest(request, &frame);
  std::string payload = PayloadOf(frame);
  const uint32_t zero = 0;
  std::memcpy(payload.data() + BatchCountOffset(request), &zero, sizeof(zero));
  EXPECT_FALSE(DecodeRequest(payload).ok());
}

TEST(WireProtocolTest, RejectsZeroArityBatchPoints) {
  const Request request = MakeBatchRequest(1, /*count=*/4, /*dims=*/2);
  std::string frame;
  EncodeRequest(request, &frame);
  std::string payload = PayloadOf(frame);
  const uint32_t zero = 0;
  std::memcpy(payload.data() + BatchCountOffset(request) + sizeof(uint32_t),
              &zero, sizeof(zero));
  EXPECT_FALSE(DecodeRequest(payload).ok());
}

TEST(WireProtocolTest, RejectsOversizedBatchDeclaration) {
  // As with point arity, a frame can declare a huge batch without
  // carrying the doubles; the decoder must refuse before sizing any
  // allocation from the claim.
  const Request request = MakeBatchRequest(1, /*count=*/2, /*dims=*/2);
  std::string frame;
  EncodeRequest(request, &frame);
  std::string payload = PayloadOf(frame);
  const uint32_t huge = kMaxBatchPoints + 1;
  std::memcpy(payload.data() + BatchCountOffset(request), &huge, sizeof(huge));
  EXPECT_FALSE(DecodeRequest(payload).ok());
}

TEST(WireProtocolTest, RejectsTruncatedBatchBodies) {
  // Every strict prefix of a batch payload must fail: mid-count,
  // mid-dims, and anywhere inside the flattened coordinate block.
  const Request request = MakeBatchRequest(1, /*count=*/8, /*dims=*/3);
  std::string frame;
  EncodeRequest(request, &frame);
  const std::string payload = PayloadOf(frame);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(DecodeRequest(payload.substr(0, cut)).ok())
        << "truncation at " << cut << " of " << payload.size();
  }
}

TEST(WireProtocolTest, SnapshotRequestRoundTripsOpaqueBlob) {
  Request request;
  request.type = MessageType::kSnapshotApply;
  request.id = 77;
  // The blob is opaque to the codec — arbitrary bytes including NULs and
  // high bits must survive verbatim.
  request.snapshot_blob = std::string("PPCR\x00\x01\xff\x80 blob", 13);
  std::string frame;
  EncodeRequest(request, &frame);
  auto decoded = DecodeRequest(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().type, MessageType::kSnapshotApply);
  EXPECT_EQ(decoded.value().id, 77u);
  EXPECT_EQ(decoded.value().snapshot_blob, request.snapshot_blob);

  Request pull;
  pull.type = MessageType::kSnapshot;
  pull.id = 78;
  frame.clear();
  EncodeRequest(pull, &frame);
  auto pull_decoded = DecodeRequest(PayloadOf(frame));
  ASSERT_TRUE(pull_decoded.ok());
  EXPECT_EQ(pull_decoded.value().type, MessageType::kSnapshot);
}

TEST(WireProtocolTest, SnapshotResponsesRoundTrip) {
  Response snapshot;
  snapshot.type = MessageType::kSnapshot;
  snapshot.id = 5;
  snapshot.snapshot_blob = std::string("\x00\x01\x02payload", 10);
  std::string frame;
  EncodeResponse(snapshot, &frame);
  auto decoded = DecodeResponse(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().snapshot_blob, snapshot.snapshot_blob);

  Response applied;
  applied.type = MessageType::kSnapshotApply;
  applied.id = 6;
  applied.snapshot_applied = 17;
  frame.clear();
  EncodeResponse(applied, &frame);
  auto applied_decoded = DecodeResponse(PayloadOf(frame));
  ASSERT_TRUE(applied_decoded.ok());
  EXPECT_EQ(applied_decoded.value().snapshot_applied, 17u);
}

TEST(WireProtocolTest, TopologyRequestRoundTripsBothOps) {
  for (TopologyOp op : {TopologyOp::kAdd, TopologyOp::kRemove}) {
    Request request;
    request.type = MessageType::kTopology;
    request.id = 3;
    request.topology_op = op;
    request.topology_host = "127.0.0.1";
    request.topology_port = 54321;
    std::string frame;
    EncodeRequest(request, &frame);
    auto decoded = DecodeRequest(PayloadOf(frame));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().topology_op, op);
    EXPECT_EQ(decoded.value().topology_host, "127.0.0.1");
    EXPECT_EQ(decoded.value().topology_port, 54321);
  }

  Response response;
  response.type = MessageType::kTopology;
  response.id = 3;
  response.backend_count = 4;
  std::string frame;
  EncodeResponse(response, &frame);
  auto decoded = DecodeResponse(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().backend_count, 4u);
}

TEST(WireProtocolTest, RejectsInvalidTopologyBodies) {
  Request request;
  request.type = MessageType::kTopology;
  request.id = 3;
  request.topology_op = TopologyOp::kAdd;
  request.topology_host = "localhost";
  request.topology_port = 1;
  std::string frame;
  EncodeRequest(request, &frame);
  std::string payload = PayloadOf(frame);
  // Body layout: type(1) + id(8) + u8 op + string host + u32 port.
  std::string bad_op = payload;
  bad_op[1 + 8] = 3;  // neither kAdd nor kRemove
  EXPECT_FALSE(DecodeRequest(bad_op).ok());
  std::string bad_port = payload;
  for (size_t i = payload.size() - 4; i < payload.size(); ++i) {
    bad_port[i] = 0;  // port 0 is never routable
  }
  EXPECT_FALSE(DecodeRequest(bad_port).ok());
  std::string oversized_port = payload;
  std::memset(oversized_port.data() + payload.size() - 4, 0xff, 4);
  EXPECT_FALSE(DecodeRequest(oversized_port).ok());
}

TEST(WireProtocolTest, RejectsTruncatedSnapshotAndTopologyBodies) {
  Request apply;
  apply.type = MessageType::kSnapshotApply;
  apply.id = 1;
  apply.snapshot_blob = "0123456789abcdef";
  Request topology;
  topology.type = MessageType::kTopology;
  topology.id = 2;
  topology.topology_host = "shard-a.internal";
  topology.topology_port = 9000;
  for (const Request& request : {apply, topology}) {
    std::string frame;
    EncodeRequest(request, &frame);
    const std::string payload = PayloadOf(frame);
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      EXPECT_FALSE(DecodeRequest(payload.substr(0, cut)).ok())
          << MessageTypeName(request.type) << " truncation at " << cut;
    }
  }
}

TEST(FrameBufferTest, ReassemblesByteByByte) {
  std::string frame;
  EncodeRequest(MakePredictRequest(5), &frame);
  FrameBuffer buffer;
  std::string payload;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    buffer.Append(&frame[i], 1);
    auto next = buffer.Next(&payload);
    ASSERT_TRUE(next.ok());
    EXPECT_FALSE(next.value());
  }
  buffer.Append(&frame[frame.size() - 1], 1);
  auto next = buffer.Next(&payload);
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next.value());
  auto decoded = DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().id, 5u);
}

TEST(FrameBufferTest, ExtractsMultiplePipelinedFrames) {
  std::string stream;
  for (uint64_t id = 1; id <= 10; ++id) {
    EncodeRequest(MakePredictRequest(id), &stream);
  }
  FrameBuffer buffer;
  buffer.Append(stream.data(), stream.size());
  for (uint64_t id = 1; id <= 10; ++id) {
    std::string payload;
    auto next = buffer.Next(&payload);
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(next.value());
    auto decoded = DecodeRequest(payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().id, id);
  }
  std::string payload;
  EXPECT_FALSE(buffer.Next(&payload).value());
}

TEST(FrameBufferTest, OversizedDeclaredLengthPoisonsTheStream) {
  FrameBuffer buffer(/*max_frame_bytes=*/1024);
  const uint32_t huge = 1 << 30;
  char prefix[sizeof(huge)];
  std::memcpy(prefix, &huge, sizeof(huge));
  buffer.Append(prefix, sizeof(prefix));
  std::string payload;
  EXPECT_FALSE(buffer.Next(&payload).ok());
  // Once poisoned, always poisoned — the caller must drop the connection.
  EXPECT_FALSE(buffer.Next(&payload).ok());
}

TEST(FrameBufferTest, ZeroLengthFrameIsAFramingViolation) {
  FrameBuffer buffer;
  const uint32_t zero = 0;
  char prefix[sizeof(zero)];
  std::memcpy(prefix, &zero, sizeof(zero));
  buffer.Append(prefix, sizeof(prefix));
  std::string payload;
  EXPECT_FALSE(buffer.Next(&payload).ok());
}

/// Fuzz-style robustness: random truncations, corruptions and garbage
/// must decode to a clean error (or, for corruptions that happen to stay
/// well-formed, a success) — never crash, hang, or read out of bounds.
/// Run under ASan by scripts/check.sh for the memory-safety half of that
/// claim.
class WireProtocolFuzzTest : public ::testing::Test {
 protected:
  /// A pseudo-random but decodable request of any type.
  Request RandomRequest() {
    Request request;
    request.type = static_cast<MessageType>(1 + rng_.UniformInt(uint64_t{9}));
    request.id = rng_.Next();
    if (request.type == MessageType::kPredict ||
        request.type == MessageType::kExecute ||
        request.type == MessageType::kPredictBatch) {
      const uint64_t name_len = rng_.UniformInt(uint64_t{8});
      for (uint64_t i = 0; i < name_len; ++i) {
        request.template_name.push_back(
            static_cast<char>('A' + rng_.UniformInt(uint64_t{26})));
      }
    }
    if (request.type == MessageType::kPredict ||
        request.type == MessageType::kExecute) {
      const uint64_t dims = rng_.UniformInt(uint64_t{6});
      for (uint64_t i = 0; i < dims; ++i) {
        request.point.push_back(rng_.Uniform());
      }
    } else if (request.type == MessageType::kPredictBatch) {
      // A decodable batch needs count >= 1 and dims >= 1.
      const uint64_t count = 1 + rng_.UniformInt(uint64_t{8});
      const uint64_t dims = 1 + rng_.UniformInt(uint64_t{5});
      request.batch_dims = static_cast<uint32_t>(dims);
      for (uint64_t i = 0; i < count * dims; ++i) {
        request.batch_points.push_back(rng_.Uniform());
      }
    } else if (request.type == MessageType::kSnapshotApply) {
      const uint64_t blob_len = rng_.UniformInt(uint64_t{64});
      for (uint64_t i = 0; i < blob_len; ++i) {
        request.snapshot_blob.push_back(RandomByte());
      }
    } else if (request.type == MessageType::kTopology) {
      request.topology_op =
          rng_.UniformInt(uint64_t{2}) == 0 ? TopologyOp::kAdd
                                            : TopologyOp::kRemove;
      const uint64_t host_len = rng_.UniformInt(uint64_t{16});
      for (uint64_t i = 0; i < host_len; ++i) {
        request.topology_host.push_back(
            static_cast<char>('a' + rng_.UniformInt(uint64_t{26})));
      }
      request.topology_port =
          static_cast<uint16_t>(1 + rng_.UniformInt(uint64_t{65535}));
    }
    return request;
  }

  size_t RandomIndex(size_t size) {
    return static_cast<size_t>(rng_.UniformInt(static_cast<uint64_t>(size)));
  }

  char RandomByte() {
    return static_cast<char>(rng_.UniformInt(uint64_t{256}));
  }

  Rng rng_{20260805};
};

TEST_F(WireProtocolFuzzTest, TruncatedPayloadsFailCleanly) {
  for (int iter = 0; iter < 500; ++iter) {
    std::string frame;
    EncodeRequest(RandomRequest(), &frame);
    const std::string payload = PayloadOf(frame);
    const size_t cut = RandomIndex(payload.size());
    const auto decoded = DecodeRequest(payload.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "truncation at " << cut
                               << " of " << payload.size();
  }
}

TEST_F(WireProtocolFuzzTest, CorruptedPayloadsNeverCrash) {
  for (int iter = 0; iter < 2000; ++iter) {
    std::string frame;
    EncodeRequest(RandomRequest(), &frame);
    std::string payload = PayloadOf(frame);
    const uint64_t flips = 1 + rng_.UniformInt(uint64_t{4});
    for (uint64_t i = 0; i < flips; ++i) {
      payload[RandomIndex(payload.size())] = RandomByte();
    }
    // Either outcome is fine; what matters is bounded, crash-free work.
    (void)DecodeRequest(payload);
    (void)DecodeResponse(payload);
  }
}

TEST_F(WireProtocolFuzzTest, RandomGarbageStreamsNeverCrashTheDeframer) {
  for (int iter = 0; iter < 200; ++iter) {
    FrameBuffer buffer(/*max_frame_bytes=*/4096);
    std::string garbage;
    const uint64_t len = rng_.UniformInt(uint64_t{512});
    for (uint64_t i = 0; i < len; ++i) {
      garbage.push_back(RandomByte());
    }
    buffer.Append(garbage.data(), garbage.size());
    std::string payload;
    // Drain until need-more or poison; both are clean terminal states.
    while (true) {
      auto next = buffer.Next(&payload);
      if (!next.ok() || !next.value()) break;
      (void)DecodeRequest(payload);
    }
  }
}

/// Coordinates compared by bit pattern: a corrupted payload may decode a
/// NaN, which == would never match.
bool SameDoubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

void ExpectSameRequest(const Request& expected, const Request& actual) {
  EXPECT_EQ(actual.type, expected.type);
  EXPECT_EQ(actual.id, expected.id);
  EXPECT_EQ(actual.template_name, expected.template_name);
  EXPECT_TRUE(SameDoubles(actual.point, expected.point));
  EXPECT_EQ(actual.batch_dims, expected.batch_dims);
  EXPECT_TRUE(SameDoubles(actual.batch_points, expected.batch_points));
  EXPECT_EQ(actual.snapshot_blob, expected.snapshot_blob);
  EXPECT_EQ(actual.topology_op, expected.topology_op);
  EXPECT_EQ(actual.topology_host, expected.topology_host);
  EXPECT_EQ(actual.topology_port, expected.topology_port);
}

/// The server decodes each frame into a Request it reuses, so whatever an
/// earlier frame left there must not leak into the next. Every payload of
/// the corpus above (valid, truncated, corrupted) is decoded twice: into a
/// fresh Request and into one reused, dirty Request. Both must succeed or
/// fail alike, with the same error, and agree on every field.
TEST_F(WireProtocolFuzzTest, DecodingIntoAReusedRequestMatchesAFreshOne) {
  Request reused;
  reused.type = MessageType::kTopology;
  reused.id = 99;
  reused.template_name = "stale template";
  reused.point = {1.0, 2.0, 3.0};
  reused.batch_dims = 2;
  reused.batch_points = {4.0, 5.0, 6.0, 7.0};
  reused.snapshot_blob = "stale blob";
  reused.topology_op = TopologyOp::kRemove;
  reused.topology_host = "stale.host";
  reused.topology_port = 4242;
  const auto decode_both = [&](const std::string& payload) {
    const Result<Request> fresh = DecodeRequest(payload);
    const Status in_place = DecodeRequest(std::string_view(payload), &reused);
    ASSERT_EQ(in_place.ok(), fresh.ok()) << in_place.ToString();
    if (!fresh.ok()) {
      EXPECT_EQ(in_place.code(), fresh.status().code());
      EXPECT_EQ(in_place.message(), fresh.status().message());
      return;
    }
    ExpectSameRequest(fresh.value(), reused);
  };
  std::vector<Request> valid = {MakePredictRequest(1),
                                MakeBatchRequest(2, 4, 3)};
  for (int iter = 0; iter < 1000; ++iter) valid.push_back(RandomRequest());
  for (const Request& request : valid) {
    std::string frame;
    EncodeRequest(request, &frame);
    const std::string payload = PayloadOf(frame);
    decode_both(payload);
    ExpectSameRequest(request, reused);
    decode_both(payload.substr(0, RandomIndex(payload.size())));
    std::string corrupted = payload;
    const uint64_t flips = 1 + rng_.UniformInt(uint64_t{4});
    for (uint64_t i = 0; i < flips; ++i) {
      corrupted[RandomIndex(corrupted.size())] = RandomByte();
    }
    decode_both(corrupted);
  }
}

TEST_F(WireProtocolFuzzTest, ResponsesSurviveTruncationAndCorruption) {
  for (int iter = 0; iter < 500; ++iter) {
    Response response;
    response.type = MessageType::kExecute;
    response.id = rng_.Next();
    if (rng_.UniformInt(uint64_t{2}) == 0) {
      response.status = WireStatus::kBadRequest;
      response.error = "boom";
    } else {
      response.execute.executed_plan = rng_.Next();
      response.execute.execution_cost = rng_.Uniform();
    }
    std::string frame;
    EncodeResponse(response, &frame);
    std::string payload = PayloadOf(frame);
    const size_t cut = RandomIndex(payload.size());
    EXPECT_FALSE(DecodeResponse(payload.substr(0, cut)).ok());
    payload[RandomIndex(payload.size())] = RandomByte();
    (void)DecodeResponse(payload);
  }
}

}  // namespace
}  // namespace wire
}  // namespace ppc
