#include "server/server.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "server/client.h"
#include "server/failpoints.h"
#include "server/net_util.h"
#include "server/wire_protocol.h"
#include "test_util.h"
#include "workload/templates.h"

namespace ppc {
namespace {

using testutil::JsonValidator;
using testutil::SmallTpch;

/// Reads the next response frame off a raw socket; NotFound at EOF.
Result<wire::Response> ReadResponse(int fd, wire::FrameBuffer* frames,
                                    const net::Deadline& deadline) {
  std::string payload;
  while (true) {
    PPC_ASSIGN_OR_RETURN(const bool complete, frames->Next(&payload));
    if (complete) return wire::DecodeResponse(payload);
    char buffer[4096];
    PPC_ASSIGN_OR_RETURN(const size_t received,
                         net::RecvSome(fd, buffer, sizeof(buffer), deadline));
    if (received == 0) return Status::NotFound("end of stream");
    frames->Append(buffer, received);
  }
}

/// One request frame without a body (PING, METRICS), appended to `out`.
void AppendBodylessRequest(wire::MessageType type, uint64_t id,
                           std::string* out) {
  wire::Request request;
  request.type = type;
  request.id = id;
  wire::EncodeRequest(request, out);
}

/// Polls `done` every millisecond until it holds or `ms` elapse.
template <typename Predicate>
bool WaitFor(Predicate done, int64_t ms = 5000) {
  const net::Deadline deadline = net::Deadline::AfterMs(ms);
  while (!done()) {
    if (deadline.expired()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

int64_t MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Runs `fn` when it goes out of scope.
template <typename Fn>
struct AtScopeExit {
  Fn fn;
  ~AtScopeExit() { fn(); }
};

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

/// Framework with Q1 (2-dim) and Q3 (3-dim) registered; `warm_queries`
/// executions around (0.5, 0.5) make Q1 confidently predictable.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    framework_ = std::make_unique<PpcFramework>(&SmallTpch(), ServingConfig());
    ASSERT_TRUE(framework_->RegisterTemplate(EvaluationTemplate("Q1")).ok());
    ASSERT_TRUE(framework_->RegisterTemplate(EvaluationTemplate("Q3")).ok());
  }

  void WarmQ1(int warm_queries) {
    Rng rng(7);
    for (int i = 0; i < warm_queries; ++i) {
      std::vector<double> x = {0.5 + rng.Uniform(-0.02, 0.02),
                               0.5 + rng.Uniform(-0.02, 0.02)};
      ASSERT_TRUE(framework_->ExecuteAtPoint("Q1", x).ok());
    }
  }

  /// Starts a server on an ephemeral port and returns a connected client.
  void StartServer(PlanServer::Config config = {}) {
    server_ = std::make_unique<PlanServer>(framework_.get(), config);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(server_->running());
    ASSERT_GT(server_->port(), 0);
  }

  Status ConnectClient(PpcClient* client) {
    return client->Connect("127.0.0.1", server_->port());
  }

  void TearDown() override {
    // Robustness tests arm process-global failpoints; never leak one into
    // the next test (or into the server teardown below).
    failpoints::DisarmAll();
    if (server_ != nullptr) server_->Stop();
  }

  uint64_t Counter(const std::string& name) {
    return framework_->metrics().counter(name).value();
  }

  std::unique_ptr<PpcFramework> framework_;
  std::unique_ptr<PlanServer> server_;
};

TEST_F(ServerTest, StartPingStop) {
  StartServer();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  EXPECT_TRUE(client.Ping().ok());
  server_->Stop();
  EXPECT_FALSE(server_->running());
}

TEST_F(ServerTest, StartIsRejectedTwice) {
  StartServer();
  EXPECT_FALSE(server_->Start().ok());
}

TEST_F(ServerTest, PredictRoundTrip) {
  WarmQ1(300);
  StartServer();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  auto result = client.Predict("Q1", {0.5, 0.5});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The framework RNG is seeded, so the warmed cluster predicts
  // deterministically.
  EXPECT_NE(result.value().plan, kNullPlanId);
  EXPECT_GE(result.value().confidence, 0.8);

  // A cold region yields the NULL plan, still with an OK transport status.
  auto cold = client.Predict("Q3", {0.9, 0.9, 0.9});
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.value().plan, kNullPlanId);
}

TEST_F(ServerTest, BatchPredictionsAgreeWithScalarPointForPoint) {
  WarmQ1(300);
  StartServer();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());

  // Points spanning the warmed cluster and cold regions, so the batch
  // covers both confident predictions and abstentions.
  Rng rng(23);
  constexpr uint32_t kDims = 2;
  constexpr int kPoints = 48;
  std::vector<double> flat;
  for (int i = 0; i < kPoints; ++i) {
    if (i % 3 == 0) {
      // Far corner, well outside the warmed cluster's support.
      flat.push_back(0.02 + rng.Uniform(0.0, 0.02));
      flat.push_back(0.96 + rng.Uniform(0.0, 0.02));
    } else {
      flat.push_back(0.5 + rng.Uniform(-0.03, 0.03));
      flat.push_back(0.5 + rng.Uniform(-0.03, 0.03));
    }
  }

  auto batch = client.PredictBatch("Q1", flat, kDims);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.value().size(), static_cast<size_t>(kPoints));

  bool saw_hit = false;
  for (int i = 0; i < kPoints; ++i) {
    std::vector<double> x(flat.begin() + i * kDims,
                          flat.begin() + (i + 1) * kDims);
    auto scalar = client.Predict("Q1", x);
    ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
    EXPECT_EQ(batch.value()[i].plan, scalar.value().plan) << "point " << i;
    EXPECT_EQ(batch.value()[i].confidence, scalar.value().confidence)
        << "point " << i;
    EXPECT_EQ(batch.value()[i].cache_hit, scalar.value().cache_hit)
        << "point " << i;
    saw_hit |= batch.value()[i].plan != kNullPlanId;
  }
  // The comparison only bites if the batch contains real predictions.
  EXPECT_TRUE(saw_hit);

  // An unwarmed template abstains on every point: the batch answer is a
  // full row of NULL plans, not an error (DESIGN.md §13).
  auto cold = client.PredictBatch("Q3", {0.9, 0.9, 0.9, 0.1, 0.2, 0.3}, 3);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ(cold.value().size(), 2u);
  for (const auto& answer : cold.value()) {
    EXPECT_EQ(answer.plan, kNullPlanId);
    EXPECT_EQ(answer.confidence, 0.0);
    EXPECT_FALSE(answer.cache_hit);
  }
}

TEST_F(ServerTest, BatchSemanticErrorsAreAllOrNothing) {
  WarmQ1(100);
  StartServer();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());

  auto unknown = client.PredictBatch("NoSuchTemplate", {0.5, 0.5}, 2);
  EXPECT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  auto bad_arity = client.PredictBatch("Q1", {0.5, 0.5, 0.5}, 3);
  EXPECT_FALSE(bad_arity.ok());
  EXPECT_EQ(bad_arity.status().code(), StatusCode::kInvalidArgument);

  auto bad_coord = client.PredictBatch("Q1", {0.5, 0.5, 0.5, 1e308 * 10}, 2);
  EXPECT_FALSE(bad_coord.ok());
  EXPECT_EQ(bad_coord.status().code(), StatusCode::kInvalidArgument);

  // The connection survives batch-level rejections.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.PredictBatch("Q1", {0.5, 0.5}, 2).ok());
}

TEST_F(ServerTest, MicrobatchedPredictsMatchUnbatchedAnswers) {
  WarmQ1(300);

  // Gate the single worker so a burst of pipelined PREDICTs piles up in
  // the queue; on release the worker drains them as one micro-batch.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};
  PlanServer::Config config;
  config.worker_threads = 1;
  config.queue_capacity = 64;
  config.max_microbatch = 16;
  config.pre_dispatch_hook = [&](wire::MessageType) {
    if (entered.fetch_add(1) == 0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
  };
  StartServer(config);

  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  auto gate = client.SendPing();
  ASSERT_TRUE(gate.ok());
  while (entered.load() == 0) std::this_thread::yield();

  Rng rng(29);
  std::vector<uint64_t> ids;
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 12; ++i) {
    const double spread = (i % 3 == 0) ? 0.45 : 0.03;
    points.push_back({0.5 + rng.Uniform(-spread, spread),
                      0.5 + rng.Uniform(-spread, spread)});
    auto id = client.SendPredict("Q1", points.back());
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  while (server_->queued_requests() < 12) std::this_thread::yield();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  ASSERT_TRUE(client.Wait(gate.value()).ok());
  std::vector<wire::Response> responses;
  for (uint64_t id : ids) {
    auto response = client.Wait(id);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response.value().ok());
    responses.push_back(response.value());
  }

  // Micro-batched answers must be indistinguishable from scalar ones.
  for (size_t i = 0; i < ids.size(); ++i) {
    auto scalar = client.Predict("Q1", points[i]);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(responses[i].predict.plan, scalar.value().plan) << "point " << i;
    EXPECT_EQ(responses[i].predict.confidence, scalar.value().confidence)
        << "point " << i;
  }

  // The queue really was drained as micro-batches, not one-at-a-time.
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().find("server.microbatches"), std::string::npos);
  EXPECT_NE(metrics.value().find("server.microbatched_predicts"),
            std::string::npos);
  EXPECT_GT(framework_->metrics().counter("server.microbatches").value(), 0u);
  EXPECT_GE(
      framework_->metrics().counter("server.microbatched_predicts").value(),
      12u);
}

TEST_F(ServerTest, ExecuteRoundTripFeedsTheOnlineLoop) {
  StartServer();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  Rng rng(11);
  bool saw_prediction = false;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x = {0.5 + rng.Uniform(-0.02, 0.02),
                             0.5 + rng.Uniform(-0.02, 0.02)};
    auto report = client.Execute("Q1", x);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_NE(report.value().executed_plan, kNullPlanId);
    EXPECT_GT(report.value().execution_cost, 0.0);
    saw_prediction |= report.value().used_prediction;
  }
  // EXECUTE runs the full feedback path, so the predictor must have
  // learned the cluster over 200 queries.
  EXPECT_TRUE(saw_prediction);
}

TEST_F(ServerTest, SemanticErrorsKeepTheConnectionOpen) {
  StartServer();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());

  auto unknown = client.Predict("NoSuchTemplate", {0.5, 0.5});
  EXPECT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  auto bad_arity = client.Predict("Q1", {0.5});
  EXPECT_FALSE(bad_arity.ok());
  EXPECT_EQ(bad_arity.status().code(), StatusCode::kInvalidArgument);

  auto bad_coord = client.Execute("Q1", {0.5, 1e308 * 10});  // +inf
  EXPECT_FALSE(bad_coord.ok());
  EXPECT_EQ(bad_coord.status().code(), StatusCode::kInvalidArgument);

  // The connection survives semantic errors.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Predict("Q1", {0.5, 0.5}).ok());
}

TEST_F(ServerTest, MetricsRoundTripsValidJson) {
  StartServer();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Predict("Q1", {0.5, 0.5}).ok());
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_TRUE(JsonValidator::Valid(metrics.value())) << metrics.value();
  for (const char* key :
       {"server.requests.ping", "server.requests.predict",
        "server.connections.accepted", "server.predict_us"}) {
    EXPECT_NE(metrics.value().find(key), std::string::npos) << key;
  }
}

TEST_F(ServerTest, PipelinedRequestsResolveOutOfOrder) {
  StartServer();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  std::vector<uint64_t> ids;
  constexpr uint64_t kRequests = 32;
  for (uint64_t i = 0; i < kRequests; ++i) {
    auto id = (i % 2 == 0) ? client.SendPing()
                           : client.SendPredict("Q1", {0.5, 0.5});
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  // Collect in reverse to force the client to park early responses.
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    auto response = client.Wait(*it);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().id, *it);
    EXPECT_TRUE(response.value().ok());
  }
  // Every reply left in some flush, and a flush carries one reply or more.
  // Stop first: a flush counts itself after its write returns.
  server_->Stop();
  EXPECT_GE(Counter("server.flushes"), 1u);
  EXPECT_LE(Counter("server.flushes"), kRequests);
}

TEST_F(ServerTest, ConcurrentClientsEachGetTheirOwnAnswers) {
  WarmQ1(200);
  StartServer();
  constexpr int kClients = 8;
  constexpr int kRequestsEach = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([this, t, &failures] {
      PpcClient client;
      if (!ConnectClient(&client).ok()) {
        failures.fetch_add(1);
        return;
      }
      Rng rng(100 + t);
      for (int i = 0; i < kRequestsEach; ++i) {
        Status status;
        switch (rng.UniformInt(uint64_t{3})) {
          case 0:
            status = client.Ping();
            break;
          case 1:
            status = client.Predict("Q1", {0.5, 0.5}).status();
            break;
          default:
            status = client
                         .Execute("Q3", {0.4 + rng.Uniform(-0.02, 0.02),
                                         0.4 + rng.Uniform(-0.02, 0.02),
                                         0.4 + rng.Uniform(-0.02, 0.02)})
                         .status();
            break;
        }
        if (!status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServerTest, BackpressureAnswersBusyWhenTheQueueIsFull) {
  // One worker held inside the dispatch hook + a capacity-1 queue makes
  // overflow deterministic: request 1 is in the worker, request 2 fills
  // the queue, requests 3+ must bounce with BUSY from the IO thread.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};
  PlanServer::Config config;
  config.worker_threads = 1;
  config.queue_capacity = 1;
  config.pre_dispatch_hook = [&](wire::MessageType) {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  StartServer(config);

  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  auto first = client.SendPing();
  ASSERT_TRUE(first.ok());
  while (entered.load() == 0) std::this_thread::yield();

  auto second = client.SendPing();  // fills the queue
  ASSERT_TRUE(second.ok());
  std::vector<uint64_t> bounced;
  for (int i = 0; i < 4; ++i) {
    auto id = client.SendPing();
    ASSERT_TRUE(id.ok());
    bounced.push_back(id.value());
  }
  // The BUSY bounces come back from the IO thread while the worker is
  // still held, so they can be collected before releasing it.
  for (uint64_t id : bounced) {
    auto response = client.Wait(id);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, wire::WireStatus::kBusy);
  }

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (uint64_t id : {first.value(), second.value()}) {
    auto response = client.Wait(id);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response.value().ok());
  }
}

TEST_F(ServerTest, GracefulShutdownDrainsAdmittedRequests) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};
  PlanServer::Config config;
  config.worker_threads = 1;
  config.queue_capacity = 16;
  config.pre_dispatch_hook = [&](wire::MessageType) {
    if (entered.fetch_add(1) == 0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
  };
  StartServer(config);

  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  std::vector<uint64_t> ids;
  auto first = client.SendPing();
  ASSERT_TRUE(first.ok());
  ids.push_back(first.value());
  while (entered.load() == 0) std::this_thread::yield();
  for (int i = 0; i < 5; ++i) {
    auto id = client.SendPredict("Q1", {0.5, 0.5});
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  // SendPredict returns once the bytes are written, which is before the IO
  // thread has necessarily admitted them — wait for that, so the drain
  // guarantee below is exercised deterministically.
  while (server_->queued_requests() < 5) std::this_thread::yield();

  // Initiate the drain while five requests sit in the queue, then let the
  // worker run: every admitted request must still get its response.
  server_->Shutdown();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (uint64_t id : ids) {
    auto response = client.Wait(id);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response.value().ok());
  }
  server_->Wait();
  EXPECT_FALSE(server_->running());
}

TEST_F(ServerTest, ShutdownRequestAcksThenDrains) {
  StartServer();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  ASSERT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Shutdown().ok());
  server_->Wait();
  EXPECT_FALSE(server_->running());
}

TEST_F(ServerTest, MalformedPayloadGetsErrorFrameThenClose) {
  StartServer();

  auto fd = net::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  // A well-framed payload that decodes to nothing: unknown type 0xEE.
  const std::string payload = "\xEE garbage";
  const uint32_t length = static_cast<uint32_t>(payload.size());
  std::string frame(reinterpret_cast<const char*>(&length), sizeof(length));
  frame += payload;
  ASSERT_TRUE(net::SendAll(fd.value(), frame.data(), frame.size()));

  // Expect exactly one error frame (kInvalid / id 0 / BAD_REQUEST)…
  wire::FrameBuffer frames;
  std::string reply_payload;
  char buffer[512];
  bool got_frame = false;
  bool got_eof = false;
  while (!got_eof) {
    auto received = net::RecvSome(fd.value(), buffer, sizeof(buffer));
    ASSERT_TRUE(received.ok());
    if (received.value() == 0) {
      got_eof = true;  // …then the server must drop the connection.
      break;
    }
    frames.Append(buffer, received.value());
    auto next = frames.Next(&reply_payload);
    ASSERT_TRUE(next.ok());
    if (next.value()) {
      got_frame = true;
      auto response = wire::DecodeResponse(reply_payload);
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(response.value().type, wire::MessageType::kInvalid);
      EXPECT_EQ(response.value().id, 0u);
      EXPECT_EQ(response.value().status, wire::WireStatus::kBadRequest);
    }
  }
  EXPECT_TRUE(got_frame);
  ::close(fd.value());

  // The server itself survives misbehaving clients.
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, FramingViolationClosesTheConnection) {
  StartServer();
  auto fd = net::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  const uint32_t huge = 1u << 30;  // above max_frame_bytes
  ASSERT_TRUE(net::SendAll(fd.value(), reinterpret_cast<const char*>(&huge),
                           sizeof(huge)));
  // Drain until EOF; the server answers with one error frame and closes.
  char buffer[512];
  while (true) {
    auto received = net::RecvSome(fd.value(), buffer, sizeof(buffer));
    ASSERT_TRUE(received.ok());
    if (received.value() == 0) break;
  }
  ::close(fd.value());

  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, ConnectionsAboveTheLimitAreRefused) {
  PlanServer::Config config;
  config.max_connections = 1;
  StartServer(config);

  PpcClient first;
  ASSERT_TRUE(ConnectClient(&first).ok());
  ASSERT_TRUE(first.Ping().ok());

  // The second connection is accepted at the TCP level and immediately
  // closed by the server, so its first round trip fails.
  PpcClient second;
  ASSERT_TRUE(ConnectClient(&second).ok());
  EXPECT_FALSE(second.Ping().ok());

  // Closing the first frees the slot for a new client.
  first.Close();
  PpcClient third;
  Status status = Status::Internal("never connected");
  for (int attempt = 0; attempt < 100; ++attempt) {
    third.Close();
    if (!ConnectClient(&third).ok()) continue;
    status = third.Ping();
    if (status.ok()) break;
    // The IO thread may not have reaped the first connection yet.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(ServerTest, IdleTimeoutClosesSilentConnections) {
  PlanServer::Config config;
  config.idle_timeout_ms = 100;
  config.read_deadline_ms = 0;  // isolate the idle path
  StartServer(config);

  auto fd = net::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  // Send nothing. The server must explain (one TIMEOUT error frame) and
  // close well within the test deadline (100 ms timeout + wheel tick).
  wire::FrameBuffer frames;
  std::string payload;
  char buffer[512];
  bool got_timeout_frame = false;
  bool got_eof = false;
  const net::Deadline deadline = net::Deadline::AfterMs(5000);
  while (!got_eof && !deadline.expired()) {
    auto received = net::RecvSome(fd.value(), buffer, sizeof(buffer),
                                  net::Deadline::AfterMs(1000));
    ASSERT_TRUE(received.ok()) << received.status().ToString();
    if (received.value() == 0) {
      got_eof = true;
      break;
    }
    frames.Append(buffer, received.value());
    auto next = frames.Next(&payload);
    ASSERT_TRUE(next.ok());
    if (next.value()) {
      auto response = wire::DecodeResponse(payload);
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(response.value().status, wire::WireStatus::kTimeout);
      got_timeout_frame = true;
    }
  }
  ::close(fd.value());
  EXPECT_TRUE(got_eof);
  EXPECT_TRUE(got_timeout_frame);
  EXPECT_GE(Counter("server.timeouts.idle"), 1u);
  EXPECT_EQ(Counter("server.timeouts.read"), 0u);

  // A live connection is unaffected as long as it keeps talking.
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, ReadDeadlineClosesSlowLorisFrames) {
  PlanServer::Config config;
  config.idle_timeout_ms = 0;  // isolate the per-frame path
  config.read_deadline_ms = 100;
  StartServer(config);

  auto fd = net::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  // Declare a 64-byte frame but deliver only three bytes of it — the
  // classic slow-loris shape. The frame deadline must fire even though
  // the connection is not idle in the TCP sense.
  const uint32_t declared = 64;
  std::string partial(reinterpret_cast<const char*>(&declared),
                      sizeof(declared));
  partial += "abc";
  ASSERT_TRUE(net::SendAll(fd.value(), partial.data(), partial.size()));

  bool got_eof = false;
  char buffer[512];
  const net::Deadline deadline = net::Deadline::AfterMs(5000);
  while (!deadline.expired()) {
    auto received = net::RecvSome(fd.value(), buffer, sizeof(buffer),
                                  net::Deadline::AfterMs(1000));
    ASSERT_TRUE(received.ok()) << received.status().ToString();
    if (received.value() == 0) {
      got_eof = true;
      break;
    }
  }
  ::close(fd.value());
  EXPECT_TRUE(got_eof);
  EXPECT_GE(Counter("server.timeouts.read"), 1u);
  EXPECT_EQ(Counter("server.timeouts.idle"), 0u);
}

TEST_F(ServerTest, WriteDeadlineCutsOffAStuckResponse) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};
  PlanServer::Config config;
  config.worker_threads = 1;
  config.write_deadline_ms = 100;
  config.pre_dispatch_hook = [&](wire::MessageType) {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  StartServer(config);

  PpcClient::Options options;
  options.call_deadline_ms = 500;  // bound the Wait below
  PpcClient client(options);
  ASSERT_TRUE(ConnectClient(&client).ok());
  auto id = client.SendPing();
  ASSERT_TRUE(id.ok());
  while (entered.load() == 0) std::this_thread::yield();

  // With the worker parked we can arm an EAGAIN storm on every send();
  // releasing the worker then makes its response write spin against the
  // 100 ms write deadline instead of reaching the wire.
  failpoints::Config storm;
  storm.kind = failpoints::Kind::kEagain;
  failpoints::Arm(failpoints::Site::kSend, storm);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  auto response = client.Wait(id.value());
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);

  const net::Deadline deadline = net::Deadline::AfterMs(5000);
  while (Counter("server.timeouts.write") == 0 && !deadline.expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(Counter("server.timeouts.write"), 1u);
  failpoints::DisarmAll();

  // The server stays healthy for new clients once the storm is over.
  PpcClient fresh;
  ASSERT_TRUE(ConnectClient(&fresh).ok());
  EXPECT_TRUE(fresh.Ping().ok());
}

/// Two workers answer two pipelined PINGs of one connection. The first
/// reply's flush stalls inside its socket write; the second request must
/// still be answered at once, its reply queued behind that flush, instead
/// of its worker waiting on the connection until the stall ends.
TEST_F(ServerTest, ChaosRepliesQueueBehindAStalledFlush) {
  constexpr uint32_t kStallMs = 400;
  std::atomic<int> entered{0};
  std::atomic<bool> release{false};
  std::atomic<bool> stalled{false};
  // The hook reads these locals: free and stop the workers before they go
  // out of scope, also when an assertion returns early.
  AtScopeExit stop{[&] {
    release.store(true);
    stalled.store(true);
    if (server_ != nullptr) server_->Stop();
  }};
  PlanServer::Config config;
  config.worker_threads = 2;
  config.pre_dispatch_hook = [&](wire::MessageType) {
    // The first worker in waits for the stall to be armed, so its reply's
    // flush is the one that stalls; the second waits for that stall.
    std::atomic<bool>& go = entered.fetch_add(1) == 0 ? release : stalled;
    while (!go.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  StartServer(config);

  auto fd = net::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  std::string frames;
  AppendBodylessRequest(wire::MessageType::kPing, 1, &frames);
  AppendBodylessRequest(wire::MessageType::kPing, 2, &frames);
  ASSERT_TRUE(net::SendAll(fd.value(), frames.data(), frames.size()));
  ASSERT_TRUE(WaitFor([&] { return entered.load() == 2; }));

  failpoints::Config stall;
  stall.kind = failpoints::Kind::kStallMs;
  stall.arg = kStallMs;
  stall.budget = 1;
  failpoints::Arm(failpoints::Site::kSend, stall);
  release.store(true);
  ASSERT_TRUE(WaitFor(
      [] { return failpoints::FiredCount(failpoints::Site::kSend) >= 1; }));
  const auto stalled_at = std::chrono::steady_clock::now();
  stalled.store(true);

  ASSERT_TRUE(WaitFor([&] { return Counter("server.requests.ping") >= 1; }));
  EXPECT_LT(MillisSince(stalled_at), kStallMs / 2)
      << "the second reply waited for the stalled flush";

  // Both answers arrive once the stall ends, each exactly once.
  wire::FrameBuffer replies;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 2; ++i) {
    auto response =
        ReadResponse(fd.value(), &replies, net::Deadline::AfterMs(5000));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response.value().ok());
    ids.push_back(response.value().id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<uint64_t>{1, 2}));
  auto extra = ReadResponse(fd.value(), &replies, net::Deadline::AfterMs(100));
  EXPECT_EQ(extra.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Counter("server.requests.ping"), 2u);
  ::close(fd.value());
}

/// The IO thread's own frames never wait for a worker's flush. Connection
/// A's reply is stalled mid-flush when A sends a malformed frame; the IO
/// thread queues BAD_REQUEST behind the flush, closes A and goes back to
/// serving, so client B's PING completes long before the stall ends. A
/// then reads its reply, the BAD_REQUEST, and EOF.
TEST_F(ServerTest, ChaosIoThreadNeverWaitsOnAStalledFlush) {
  constexpr uint32_t kStallMs = 1000;
  std::atomic<int> entered{0};
  std::atomic<bool> release{false};
  // The hook reads these locals: free and stop the workers before they go
  // out of scope, also when an assertion returns early.
  AtScopeExit stop{[&] {
    release.store(true);
    if (server_ != nullptr) server_->Stop();
  }};
  PlanServer::Config config;
  config.worker_threads = 2;
  config.pre_dispatch_hook = [&](wire::MessageType) {
    if (entered.fetch_add(1) != 0) return;
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  StartServer(config);

  auto a = net::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(a.ok());
  std::string ping;
  AppendBodylessRequest(wire::MessageType::kPing, 7, &ping);
  ASSERT_TRUE(net::SendAll(a.value(), ping.data(), ping.size()));
  ASSERT_TRUE(WaitFor([&] { return entered.load() == 1; }));

  failpoints::Config stall;
  stall.kind = failpoints::Kind::kStallMs;
  stall.arg = kStallMs;
  stall.budget = 1;
  failpoints::Arm(failpoints::Site::kSend, stall);
  release.store(true);
  ASSERT_TRUE(WaitFor(
      [] { return failpoints::FiredCount(failpoints::Site::kSend) >= 1; }));
  const auto stalled_at = std::chrono::steady_clock::now();

  // A well-framed payload that decodes to nothing: unknown type 0xEE.
  const std::string payload = "\xEE garbage";
  const uint32_t length = static_cast<uint32_t>(payload.size());
  std::string malformed(reinterpret_cast<const char*>(&length),
                        sizeof(length));
  malformed += payload;
  ASSERT_TRUE(net::SendAll(a.value(), malformed.data(), malformed.size()));
  ASSERT_TRUE(WaitFor([&] { return Counter("server.frames.malformed") >= 1; }));

  PpcClient b;
  ASSERT_TRUE(ConnectClient(&b).ok());
  EXPECT_TRUE(b.Ping().ok());
  EXPECT_LT(MillisSince(stalled_at), kStallMs / 2)
      << "the IO thread waited for connection A's flush";

  wire::FrameBuffer replies;
  auto reply = ReadResponse(a.value(), &replies, net::Deadline::AfterMs(5000));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().type, wire::MessageType::kPing);
  EXPECT_EQ(reply.value().id, 7u);
  EXPECT_TRUE(reply.value().ok());
  auto rejection =
      ReadResponse(a.value(), &replies, net::Deadline::AfterMs(5000));
  ASSERT_TRUE(rejection.ok()) << rejection.status().ToString();
  EXPECT_EQ(rejection.value().type, wire::MessageType::kInvalid);
  EXPECT_EQ(rejection.value().status, wire::WireStatus::kBadRequest);
  auto eof = ReadResponse(a.value(), &replies, net::Deadline::AfterMs(5000));
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound)
      << eof.status().ToString();
  ::close(a.value());
}

/// A client pipelines METRICS, whose replies are large, and never reads.
/// The flush blocks, workers wait for outbox room, and the outbox stays
/// within the cap (max_frame_bytes) plus one frame. The flush then times
/// out, and the next client is served.
TEST_F(ServerTest, OutboxStaysBoundedForAPeerThatNeverReads) {
  constexpr size_t kCap = 64 * 1024;
  PlanServer::Config config;
  config.worker_threads = 2;
  config.max_frame_bytes = kCap;
  config.write_deadline_ms = 300;
  StartServer(config);

  auto fd = net::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  // A small fixed receive buffer (no autotuning) fills after a few
  // replies instead of after megabytes.
  const int rcvbuf = 16 * 1024;
  ::setsockopt(fd.value(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  std::string burst;
  for (uint64_t id = 1; id <= 32; ++id) {
    AppendBodylessRequest(wire::MessageType::kMetrics, id, &burst);
  }
  const net::Deadline give_up = net::Deadline::AfterMs(20000);
  while (Counter("server.timeouts.write") == 0 && !give_up.expired()) {
    // The write fails or times out once the server stopped reading.
    if (!net::WriteAll(fd.value(), burst.data(), burst.size(),
                       net::Deadline::AfterMs(1000))
             .ok()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(WaitFor([&] { return Counter("server.timeouts.write") >= 1; }));
  ::close(fd.value());

  PpcClient fresh;
  ASSERT_TRUE(ConnectClient(&fresh).ok());
  EXPECT_TRUE(fresh.Ping().ok());
  auto metrics = fresh.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  // One METRICS frame: the JSON plus its header, with slack for the
  // counters that grew since the flooded replies were encoded.
  const double frame_bound = static_cast<double>(metrics.value().size()) + 1024;
  const double peak =
      framework_->metrics().gauge("server.outbox_peak_bytes").value();
  EXPECT_GT(peak, static_cast<double>(kCap) / 2);
  EXPECT_LE(peak, static_cast<double>(kCap) + frame_bound);
}

TEST_F(ServerTest, ShedLadderAbstainsUnderPressureThenRecovers) {
  WarmQ1(200);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};
  PlanServer::Config config;
  config.worker_threads = 1;
  config.queue_capacity = 4;
  config.pre_dispatch_hook = [&](wire::MessageType) {
    if (entered.fetch_add(1) == 0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
  };
  StartServer(config);

  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  std::vector<uint64_t> pings;
  auto gate = client.SendPing();
  ASSERT_TRUE(gate.ok());
  pings.push_back(gate.value());
  while (entered.load() == 0) std::this_thread::yield();
  for (int i = 0; i < 4; ++i) {
    auto id = client.SendPing();
    ASSERT_TRUE(id.ok());
    pings.push_back(id.value());
  }
  while (server_->queued_requests() < 4) std::this_thread::yield();

  // Each admission attempt against the full queue feeds occupancy 1.0
  // into the EWMA; a handful of them walks the ladder to the top rung.
  for (int i = 0;
       i < 64 && server_->shed_level() < net::ShedController::kAbstainPredict;
       ++i) {
    auto id = client.SendPing();
    ASSERT_TRUE(id.ok());
    pings.push_back(id.value());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server_->shed_level(), net::ShedController::kAbstainPredict);

  // At the abstain rung a PREDICT is answered immediately from the IO
  // thread with the predictor's abstain shape: OK status, NULL plan.
  auto predict_id = client.SendPredict("Q1", {0.5, 0.5});
  ASSERT_TRUE(predict_id.ok());
  auto abstain = client.Wait(predict_id.value());
  ASSERT_TRUE(abstain.ok()) << abstain.status().ToString();
  EXPECT_TRUE(abstain.value().ok());
  EXPECT_EQ(abstain.value().type, wire::MessageType::kPredict);
  EXPECT_EQ(abstain.value().predict.plan, kNullPlanId);
  EXPECT_EQ(abstain.value().predict.confidence, 0.0);
  EXPECT_GE(Counter("server.shed.enter_no_microbatch"), 1u);
  EXPECT_GE(Counter("server.shed.enter_abstain"), 1u);
  EXPECT_GE(Counter("server.shed.abstained_predicts"), 1u);

  // Release the worker; every ping resolves (admitted ones OK, bounced
  // ones BUSY) — shedding never silently drops a request.
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  size_t busy = 0;
  for (uint64_t id : pings) {
    auto response = client.Wait(id);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response.value().status == wire::WireStatus::kBusy) {
      ++busy;
    } else {
      EXPECT_TRUE(response.value().ok());
    }
  }
  EXPECT_GE(busy, 1u);

  // With the queue drained, light traffic decays the EWMA and the ladder
  // steps back down to normal service.
  for (int i = 0;
       i < 100 && server_->shed_level() != net::ShedController::kNormal;
       ++i) {
    ASSERT_TRUE(client.Ping().ok());
  }
  EXPECT_EQ(server_->shed_level(), net::ShedController::kNormal);
  EXPECT_GE(Counter("server.shed.recovered"), 1u);

  // And PREDICT answers come from the real predictor again.
  auto real = client.Predict("Q1", {0.5, 0.5});
  ASSERT_TRUE(real.ok()) << real.status().ToString();
  EXPECT_NE(real.value().plan, kNullPlanId);
}

TEST_F(ServerTest, ShutdownSweepAnswersRequestsLeftOnTheWire) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};
  PlanServer::Config config;
  config.worker_threads = 1;
  config.queue_capacity = 16;
  config.pre_dispatch_hook = [&](wire::MessageType) {
    if (entered.fetch_add(1) == 0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
  };
  StartServer(config);

  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  std::vector<uint64_t> admitted;
  auto gate = client.SendPing();
  ASSERT_TRUE(gate.ok());
  admitted.push_back(gate.value());
  while (entered.load() == 0) std::this_thread::yield();
  for (int i = 0; i < 2; ++i) {
    auto id = client.SendPredict("Q1", {0.5, 0.5});
    ASSERT_TRUE(id.ok());
    admitted.push_back(id.value());
  }
  while (server_->queued_requests() < 2) std::this_thread::yield();

  // Start the drain, give the IO thread a moment to stop reading, then
  // put three more requests on the wire. They can never be admitted —
  // the sweep must still answer each one instead of dropping it.
  server_->Shutdown();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::vector<uint64_t> late;
  for (int i = 0; i < 3; ++i) {
    auto id = client.SendPing();
    ASSERT_TRUE(id.ok());
    late.push_back(id.value());
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  server_->Wait();
  EXPECT_FALSE(server_->running());

  for (uint64_t id : admitted) {
    auto response = client.Wait(id);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response.value().ok());
  }
  for (uint64_t id : late) {
    auto response = client.Wait(id);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, wire::WireStatus::kShuttingDown);
  }
  EXPECT_GE(Counter("server.shutdown.swept"), 1u);
}

TEST_F(ServerTest, ClientRetriesBusyWithBackoffUntilAdmitted) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};
  PlanServer::Config config;
  config.worker_threads = 1;
  config.queue_capacity = 1;
  config.pre_dispatch_hook = [&](wire::MessageType) {
    if (entered.fetch_add(1) == 0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
  };
  StartServer(config);

  PpcClient::Options options;
  options.retry.max_attempts = 50;
  options.retry.initial_backoff_ms = 1;
  options.retry.max_backoff_ms = 20;
  PpcClient client(options);
  ASSERT_TRUE(ConnectClient(&client).ok());
  auto gate = client.SendPing();
  ASSERT_TRUE(gate.ok());
  while (entered.load() == 0) std::this_thread::yield();
  auto filler = client.SendPing();  // occupies the single queue slot
  ASSERT_TRUE(filler.ok());
  while (server_->queued_requests() < 1) std::this_thread::yield();

  // The sync Ping now bounces BUSY; a delayed release lets the retry loop
  // land it. The seeded backoff stream makes the schedule reproducible.
  std::thread releaser([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  });
  EXPECT_TRUE(client.Ping().ok());
  releaser.join();
  EXPECT_GE(client.transport_stats().busy_retries, 1u);

  for (uint64_t id : {gate.value(), filler.value()}) {
    auto response = client.Wait(id);
    ASSERT_TRUE(response.ok());
  }
}

TEST_F(ServerTest, ClientReconnectsAfterConnectionLoss) {
  StartServer();
  PpcClient::Options options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ms = 1;
  PpcClient client(options);
  ASSERT_TRUE(ConnectClient(&client).ok());
  ASSERT_TRUE(client.Ping().ok());

  // Sever the transport behind the client's back; the next synchronous
  // call must reconnect transparently instead of failing.
  client.Close();
  EXPECT_FALSE(client.connected());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.connected());
  EXPECT_GE(client.transport_stats().reconnects, 1u);
}

TEST_F(ServerTest, ClientCallDeadlineBoundsASilentServer) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  PlanServer::Config config;
  config.worker_threads = 1;
  config.pre_dispatch_hook = [&](wire::MessageType) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  StartServer(config);

  PpcClient::Options options;
  options.call_deadline_ms = 100;
  PpcClient client(options);
  ASSERT_TRUE(ConnectClient(&client).ok());
  const auto start = std::chrono::steady_clock::now();
  Status status = client.Ping();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(client.transport_stats().deadlines_exceeded, 1u);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            3000);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
}

TEST_F(ServerTest, SnapshotOverWireWarmStartsASecondServer) {
  WarmQ1(300);
  StartServer();

  // A fresh follower: same config and templates, zero training.
  PpcFramework follower(&SmallTpch(), ServingConfig());
  ASSERT_TRUE(follower.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  ASSERT_TRUE(follower.RegisterTemplate(EvaluationTemplate("Q3")).ok());
  PlanServer follower_server(&follower, {});
  ASSERT_TRUE(follower_server.Start().ok());

  PpcClient leader_client;
  ASSERT_TRUE(ConnectClient(&leader_client).ok());
  auto blob = leader_client.FetchSnapshot();
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_FALSE(blob.value().empty());
  EXPECT_GE(Counter("server.replication.snapshots_served"), 1u);
  EXPECT_GE(Counter("server.replication.snapshot_bytes"),
            blob.value().size());

  auto leader_answer = leader_client.Predict("Q1", {0.5, 0.5});
  ASSERT_TRUE(leader_answer.ok());
  ASSERT_NE(leader_answer.value().plan, kNullPlanId);

  PpcClient follower_client;
  ASSERT_TRUE(
      follower_client.Connect("127.0.0.1", follower_server.port()).ok());
  auto cold = follower_client.Predict("Q1", {0.5, 0.5});
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.value().plan, kNullPlanId) << "follower should start cold";

  auto applied = follower_client.ApplySnapshot(blob.value());
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.value(), 2u) << "both templates warm-started";
  EXPECT_GE(follower.metrics().counter("server.replication.applies").value(),
            1u);

  // Warm-started, the follower answers exactly like the leader — no
  // cold-learning phase.
  auto warm = follower_client.Predict("Q1", {0.5, 0.5});
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.value().plan, leader_answer.value().plan);
  EXPECT_DOUBLE_EQ(warm.value().confidence,
                   leader_answer.value().confidence);
  follower_server.Stop();
}

TEST_F(ServerTest, SnapshotApplyRejectsCorruptBlobOverWire) {
  WarmQ1(100);
  StartServer();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  auto blob = client.FetchSnapshot();
  ASSERT_TRUE(blob.ok());
  std::string corrupted = blob.value();
  corrupted[corrupted.size() / 2] ^= 0x40;
  auto applied = client.ApplySnapshot(corrupted);
  EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument);
  EXPECT_GE(Counter("server.replication.apply_failures"), 1u);
  // A rejected blob must not poison the connection or the server.
  EXPECT_TRUE(client.Ping().ok());
  auto ok_applied = client.ApplySnapshot(blob.value());
  EXPECT_TRUE(ok_applied.ok()) << ok_applied.status().ToString();
}

TEST_F(ServerTest, TopologyOnAShardIsBadRequest) {
  StartServer();
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  auto result = client.Topology(wire::TopologyOp::kAdd, "127.0.0.1", 9000);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.Ping().ok());
}

/// Chaos: mixed traffic against randomly armed failpoints for ~2 seconds
/// (override with PPC_CHAOS_SECONDS). The invariants are liveness ones:
/// every client call returns within its deadline, nothing crashes or
/// wedges, and after DisarmAll the server serves clean traffic and emits
/// coherent metrics. Runs under ASan and TSan via the `chaos` ctest label.
TEST_F(ServerTest, ChaosMixedTrafficSurvivesRandomFaults) {
  WarmQ1(150);
  PlanServer::Config config;
  config.worker_threads = 2;
  config.queue_capacity = 16;
  config.idle_timeout_ms = 2000;
  config.read_deadline_ms = 500;
  config.write_deadline_ms = 500;
  StartServer(config);

  double seconds = 2.0;
  if (const char* env = std::getenv("PPC_CHAOS_SECONDS")) {
    seconds = std::max(0.5, std::atof(env));
  }
  uint64_t seed = 20260805;
  if (const char* env = std::getenv("PPC_CHAOS_SEED")) {
    seed = static_cast<uint64_t>(std::atoll(env));
  }
  const auto stop_at =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int64_t>(seconds * 1000));
  std::atomic<bool> stop{false};

  // The saboteur: arm a random site with a random bounded fault, let it
  // bite for a few tens of milliseconds, sometimes disarm, repeat.
  std::thread saboteur([&stop, seed]() {
    Rng rng(seed);
    while (!stop.load(std::memory_order_relaxed)) {
      const auto site = static_cast<failpoints::Site>(rng.UniformInt(
          static_cast<uint64_t>(failpoints::Site::kSiteCount)));
      failpoints::Config fault;
      switch (site) {
        case failpoints::Site::kRecv:
        case failpoints::Site::kSend: {
          constexpr failpoints::Kind kIoKinds[] = {
              failpoints::Kind::kShortIo, failpoints::Kind::kEagain,
              failpoints::Kind::kEintr, failpoints::Kind::kError,
              failpoints::Kind::kTruncate, failpoints::Kind::kStallMs};
          fault.kind = kIoKinds[rng.UniformInt(uint64_t{6})];
          fault.arg = fault.kind == failpoints::Kind::kStallMs
                          ? 1 + static_cast<uint32_t>(rng.UniformInt(3))
                          : 1 + static_cast<uint32_t>(rng.UniformInt(8));
          break;
        }
        case failpoints::Site::kAccept:
          fault.kind = rng.Bernoulli(0.5) ? failpoints::Kind::kError
                                          : failpoints::Kind::kStallMs;
          fault.arg = 1 + static_cast<uint32_t>(rng.UniformInt(10));
          break;
        case failpoints::Site::kEnqueue:
          fault.kind = failpoints::Kind::kError;
          break;
        case failpoints::Site::kDispatch:
        default:
          fault.kind = failpoints::Kind::kStallMs;
          fault.arg = 1 + static_cast<uint32_t>(rng.UniformInt(30));
          break;
      }
      fault.probability_permille =
          30 + static_cast<uint32_t>(rng.UniformInt(150));
      fault.budget = 1 + static_cast<int64_t>(rng.UniformInt(64));
      fault.seed = rng.UniformInt(uint64_t{1} << 32);
      failpoints::Arm(site, fault);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(10 + rng.UniformInt(uint64_t{30})));
      if (rng.Bernoulli(0.5)) failpoints::Disarm(site);
    }
    failpoints::DisarmAll();
  });

  // The victims: resilient clients that keep issuing mixed traffic. Any
  // status is acceptable under chaos; what is NOT acceptable is a call
  // that never returns or a crash.
  std::atomic<uint64_t> completed_calls{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([this, t, stop_at, &completed_calls]() {
      PpcClient::Options options;
      options.call_deadline_ms = 1000;
      options.retry.max_attempts = 3;
      options.retry.initial_backoff_ms = 1;
      options.retry.max_backoff_ms = 8;
      options.retry.seed = 900 + static_cast<uint64_t>(t);
      PpcClient client(options);
      Rng rng(7000 + static_cast<uint64_t>(t));
      while (std::chrono::steady_clock::now() < stop_at) {
        if (!client.connected() && !ConnectClient(&client).ok()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          continue;
        }
        switch (rng.UniformInt(uint64_t{4})) {
          case 0:
            (void)client.Ping();
            break;
          case 1:
            (void)client.Predict("Q1", {0.5 + rng.Uniform(-0.05, 0.05),
                                        0.5 + rng.Uniform(-0.05, 0.05)});
            break;
          case 2:
            (void)client.PredictBatch(
                "Q1", {0.5, 0.5, 0.52, 0.48, 0.1, 0.9}, 2);
            break;
          default:
            (void)client.Execute("Q3", {0.4, 0.4, 0.4});
            break;
        }
        completed_calls.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop.store(true, std::memory_order_relaxed);
  saboteur.join();
  failpoints::DisarmAll();
  EXPECT_GT(completed_calls.load(), 0u);

  // After the storm: a fresh client must get clean service again (the
  // shed EWMA may need a few admissions to decay).
  PpcClient::Options options;
  options.call_deadline_ms = 2000;
  options.retry.max_attempts = 5;
  options.retry.initial_backoff_ms = 5;
  PpcClient fresh(options);
  Status ping = Status::Internal("never pinged");
  for (int attempt = 0; attempt < 20; ++attempt) {
    if (!fresh.connected() && !ConnectClient(&fresh).ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }
    ping = fresh.Ping();
    if (ping.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(ping.ok()) << ping.ToString();

  // And the metrics pipeline is still coherent: valid JSON carrying the
  // robustness instruments.
  auto metrics = fresh.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_TRUE(JsonValidator::Valid(metrics.value()));
  for (const char* key :
       {"server.timeouts.idle", "server.timeouts.read",
        "server.timeouts.write", "server.shed.enter_no_microbatch",
        "server.shed.abstained_predicts", "server.shutdown.swept"}) {
    EXPECT_NE(metrics.value().find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace ppc
