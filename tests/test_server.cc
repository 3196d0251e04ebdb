#include "server/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/alloc_counter.h"
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

/// One PREDICT request frame, appended to `out`.
void AppendPredictRequest(const std::string& name,
                          const std::vector<double>& point, uint64_t id,
                          std::string* out) {
  wire::Request request;
  request.type = wire::MessageType::kPredict;
  request.id = id;
  request.template_name = name;
  request.point = point;
  wire::EncodeRequest(request, out);
}

/// A blocking loopback connection whose receive buffer is fixed at
/// `rcvbuf` bytes before the handshake, so the window it advertises never
/// outgrows the buffer, and whose advertised MSS is `mss` bytes. The
/// server sizes its send buffer from the MSS (loopback's 64 KB MSS gives
/// it ~4 MB), so a small one makes the server's sends back up after a few
/// hundred KB. -1 on failure.
int ConnectWithSmallBuffers(uint16_t port, int rcvbuf, int mss) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  ::setsockopt(fd, IPPROTO_TCP, TCP_MAXSEG, &mss, sizeof(mss));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
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

/// A pre_dispatch_hook for a one-worker server: it holds the first request
/// dispatched until Release(), and logs each later one with the number of
/// requests then queued. With one worker, a run's items all leave the
/// queue before its first is dispatched, so the items of one run log the
/// same count, and a run of one logs one less than the dispatch before it.
class DispatchLog {
 public:
  struct Entry {
    wire::MessageType type;
    size_t queued;
    bool operator==(const Entry&) const = default;
  };

  /// The hook for the server `*server` will hold.
  std::function<void(wire::MessageType)> Hook(
      const std::unique_ptr<PlanServer>* server) {
    return [this, server](wire::MessageType type) {
      std::unique_lock<std::mutex> lock(mu_);
      if (!entered_) {
        entered_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
        return;
      }
      entries_.push_back({type, (*server)->queued_requests()});
    };
  }

  /// Waits until the first request is held in the hook.
  bool WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(5),
                        [&] { return entered_; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

  std::vector<Entry> Entries() {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
  std::vector<Entry> entries_;
};

/// Framework with Q1 (2-dim) and Q3 (3-dim) registered; `warm_queries`
/// executions around (0.5, 0.5) make Q1 confidently predictable.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    framework_ = std::make_unique<PpcFramework>(&SmallTpch(), ServingConfig());
    ASSERT_TRUE(framework_->RegisterTemplate(EvaluationTemplate("Q1")).ok());
    ASSERT_TRUE(framework_->RegisterTemplate(EvaluationTemplate("Q3")).ok());
  }

  /// Registers Q5 (4-dim) and warms Q1, Q3 and Q5 around their centres
  /// with 150 executions each, drawing from `rng`.
  void WarmQ1Q3Q5(Rng* rng) {
    ASSERT_TRUE(framework_->RegisterTemplate(EvaluationTemplate("Q5")).ok());
    for (const char* name : {"Q1", "Q3", "Q5"}) {
      const size_t dims = Dims(name);
      for (int i = 0; i < 150; ++i) {
        std::vector<double> x(dims);
        for (double& v : x) v = 0.5 + rng->Uniform(-0.02, 0.02);
        ASSERT_TRUE(framework_->ExecuteAtPoint(name, x).ok());
      }
    }
  }

  static size_t Dims(const std::string& name) {
    return name == "Q1" ? 2 : name == "Q3" ? 3 : 4;
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
  // The IO thread answers PREDICTs itself only while the queue is empty
  // (DESIGN.md §13): a PING left queued behind the parked worker sends
  // the PREDICTs below to the worker path.
  auto filler = client.SendPing();
  ASSERT_TRUE(filler.ok());
  while (server_->queued_requests() < 1) std::this_thread::yield();

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
  while (server_->queued_requests() < 1 + 12) std::this_thread::yield();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  ASSERT_TRUE(client.Wait(gate.value()).ok());
  ASSERT_TRUE(client.Wait(filler.value()).ok());
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

TEST_F(ServerTest, AMicrobatchRunSpansTemplates) {
  // A server in front of its own framework takes single-point PREDICTs
  // into one run whatever their template. Templates alternate in the
  // burst, so a same-template rule would form no run at all.
  const std::vector<std::string> templates = {"Q1", "Q3", "Q5"};
  Rng rng(31);
  WarmQ1Q3Q5(&rng);

  // Gate the single worker so the burst piles up in the queue.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};
  PlanServer::Config config;
  config.worker_threads = 1;
  config.queue_capacity = 64;
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
  // The IO thread answers PREDICTs itself only while the queue is empty
  // (DESIGN.md §13): a PING left queued behind the parked worker sends
  // the PREDICTs below to the worker path.
  auto filler = client.SendPing();
  ASSERT_TRUE(filler.ok());
  while (server_->queued_requests() < 1) std::this_thread::yield();

  // 24 PREDICTs over three templates; one Q3 point is not finite, so its
  // group's PREDICT_BATCH is rejected.
  constexpr size_t kBurst = 24;
  constexpr size_t kNonFinite = 7;
  std::vector<std::string> names;
  std::vector<std::vector<double>> points;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < kBurst; ++i) {
    names.push_back(templates[i % templates.size()]);
    const size_t dims = i % 3 == 0 ? 2 : i % 3 == 1 ? 3 : 4;
    const double spread = (i % 4 == 0) ? 0.45 : 0.03;
    std::vector<double> x(dims);
    for (double& v : x) v = 0.5 + rng.Uniform(-spread, spread);
    if (i == kNonFinite) x[1] = 1e308 * 10;
    points.push_back(x);
    auto id = client.SendPredict(names.back(), points.back());
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  ASSERT_EQ(names[kNonFinite], "Q3");
  while (server_->queued_requests() < 1 + kBurst) {
    std::this_thread::yield();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  ASSERT_TRUE(client.Wait(gate.value()).ok());
  ASSERT_TRUE(client.Wait(filler.value()).ok());
  size_t committed = 0;
  for (size_t i = 0; i < kBurst; ++i) {
    auto response = client.Wait(ids[i]);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (i == kNonFinite) {
      EXPECT_EQ(response.value().status, wire::WireStatus::kBadRequest);
      continue;
    }
    ASSERT_TRUE(response.value().ok())
        << "point " << i << ": " << response.value().error;
    // Each answer equals that point's scalar answer.
    auto scalar = framework_->PredictAtPoint(names[i], points[i]);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(response.value().predict.plan, scalar.value().plan)
        << "point " << i;
    EXPECT_EQ(response.value().predict.confidence, scalar.value().confidence)
        << "point " << i;
    EXPECT_EQ(response.value().predict.cache_hit, scalar.value().cache_hit)
        << "point " << i;
    committed += scalar.value().plan != kNullPlanId ? 1 : 0;
  }
  EXPECT_GT(committed, 0u) << "no template warmed to a committed plan";

  // The worker counts a run after writing its replies.
  ASSERT_TRUE(WaitFor(
      [&] { return Counter("server.microbatched_predicts") >= kBurst; }));
  EXPECT_GT(Counter("server.microbatches"), 0u);
  EXPECT_GT(Counter("server.microbatched_predicts"),
            Counter("server.microbatches"))
      << "no run took more than one template";
}

TEST_F(ServerTest, PipelinedPredictsAreAnsweredOnTheIoThread) {
  // One connection, nothing queued: the IO thread answers the PREDICTs of
  // each read itself, in runs that span templates, and every answer is
  // the one PredictAtPoint gives.
  Rng rng(37);
  WarmQ1Q3Q5(&rng);
  StartServer();

  constexpr size_t kBurst = 48;
  constexpr size_t kNonFinite = 10;
  const std::vector<std::string> templates = {"Q1", "Q3", "Q5"};
  std::vector<std::string> names;
  std::vector<std::vector<double>> points;
  std::string burst;
  for (size_t i = 0; i < kBurst; ++i) {
    names.push_back(templates[i % templates.size()]);
    const double spread = (i % 4 == 0) ? 0.45 : 0.03;
    std::vector<double> x(Dims(names.back()));
    for (double& v : x) v = 0.5 + rng.Uniform(-spread, spread);
    if (i == kNonFinite) x[1] = 1e308 * 10;
    points.push_back(x);
    AppendPredictRequest(names.back(), x, i + 1, &burst);
  }
  ASSERT_EQ(names[kNonFinite], "Q3");

  auto fd = net::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(net::WriteAll(fd.value(), burst.data(), burst.size(),
                            net::Deadline::AfterMs(5000))
                  .ok());
  std::vector<wire::Response> replies(kBurst);
  wire::FrameBuffer frames;
  for (size_t k = 0; k < kBurst; ++k) {
    auto response =
        ReadResponse(fd.value(), &frames, net::Deadline::AfterMs(5000));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const uint64_t id = response.value().id;
    ASSERT_TRUE(id >= 1 && id <= kBurst) << id;
    replies[id - 1] = response.value();
  }
  ::close(fd.value());

  size_t committed = 0;
  for (size_t i = 0; i < kBurst; ++i) {
    ASSERT_EQ(replies[i].type, wire::MessageType::kPredict) << "point " << i;
    if (i == kNonFinite) {
      EXPECT_EQ(replies[i].status, wire::WireStatus::kBadRequest);
      continue;
    }
    ASSERT_TRUE(replies[i].ok()) << "point " << i << ": " << replies[i].error;
    auto scalar = framework_->PredictAtPoint(names[i], points[i]);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(replies[i].predict.plan, scalar.value().plan) << "point " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(replies[i].predict.confidence),
              std::bit_cast<uint64_t>(scalar.value().confidence))
        << "point " << i;
    EXPECT_EQ(replies[i].predict.cache_hit, scalar.value().cache_hit)
        << "point " << i;
    committed += scalar.value().plan != kNullPlanId ? 1 : 0;
  }
  EXPECT_GT(committed, 0u) << "no template warmed to a committed plan";

  // Every answer came from the IO thread, counted before its write.
  EXPECT_EQ(Counter("server.inline_predicts"), kBurst);
  ASSERT_TRUE(
      WaitFor([&] { return Counter("server.requests.predict") >= kBurst; }));
  EXPECT_EQ(Counter("server.requests.predict"), kBurst);
  EXPECT_GT(Counter("server.microbatches"), 0u);
}

/// A peer pipelines PREDICTs and never reads its replies. The IO thread
/// answers it until one of its sends is partial, and then hands the rest
/// to a worker instead of waiting on that socket. A second client is
/// served while the worker's flush is stuck, the write deadline cuts the
/// peer off, and the outbox stays within the cap plus one append.
TEST_F(ServerTest, APeerThatNeverReadsItsPredictRepliesCannotStallTheIoThread) {
  WarmQ1(200);
  constexpr size_t kCap = 256 * 1024;
  constexpr int64_t kWriteDeadlineMs = 3000;
  PlanServer::Config config;
  config.worker_threads = 2;
  config.max_frame_bytes = kCap;
  config.write_deadline_ms = kWriteDeadlineMs;
  StartServer(config);

  // Small buffers on both ends fill after a few hundred KB of replies
  // instead of after megabytes.
  const int flooder =
      ConnectWithSmallBuffers(server_->port(), 16 * 1024, 1024);
  ASSERT_GE(flooder, 0);
  std::string burst;
  for (uint64_t id = 1; id <= 512; ++id) {
    AppendPredictRequest("Q1", {0.5, 0.5}, id, &burst);
  }
  std::atomic<bool> stop{false};
  std::thread flood([&] {
    // Floods until the server closes the connection or the test ends. A
    // write that times out only means TCP is backing off or the server
    // stopped reading. The pauses let the kernel process the server's
    // ACKs while no send holds the socket.
    while (!stop.load()) {
      const Status sent =
          net::WriteAll(flooder, burst.data(), burst.size(),
                        net::Deadline::AfterMs(100));
      if (!sent.ok() && sent.code() != StatusCode::kDeadlineExceeded) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  AtScopeExit join{[&] {
    stop.store(true);
    flood.join();
    ::close(flooder);
  }};
  // The outbox is empty until an inline send is partial; then the IO
  // thread hands the rest to a worker, and later replies pile up behind
  // that worker's flush.
  const auto peak = [&] {
    return framework_->metrics().gauge("server.outbox_peak_bytes").value();
  };
  ASSERT_TRUE(WaitFor([&] { return peak() >= 64 * 1024; }, 20000))
      << "the peer's replies never backed up";

  // BUSY answers are retried: the peer's PREDICTs may fill the queue.
  PpcClient::Options options;
  options.call_deadline_ms = kWriteDeadlineMs;
  options.retry.max_attempts = 1000;
  options.retry.initial_backoff_ms = 1;
  options.retry.max_backoff_ms = 4;
  PpcClient other(options);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(ConnectClient(&other).ok());
  EXPECT_TRUE(other.Ping().ok());
  auto answer = other.Predict("Q1", {0.5, 0.5});
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_LT(MillisSince(start), kWriteDeadlineMs / 2)
      << "the second client waited for the stuck peer";

  EXPECT_TRUE(WaitFor([&] { return Counter("server.timeouts.write") >= 1; },
                      4 * kWriteDeadlineMs));
  // The cap plus one append: a worker appends a run's replies to one
  // connection at once, up to kMaxMicrobatch PREDICT reply frames.
  wire::Response reply;
  reply.type = wire::MessageType::kPredict;
  reply.predict.confidence = 1.0;
  std::string frame;
  wire::EncodeResponse(reply, &frame);
  EXPECT_LE(peak(), static_cast<double>(
                        kCap + PlanServer::kMaxMicrobatch * frame.size()));
}

/// The IO thread's own frames never block it on a socket. The only
/// worker is held and a queued PING fills the queue, so every PING a peer
/// sends is answered BUSY by the IO thread, and at the abstain rung every
/// PREDICT with the shed abstain. The peer floods and never reads; once
/// its socket is full, those frames wait on the connection, and another
/// client is still answered at once, long before the write deadline.
TEST_F(ServerTest, BusyRepliesToAPeerThatNeverReadsCannotStallTheIoThread) {
  constexpr int64_t kWriteDeadlineMs = 3000;
  constexpr uint64_t kReplies = 3000;
  struct Input {
    wire::MessageType flood;
    const char* counter;
  };
  for (const Input input :
       {Input{wire::MessageType::kPing, "server.responses.busy"},
        Input{wire::MessageType::kPredict, "server.shed.abstained_predicts"}}) {
    SCOPED_TRACE(input.counter);
    std::atomic<bool> release{false};
    std::atomic<int> entered{0};
    PlanServer::Config config;
    config.worker_threads = 1;
    config.queue_capacity = 1;
    config.write_deadline_ms = kWriteDeadlineMs;
    config.pre_dispatch_hook = [&](wire::MessageType) {
      entered.fetch_add(1);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    StartServer(config);
    // The hook reads the locals above: free the worker and stop the server
    // before they go out of scope, also when an assertion returns early.
    AtScopeExit stop_server{[&] {
      release.store(true);
      server_->Stop();
    }};
    const uint64_t replies_before = Counter(input.counter);

    PpcClient holder;
    ASSERT_TRUE(ConnectClient(&holder).ok());
    ASSERT_TRUE(holder.SendPing().ok());
    ASSERT_TRUE(WaitFor([&] { return entered.load() == 1; }));
    ASSERT_TRUE(holder.SendPing().ok());
    ASSERT_TRUE(WaitFor([&] { return server_->queued_requests() == 1; }));

    const int flooder =
        ConnectWithSmallBuffers(server_->port(), 16 * 1024, 1024);
    ASSERT_GE(flooder, 0);
    std::string burst;
    for (uint64_t id = 1; id <= 1000; ++id) {
      if (input.flood == wire::MessageType::kPing) {
        AppendBodylessRequest(wire::MessageType::kPing, id, &burst);
      } else {
        AppendPredictRequest("Q1", {0.5, 0.5}, id, &burst);
      }
    }
    std::atomic<bool> stop_flood{false};
    std::thread flood([&] {
      // Floods until the server closes the connection or the test ends. A
      // write that times out only means the server stopped reading.
      while (!stop_flood.load()) {
        const Status sent =
            net::WriteAll(flooder, burst.data(), burst.size(),
                          net::Deadline::AfterMs(100));
        if (!sent.ok() && sent.code() != StatusCode::kDeadlineExceeded) {
          break;
        }
      }
    });
    // Closing the flooder first lets the server's writes to it fail at
    // once instead of running to the write deadline during the stop.
    AtScopeExit stop_flooding{[&] {
      stop_flood.store(true);
      flood.join();
      ::close(flooder);
    }};
    ASSERT_TRUE(WaitFor(
        [&] { return Counter(input.counter) - replies_before >= kReplies; },
        20000))
        << "the flooder was not answered by the IO thread";

    // Another client pings while the flood goes on, long enough for the
    // flooder's socket to fill; each PING is answered within a second.
    PpcClient::Options options;
    options.call_deadline_ms = 2 * kWriteDeadlineMs;
    PpcClient other(options);
    const auto start = std::chrono::steady_clock::now();
    auto sent_at = start;
    ASSERT_TRUE(ConnectClient(&other).ok());
    int64_t slowest_ms = 0;
    while (MillisSince(start) < 1500) {
      auto id = other.SendPing();
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      auto answer = other.Wait(id.value());
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_EQ(answer.value().status, wire::WireStatus::kBusy);
      slowest_ms = std::max(slowest_ms, MillisSince(sent_at));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      sent_at = std::chrono::steady_clock::now();
    }
    EXPECT_LT(slowest_ms, 1000)
        << "the second client waited for the flooder's unread replies";
  }
}

/// The drain begins while the IO thread holds replies it could not send.
/// An EAGAIN storm on every send keeps its sends from writing anything, so
/// the state does not depend on how much the kernel buffers. In the first
/// pass nothing else is waiting: Wait()'s sweep writes the replies. In the
/// second the only worker waits for room in the connection's full outbox:
/// the IO loop hands its bytes back as it exits and the worker takes them
/// over, so nothing deadlocks. Every reply then arrives, each once and in
/// order.
TEST_F(ServerTest, TheDrainWritesTheRepliesTheIoThreadLeftUnsent) {
  WarmQ1(200);
  constexpr size_t kCap = 16 * 1024;
  constexpr uint64_t kRunLength = PlanServer::kMaxMicrobatch;
  for (const bool worker_waits : {false, true}) {
    SCOPED_TRACE(worker_waits ? "a worker waits for room" : "no worker waits");
    std::atomic<uint64_t> hooked{0};
    PlanServer::Config config;
    config.worker_threads = 1;
    config.max_frame_bytes = kCap;
    config.pre_dispatch_hook = [&](wire::MessageType) { hooked.fetch_add(1); };
    StartServer(config);
    const uint64_t answered_before = Counter("server.requests.predict");
    const uint64_t inline_before = Counter("server.inline_predicts");
    const auto peak = [&] {
      return framework_->metrics().gauge("server.outbox_peak_bytes").value();
    };

    auto fd = net::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(fd.ok());
    AtScopeExit close_peer{[&] { ::close(fd.value()); }};
    failpoints::Config storm;
    storm.kind = failpoints::Kind::kEagain;
    failpoints::Arm(failpoints::Site::kSend, storm);
    uint64_t sent = 0;
    const auto send_run = [&] {
      std::string run;
      for (uint64_t k = 0; k < kRunLength; ++k) {
        AppendPredictRequest("Q1", {0.5, 0.5}, ++sent, &run);
      }
      // A plain send: the storm is armed for every net::WriteAll.
      ASSERT_EQ(::send(fd.value(), run.data(), run.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(run.size()));
      // One run at a time, so the queue never backs up into the shed
      // ladder, whose abstains would overflow the outbox. Once the outbox
      // holds the cap, the worker waits for room, wherever it is in a run.
      ASSERT_TRUE(WaitFor(
          [&] { return hooked.load() == sent || peak() >= kCap; }))
          << hooked.load() << " of " << sent << " dispatched, "
          << server_->queued_requests() << " queued, "
          << Counter("server.requests.predict") - answered_before
          << " answered, outbox peak " << peak();
    };
    // The IO thread answers the first run and keeps its replies unsent;
    // the runs after it go to the worker, whose replies queue on the
    // outbox behind them.
    const double target = worker_waits ? static_cast<double>(kCap) : 1.0;
    while (peak() < target) ASSERT_NO_FATAL_FAILURE(send_run());
    ASSERT_EQ(Counter("server.inline_predicts") - inline_before, kRunLength);
    if (worker_waits) {
      // The outbox holds the cap: the worker waits for room to append the
      // rest of its run, or this one, and never counts it.
      ASSERT_NO_FATAL_FAILURE(send_run());
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      ASSERT_LT(Counter("server.requests.predict") - answered_before, sent)
          << "the worker did not wait for room";
    }

    // The IO thread retries its send at every EPOLLOUT, so it sees the
    // drain at once; the storm ends after its loop has.
    server_->Shutdown();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    failpoints::DisarmAll();
    std::vector<uint64_t> ids;
    std::thread reader([&] {
      wire::FrameBuffer frames;
      while (true) {
        auto reply =
            ReadResponse(fd.value(), &frames, net::Deadline::AfterMs(20000));
        if (!reply.ok()) break;
        EXPECT_TRUE(reply.value().ok()) << reply.value().error;
        ids.push_back(reply.value().id);
      }
    });
    server_->Wait();
    reader.join();
    ASSERT_EQ(ids.size(), sent);
    for (uint64_t k = 0; k < sent; ++k) ASSERT_EQ(ids[k], k + 1);
    EXPECT_EQ(Counter("server.requests.predict") - answered_before, sent);
  }
}

/// The IO thread answers warm runs of single-point PREDICTs without a heap
/// allocation: the frame is decoded in place into the run's storage, each
/// template group is predicted into the run's replies, and the replies are
/// encoded into the run's frame string. The count is the IO thread's own,
/// read from the dispatch hook, which runs there for the runs it answers.
TEST_F(ServerTest, TheIoThreadAnswersWarmPredictRunsWithoutAllocating) {
  Rng rng(41);
  WarmQ1Q3Q5(&rng);
  constexpr uint64_t kRunLength = PlanServer::kMaxMicrobatch;
  constexpr uint64_t kWarmRuns = 100;
  constexpr uint64_t kRuns = 1100;
  // Written by the hook on the IO thread only; read after the replies.
  std::atomic<uint64_t> hooked{0};
  std::atomic<uint64_t> allocations_at_warm{0};
  std::atomic<uint64_t> allocations_at_last{0};
  PlanServer::Config config;
  config.pre_dispatch_hook = [&](wire::MessageType) {
    const uint64_t n = hooked.fetch_add(1) + 1;
    const uint64_t allocations = ThreadAllocationCount();
    if (n == kWarmRuns * kRunLength) allocations_at_warm.store(allocations);
    allocations_at_last.store(allocations);
  };
  StartServer(config);

  // Runs over three templates, inside and outside the warmed clusters, so
  // both answers and abstentions are served.
  const std::vector<std::string> templates = {"Q1", "Q3", "Q5"};
  std::vector<std::string> runs(8);
  uint64_t id = 0;
  for (std::string& run : runs) {
    for (uint64_t k = 0; k < kRunLength; ++k) {
      const std::string& name = templates[rng.UniformInt(uint64_t{3})];
      const double spread = rng.UniformInt(uint64_t{4}) == 0 ? 0.45 : 0.03;
      std::vector<double> x(Dims(name));
      for (double& v : x) v = 0.5 + rng.Uniform(-spread, spread);
      AppendPredictRequest(name, x, ++id, &run);
    }
  }
  auto fd = net::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  wire::FrameBuffer frames;
  for (uint64_t r = 0; r < kRuns; ++r) {
    // One write per run, and the next only after all its replies: each
    // read then holds one whole run.
    const std::string& run = runs[r % runs.size()];
    ASSERT_TRUE(net::WriteAll(fd.value(), run.data(), run.size(),
                              net::Deadline::AfterMs(5000))
                    .ok());
    for (uint64_t k = 0; k < kRunLength; ++k) {
      auto response =
          ReadResponse(fd.value(), &frames, net::Deadline::AfterMs(5000));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_TRUE(response.value().ok()) << response.value().error;
    }
  }
  ::close(fd.value());

  const uint64_t predicts = kRuns * kRunLength;
  ASSERT_EQ(Counter("server.inline_predicts"), predicts)
      << "some PREDICTs were not answered on the IO thread";
  ASSERT_EQ(hooked.load(), predicts);
  const uint64_t measured = predicts - kWarmRuns * kRunLength;
  EXPECT_EQ(allocations_at_last.load() - allocations_at_warm.load(), 0u)
      << "allocations over " << measured << " warm PREDICTs";
}

TEST_F(ServerTest, PredictsFromSeveralReadyConnectionsGoToTheWorkers) {
  // The IO thread answers a connection's PREDICTs itself only when its
  // epoll wake reported no other connection ready. It is parked in the
  // hook on A's inline PREDICT while B and C each write a burst, so its
  // next wake reports both: their PREDICTs must go to the workers.
  WarmQ1(300);
  std::atomic<bool> release{false};
  std::atomic<bool> parked{false};
  std::atomic<int> predicts{0};
  std::thread::id parked_thread;
  std::mutex mu;
  std::vector<std::thread::id> dispatchers;
  AtScopeExit stop{[&] {
    release.store(true);
    if (server_ != nullptr) server_->Stop();
  }};
  PlanServer::Config config;
  config.worker_threads = 2;
  config.pre_dispatch_hook = [&](wire::MessageType type) {
    if (type != wire::MessageType::kPredict) return;
    if (predicts.fetch_add(1) == 0) {
      parked_thread = std::this_thread::get_id();
      parked.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return;
    }
    std::lock_guard<std::mutex> lock(mu);
    dispatchers.push_back(std::this_thread::get_id());
  };
  StartServer(config);

  int fds[3];
  for (int& fd : fds) {
    auto connected = net::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(connected.ok());
    fd = connected.value();
  }
  AtScopeExit close_all{[&] {
    for (const int fd : fds) ::close(fd);
  }};
  ASSERT_TRUE(
      WaitFor([&] { return Counter("server.connections.accepted") >= 3; }));

  const auto send = [](int fd, const std::string& frames) {
    return net::WriteAll(fd, frames.data(), frames.size(),
                         net::Deadline::AfterMs(5000));
  };
  std::string first;
  AppendPredictRequest("Q1", {0.5, 0.5}, 1, &first);
  ASSERT_TRUE(send(fds[0], first).ok());
  ASSERT_TRUE(WaitFor([&] { return parked.load(); }));

  constexpr int kBurst = 8;
  Rng rng(41);
  std::vector<std::vector<double>> points;
  for (int c = 1; c <= 2; ++c) {
    std::string burst;
    for (int i = 0; i < kBurst; ++i) {
      points.push_back({0.5 + rng.Uniform(-0.03, 0.03),
                        0.5 + rng.Uniform(-0.03, 0.03)});
      AppendPredictRequest("Q1", points.back(), points.size(), &burst);
    }
    ASSERT_TRUE(send(fds[c], burst).ok());
  }
  // Loopback delivers while the sender writes; the pause is margin.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.store(true);

  wire::FrameBuffer frames[3];
  auto a = ReadResponse(fds[0], &frames[0], net::Deadline::AfterMs(5000));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_TRUE(a.value().ok());
  for (int c = 1; c <= 2; ++c) {
    for (int i = 0; i < kBurst; ++i) {
      auto response =
          ReadResponse(fds[c], &frames[c], net::Deadline::AfterMs(5000));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_TRUE(response.value().ok()) << response.value().error;
      const uint64_t id = response.value().id;
      ASSERT_TRUE(id >= 1 && id <= points.size()) << id;
      auto scalar = framework_->PredictAtPoint("Q1", points[id - 1]);
      ASSERT_TRUE(scalar.ok());
      EXPECT_EQ(response.value().predict.plan, scalar.value().plan);
      EXPECT_EQ(response.value().predict.confidence,
                scalar.value().confidence);
    }
  }

  EXPECT_EQ(Counter("server.inline_predicts"), 1u) << "only A's PREDICT";
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(dispatchers.size(), 2u * kBurst);
  for (const std::thread::id& id : dispatchers) {
    EXPECT_NE(id, parked_thread) << "a PREDICT of B or C was answered inline";
  }
}

TEST_F(ServerTest, AConnectionThatStreamsPredictsCannotStarveAnother) {
  // A writes pipelined PREDICTs without pause and reads its replies on a
  // second thread, so its socket never runs dry. The IO thread reads a
  // connection once per epoll wake, so B's PING is read and answered (a
  // BUSY reply counts too) while A streams.
  WarmQ1(200);
  PlanServer::Config config;
  config.worker_threads = 2;
  StartServer(config);

  int fds[2];
  for (int& fd : fds) {
    auto connected = net::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(connected.ok());
    fd = connected.value();
  }
  AtScopeExit close_all{[&] {
    for (const int fd : fds) ::close(fd);
  }};
  ASSERT_TRUE(
      WaitFor([&] { return Counter("server.connections.accepted") >= 2; }));

  std::string burst;
  for (uint64_t id = 1; id <= 512; ++id) {
    AppendPredictRequest("Q1", {0.5, 0.5}, id, &burst);
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> replies{0};
  std::thread writer([&] {
    while (!stop.load()) {
      const Status sent = net::WriteAll(fds[0], burst.data(), burst.size(),
                                        net::Deadline::AfterMs(100));
      if (!sent.ok() && sent.code() != StatusCode::kDeadlineExceeded) break;
    }
  });
  std::thread reader([&] {
    std::vector<char> buffer(64 * 1024);
    wire::FrameBuffer frames;
    std::string payload;
    while (!stop.load()) {
      auto got = net::RecvSome(fds[0], buffer.data(), buffer.size(),
                               net::Deadline::AfterMs(100));
      if (!got.ok() && got.status().code() == StatusCode::kDeadlineExceeded) {
        continue;
      }
      if (!got.ok() || got.value() == 0) break;
      frames.Append(buffer.data(), got.value());
      while (true) {
        Result<bool> next = frames.Next(&payload);
        if (!next.ok() || !next.value()) break;
        replies.fetch_add(1);
      }
    }
  });
  AtScopeExit join{[&] {
    stop.store(true);
    writer.join();
    reader.join();
  }};
  ASSERT_TRUE(WaitFor([&] { return replies.load() >= 2000; }, 10000))
      << "A's stream never got going";

  std::string ping;
  AppendBodylessRequest(wire::MessageType::kPing, 1, &ping);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(net::WriteAll(fds[1], ping.data(), ping.size(),
                            net::Deadline::AfterMs(1000))
                  .ok());
  wire::FrameBuffer frames;
  auto reply = ReadResponse(fds[1], &frames, net::Deadline::AfterMs(5000));
  ASSERT_TRUE(reply.ok()) << "B's PING was not answered while A streamed: "
                          << reply.status().ToString();
  EXPECT_EQ(reply.value().type, wire::MessageType::kPing);
  EXPECT_EQ(reply.value().id, 1u);
  EXPECT_LT(MillisSince(start), 1000) << "B waited behind A's stream";
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

TEST_F(ServerTest, PipelinedExecutesOfOneConnectionLeaveInOneWrite) {
  // A twin framework, warmed the same way, executes the same points in the
  // same order: with one worker, queue order is execution order, so every
  // report must match the twin's bit for bit.
  PpcFramework twin(&SmallTpch(), ServingConfig());
  ASSERT_TRUE(twin.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  ASSERT_TRUE(twin.RegisterTemplate(EvaluationTemplate("Q3")).ok());
  WarmQ1(150);
  {
    Rng rng(7);
    for (int i = 0; i < 150; ++i) {
      std::vector<double> x = {0.5 + rng.Uniform(-0.02, 0.02),
                               0.5 + rng.Uniform(-0.02, 0.02)};
      ASSERT_TRUE(twin.ExecuteAtPoint("Q1", x).ok());
    }
  }

  DispatchLog log;
  PlanServer::Config config;
  config.worker_threads = 1;
  config.queue_capacity = 64;
  config.pre_dispatch_hook = log.Hook(&server_);
  StartServer(config);
  AtScopeExit stop{[&] {
    log.Release();
    server_->Stop();
  }};

  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  auto gate = client.SendPing();
  ASSERT_TRUE(gate.ok());
  ASSERT_TRUE(log.WaitEntered());
  const uint64_t flushes_before = Counter("server.flushes");

  // Points in and around the warmed cluster and far from it, so the run
  // mixes predicted plans, optimizer calls and feedback.
  constexpr size_t kExecutes = 16;
  Rng rng(37);
  std::vector<std::vector<double>> points;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < kExecutes; ++i) {
    const double spread = (i % 4 == 0) ? 0.45 : 0.03;
    points.push_back({0.5 + rng.Uniform(-spread, spread),
                      0.5 + rng.Uniform(-spread, spread)});
    auto id = client.SendExecute("Q1", points.back());
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  ASSERT_TRUE(
      WaitFor([&] { return server_->queued_requests() == kExecutes; }));
  log.Release();

  ASSERT_TRUE(client.Wait(gate.value()).ok());
  for (size_t i = 0; i < kExecutes; ++i) {
    auto response = client.Wait(ids[i]);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response.value().ok()) << response.value().error;
    EXPECT_EQ(response.value().id, ids[i]);
    auto expected = twin.ExecuteAtPoint("Q1", points[i]);
    ASSERT_TRUE(expected.ok());
    const wire::Response::Execute& got = response.value().execute;
    EXPECT_EQ(got.executed_plan, expected.value().executed_plan) << i;
    EXPECT_EQ(got.optimal_plan, expected.value().optimal_plan) << i;
    EXPECT_EQ(got.used_prediction, expected.value().used_prediction) << i;
    EXPECT_EQ(got.cache_hit, expected.value().cache_hit) << i;
    EXPECT_EQ(got.optimizer_invoked, expected.value().optimizer_invoked) << i;
    EXPECT_EQ(got.prediction_evicted, expected.value().prediction_evicted)
        << i;
    EXPECT_EQ(got.negative_feedback_triggered,
              expected.value().negative_feedback_triggered)
        << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.execution_cost),
              std::bit_cast<uint64_t>(expected.value().execution_cost))
        << i;
  }

  // The worker took all 16 in one run: it popped them before its first
  // dispatch. A flush counts itself after its write returns, so stop first.
  server_->Stop();
  const std::vector<DispatchLog::Entry> dispatched = log.Entries();
  ASSERT_EQ(dispatched.size(), kExecutes);
  for (const DispatchLog::Entry& entry : dispatched) {
    EXPECT_EQ(entry.type, wire::MessageType::kExecute);
    EXPECT_EQ(entry.queued, 0u);
  }
  // One write for the gate's reply and one for the 16 EXECUTEs' replies:
  // flushes per EXECUTE is 1/16 (it is 1 with every EXECUTE a run of one).
  // The micro-batch counters count PREDICT runs only.
  EXPECT_EQ(Counter("server.requests.execute"), kExecutes);
  EXPECT_EQ(Counter("server.flushes") - flushes_before - 1, 1u);
  EXPECT_EQ(Counter("server.microbatches"), 0u);
  EXPECT_EQ(Counter("server.microbatched_predicts"), 0u);
}

TEST_F(ServerTest, AnExecuteRunTakesOnlyItsConnectionsExecutes) {
  WarmQ1(50);
  const std::vector<double> point = {0.5, 0.5};
  using Entry = DispatchLog::Entry;
  constexpr wire::MessageType kE = wire::MessageType::kExecute;
  {
    DispatchLog log;
    PlanServer::Config config;
    config.worker_threads = 1;
    config.queue_capacity = 64;
    config.pre_dispatch_hook = log.Hook(&server_);
    StartServer(config);
    AtScopeExit stop{[&] {
      log.Release();
      server_->Stop();
    }};
    PpcClient a;
    PpcClient b;
    ASSERT_TRUE(ConnectClient(&a).ok());
    ASSERT_TRUE(ConnectClient(&b).ok());
    std::vector<std::pair<PpcClient*, uint64_t>> sent;
    auto gate = a.SendPing();
    ASSERT_TRUE(gate.ok());
    sent.emplace_back(&a, gate.value());
    ASSERT_TRUE(log.WaitEntered());

    // Queue order: A:E A:E B:E A:E A:PING A:E A:E B:PREDICT B:E B:E A:E.
    // Each request is admitted before the next is sent, so the two
    // connections interleave in exactly this order.
    struct Step {
      PpcClient* client;
      wire::MessageType type;
    };
    const std::vector<Step> steps = {
        {&a, kE}, {&a, kE}, {&b, kE}, {&a, kE},
        {&a, wire::MessageType::kPing}, {&a, kE}, {&a, kE},
        {&b, wire::MessageType::kPredict}, {&b, kE}, {&b, kE}, {&a, kE}};
    for (size_t i = 0; i < steps.size(); ++i) {
      Result<uint64_t> id =
          steps[i].type == kE ? steps[i].client->SendExecute("Q1", point)
          : steps[i].type == wire::MessageType::kPing
              ? steps[i].client->SendPing()
              : steps[i].client->SendPredict("Q1", point);
      ASSERT_TRUE(id.ok());
      sent.emplace_back(steps[i].client, id.value());
      ASSERT_TRUE(
          WaitFor([&] { return server_->queued_requests() == i + 1; }));
    }
    log.Release();
    for (const auto& [client, id] : sent) {
      auto response = client->Wait(id);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_TRUE(response.value().ok()) << response.value().error;
    }
    // Runs: [A:E A:E] [B:E] [A:E] [PING] [A:E A:E] [PREDICT] [B:E B:E]
    // [A:E]. A run's items log the count queued after its last pop.
    const std::vector<Entry> expected = {
        {kE, 9}, {kE, 9}, {kE, 8}, {kE, 7},
        {wire::MessageType::kPing, 6}, {kE, 4}, {kE, 4},
        {wire::MessageType::kPredict, 3}, {kE, 1}, {kE, 1}, {kE, 0}};
    EXPECT_EQ(log.Entries(), expected);
  }

  // At the first shed rung every EXECUTE is a run of one.
  DispatchLog log;
  PlanServer::Config config;
  config.worker_threads = 1;
  config.queue_capacity = 8;
  config.pre_dispatch_hook = log.Hook(&server_);
  StartServer(config);
  AtScopeExit stop{[&] {
    log.Release();
    server_->Stop();
  }};
  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  auto gate = client.SendPing();
  ASSERT_TRUE(gate.ok());
  ASSERT_TRUE(log.WaitEntered());
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < 8; ++i) {
    auto id = client.SendExecute("Q1", point);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  ASSERT_TRUE(WaitFor([&] { return server_->queued_requests() == 8; }));
  // Admissions against the full queue raise the shed EWMA past the first
  // rung; one sample moves it by at most 0.2, so it stops there.
  for (int i = 0;
       i < 8 && server_->shed_level() < net::ShedController::kNoMicrobatch;
       ++i) {
    auto id = client.SendPing();
    ASSERT_TRUE(id.ok());
    auto busy = client.Wait(id.value());
    ASSERT_TRUE(busy.ok()) << busy.status().ToString();
    EXPECT_EQ(busy.value().status, wire::WireStatus::kBusy);
  }
  ASSERT_EQ(server_->shed_level(), net::ShedController::kNoMicrobatch);
  log.Release();
  ASSERT_TRUE(client.Wait(gate.value()).ok());
  for (uint64_t id : ids) {
    auto response = client.Wait(id);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response.value().ok()) << response.value().error;
  }
  std::vector<Entry> expected;
  for (size_t queued = 8; queued-- > 0;) expected.push_back({kE, queued});
  EXPECT_EQ(log.Entries(), expected);
}

TEST_F(ServerTest, TwoWorkersShareAPipelinedExecuteWindow) {
  WarmQ1(50);
  // Both workers are held on PINGs while 16 EXECUTEs of one connection
  // queue behind them; then the workers are let go one at a time, and each
  // is held again at its first EXECUTE, with its run taken.
  std::mutex mu;
  std::condition_variable cv;
  int pings_held = 0;
  int ping_permits = 0;
  bool executes_held = true;
  std::vector<std::thread::id> executors;
  PlanServer::Config config;
  config.worker_threads = 2;
  config.queue_capacity = 64;
  config.pre_dispatch_hook = [&](wire::MessageType type) {
    std::unique_lock<std::mutex> lock(mu);
    if (type == wire::MessageType::kPing) {
      ++pings_held;
      cv.notify_all();
      cv.wait(lock, [&] { return ping_permits > 0; });
      --ping_permits;
      return;
    }
    executors.push_back(std::this_thread::get_id());
    cv.notify_all();
    cv.wait(lock, [&] { return !executes_held; });
  };
  StartServer(config);
  const auto release = [&](int permits, bool executes) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ping_permits += permits;
      executes_held = !executes;
    }
    cv.notify_all();
  };
  const auto wait_until = [&](auto done) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(5), done);
  };
  AtScopeExit stop{[&] {
    release(2, true);
    server_->Stop();
  }};

  PpcClient client;
  ASSERT_TRUE(ConnectClient(&client).ok());
  std::vector<uint64_t> ids;
  for (int i = 0; i < 2; ++i) {
    auto id = client.SendPing();
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  ASSERT_TRUE(wait_until([&] { return pings_held == 2; }));
  constexpr size_t kExecutes = 16;
  for (size_t i = 0; i < kExecutes; ++i) {
    auto id = client.SendExecute("Q1", {0.5, 0.5});
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  ASSERT_TRUE(
      WaitFor([&] { return server_->queued_requests() == kExecutes; }));

  // The first worker's fair share is ⌈(1 + 15) / 2⌉ = 8, not all 16.
  release(1, false);
  ASSERT_TRUE(wait_until([&] { return executors.size() == 1; }));
  EXPECT_EQ(server_->queued_requests(), kExecutes - 8);
  // The second's is ⌈(1 + 7) / 2⌉ = 4, which leaves 4 for later runs.
  release(1, false);
  ASSERT_TRUE(wait_until([&] { return executors.size() == 2; }));
  EXPECT_EQ(server_->queued_requests(), kExecutes - 8 - 4);
  release(0, true);

  for (uint64_t id : ids) {
    auto response = client.Wait(id);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response.value().ok()) << response.value().error;
  }
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(executors.size(), kExecutes);
  EXPECT_NE(executors[0], executors[1])
      << "one worker answered the whole window";
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

/// A worker does not answer a request whose only effect is its reply once
/// the IO thread has closed its connection: a peer's METRICS queued before
/// its malformed frame is never dispatched. Its EXECUTE, queued first,
/// still runs.
TEST_F(ServerTest, AWorkerDropsTheRepliesOnlyRequestsOfAClosedConnection) {
  std::mutex mu;
  std::vector<wire::MessageType> dispatched;
  std::atomic<bool> release{false};
  PlanServer::Config config;
  config.worker_threads = 1;
  config.pre_dispatch_hook = [&](wire::MessageType type) {
    bool first;
    {
      std::lock_guard<std::mutex> lock(mu);
      first = dispatched.empty();
      dispatched.push_back(type);
    }
    while (first && !release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  StartServer(config);
  AtScopeExit stop{[&] {
    release.store(true);
    server_->Stop();
  }};

  PpcClient holder;
  ASSERT_TRUE(ConnectClient(&holder).ok());
  auto held = holder.SendPing();
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(mu);
    return dispatched.size() == 1;
  }));

  auto fd = net::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  std::string frames;
  wire::Request execute;
  execute.type = wire::MessageType::kExecute;
  execute.id = 1;
  execute.template_name = "Q1";
  execute.point = {0.5, 0.5};
  wire::EncodeRequest(execute, &frames);
  AppendBodylessRequest(wire::MessageType::kMetrics, 2, &frames);
  // A well-framed payload that decodes to nothing: unknown type 0xEE.
  const std::string payload = "\xEE garbage";
  const uint32_t length = static_cast<uint32_t>(payload.size());
  frames.append(reinterpret_cast<const char*>(&length), sizeof(length));
  frames += payload;
  ASSERT_TRUE(net::WriteAll(fd.value(), frames.data(), frames.size(),
                            net::Deadline::AfterMs(5000))
                  .ok());
  ASSERT_TRUE(WaitFor([&] { return Counter("server.frames.malformed") >= 1; }));
  ASSERT_EQ(server_->queued_requests(), 2u);

  release.store(true);
  ASSERT_TRUE(holder.Wait(held.value()).ok());
  // The queue is FIFO: once this PING is answered, the worker has passed
  // both of the closed peer's requests.
  ASSERT_TRUE(holder.Ping().ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(dispatched,
              (std::vector<wire::MessageType>{wire::MessageType::kPing,
                                              wire::MessageType::kExecute,
                                              wire::MessageType::kPing}));
  }
  EXPECT_EQ(Counter("server.requests.execute"), 1u);
  EXPECT_EQ(Counter("server.requests.metrics"), 0u);

  // The peer reads the BAD_REQUEST, then EOF.
  wire::FrameBuffer replies;
  auto rejection =
      ReadResponse(fd.value(), &replies, net::Deadline::AfterMs(5000));
  ASSERT_TRUE(rejection.ok()) << rejection.status().ToString();
  EXPECT_EQ(rejection.value().status, wire::WireStatus::kBadRequest);
  auto eof = ReadResponse(fd.value(), &replies, net::Deadline::AfterMs(5000));
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound)
      << eof.status().ToString();
  ::close(fd.value());
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
  // The IO thread answers PREDICTs itself only while the queue is empty
  // (DESIGN.md §13): a PING left queued behind the parked worker sends
  // the PREDICTs below to the worker path.
  auto filler = client.SendPing();
  ASSERT_TRUE(filler.ok());
  while (server_->queued_requests() < 1) std::this_thread::yield();
  ids.push_back(filler.value());
  for (int i = 0; i < 5; ++i) {
    auto id = client.SendPredict("Q1", {0.5, 0.5});
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  // SendPredict returns once the bytes are written, which is before the IO
  // thread has necessarily admitted them — wait for that, so the drain
  // guarantee below is exercised deterministically.
  while (server_->queued_requests() < 1 + 5) std::this_thread::yield();

  // Initiate the drain while six requests sit in the queue, then let the
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
  ASSERT_TRUE(net::WriteAll(fd.value(), frame.data(), frame.size(),
                            net::Deadline::AfterMs(5000))
                  .ok());

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
  ASSERT_TRUE(net::WriteAll(fd.value(), reinterpret_cast<const char*>(&huge),
                            sizeof(huge), net::Deadline::AfterMs(5000))
                  .ok());
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
  // close well within the test deadline (100 ms timeout + the deadline
  // sweep, which runs every 50 ms).
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
  ASSERT_TRUE(net::WriteAll(fd.value(), partial.data(), partial.size(),
                            net::Deadline::AfterMs(5000))
                  .ok());

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
  ASSERT_TRUE(net::WriteAll(fd.value(), frames.data(), frames.size(),
                            net::Deadline::AfterMs(5000))
                  .ok());
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
  ASSERT_TRUE(net::WriteAll(a.value(), ping.data(), ping.size(),
                            net::Deadline::AfterMs(5000))
                  .ok());
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
  ASSERT_TRUE(net::WriteAll(a.value(), malformed.data(), malformed.size(),
                            net::Deadline::AfterMs(5000))
                  .ok());
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

  // Small buffers on both ends fill after a few hundred KB of replies
  // instead of after megabytes.
  const int fd = ConnectWithSmallBuffers(server_->port(), 16 * 1024, 1024);
  ASSERT_GE(fd, 0);
  std::string burst;
  for (uint64_t id = 1; id <= 32; ++id) {
    AppendBodylessRequest(wire::MessageType::kMetrics, id, &burst);
  }
  // The server bounds the peer one of two ways, and both close the
  // connection: a worker's flush runs past the write deadline, or the IO
  // thread finds a reply would take the outbox past the cap.
  const auto closed_by_a_bound = [&] {
    return Counter("server.timeouts.write") +
               Counter("server.outbox_overflows") >=
           1;
  };
  const net::Deadline give_up = net::Deadline::AfterMs(20000);
  while (!closed_by_a_bound() && !give_up.expired()) {
    // The write fails once the server closed the connection. A write that
    // times out only means TCP is backing off, or that the server stopped
    // reading: go on until a bound closes the connection.
    const Status sent = net::WriteAll(fd, burst.data(), burst.size(),
                                      net::Deadline::AfterMs(1000));
    if (!sent.ok() && sent.code() != StatusCode::kDeadlineExceeded) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(WaitFor(closed_by_a_bound));
  ::close(fd);
  // An overflow close can come while the closed peer's METRICS still fill
  // the queue: let the workers drain them, or the fresh client is
  // answered BUSY.
  EXPECT_TRUE(WaitFor([&] { return server_->queued_requests() == 0; }));

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
  // The IO thread answers PREDICTs itself only while the queue is empty
  // (DESIGN.md §13): a PING left queued behind the parked worker sends
  // the PREDICTs below to the worker path.
  auto filler = client.SendPing();
  ASSERT_TRUE(filler.ok());
  while (server_->queued_requests() < 1) std::this_thread::yield();
  admitted.push_back(filler.value());
  for (int i = 0; i < 2; ++i) {
    auto id = client.SendPredict("Q1", {0.5, 0.5});
    ASSERT_TRUE(id.ok());
    admitted.push_back(id.value());
  }
  while (server_->queued_requests() < 1 + 2) std::this_thread::yield();

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
  // A pipelining client: 8 EXECUTEs in flight, then their replies, so the
  // workers' EXECUTE runs meet the dispatch stalls and the send faults.
  clients.emplace_back([this, stop_at, &completed_calls]() {
    PpcClient::Options options;
    options.call_deadline_ms = 1000;
    options.retry.max_attempts = 3;
    options.retry.initial_backoff_ms = 1;
    options.retry.max_backoff_ms = 8;
    options.retry.seed = 902;
    PpcClient client(options);
    Rng rng(7002);
    std::vector<uint64_t> ids;
    while (std::chrono::steady_clock::now() < stop_at) {
      if (!client.connected() && !ConnectClient(&client).ok()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      ids.clear();
      for (int i = 0; i < 8; ++i) {
        auto id = client.SendExecute("Q3", {0.4 + rng.Uniform(-0.02, 0.02),
                                            0.4 + rng.Uniform(-0.02, 0.02),
                                            0.4 + rng.Uniform(-0.02, 0.02)});
        if (!id.ok()) break;
        ids.push_back(id.value());
      }
      for (uint64_t id : ids) (void)client.Wait(id);
      completed_calls.fetch_add(ids.size(), std::memory_order_relaxed);
    }
  });
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
