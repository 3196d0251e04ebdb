#include "server/client.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "server/failpoints.h"
#include "server/server.h"
#include "server/wire_protocol.h"
#include "test_util.h"
#include "workload/templates.h"

namespace ppc {
namespace {

using testutil::SmallTpch;

/// Regression tests for the pipelined-id / reconnect interaction
/// (DESIGN.md §14). The defect being pinned down: a pipelined id sent on
/// connection N whose stream was then lost could be Wait()ed after a
/// synchronous call transparently reconnected — and the Wait would read
/// the *new* connection for a response that can only ever have existed
/// on the old one. Under the default infinite deadline that was a
/// permanent hang; ids now carry the connection generation they were
/// sent under and Wait() on a dead generation fails immediately.
class ClientReconnectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    framework_ = std::make_unique<PpcFramework>(&SmallTpch(),
                                                PpcFramework::Config{});
    ASSERT_TRUE(framework_->RegisterTemplate(EvaluationTemplate("Q1")).ok());
    StartServer(PlanServer::Config{});
  }

  /// (Re)starts the server under test with `config`.
  void StartServer(const PlanServer::Config& config) {
    if (server_ != nullptr) server_->Stop();
    server_ = std::make_unique<PlanServer>(framework_.get(), config);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    failpoints::DisarmAll();
    if (server_ != nullptr) server_->Stop();
  }

  Status Connect(PpcClient* client) {
    return client->Connect("127.0.0.1", server_->port());
  }

  /// Spins until the server-side counter reaches `at_least`, so tests
  /// can arm a failpoint knowing the in-process server has finished its
  /// own recv/send for everything already on the wire.
  void AwaitCounter(const std::string& name, uint64_t at_least) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (framework_->metrics().counter(name).value() < at_least) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "counter " << name << " never reached " << at_least;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::unique_ptr<PpcFramework> framework_;
  std::unique_ptr<PlanServer> server_;
};

TEST_F(ClientReconnectTest, WaitOnIdFromLostConnectionFailsFastNotForever) {
  PpcClient::Options options;
  options.call_deadline_ms = 0;  // infinite — the hang-forever setup
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ms = 1;
  PpcClient client(options);
  ASSERT_TRUE(Connect(&client).ok());

  auto id = client.SendPing();
  ASSERT_TRUE(id.ok());

  // The stream dies after the send (here: detected loss, which closes
  // the client side exactly like a failed read does)...
  client.Close();
  ASSERT_FALSE(client.connected());

  // ...and a synchronous call transparently reconnects.
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.connected());
  ASSERT_GE(client.transport_stats().reconnects, 1u);

  // The old id's response can never arrive on the new stream. Pre-fix,
  // this Wait read the new connection under an infinite deadline and
  // hung forever; now it must fail immediately.
  const auto start = std::chrono::steady_clock::now();
  auto response = client.Wait(id.value());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable)
      << response.status().ToString();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);

  // The client itself is still healthy on the new connection.
  auto fresh = client.SendPing();
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(client.Wait(fresh.value()).ok());
}

TEST_F(ClientReconnectTest, FailpointSeveredReadLosesOnlyThatId) {
  PpcClient::Options options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ms = 1;
  PpcClient client(options);
  ASSERT_TRUE(Connect(&client).ok());
  ASSERT_TRUE(client.Ping().ok());

  auto id = client.SendPing();
  ASSERT_TRUE(id.ok());
  // Wait until the in-process server has fully handled the ping (its
  // recv and send are done), so the armed receive fault below can only
  // fire on the client's read.
  AwaitCounter("server.requests.ping", 2);

  failpoints::Config fault;
  fault.kind = failpoints::Kind::kError;
  fault.budget = 1;
  failpoints::Arm(failpoints::Site::kRecv, fault);
  auto lost = client.Wait(id.value());
  failpoints::Disarm(failpoints::Site::kRecv);
  EXPECT_FALSE(lost.ok());
  EXPECT_FALSE(client.connected()) << "a failed read must close the stream";

  // Waiting again on the same id fails fast — the id is gone, not
  // pending (pre-fix this was reconnect-and-hang territory).
  EXPECT_FALSE(client.Wait(id.value()).ok());

  // The next synchronous call reconnects and the connection serves
  // pipelined traffic again.
  ASSERT_TRUE(client.Ping().ok());
  EXPECT_GE(client.transport_stats().reconnects, 1u);
  auto fresh = client.SendPing();
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(fresh.value(), id.value())
      << "ids must keep increasing across reconnects";
  EXPECT_TRUE(client.Wait(fresh.value()).ok());
}

TEST_F(ClientReconnectTest, IdsStrictlyIncreaseAcrossRepeatedReconnects) {
  PpcClient::Options options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ms = 1;
  PpcClient client(options);
  ASSERT_TRUE(Connect(&client).ok());

  uint64_t last_id = 0;
  for (int round = 0; round < 5; ++round) {
    auto id = client.SendPing();
    ASSERT_TRUE(id.ok());
    EXPECT_GT(id.value(), last_id) << "round " << round;
    last_id = id.value();
    // Lose the connection with the id outstanding; the reconnect under
    // the next round's traffic must never mint an id the old stream
    // could still answer.
    client.Close();
    ASSERT_TRUE(client.Ping().ok());
    EXPECT_EQ(client.Wait(id.value()).status().code(),
              StatusCode::kUnavailable);
  }
  EXPECT_GE(client.transport_stats().reconnects, 5u);
}

TEST_F(ClientReconnectTest, WaitOnANeverSentIdIsAnError) {
  PpcClient client;
  ASSERT_TRUE(Connect(&client).ok());
  // Pre-fix this read the socket until the (infinite) deadline; an id
  // this client never issued must be a fast, explicit error.
  auto response = client.Wait(424242);
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ClientReconnectTest, ParkedResponsesSurviveConnectionLoss) {
  // Parking the first response needs it to arrive before the second.
  // Several workers may answer two pipelined requests in either order
  // (the wire promises none), and then nothing is parked; one worker
  // answers in arrival order.
  PlanServer::Config one_worker;
  one_worker.worker_threads = 1;
  StartServer(one_worker);
  PpcClient client;
  ASSERT_TRUE(Connect(&client).ok());
  auto first = client.SendPing();
  auto second = client.SendPing();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  // Collecting the second response first parks the first one.
  ASSERT_TRUE(client.Wait(second.value()).ok());

  // The parked response was received whole before the loss — it still
  // answers its Wait() even though the stream is gone.
  client.Close();
  auto parked = client.Wait(first.value());
  ASSERT_TRUE(parked.ok()) << parked.status().ToString();
  EXPECT_EQ(parked.value().id, first.value());

  // But only once.
  EXPECT_FALSE(client.Wait(first.value()).ok());
}

}  // namespace
}  // namespace ppc
