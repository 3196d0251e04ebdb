// The serving benches' load generator (bench/loadgen.h) against a live
// one-worker PlanServer: both loops count every request as answered,
// BUSY or failed, and a server nobody listens on counts as failures.

#include "loadgen.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "server/net_util.h"
#include "server/server.h"
#include "workload/templates.h"

namespace ppc {
namespace {

using bench::loadgen::Call;
using bench::loadgen::ClosedLoop;
using bench::loadgen::MaybeCall;
using bench::loadgen::OpenLoop;
using bench::loadgen::Phase;
using bench::loadgen::Scheduled;
using bench::loadgen::kExecute;
using bench::loadgen::kPing;

/// `count` PINGs, one every `spacing_ms` from t = 0.
std::vector<Scheduled> Pings(size_t count, double spacing_ms) {
  std::vector<Scheduled> schedule;
  for (size_t i = 0; i < count; ++i) {
    const double at_seconds = static_cast<double>(i) * spacing_ms / 1e3;
    schedule.push_back({at_seconds, kPing, "", {}});
  }
  return schedule;
}

class LoadgenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    framework_ = std::make_unique<PpcFramework>(&bench::BenchCatalog(),
                                                ServingConfig());
    ASSERT_TRUE(framework_->RegisterTemplate(EvaluationTemplate("Q1")).ok());
    framework_->Seal();
  }

  /// Starts a one-worker server; `hook` runs before every dispatch.
  void StartServer(std::function<void(wire::MessageType)> hook = nullptr,
                   size_t queue_capacity = 1024) {
    PlanServer::Config config;
    config.worker_threads = 1;
    config.queue_capacity = queue_capacity;
    config.pre_dispatch_hook = std::move(hook);
    server_ = std::make_unique<PlanServer>(framework_.get(), config);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  std::unique_ptr<PpcFramework> framework_;
  std::unique_ptr<PlanServer> server_;
};

TEST_F(LoadgenTest, OpenLoopCountsBusyAndFailedAnswersWithoutTimingThem) {
  // The first PING holds the only worker for 50 ms behind a one-slot
  // queue, so a burst behind it is refused BUSY. After the stall, an
  // EXECUTE for an unregistered template is answered NOT_FOUND. (An
  // EXECUTE, because the burst leaves the shed ladder answering PREDICTs
  // with an OK abstention.)
  std::atomic<int> dispatched{0};
  StartServer(
      [&](wire::MessageType) {
        if (dispatched.fetch_add(1) == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      },
      /*queue_capacity=*/1);
  std::vector<Scheduled> schedule = Pings(12, 0.0);
  schedule.push_back({0.2, kExecute, "NoSuchTemplate", {0.5, 0.5}});
  Phase phase = OpenLoop(server_->port(), {schedule});
  EXPECT_GE(phase.busy[kPing], 1u);
  EXPECT_EQ(phase.count(kPing) + phase.busy[kPing], 12u);
  EXPECT_EQ(phase.failures, 1u);
  EXPECT_EQ(phase.busy[kExecute], 0u);
  EXPECT_EQ(phase.count(kExecute), 0u);
  EXPECT_EQ(phase.total(), phase.count(kPing));
}

TEST_F(LoadgenTest, ClosedLoopCountsBusyAndFailedCallsWithoutTimingThem) {
  StartServer();
  const Status answers[] = {Status::OK(), Status::ResourceExhausted("busy"),
                            Status::NotFound("no template"), Status::OK()};
  Phase phase = ClosedLoop(
      server_->port(), 2, PpcClient::Options{},
      [&](size_t, size_t i, PpcClient* client) -> MaybeCall {
        if (i == 4) return std::nullopt;
        EXPECT_TRUE(client->Ping().ok());
        return Call{kPing, answers[i]};
      });
  EXPECT_EQ(phase.count(kPing), 4u);
  EXPECT_EQ(phase.busy[kPing], 2u);
  EXPECT_EQ(phase.failures, 2u);
}

TEST_F(LoadgenTest, UnreachableServerIsCountedAsFailed) {
  // A port nothing listens on: bound once to learn a free number, then
  // closed before anyone connects.
  uint16_t port = 0;
  Result<int> listener = net::Listen("127.0.0.1", 0, 1, &port);
  ASSERT_TRUE(listener.ok());
  ::close(listener.value());

  Phase closed = ClosedLoop(
      port, 2, PpcClient::Options{},
      [](size_t, size_t i, PpcClient* client) -> MaybeCall {
        if (i == 3) return std::nullopt;
        return Call{kPing, client->Ping()};
      });
  // Per client: the failed connect, then three calls that redial and fail.
  EXPECT_EQ(closed.failures, 8u);
  EXPECT_EQ(closed.total(), 0u);

  Phase open = OpenLoop(port, {Pings(5, 1.0), Pings(3, 1.0)});
  EXPECT_EQ(open.failures, 8u);
  EXPECT_EQ(open.total(), 0u);
}

}  // namespace
}  // namespace ppc
