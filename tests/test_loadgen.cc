// The serving benches' load generator (bench/loadgen.h) against a live
// one-worker PlanServer: the open loop charges a server stall to every
// request scheduled behind it, reads responses as they arrive, and
// neither loop times a BUSY or failed answer.

#include "loadgen.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "server/net_util.h"
#include "server/server.h"
#include "workload/templates.h"

namespace ppc {
namespace {

using bench::Percentile;
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
                                                bench::ServingConfig());
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

TEST_F(LoadgenTest, OpenLoopChargesAStallToEveryRequestScheduledBehindIt) {
  // The 20th request (index 19, scheduled at 19 ms) holds the only worker
  // for 30 ms. It cannot be dispatched before it is sent, so the stall
  // ends no earlier than 49 ms, and every request scheduled at 19 + j ms
  // (j < 30) waits for that: its latency from the schedule is at least
  // 30 - j ms. A driver that timed from the actual send, or stopped
  // sending while the server stalled, would report less.
  constexpr int kStallMs = 30;
  std::atomic<int> dispatched{0};
  StartServer([&](wire::MessageType) {
    if (dispatched.fetch_add(1) + 1 == 20) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kStallMs));
    }
  });
  Phase phase = OpenLoop(server_->port(), {Pings(80, 1.0)});
  ASSERT_EQ(phase.failures, 0u);
  ASSERT_EQ(phase.count(kPing), 80u);
  std::vector<double> slowest = phase.latencies_us[kPing];
  std::sort(slowest.rbegin(), slowest.rend());
  for (int j = 0; j < kStallMs; ++j) {
    EXPECT_GE(slowest[static_cast<size_t>(j)], (kStallMs - j) * 1000.0 - 1.0)
        << "the " << j + 1 << " slowest requests must each include "
        << kStallMs - j << " ms of the stall";
  }
}

TEST_F(LoadgenTest, OpenLoopReadsResponsesAsTheyArrive) {
  // One PING per millisecond against an idle server: each answer is read
  // when it lands. A driver that reads only when a 64-deep window of
  // outstanding requests fills reports about 64 ms here.
  StartServer();
  Phase phase = OpenLoop(server_->port(), {Pings(200, 1.0)});
  ASSERT_EQ(phase.failures, 0u);
  ASSERT_EQ(phase.count(kPing), 200u);
  EXPECT_LT(phase.LatencyUs(kPing, 0.50), 5000.0);
}

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
  EXPECT_EQ(phase.latencies_us[kPing].size(), 4u);
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

TEST(LoadgenPercentileTest, NearestRankOverTheSortedValues) {
  EXPECT_EQ(Percentile({}, 0.5), 0.0);

  EXPECT_EQ(Percentile({7.0}, 0.0), 7.0);
  EXPECT_EQ(Percentile({7.0}, 0.5), 7.0);
  EXPECT_EQ(Percentile({7.0}, 1.0), 7.0);

  const std::vector<double> values = {30.0, 10.0, 40.0, 20.0};
  EXPECT_EQ(Percentile(values, 0.0), 10.0);
  EXPECT_EQ(Percentile(values, 1.0), 40.0);
  EXPECT_EQ(Percentile(values, 0.5), 30.0);  // index 1.5 rounds up
}

}  // namespace
}  // namespace ppc
