#include "server/net_util.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "server/failpoints.h"

namespace ppc {
namespace net {
namespace {

/// A connected AF_UNIX pair with small kernel buffers, so tests can fill
/// the pipe quickly and provoke blocking-write conditions.
class SocketPairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
    const int small = 4096;
    ::setsockopt(fds_[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
    ::setsockopt(fds_[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  }

  void TearDown() override {
    failpoints::DisarmAll();
    CloseLeft();
    CloseRight();
  }

  void CloseLeft() {
    if (fds_[0] >= 0) ::close(fds_[0]);
    fds_[0] = -1;
  }
  void CloseRight() {
    if (fds_[1] >= 0) ::close(fds_[1]);
    fds_[1] = -1;
  }

  int left() const { return fds_[0]; }
  int right() const { return fds_[1]; }

 private:
  int fds_[2] = {-1, -1};
};

TEST(DeadlineTest, InfiniteNeverExpires) {
  Deadline d = Deadline::Infinite();
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.PollTimeoutMs(), -1);
}

TEST(DeadlineTest, AfterMsExpiresAndReportsRemaining) {
  Deadline d = Deadline::AfterMs(10'000);
  EXPECT_FALSE(d.infinite());
  EXPECT_FALSE(d.expired());
  const int remaining = d.PollTimeoutMs();
  EXPECT_GT(remaining, 0);
  EXPECT_LE(remaining, 10'001);

  Deadline past = Deadline::AfterMs(-1);
  EXPECT_TRUE(past.expired());
  EXPECT_EQ(past.PollTimeoutMs(), 0);
}

TEST(DeadlineTest, AfterMsOrInfiniteTreatsZeroAsDisabled) {
  EXPECT_TRUE(Deadline::AfterMsOrInfinite(0).infinite());
  EXPECT_FALSE(Deadline::AfterMsOrInfinite(5).infinite());
}

TEST(ParsePortTest, AcceptsOnlyWholeDecimalPortsInRange) {
  uint16_t port = 7;
  EXPECT_TRUE(ParsePort("0", &port));
  EXPECT_EQ(port, 0);
  EXPECT_TRUE(ParsePort("65535", &port));
  EXPECT_EQ(port, 65535);
  for (const char* bad : {"", "65536", "70000", "99999999999999999999",
                          "-1", "+80", " 80", "80x", "abc"}) {
    port = 7;
    EXPECT_FALSE(ParsePort(bad, &port)) << "'" << bad << "'";
    EXPECT_EQ(port, 7) << "'" << bad << "' overwrote the port";
  }
}

TEST_F(SocketPairTest, WriteAllThenReadFullRoundTrips) {
  const std::string message = "deadline-aware round trip";
  ASSERT_TRUE(WriteAll(left(), message.data(), message.size(),
                       Deadline::AfterMs(1000))
                  .ok());
  std::string read(message.size(), '\0');
  ASSERT_TRUE(
      ReadFull(right(), read.data(), read.size(), Deadline::AfterMs(1000))
          .ok());
  EXPECT_EQ(read, message);
}

TEST_F(SocketPairTest, ReadFullTimesOutDistinctly) {
  char byte;
  Status status = ReadFull(right(), &byte, 1, Deadline::AfterMs(30));
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(SocketPairTest, ReadFullReportsPeerCloseAsUnavailable) {
  ASSERT_TRUE(WriteAll(left(), "ab", 2, Deadline::Infinite()).ok());
  CloseLeft();
  char buffer[8];
  // Two of four bytes arrive, then the peer is gone — that must surface
  // as Unavailable, not as a timeout.
  Status status = ReadFull(right(), buffer, 4, Deadline::AfterMs(1000));
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(SocketPairTest, WriteAllTimesOutWhenPeerStopsReading) {
  // Nobody reads `right`, so the (small) kernel buffers fill and the
  // write must eventually give up with DeadlineExceeded.
  const std::vector<char> block(1 << 20, 'x');
  Status status =
      WriteAll(left(), block.data(), block.size(), Deadline::AfterMs(50));
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(SocketPairTest, WriteAllWithAnExpiredDeadlineWritesWhatFitsAndReportsIt) {
  // Nobody reads `right`: the call takes what the kernel buffers hold,
  // reports how much, and returns without waiting for the rest.
  const std::vector<char> block(1 << 20, 'x');
  size_t written = 0;
  const auto start = std::chrono::steady_clock::now();
  Status status = WriteAll(left(), block.data(), block.size(),
                           Deadline::AfterMs(0), &written);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(written, 0u);
  EXPECT_LT(written, block.size());
  // A stall injected at the send site is skipped too.
  failpoints::Config stall;
  stall.kind = failpoints::Kind::kStallMs;
  stall.arg = 2000;
  failpoints::Arm(failpoints::Site::kSend, stall);
  status = WriteAll(left(), block.data(), block.size(), Deadline::AfterMs(0),
                    &written);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(written, 0u);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(1000));
}

TEST_F(SocketPairTest, WriteAllReportsPeerCloseAsUnavailable) {
  CloseRight();
  const std::vector<char> block(1 << 16, 'x');
  Status status =
      WriteAll(left(), block.data(), block.size(), Deadline::AfterMs(1000));
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(SocketPairTest, RecvSomeHonorsDeadlineOnSilentPeer) {
  char buffer[16];
  Result<size_t> received =
      RecvSome(right(), buffer, sizeof(buffer), Deadline::AfterMs(30));
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(SocketPairTest, RecvSomeReturnsZeroOnCleanClose) {
  CloseLeft();
  char buffer[16];
  Result<size_t> received =
      RecvSome(right(), buffer, sizeof(buffer), Deadline::AfterMs(1000));
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received.value(), 0u);
}

TEST_F(SocketPairTest, ShortWriteFailpointStillDeliversEverything) {
  failpoints::Config config;
  config.kind = failpoints::Kind::kShortIo;
  config.arg = 1;  // one byte per send() call
  failpoints::Arm(failpoints::Site::kSend, config);
  const std::string message = "short writes must still complete";
  // Drain concurrently: a stream of 1-byte sends exhausts the kernel's
  // per-skb buffer accounting long before 4096 payload bytes.
  std::string read(message.size(), '\0');
  std::thread reader([this, &read]() {
    ASSERT_TRUE(
        ReadFull(right(), read.data(), read.size(), Deadline::AfterMs(5000))
            .ok());
  });
  ASSERT_TRUE(WriteAll(left(), message.data(), message.size(),
                       Deadline::AfterMs(5000))
                  .ok());
  reader.join();
  failpoints::DisarmAll();
  EXPECT_GE(failpoints::FiredCount(failpoints::Site::kSend),
            message.size());
  EXPECT_EQ(read, message);
}

TEST_F(SocketPairTest, EagainStormFailpointConsumesDeadline) {
  failpoints::Config config;
  config.kind = failpoints::Kind::kEagain;
  failpoints::Arm(failpoints::Site::kSend, config);
  const std::string message = "never leaves";
  Status status = WriteAll(left(), message.data(), message.size(),
                           Deadline::AfterMs(30));
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(SocketPairTest, ErrorFailpointLooksLikePeerFailure) {
  failpoints::Config config;
  config.kind = failpoints::Kind::kError;
  failpoints::Arm(failpoints::Site::kSend, config);
  Status status = WriteAll(left(), "x", 1, Deadline::Infinite());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);

  failpoints::DisarmAll();
  config.kind = failpoints::Kind::kError;
  failpoints::Arm(failpoints::Site::kRecv, config);
  char buffer[4];
  Result<size_t> received =
      RecvSome(right(), buffer, sizeof(buffer), Deadline::Infinite());
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kUnavailable);
}

TEST_F(SocketPairTest, TruncateFailpointDeliversPrefixThenFails) {
  failpoints::Config config;
  config.kind = failpoints::Kind::kTruncate;
  config.arg = 3;
  failpoints::Arm(failpoints::Site::kSend, config);
  const std::string message = "truncated-frame";
  Status status = WriteAll(left(), message.data(), message.size(),
                           Deadline::AfterMs(1000));
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  failpoints::DisarmAll();

  // Exactly the 3-byte prefix made it onto the wire.
  char buffer[32];
  std::string read;
  Result<size_t> received =
      RecvSome(right(), buffer, sizeof(buffer), Deadline::AfterMs(200));
  ASSERT_TRUE(received.ok());
  read.assign(buffer, received.value());
  EXPECT_EQ(read, "tru");
}

TEST_F(SocketPairTest, EintrFailpointOnlyBurnsALoop) {
  failpoints::Config config;
  config.kind = failpoints::Kind::kEintr;
  config.budget = 5;
  failpoints::Arm(failpoints::Site::kRecv, config);
  ASSERT_TRUE(WriteAll(left(), "ok", 2, Deadline::Infinite()).ok());
  char buffer[2];
  ASSERT_TRUE(
      ReadFull(right(), buffer, 2, Deadline::AfterMs(1000)).ok());
  EXPECT_EQ(failpoints::FiredCount(failpoints::Site::kRecv), 5u);
}

TEST_F(SocketPairTest, RecvNonBlockingReportsAllOutcomes) {
  ASSERT_TRUE(SetNonBlocking(right()).ok());
  char buffer[16];
  size_t received = 0;

  EXPECT_EQ(RecvNonBlocking(right(), buffer, sizeof(buffer), &received),
            RecvOutcome::kWouldBlock);

  ASSERT_TRUE(WriteAll(left(), "abc", 3, Deadline::Infinite()).ok());
  EXPECT_EQ(RecvNonBlocking(right(), buffer, sizeof(buffer), &received),
            RecvOutcome::kData);
  EXPECT_EQ(received, 3u);

  CloseLeft();
  EXPECT_EQ(RecvNonBlocking(right(), buffer, sizeof(buffer), &received),
            RecvOutcome::kEof);
}

TEST(ConnectTest, HonorsDeadlineWhenAcceptQueueIsFull) {
  // A listener with backlog 1 that never accepts: once the kernel's
  // accept queue fills, further handshakes park half-open and a blocking
  // connect would hang on the SYN retry schedule (minutes). The deadline
  // must cut that short with DeadlineExceeded, not EINPROGRESS noise and
  // not an indefinite block.
  uint16_t port = 0;
  auto listener = Listen("127.0.0.1", 0, /*backlog=*/1, &port);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  std::vector<int> fds;
  bool saw_deadline = false;
  for (int i = 0; i < 16 && !saw_deadline; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto connected = Connect("127.0.0.1", port, Deadline::AfterMs(200));
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    if (connected.ok()) {
      fds.push_back(connected.value());
      continue;
    }
    EXPECT_EQ(connected.status().code(), StatusCode::kDeadlineExceeded)
        << connected.status().ToString();
    // The deadline bounded the wait — it neither returned instantly with
    // a spurious error nor sat on the kernel's retry schedule.
    EXPECT_LT(elapsed, 2000) << "connect overstayed its deadline";
    saw_deadline = true;
  }
  EXPECT_TRUE(saw_deadline)
      << "accept queue never filled; kernel backlog larger than expected";
  for (int fd : fds) ::close(fd);
  ::close(listener.value());
}

}  // namespace
}  // namespace net
}  // namespace ppc
