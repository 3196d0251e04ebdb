#ifndef PPC_BENCH_LOADGEN_H_
#define PPC_BENCH_LOADGEN_H_

// The load generator of the TCP serving benches (bench_cluster_throughput,
// bench_cluster_failover, bench_workload_zoo). Two drivers, both merging
// into one Phase tally:
//
//   * ClosedLoop — N threads, one PpcClient each. A thread issues its
//     next request when the previous one has answered, so concurrency is
//     fixed at the thread count.
//   * OpenLoop — one thread per connection on a raw socket. Every request
//     goes out at its scheduled time whatever happened to the earlier
//     ones, and between sends the thread sleeps in ppoll on the socket,
//     so responses are read the moment they arrive and the arrival rate
//     is the schedule's, not the server's.
//
// The tally counts outcomes and times nothing: perfbench/ is the one
// source of serving timings. An OK answer counts as answered, BUSY (the
// server's backpressure) as busy, per request kind, and every other
// outcome — an error answer, a lost connection, a connection that never
// opened — as a failure.

#include <poll.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/net_util.h"
#include "server/wire_protocol.h"

namespace ppc {
namespace bench {
namespace loadgen {

using Clock = std::chrono::steady_clock;

enum Kind { kPredict = 0, kExecute = 1, kPing = 2 };
constexpr int kKinds = 3;
inline const char* const kKindNames[kKinds] = {"predict", "execute", "ping"};

/// Bound on an open-loop connect or send, and on waiting for the last
/// responses after the last scheduled send.
constexpr int64_t kOpenLoopIoTimeoutMs = 10000;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The tally of one phase: filled per thread, then merged.
struct Phase {
  size_t answered[kKinds] = {0, 0, 0};
  size_t busy[kKinds] = {0, 0, 0};
  size_t failures = 0;

  size_t count(int kind) const { return answered[kind]; }
  size_t total() const { return answered[0] + answered[1] + answered[2]; }
  size_t total_busy() const { return busy[0] + busy[1] + busy[2]; }

  /// One answer: OK counts as answered, ResourceExhausted (BUSY) as busy,
  /// anything else as a failure.
  void Record(Kind kind, const Status& status) {
    if (status.ok()) {
      ++answered[kind];
    } else if (status.code() == StatusCode::kResourceExhausted) {
      ++busy[kind];
    } else {
      ++failures;
    }
  }
};

/// Runs body(t, &tally) on threads t = 0 .. threads-1, then sums their
/// tallies into one Phase.
template <typename Body>
Phase RunThreads(size_t threads, const Body& body) {
  std::vector<Phase> parts(threads);
  std::vector<std::thread> running;
  for (size_t t = 0; t < threads; ++t) {
    running.emplace_back([&, t] { body(t, &parts[t]); });
  }
  for (auto& thread : running) thread.join();
  Phase phase;
  for (const Phase& part : parts) {
    for (int kind = 0; kind < kKinds; ++kind) {
      phase.answered[kind] += part.answered[kind];
      phase.busy[kind] += part.busy[kind];
    }
    phase.failures += part.failures;
  }
  return phase;
}

/// What a closed-loop step issued and how it was answered.
struct Call {
  Kind kind = kPredict;
  Status status;
};
/// A step's result: the call it made, or nullopt to end its thread.
using MaybeCall = std::optional<Call>;

/// Runs `threads` closed-loop clients against 127.0.0.1:`port`. Thread t
/// builds its PpcClient from `options` (with retry seed + t, so retrying
/// clients back off on distinct streams), then calls
/// `step(t, i, &client)` for i = 0, 1, ... until the step returns
/// nullopt; each call's outcome is recorded. Per-thread tallies beyond
/// the Phase (hits, per-shard counts) belong in the caller's arrays,
/// indexed by t. A client that cannot connect is recorded as one failure
/// and still runs its steps, whose calls redial and fail on their own.
template <typename Step>
Phase ClosedLoop(uint16_t port, size_t threads,
                 const PpcClient::Options& options, const Step& step) {
  return RunThreads(threads, [&](size_t t, Phase* mine) {
    PpcClient::Options my_options = options;
    my_options.retry.seed += t;
    PpcClient client(my_options);
    if (!client.Connect("127.0.0.1", port).ok()) ++mine->failures;
    for (size_t i = 0;; ++i) {
      const MaybeCall call = step(t, i, &client);
      if (!call.has_value()) break;
      mine->Record(call->kind, call->status);
    }
  });
}

/// One request of an open-loop schedule.
struct Scheduled {
  double at_seconds = 0.0;  // send time, from the connection's start
  Kind kind = kPredict;
  std::string tmpl;  // unused by kPing
  std::vector<double> point;
};

/// Called for every OK open-loop answer, on its connection's thread.
using OnAnswer = std::function<void(const Scheduled& request,
                                    const wire::Response& response)>;

/// One open-loop connection: sends schedule[i] at its time and, until
/// the next send is due, reads whatever responses have arrived. A
/// transport failure ends the connection; every request unanswered by
/// then (or by kOpenLoopIoTimeoutMs after the last send) failed.
inline void RunOpenConnection(uint16_t port,
                              const std::vector<Scheduled>& schedule,
                              const OnAnswer& on_answer, Phase* tally) {
  const size_t n = schedule.size();
  if (n == 0) return;
  Result<int> connected = net::Connect(
      "127.0.0.1", port, net::Deadline::AfterMs(kOpenLoopIoTimeoutMs));
  if (!connected.ok()) {
    tally->failures += n;
    return;
  }
  const int fd = connected.value();
  // Wake from ppoll on time: the default 50 us timer slack would make
  // every send late by up to that much and lower the arrival rate below
  // the schedule's.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  // Encode up front (id = index + 1) so the paced path only writes.
  constexpr wire::MessageType kTypes[kKinds] = {wire::MessageType::kPredict,
                                                wire::MessageType::kExecute,
                                                wire::MessageType::kPing};
  std::vector<std::string> frames(n);
  for (size_t i = 0; i < n; ++i) {
    wire::Request request;
    request.type = kTypes[schedule[i].kind];
    request.id = i + 1;
    request.template_name = schedule[i].tmpl;
    request.point = schedule[i].point;
    wire::EncodeRequest(request, &frames[i]);
  }
  const auto start = Clock::now();
  auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(schedule[i].at_seconds));
  };
  const auto drain_until =
      due(n - 1) + std::chrono::milliseconds(kOpenLoopIoTimeoutMs);

  wire::FrameBuffer inbound;
  std::string payload;
  char buffer[64 * 1024];
  size_t next = 0;      // first request not yet sent
  size_t answered = 0;
  bool open = true;
  while (open && answered < n) {
    const auto now = Clock::now();
    if (next < n && now >= due(next)) {
      open = net::WriteAll(fd, frames[next].data(), frames[next].size(),
                           net::Deadline::AfterMs(kOpenLoopIoTimeoutMs))
                 .ok();
      ++next;
      continue;
    }
    const auto wake = next < n ? due(next) : drain_until;
    if (wake <= now) break;
    const int64_t wait_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
            .count();
    const struct timespec timeout = {
        static_cast<time_t>(wait_ns / 1000000000),
        static_cast<long>(wait_ns % 1000000000)};
    struct pollfd entry = {fd, POLLIN, 0};
    if (::ppoll(&entry, 1, &timeout, nullptr) <= 0) continue;
    // Readable, so this read returns at once: bytes, EOF (0) or an error.
    Result<size_t> got = net::RecvSome(fd, buffer, sizeof(buffer));
    open = got.ok() && got.value() > 0;
    if (!open) break;
    inbound.Append(buffer, got.value());
    while (open) {
      Result<bool> extracted = inbound.Next(&payload);
      if (!extracted.ok() || !extracted.value()) {
        open = extracted.ok();
        break;
      }
      Result<wire::Response> response = wire::DecodeResponse(payload);
      // id - 1 wraps for id 0, so this also rejects ids never sent.
      open = response.ok() && response.value().id - 1 < next;
      if (!open) break;
      const size_t i = static_cast<size_t>(response.value().id - 1);
      const Status status =
          wire::ToStatus(response.value().status, response.value().error);
      tally->Record(schedule[i].kind, status);
      if (status.ok() && on_answer) on_answer(schedule[i], response.value());
      ++answered;
    }
  }
  tally->failures += n - answered;
  ::close(fd);
}

/// Runs one open-loop connection per schedule against 127.0.0.1:`port`,
/// each on its own thread, and merges their tallies.
inline Phase OpenLoop(uint16_t port,
                      const std::vector<std::vector<Scheduled>>& schedules,
                      const OnAnswer& on_answer = nullptr) {
  return RunThreads(schedules.size(), [&](size_t c, Phase* tally) {
    RunOpenConnection(port, schedules[c], on_answer, tally);
  });
}

}  // namespace loadgen
}  // namespace bench
}  // namespace ppc

#endif  // PPC_BENCH_LOADGEN_H_
