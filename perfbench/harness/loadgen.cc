#include "loadgen.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "server/net_util.h"

namespace perfbench {

namespace {

namespace wire = ppc::wire;

/// Offset of the request id inside an encoded request frame:
/// u32 payload length, u8 message type, then the u64 id.
constexpr size_t kIdOffset = 5;
/// Request ids carry the in-flight slot in their low byte.
constexpr uint64_t kSlotBits = 8;
constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
/// Bound on any single wait for response bytes.
constexpr int64_t kRecvDeadlineMs = 10000;
constexpr size_t kRecvBuffer = 64 * 1024;
/// CPU time the machine can give per second, in the USER_HZ ticks that
/// /proc/stat counts, summed over the online CPUs its "cpu" line covers.
double MachineTicksPerSecond() {
  return static_cast<double>(sysconf(_SC_CLK_TCK)) *
         static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
}

void PutU64(char* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

}  // namespace

FrameRing::FrameRing(const Stream& stream, size_t first, size_t count,
                     wire::MessageType type)
    : first_(first) {
  offsets_.reserve(count + 1);
  offsets_.push_back(0);
  for (size_t i = 0; i < count; ++i) {
    wire::Request request;
    request.type = type;
    request.template_name = stream.name(first + i);
    request.point = stream.Point(first + i);
    wire::EncodeRequest(request, &bytes_);
    offsets_.push_back(bytes_.size());
  }
}

void FrameRing::AppendFrame(size_t i, uint64_t id, std::string* out) const {
  const size_t at = out->size();
  out->append(bytes_, offsets_[i], offsets_[i + 1] - offsets_[i]);
  PutU64(out->data() + at + kIdOffset, id);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

uint64_t StealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                              &v[6], &v[7]);
  std::fclose(f);
  return got == 8 ? v[7] : 0;
}

std::vector<size_t> LoopResult::CleanWindows(double max_steal_share) const {
  const double capacity = MachineTicksPerSecond() * window_seconds;
  std::vector<size_t> order(steal_ticks.size());
  for (size_t w = 0; w < order.size(); ++w) order[w] = w;
  std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return steal_ticks[a] < steal_ticks[b];
  });
  size_t keep = 0;
  while (keep < order.size() &&
         static_cast<double>(steal_ticks[order[keep]]) <=
             max_steal_share * capacity) {
    ++keep;
  }
  keep = std::max(keep, std::max<size_t>(1, order.size() / 10));
  order.resize(std::min(keep, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

double LoopResult::StealShare() const {
  uint64_t total = 0;
  for (uint64_t t : steal_ticks) total += t;
  const double capacity = MachineTicksPerSecond() * window_seconds *
                          static_cast<double>(steal_ticks.size());
  return capacity > 0.0 ? static_cast<double>(total) / capacity : 0.0;
}

double LoopResult::MedianQps(const std::vector<size_t>& windows) const {
  std::vector<double> qps;
  for (size_t w : windows) {
    qps.push_back(static_cast<double>(completions[w]) / window_seconds);
  }
  return Median(qps);
}

double LoopResult::MedianLatencyUs(const std::vector<size_t>& windows,
                                   double q) const {
  std::vector<double> values;
  for (size_t w : windows) {
    if (latency_us[w].count() > 0) values.push_back(latency_us[w].Quantile(q));
  }
  return Median(values);
}

LoopResult::LoopResult(const LoopConfig& config, size_t segments) {
  const size_t per_loop = config.windows == 0 ? 1 : config.windows;
  const size_t windows = per_loop * std::max<size_t>(1, segments);
  window_seconds = config.seconds / static_cast<double>(per_loop);
  completions.assign(windows, 0);
  latency_us.resize(windows);
  steal_ticks.assign(windows, 0);
}

void RunClosedLoop(int fd, const FrameRing& ring, size_t* cursor,
                   const LoopConfig& config, const CheckFn& check,
                   LoopResult* result_out) {
  LoopResult& result = *result_out;
  const size_t windows = config.windows == 0 ? 1 : config.windows;
  const size_t first = result.next_window;
  if (config.depth == 0 || config.depth > kSlotMask + 1) {
    result.error = "pipeline depth must be in [1, 256]";
    return;
  }
  if (first + windows > result.completions.size()) {
    result.error = "the result has no windows left for this loop";
    return;
  }
  result.next_window += windows;

  struct Slot {
    uint64_t seq = 0;
    size_t ring_index = 0;
    int64_t sent_ns = 0;
    bool in_flight = false;
  };
  std::vector<Slot> slots(config.depth);
  uint64_t next_seq = 1;
  std::string out;
  std::vector<size_t> just_sent;
  auto queue_send = [&](size_t slot) {
    Slot& s = slots[slot];
    s.seq = next_seq++;
    s.ring_index = *cursor;
    s.in_flight = true;
    *cursor = (*cursor + 1) % ring.size();
    ring.AppendFrame(s.ring_index, (s.seq << kSlotBits) | slot, &out);
    just_sent.push_back(slot);
    ++result.attempted;
  };
  auto flush = [&]() -> bool {
    if (out.empty()) return true;
    const int64_t now = NowNs();
    for (size_t slot : just_sent) slots[slot].sent_ns = now;
    const ppc::Status st =
        ppc::net::WriteAll(fd, out.data(), out.size(),
                           ppc::net::Deadline::AfterMsOrInfinite(
                               kRecvDeadlineMs));
    out.clear();
    just_sent.clear();
    if (!st.ok()) {
      result.error = "send failed: " + st.ToString();
      return false;
    }
    return true;
  };

  const double cpu_start = ThreadCpuSeconds();
  const int64_t start_ns = NowNs();
  const int64_t end_ns =
      start_ns + static_cast<int64_t>(config.seconds * 1e9);
  const int64_t window_ns = static_cast<int64_t>(result.window_seconds * 1e9);
  size_t in_flight = 0;
  size_t steal_window = 0;
  uint64_t steal_mark = StealTicks();
  for (size_t slot = 0; slot < config.depth; ++slot) queue_send(slot);
  in_flight = config.depth;
  if (!flush()) return;

  wire::FrameBuffer frames;
  std::string payload;
  std::vector<char> buffer(kRecvBuffer);
  bool sending = true;
  while (in_flight > 0) {
    auto got = ppc::net::RecvSome(
        fd, buffer.data(), buffer.size(),
        ppc::net::Deadline::AfterMsOrInfinite(kRecvDeadlineMs));
    if (!got.ok() || got.value() == 0) {
      result.error = got.ok() ? "server closed the connection"
                              : "recv failed: " + got.status().ToString();
      break;
    }
    frames.Append(buffer.data(), got.value());
    for (;;) {
      auto next = frames.Next(&payload);
      if (!next.ok()) {
        result.error = "bad framing: " + next.status().ToString();
        break;
      }
      if (!next.value()) break;
      auto decoded = wire::DecodeResponse(payload);
      const int64_t now = NowNs();
      if (!decoded.ok()) {
        result.error = "undecodable response: " + decoded.status().ToString();
        break;
      }
      const wire::Response& response = decoded.value();
      const size_t slot = static_cast<size_t>(response.id & kSlotMask);
      if (slot >= slots.size() || !slots[slot].in_flight ||
          slots[slot].seq != (response.id >> kSlotBits)) {
        result.error = "response id matches no request in flight";
        break;
      }
      Slot& s = slots[slot];
      s.in_flight = false;
      --in_flight;
      const int64_t window = (now - start_ns) / window_ns;
      if (static_cast<size_t>(window) > steal_window &&
          steal_window < windows) {
        const uint64_t mark = StealTicks();
        result.steal_ticks[first + steal_window] = mark - steal_mark;
        steal_mark = mark;
        steal_window = static_cast<size_t>(window);
      }
      if (window >= 0 && static_cast<size_t>(window) < windows) {
        ++result.completions[first + static_cast<size_t>(window)];
        result.latency_us[first + static_cast<size_t>(window)].Add(
            static_cast<double>(now - s.sent_ns) * 1e-3);
      }
      if (!check(response, s.ring_index)) ++result.failed;
      if (config.span_every != 0 && s.seq % config.span_every == 0) {
        result.spans.push_back(
            Span{"client.pipelined_rtt", s.sent_ns, now, -1, response.id});
      }
      if (result.payloads.size() < config.keep_payloads) {
        result.payloads.push_back(payload);
      }
      if (sending && now >= end_ns) sending = false;
      if (sending) {
        queue_send(slot);
        ++in_flight;
      }
    }
    if (!result.error.empty() || !flush()) break;
  }
  if (steal_window < windows) {
    result.steal_ticks[first + steal_window] = StealTicks() - steal_mark;
  }
  result.wall_seconds += static_cast<double>(NowNs() - start_ns) * 1e-9;
  result.thread_cpu_seconds += ThreadCpuSeconds() - cpu_start;
  if (!result.error.empty()) result.failed += in_flight;
}

bool RoundTrip(int fd, const FrameRing& ring, size_t i, uint64_t id,
               wire::Response* response, int64_t* sent_ns,
               int64_t* decoded_ns, std::string* error) {
  std::string frame;
  ring.AppendFrame(i, id, &frame);
  const auto deadline =
      ppc::net::Deadline::AfterMsOrInfinite(kRecvDeadlineMs);
  *sent_ns = NowNs();
  ppc::Status st = ppc::net::WriteAll(fd, frame.data(), frame.size(), deadline);
  if (!st.ok()) {
    *error = "send failed: " + st.ToString();
    return false;
  }
  wire::FrameBuffer frames;
  std::string payload;
  char buffer[4096];
  for (;;) {
    auto next = frames.Next(&payload);
    if (!next.ok()) {
      *error = "bad framing: " + next.status().ToString();
      return false;
    }
    if (next.value()) break;
    auto got = ppc::net::RecvSome(fd, buffer, sizeof(buffer), deadline);
    if (!got.ok() || got.value() == 0) {
      *error = got.ok() ? "server closed the connection"
                        : "recv failed: " + got.status().ToString();
      return false;
    }
    frames.Append(buffer, got.value());
  }
  auto decoded = wire::DecodeResponse(payload);
  *decoded_ns = NowNs();
  if (!decoded.ok()) {
    *error = "undecodable response: " + decoded.status().ToString();
    return false;
  }
  *response = std::move(decoded).value();
  if (response->id != id) {
    *error = "response id mismatch";
    return false;
  }
  return true;
}

}  // namespace perfbench
