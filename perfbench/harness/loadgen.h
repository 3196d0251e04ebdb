#ifndef PERFBENCH_HARNESS_LOADGEN_H_
#define PERFBENCH_HARNESS_LOADGEN_H_

// The load generator: one thread, one connection, a fixed pipeline
// depth. Requests are pre-encoded once per ring event and only their id
// is patched per send, so the generator's per-request work is a copy, a
// decode and a clock read. Each response is stamped when it is decoded
// (not when an in-order Wait would reach it), and latencies go into
// fixed-size per-window histograms.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "server/wire_protocol.h"
#include "stream.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Pre-encoded request frames for stream events [first, first + count).
class FrameRing {
 public:
  FrameRing(const Stream& stream, size_t first, size_t count,
            ppc::wire::MessageType type);

  size_t size() const { return offsets_.size() - 1; }
  /// Stream index of ring entry i.
  size_t event(size_t i) const { return first_ + i; }
  /// Appends ring entry i's frame to `out` with its request id set to `id`.
  void AppendFrame(size_t i, uint64_t id, std::string* out) const;

 private:
  size_t first_;
  std::string bytes_;
  std::vector<size_t> offsets_;
};

struct LoopConfig {
  size_t depth = 16;
  double seconds = 10.0;
  /// The timed window is split into this many equal sub-windows; the
  /// reported figures are medians over the clean ones (see
  /// LoopResult::CleanWindows), so one stalled window moves a figure by
  /// one rank instead of by its whole weight.
  size_t windows = 10;
  /// Record a client span for every Nth request (0: no spans).
  size_t span_every = 0;
  /// Keep up to this many raw response payloads (for codec timing).
  size_t keep_payloads = 0;
};

/// Returns false when the answer to ring entry `ring_index` is wrong.
using CheckFn =
    std::function<bool(const ppc::wire::Response&, size_t ring_index)>;

struct LoopResult {
  /// Sizes the per-window tallies for `segments` loops run with `config`
  /// one after another. A result made before the harness takes its memory
  /// baseline keeps the load generator's histograms out of peak_rss_mb.
  explicit LoopResult(const LoopConfig& config, size_t segments = 1);

  double window_seconds = 0.0;
  /// The first window the next RunClosedLoop into this result fills.
  size_t next_window = 0;
  std::vector<uint64_t> completions;
  std::vector<LogHistogram> latency_us;
  /// CPU time the hypervisor stole from this machine during each window,
  /// in 1/100 s ticks summed over all CPUs (/proc/stat).
  std::vector<uint64_t> steal_ticks;
  /// Every request sent, including those answered after the window.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Load-thread CPU time and wall time over the loops.
  double thread_cpu_seconds = 0.0;
  double wall_seconds = 0.0;
  std::vector<Span> spans;
  std::vector<std::string> payloads;
  /// Non-empty on a transport or protocol failure; the loop stops early.
  std::string error;

  /// The windows in which the hypervisor stole at most `max_steal_share`
  /// of the machine's CPU time; when fewer than a tenth of all windows
  /// qualify, the tenth with the least steal. Steal is a property of
  /// the host, not of the program, so selecting on it keeps the figures
  /// about the program without looking at the figures.
  std::vector<size_t> CleanWindows(double max_steal_share) const;
  /// Share of the machine's CPU time stolen over the whole loop.
  double StealShare() const;
  /// Medians over `windows` of per-window throughput and latency quantile.
  double MedianQps(const std::vector<size_t>& windows) const;
  double MedianLatencyUs(const std::vector<size_t>& windows, double q) const;
};

/// Drives the closed loop until `config.seconds` have passed, then drains
/// every outstanding response. Records into the next `config.windows`
/// windows of `*result_out` (made from the same `config`) and adds to its
/// totals, so several loops can fill one result. `*cursor` is the next
/// ring entry to send and advances (wrapping) so consecutive loops
/// continue the stream.
void RunClosedLoop(int fd, const FrameRing& ring, size_t* cursor,
                   const LoopConfig& config, const CheckFn& check,
                   LoopResult* result_out);

/// One depth-1 round trip of ring entry `i` with request id `id`.
/// Stamps the send and decode times; returns false on a transport or
/// protocol failure (described in `*error`).
bool RoundTrip(int fd, const FrameRing& ring, size_t i, uint64_t id,
               ppc::wire::Response* response, int64_t* sent_ns,
               int64_t* decoded_ns, std::string* error);

/// CPU time consumed by the calling thread, in seconds.
double ThreadCpuSeconds();

/// Machine-wide stolen CPU time so far, in 1/100 s ticks (0 when
/// /proc/stat is unreadable).
uint64_t StealTicks();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LOADGEN_H_
