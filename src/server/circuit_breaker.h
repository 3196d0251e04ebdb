#ifndef PPC_SERVER_CIRCUIT_BREAKER_H_
#define PPC_SERVER_CIRCUIT_BREAKER_H_

#include <chrono>
#include <cstdint>
#include <mutex>

namespace ppc {

/// Per-backend circuit breaker for the router's health model
/// (DESIGN.md §18). Tracks one backend's recent transport outcomes —
/// active PING probes and passive forward failures alike — and gates
/// whether new traffic may be sent to it:
///
///   closed     normal operation; AllowRequest() is true. Consecutive
///              failures (threshold `failure_threshold`) trip it open.
///   open       the backend is presumed dead; AllowRequest() is false so
///              requests fail over to the replica without burning a
///              connect timeout per request. After `open_cooldown_ms` the
///              prober may admit a single trial via TryBeginProbe().
///   half-open  one probe in flight. Success (times
///              `successes_to_close`) closes the breaker; any failure
///              reopens it and restarts the cooldown.
///
/// The router keeps regular traffic out of half-open backends: a shard
/// re-enters rotation only through the prober, which warm-starts it from
/// its replica before recording the closing success — so a rejoining
/// shard is never observable cold (the same invariant the ppc_server
/// --warm-start-from path gives a cold process start).
///
/// Thread-safe: forwards record outcomes from the router's workers while
/// the prober drives the open → half-open → closed cycle.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  struct Options {
    /// Consecutive failures that trip a closed breaker open.
    int failure_threshold = 3;
    /// How long an open breaker rejects traffic before the prober may
    /// admit a half-open trial.
    int64_t open_cooldown_ms = 1000;
    /// Consecutive probe successes required to close from half-open.
    int successes_to_close = 1;
  };

  CircuitBreaker() : CircuitBreaker(Options()) {}
  explicit CircuitBreaker(const Options& options)
      : options_(Sanitize(options)) {}

  State state() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }

  /// True when regular traffic may be sent (closed only — half-open
  /// capacity is reserved for the prober's trial request).
  bool AllowRequest() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_ == State::kClosed;
  }

  /// Prober-side admission: true when a trial request should be issued
  /// now. An open breaker past its cooldown transitions to half-open and
  /// admits the trial; a breaker already half-open re-admits (the
  /// previous trial failed to close it, e.g. successes_to_close > 1).
  bool TryBeginProbe() {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == State::kHalfOpen) return true;
    if (state_ != State::kOpen) return false;
    if (Clock::now() - opened_at_ <
        std::chrono::milliseconds(options_.open_cooldown_ms)) {
      return false;
    }
    state_ = State::kHalfOpen;
    half_open_successes_ = 0;
    return true;
  }

  /// Records a successful round trip. Returns true when this call closed
  /// the breaker (half-open trial completed), so the caller can count
  /// close transitions without racing other recorders.
  bool RecordSuccess() {
    std::lock_guard<std::mutex> lock(mu_);
    consecutive_failures_ = 0;
    if (state_ == State::kHalfOpen &&
        ++half_open_successes_ >= options_.successes_to_close) {
      state_ = State::kClosed;
      return true;
    }
    return false;
  }

  /// Records a failed round trip (timeout, refused dial, connection
  /// loss). Returns true when this call tripped the breaker open.
  bool RecordFailure() {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == State::kHalfOpen) {
      // The trial failed: straight back to open, cooldown restarted.
      state_ = State::kOpen;
      opened_at_ = Clock::now();
      consecutive_failures_ = 0;
      return true;
    }
    if (state_ == State::kOpen) return false;
    if (++consecutive_failures_ >= options_.failure_threshold) {
      state_ = State::kOpen;
      opened_at_ = Clock::now();
      consecutive_failures_ = 0;
      return true;
    }
    return false;
  }

  /// JSON-friendly state names ("closed" / "open" / "half_open"),
  /// reported per backend in the router's aggregated METRICS.
  static const char* StateName(State state) {
    switch (state) {
      case State::kClosed:
        return "closed";
      case State::kOpen:
        return "open";
      case State::kHalfOpen:
        return "half_open";
    }
    return "unknown";
  }

 private:
  using Clock = std::chrono::steady_clock;

  static Options Sanitize(Options options) {
    if (options.failure_threshold < 1) options.failure_threshold = 1;
    if (options.open_cooldown_ms < 0) options.open_cooldown_ms = 0;
    if (options.successes_to_close < 1) options.successes_to_close = 1;
    return options;
  }

  const Options options_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  Clock::time_point opened_at_{};
};

}  // namespace ppc

#endif  // PPC_SERVER_CIRCUIT_BREAKER_H_
