#ifndef PPC_PPC_METRICS_REGISTRY_H_
#define PPC_PPC_METRICS_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

namespace ppc {

/// Runtime observability for the serving path (ROADMAP north-star: the
/// paper's Sec. IV-E windowed estimators *are* an observability loop, but
/// until now nothing exposed them — or the framework's own outcome
/// accounting — at runtime).
///
/// Naming scheme: dot-separated lowercase paths,
/// `<subsystem>.<event>[.<detail>]` (e.g. "framework.predictions.evicted",
/// "cache.evictions.precision"). Latency histograms are suffixed with the
/// unit: "framework.predict_us".
///
/// Thread safety / lock freedom: incrementing a counter or recording a
/// latency is a handful of relaxed atomic adds — no mutex, no allocation —
/// so instrumentation never serializes concurrent serving threads.
/// Get-or-create lookups take the registry's shared_mutex; hot paths are
/// expected to resolve their instruments once (the returned references are
/// stable for the registry's lifetime) and hold the pointers.

/// Monotonic event counter. All operations are lock-free.
class MetricsCounter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-value gauge for non-monotonic signals (windowed precision/recall,
/// generation ids). The double payload is stored bit-cast in a uint64
/// atomic, so Set/value are single relaxed atomic ops — same lock-free
/// contract as MetricsCounter.
class MetricsGauge {
 public:
  void Set(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    bits_.store(bits, std::memory_order_relaxed);
  }
  double value() const {
    const uint64_t bits = bits_.load(std::memory_order_relaxed);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

 private:
  std::atomic<uint64_t> bits_{0};  // 0 bits == 0.0
};

/// Fixed-bucket latency histogram over microseconds.
///
/// Buckets are geometric: bucket i covers
/// [kFirstBucketUs * kGrowth^i, kFirstBucketUs * kGrowth^(i+1)), with the
/// first bucket absorbing everything below and the last everything above —
/// the span covers ~0.05 us to ~20 s, the full range a predict or optimize
/// call can plausibly take. Record() is two relaxed atomic adds (lock-free);
/// percentiles are bucket-resolution approximations (exact to within one
/// bucket's width, i.e. a kGrowth factor), computed by linear interpolation
/// inside the selected bucket.
class LatencyHistogram {
 public:
  static constexpr size_t kBucketCount = 64;
  static constexpr double kFirstBucketUs = 0.05;
  static constexpr double kGrowth = 1.40;

  /// Records `count` observations of one latency (negative values clamp
  /// to 0): the same state as `count` single records, in three atomic adds.
  void Record(double micros, uint64_t count = 1);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Point-in-time view of the histogram; percentiles are precomputed so
  /// the snapshot is internally consistent.
  struct Snapshot {
    uint64_t count = 0;
    double sum_us = 0.0;
    double mean_us = 0.0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
  };

  Snapshot TakeSnapshot() const;

  /// Inclusive upper bound of bucket `i` in microseconds.
  static double BucketUpperBoundUs(size_t i);

 private:
  std::array<std::atomic<uint64_t>, kBucketCount> buckets_{};
  std::atomic<uint64_t> count_{0};
  /// Sum in nanoseconds so a plain integer atomic suffices (no atomic
  /// double RMW); overflows after ~580 years of accumulated latency.
  std::atomic<uint64_t> sum_nanos_{0};
};

/// Process-wide named instrument registry. Counter/histogram handles are
/// created on first use and live as long as the registry; concurrent
/// get-or-create calls for the same name return the same instrument.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. The returned reference is stable for the registry's
  /// lifetime — resolve once, then increment lock-free.
  MetricsCounter& counter(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);
  MetricsGauge& gauge(const std::string& name);

  /// Point-in-time dump of every registered instrument, sorted by name.
  /// Instruments are read without pausing writers, so a snapshot taken
  /// under concurrent load is per-instrument consistent (each counter /
  /// histogram is read atomically-enough) but not globally atomic across
  /// instruments — the standard Prometheus-style contract.
  struct Snapshot {
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, LatencyHistogram::Snapshot>>
        histograms;

    /// {"counters": {...}, "gauges": {...},
    ///  "histograms": {name: {count, sum_us, ...}}}
    std::string ToJson() const;
  };

  Snapshot TakeSnapshot() const;

 private:
  /// Guards the maps only; the instruments themselves are lock-free.
  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<MetricsCounter>> counters_;
  std::map<std::string, std::unique_ptr<MetricsGauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

/// Appends `s` to `out` as a double-quoted JSON string (escapes quotes,
/// backslashes and control characters).
void AppendJsonString(const std::string& s, std::string* out);

/// Formats a finite double as a JSON-legal number (NaN/inf become 0, which
/// JSON cannot represent).
std::string JsonNumber(double v);

}  // namespace ppc

#endif  // PPC_PPC_METRICS_REGISTRY_H_
