#include "ppc/metrics_registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>

namespace ppc {

namespace {

/// Index of the bucket whose range contains `micros`. Computed with a log
/// instead of a linear scan; clamped so out-of-range values land in the
/// first/last bucket.
size_t BucketIndex(double micros) {
  if (micros <= LatencyHistogram::kFirstBucketUs) return 0;
  const double idx = std::log(micros / LatencyHistogram::kFirstBucketUs) /
                     std::log(LatencyHistogram::kGrowth);
  if (idx >= static_cast<double>(LatencyHistogram::kBucketCount - 1)) {
    return LatencyHistogram::kBucketCount - 1;
  }
  return static_cast<size_t>(idx) + 1;
}

}  // namespace

double LatencyHistogram::BucketUpperBoundUs(size_t i) {
  return kFirstBucketUs * std::pow(kGrowth, static_cast<double>(i));
}

void LatencyHistogram::Record(double micros, uint64_t count) {
  if (!(micros > 0.0)) micros = 0.0;  // also catches NaN
  buckets_[BucketIndex(micros)].fetch_add(count, std::memory_order_relaxed);
  count_.fetch_add(count, std::memory_order_relaxed);
  sum_nanos_.fetch_add(static_cast<uint64_t>(micros * 1e3) * count,
                       std::memory_order_relaxed);
}

LatencyHistogram::Snapshot LatencyHistogram::TakeSnapshot() const {
  std::array<uint64_t, kBucketCount> counts;
  for (size_t i = 0; i < kBucketCount; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  Snapshot snap;
  // Derive the total from the bucket copy, not count_: under concurrent
  // Record() the two can be transiently skewed, and percentiles must be
  // computed against the population actually captured in `counts`.
  for (uint64_t c : counts) snap.count += c;
  snap.sum_us =
      static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) / 1e3;
  if (snap.count == 0) return snap;
  snap.mean_us = snap.sum_us / static_cast<double>(snap.count);

  auto percentile = [&counts, &snap](double p) {
    const double target = p * static_cast<double>(snap.count);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < kBucketCount; ++i) {
      if (counts[i] == 0) continue;
      const uint64_t before = cumulative;
      cumulative += counts[i];
      if (static_cast<double>(cumulative) >= target) {
        const double lo = i == 0 ? 0.0 : BucketUpperBoundUs(i - 1);
        const double hi = BucketUpperBoundUs(i);
        const double frac = (target - static_cast<double>(before)) /
                            static_cast<double>(counts[i]);
        return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      }
    }
    return BucketUpperBoundUs(kBucketCount - 1);
  };
  snap.p50_us = percentile(0.50);
  snap.p95_us = percentile(0.95);
  snap.p99_us = percentile(0.99);
  return snap;
}

MetricsCounter& MetricsRegistry::counter(const std::string& name) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = counters_.find(name);
    if (it != counters_.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<MetricsCounter>();
  return *slot;
}

MetricsGauge& MetricsRegistry::gauge(const std::string& name) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = gauges_.find(name);
    if (it != gauges_.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<MetricsGauge>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = histograms_.find(name);
    if (it != histograms_.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  Snapshot snap;
  std::shared_lock<std::shared_mutex> lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace_back(name, histogram->TakeSnapshot());
  }
  return snap;
}

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string MetricsRegistry::Snapshot::ToJson() const {
  std::string out = "{\"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out += ", ";
    AppendJsonString(counters[i].first, &out);
    out += ": " + std::to_string(counters[i].second);
  }
  out += "}, \"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) out += ", ";
    AppendJsonString(gauges[i].first, &out);
    out += ": " + JsonNumber(gauges[i].second);
  }
  out += "}, \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    if (i > 0) out += ", ";
    AppendJsonString(histograms[i].first, &out);
    const LatencyHistogram::Snapshot& h = histograms[i].second;
    out += ": {\"count\": " + std::to_string(h.count);
    out += ", \"sum_us\": " + JsonNumber(h.sum_us);
    out += ", \"mean_us\": " + JsonNumber(h.mean_us);
    out += ", \"p50_us\": " + JsonNumber(h.p50_us);
    out += ", \"p95_us\": " + JsonNumber(h.p95_us);
    out += ", \"p99_us\": " + JsonNumber(h.p99_us);
    out += "}";
  }
  out += "}}";
  return out;
}

}  // namespace ppc
