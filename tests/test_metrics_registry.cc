#include "ppc/metrics_registry.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include "ppc/ppc_framework.h"
#include "server/server.h"
#include "test_util.h"
#include "workload/templates.h"

namespace ppc {
namespace {

using testutil::JsonValidator;
using testutil::SmallTpch;

uint64_t CounterValue(const MetricsRegistry::Snapshot& snap,
                      const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

TEST(MetricsRegistryTest, CountersAccumulateAndSnapshotSorted) {
  MetricsRegistry registry;
  registry.counter("b.second").Increment();
  registry.counter("a.first").Increment(41);
  registry.counter("a.first").Increment();
  auto snap = registry.TakeSnapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.first");
  EXPECT_EQ(snap.counters[0].second, 42u);
  EXPECT_EQ(snap.counters[1].first, "b.second");
  EXPECT_EQ(snap.counters[1].second, 1u);
}

TEST(MetricsRegistryTest, GetOrCreateReturnsStableInstrument) {
  MetricsRegistry registry;
  MetricsCounter& a = registry.counter("x");
  MetricsCounter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  LatencyHistogram& h1 = registry.histogram("y");
  LatencyHistogram& h2 = registry.histogram("y");
  EXPECT_EQ(&h1, &h2);
  MetricsGauge& g1 = registry.gauge("z");
  MetricsGauge& g2 = registry.gauge("z");
  EXPECT_EQ(&g1, &g2);
}

TEST(MetricsRegistryTest, GaugesHoldLastSetValue) {
  MetricsRegistry registry;
  registry.gauge("drift.Q1.precision").Set(0.875);
  registry.gauge("drift.Q1.precision").Set(0.25);
  registry.gauge("drift.Q1.generation").Set(3.0);
  auto snap = registry.TakeSnapshot();
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].first, "drift.Q1.generation");
  EXPECT_EQ(snap.gauges[0].second, 3.0);
  EXPECT_EQ(snap.gauges[1].first, "drift.Q1.precision");
  EXPECT_EQ(snap.gauges[1].second, 0.25);
  // Gauges appear in the JSON document alongside counters/histograms.
  const std::string json = snap.ToJson();
  EXPECT_TRUE(JsonValidator::Valid(json)) << json;
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("drift.Q1.precision"), std::string::npos);
}

TEST(MetricsRegistryTest, HistogramPercentilesWithinBucketResolution) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(10.0);
  auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_NEAR(snap.mean_us, 10.0, 0.01);
  // Percentiles are exact to within one geometric bucket (factor kGrowth).
  EXPECT_GE(snap.p50_us, 10.0 / LatencyHistogram::kGrowth);
  EXPECT_LE(snap.p50_us, 10.0 * LatencyHistogram::kGrowth);
  EXPECT_LE(snap.p99_us, 10.0 * LatencyHistogram::kGrowth);
}

TEST(MetricsRegistryTest, HistogramSeparatesTailFromBody) {
  LatencyHistogram h;
  for (int i = 0; i < 950; ++i) h.Record(1.0);
  for (int i = 0; i < 50; ++i) h.Record(5000.0);
  auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_LE(snap.p50_us, 1.0 * LatencyHistogram::kGrowth);
  EXPECT_GE(snap.p99_us, 5000.0 / LatencyHistogram::kGrowth);
  EXPECT_GT(snap.sum_us, 950.0);
}

TEST(MetricsRegistryTest, HistogramClampsOutOfRangeValues) {
  LatencyHistogram h;
  h.Record(-5.0);
  h.Record(0.0);
  h.Record(1e12);  // beyond the last bucket bound
  auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_GE(snap.p99_us, 0.0);
}

TEST(MetricsRegistryTest, AppendJsonStringEscapesHostileInput) {
  // Every emitter that splices a runtime string into JSON goes through
  // AppendJsonString (metrics names, router shard addresses, bench
  // names) — a regression here corrupts every emitted document at once.
  const struct {
    std::string in;
    std::string want;
  } cases[] = {
      {"plain", "\"plain\""},
      {"has \"quotes\"", "\"has \\\"quotes\\\"\""},
      {"back\\slash", "\"back\\\\slash\""},
      {"line\nbreak\ttab", "\"line\\nbreak\\ttab\""},
      {std::string("nul\0byte", 8), "\"nul\\u0000byte\""},
      {"\x01\x1f", "\"\\u0001\\u001f\""},
  };
  for (const auto& c : cases) {
    std::string out;
    AppendJsonString(c.in, &out);
    EXPECT_EQ(out, c.want);
    EXPECT_TRUE(JsonValidator::Valid(out)) << out;
  }
}

TEST(MetricsRegistryTest, SnapshotJsonIsValid) {
  MetricsRegistry registry;
  registry.counter("framework.queries").Increment(7);
  registry.counter("weird\"name\\with\ncontrol").Increment();
  registry.histogram("framework.predict_us").Record(3.5);
  const std::string json = registry.TakeSnapshot().ToJson();
  EXPECT_TRUE(JsonValidator::Valid(json)) << json;
  EXPECT_NE(json.find("framework.queries"), std::string::npos);
  EXPECT_NE(json.find("p99_us"), std::string::npos);
}

TEST(MetricsRegistryTest, EmptySnapshotJsonIsValid) {
  MetricsRegistry registry;
  EXPECT_TRUE(JsonValidator::Valid(registry.TakeSnapshot().ToJson()));
}

TEST(MetricsRegistryConcurrentTest, ParallelIncrementsAreExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      // Resolve through the registry every time on purpose: get-or-create
      // must be safe against concurrent first use of the same name.
      for (int i = 0; i < kPerThread; ++i) {
        registry.counter("shared.counter").Increment();
        registry.histogram("shared.hist_us").Record(static_cast<double>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  auto snap = registry.TakeSnapshot();
  EXPECT_EQ(CounterValue(snap, "shared.counter"),
            static_cast<uint64_t>(kThreads) * kPerThread);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistryConcurrentTest, SnapshotUnderLoadIsValidJson) {
  MetricsRegistry registry;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&registry, &stop, t] {
      const std::string name = "writer." + std::to_string(t);
      while (!stop.load(std::memory_order_relaxed)) {
        registry.counter(name).Increment();
        registry.histogram(name + "_us").Record(1.0);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(JsonValidator::Valid(registry.TakeSnapshot().ToJson()));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();
}

TEST(FrameworkMetricsTest, SnapshotJsonHasRequiredSections) {
  PpcFramework framework(&SmallTpch(), ServingConfig());
  ASSERT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  ASSERT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q3")).ok());
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> q1 = {0.5 + rng.Uniform(-0.02, 0.02),
                              0.5 + rng.Uniform(-0.02, 0.02)};
    ASSERT_TRUE(framework.ExecuteAtPoint("Q1", q1).ok());
    std::vector<double> q3 = {0.4 + rng.Uniform(-0.02, 0.02),
                              0.4 + rng.Uniform(-0.02, 0.02),
                              0.4 + rng.Uniform(-0.02, 0.02)};
    ASSERT_TRUE(framework.ExecuteAtPoint("Q3", q3).ok());
  }

  const PpcFramework::FrameworkMetrics snap = framework.MetricsSnapshot();
  EXPECT_EQ(CounterValue(snap.registry, "framework.queries"), 400u);
  EXPECT_GT(CounterValue(snap.registry, "framework.predictions.executed"),
            0u);
  ASSERT_EQ(snap.templates.size(), 2u);
  EXPECT_EQ(snap.templates[0].name, "Q1");
  EXPECT_GT(snap.templates[0].stats.precision, 0.0);
  EXPECT_GT(snap.cache.hits, 0u);
  EXPECT_EQ(snap.cache.shards.size(), framework.plan_cache().shard_count());

  const std::string json = snap.ToJson();
  EXPECT_TRUE(JsonValidator::Valid(json)) << json;
  for (const char* key :
       {"\"counters\"", "\"histograms\"", "\"cache\"", "\"templates\"",
        "\"precision\"", "\"recall\"", "\"beta\"", "\"hits\"", "\"misses\"",
        "\"evictions\"", "\"p50_us\"", "\"p95_us\"", "\"p99_us\"",
        "framework.predict_us", "framework.optimize_us", "\"gauges\"",
        "\"generation\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

// Satellite of the retune subsystem: the sliding-window drift signal is
// exported as drift.* gauges so an operator (or the drift benches) can
// watch precision decay and generation handoffs from the metrics
// endpoint alone.
TEST(FrameworkMetricsTest, DriftGaugesTrackWindowedSignal) {
  PpcFramework framework(&SmallTpch(), ServingConfig());
  ASSERT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  Rng rng(29);
  for (int i = 0; i < 250; ++i) {
    std::vector<double> x = {0.5 + rng.Uniform(-0.02, 0.02),
                             0.5 + rng.Uniform(-0.02, 0.02)};
    ASSERT_TRUE(framework.ExecuteAtPoint("Q1", x).ok());
  }
  const PpcFramework::FrameworkMetrics snap = framework.MetricsSnapshot();
  auto gauge = [&](const std::string& name) -> double {
    for (const auto& [n, v] : snap.registry.gauges) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing gauge " << name;
    return -1.0;
  };
  // The gauges mirror the per-template windowed estimators exactly.
  ASSERT_EQ(snap.templates.size(), 1u);
  EXPECT_EQ(gauge("drift.Q1.precision"), snap.templates[0].stats.precision);
  EXPECT_EQ(gauge("drift.Q1.recall"), snap.templates[0].stats.recall);
  EXPECT_EQ(gauge("drift.Q1.beta"), snap.templates[0].stats.beta);
  EXPECT_EQ(gauge("drift.Q1.window_full"), 1.0);
  EXPECT_EQ(gauge("drift.Q1.generation"), 0.0);
  EXPECT_EQ(snap.templates[0].generation, 0u);
  const std::string json = snap.ToJson();
  EXPECT_TRUE(JsonValidator::Valid(json)) << json;
  EXPECT_NE(json.find("drift.Q1.precision"), std::string::npos);
}

TEST(FrameworkMetricsTest, OutcomeCountersPartitionQueries) {
  PpcFramework framework(&SmallTpch(), ServingConfig());
  ASSERT_TRUE(framework.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  Rng rng(23);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x = {0.5 + rng.Uniform(-0.02, 0.02),
                             0.5 + rng.Uniform(-0.02, 0.02)};
    ASSERT_TRUE(framework.ExecuteAtPoint("Q1", x).ok());
  }
  auto snap = framework.MetricsSnapshot().registry;
  const uint64_t queries = CounterValue(snap, "framework.queries");
  const uint64_t executed =
      CounterValue(snap, "framework.predictions.executed");
  const uint64_t null_preds =
      CounterValue(snap, "framework.predictions.null");
  const uint64_t evicted =
      CounterValue(snap, "framework.predictions.evicted");
  const uint64_t random =
      CounterValue(snap, "framework.predictions.random_invocation");
  // Every query is exactly one of: executed prediction, NULL prediction,
  // evicted prediction, random invocation, or a confident prediction the
  // decision layer declined — with random invocations disabled the last
  // class is empty, so the four counters partition the total.
  EXPECT_EQ(executed + null_preds + evicted + random, queries);
  EXPECT_GT(executed, 0u);
  EXPECT_GT(null_preds, 0u);
}

}  // namespace
}  // namespace ppc
