// Concurrent serving throughput of the PPC framework.
//
// Measures end-to-end queries/sec and predict-latency percentiles of
// PpcFramework::ExecuteAtPoint at 1/2/4/8 threads over a clustered
// multi-template workload (the serving regime the paper's Sec. VI runtime
// experiment studies single-threaded). Each thread count runs against a
// fresh framework, warmed with enough queries that the predictors serve
// mostly cache hits before timing starts.
//
// Prints a table and writes BENCH_concurrent_throughput.json next to the
// working directory for machine consumption. Expect the >1-thread speedup
// to track the machine's core count: on a single hardware thread the runs
// only demonstrate that concurrency adds no correctness cost.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "lsh/simd.h"
#include "ppc/ppc_framework.h"

namespace ppc {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kWarmupQueries = 1000;
constexpr size_t kTimedQueries = 8000;
const char* const kTemplates[] = {"Q1", "Q3", "Q5", "Q8"};

struct RunResult {
  int threads = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double hit_rate = 0.0;
  double predict_p50_us = 0.0;
  double predict_p99_us = 0.0;
  /// Full observability snapshot of the run's framework (counters,
  /// latency histograms, cache stats, per-template predictor health).
  std::string metrics_json;
};

RunResult RunAtThreadCount(int threads, const std::vector<Query>& warmup,
                           const std::vector<Query>& timed) {
  PpcFramework framework(&BenchCatalog(), ServingConfig());
  RegisterAndSeal(&framework, kTemplates);

  for (const Query& q : warmup) {
    auto report = framework.ExecuteAtPoint(q.tmpl, q.point);
    PPC_CHECK_MSG(report.ok(), report.status().ToString().c_str());
  }
  const uint64_t warm_hits = framework.plan_cache().hits();
  const uint64_t warm_misses = framework.plan_cache().misses();

  // Pre-split the timed workload: thread t serves queries t, t+T, t+2T...
  std::vector<std::vector<double>> predict_micros(
      static_cast<size_t>(threads));
  std::atomic<size_t> failures{0};
  const auto start = Clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto& latencies = predict_micros[static_cast<size_t>(t)];
      latencies.reserve(timed.size() / static_cast<size_t>(threads) + 1);
      for (size_t i = static_cast<size_t>(t); i < timed.size();
           i += static_cast<size_t>(threads)) {
        auto report = framework.ExecuteAtPoint(timed[i].tmpl, timed[i].point);
        if (!report.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        latencies.push_back(report.value().predict_micros);
      }
    });
  }
  for (auto& w : workers) w.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  PPC_CHECK(failures.load() == 0);

  std::vector<double> all;
  for (const auto& per_thread : predict_micros) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  const uint64_t hits = framework.plan_cache().hits() - warm_hits;
  const uint64_t misses = framework.plan_cache().misses() - warm_misses;

  RunResult r;
  r.threads = threads;
  r.seconds = seconds;
  r.qps = static_cast<double>(timed.size()) / seconds;
  r.hit_rate = hits + misses > 0
                   ? static_cast<double>(hits) /
                         static_cast<double>(hits + misses)
                   : 0.0;
  r.predict_p50_us = Percentile(all, 0.50);
  r.predict_p99_us = Percentile(all, 0.99);
  r.metrics_json = framework.MetricsSnapshot().ToJson();
  return r;
}

void Run() {
  PrintHeader("Concurrent serving throughput (4 templates, clustered)");
  std::printf("hardware threads: %u; %zu warmup + %zu timed queries/run\n",
              std::thread::hardware_concurrency(), kWarmupQueries,
              kTimedQueries);
  PrintRule();
  std::printf("%8s %12s %10s %10s %14s %14s\n", "threads", "qps", "speedup",
              "hit rate", "predict p50us", "predict p99us");

  // Pre-generated, so workload generation is not on the timed path.
  const std::vector<Query> warmup =
      ClusteredWorkload(kTemplates, kWarmupQueries, 11, 7);
  const std::vector<Query> timed =
      ClusteredWorkload(kTemplates, kTimedQueries, 13, 7);

  std::vector<RunResult> results;
  for (int threads : {1, 2, 4, 8}) {
    results.push_back(RunAtThreadCount(threads, warmup, timed));
    const RunResult& r = results.back();
    std::printf("%8d %12.0f %9.2fx %9.1f%% %14.2f %14.2f\n", r.threads,
                r.qps, r.qps / results.front().qps, 100.0 * r.hit_rate,
                r.predict_p50_us, r.predict_p99_us);
  }
  PrintRule();

  std::string body = "  \"hardware_threads\": " +
                     std::to_string(std::thread::hardware_concurrency());
  body += ",\n  \"simd_tier\": \"";
  body += simd::TierName(simd::ActiveTier());
  body += "\",\n  \"timed_queries\": " + std::to_string(kTimedQueries);
  body += ",\n  \"runs\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    body += i == 0 ? "\n" : ",\n";
    body += "    {\"threads\": " + std::to_string(r.threads);
    body += ", \"qps\": " + JsonNumber(r.qps);
    body += ", \"speedup\": " + JsonNumber(r.qps / results.front().qps);
    body += ", \"hit_rate\": " + JsonNumber(r.hit_rate);
    body += ", \"predict_p50_us\": " + JsonNumber(r.predict_p50_us);
    body += ", \"predict_p99_us\": " + JsonNumber(r.predict_p99_us);
    body += ",\n     \"metrics\": " + r.metrics_json + "}";
  }
  body += "\n  ]";
  WriteBenchJson("concurrent_throughput", body);
}

}  // namespace
}  // namespace bench
}  // namespace ppc

int main() {
  ppc::bench::Run();
  return 0;
}
