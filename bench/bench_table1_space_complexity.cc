// Reproduces paper Table I: prediction complexity and space consumption of
// BASELINE, NAIVE, APPROXIMATE-LSH and APPROXIMATE-LSH-HISTOGRAMS —
// formulas plus *measured* bytes and per-prediction latency on template Q5.
//
// Stdout carries only the deterministic columns (formulas, bytes), so it
// is golden-locked. The wall-clock latencies go to
// BENCH_table1_space_complexity.json as medians over kRuns repetitions.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "clustering/approximate_lsh_predictor.h"
#include "clustering/density_predictor.h"
#include "clustering/naive_grid_predictor.h"
#include "common/math_utils.h"
#include "ppc/lsh_histograms_predictor.h"

namespace ppc {
namespace bench {
namespace {

constexpr size_t kSampleSize = 3200;
constexpr int kTransforms = 5;
constexpr size_t kHistBuckets = 40;
constexpr double kRadius = 0.1;
constexpr double kGamma = 0.7;
// Repetitions per latency measurement; the JSON holds their medians.
constexpr int kRuns = 5;

double MeasurePredictMicros(const PlanPredictor& predictor,
                            const std::vector<std::vector<double>>& test) {
  const auto start = std::chrono::steady_clock::now();
  size_t answered = 0;
  for (const auto& x : test) {
    if (predictor.Predict(x).has_value()) ++answered;
  }
  const double micros =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count();
  (void)answered;
  return micros / static_cast<double>(test.size());
}

/// Median over kRuns of MeasurePredictMicros.
double MedianPredictMicros(const PlanPredictor& predictor,
                           const std::vector<std::vector<double>>& test) {
  std::vector<double> runs;
  for (int run = 0; run < kRuns; ++run) {
    runs.push_back(MeasurePredictMicros(predictor, test));
  }
  return Median(runs);
}

void Run() {
  PrintHeader("Table I: complexity and space of the predictor family (Q5)");
  Experiment exp("Q5");
  Rng rng(77);
  auto sample = exp.LabeledSample(kSampleSize, &rng);
  auto test = UniformPlanSpaceSample(exp.dims(), 2000, &rng);

  DensityPredictor::Config bc;
  bc.radius = kRadius;
  bc.confidence_threshold = kGamma;
  DensityPredictor baseline(bc, sample);

  NaiveGridPredictor::Config nc;
  nc.dimensions = exp.dims();
  nc.bucket_budget = 4096;
  nc.radius = kRadius;
  nc.confidence_threshold = kGamma;
  NaiveGridPredictor naive(nc, sample);

  ApproximateLshPredictor::Config ac;
  ac.dimensions = exp.dims();
  ac.transform_count = kTransforms;
  ac.bits_per_dim = 4;
  ac.radius = kRadius;
  ac.confidence_threshold = kGamma;
  ApproximateLshPredictor lsh(ac, sample);

  LshHistogramsPredictor::Config hc;
  hc.dimensions = exp.dims();
  hc.transform_count = kTransforms;
  hc.histogram_buckets = kHistBuckets;
  hc.radius = kRadius;
  hc.confidence_threshold = kGamma;
  LshHistogramsPredictor histograms(hc, sample);

  std::printf("|X| = %zu, t = %d, b_h = %zu, d = %.2f, gamma = %.2f\n\n",
              kSampleSize, kTransforms, kHistBuckets, kRadius, kGamma);
  std::printf("%-28s %-26s %-22s %12s\n", "algorithm",
              "complexity (per predict)", "space formula", "bytes");
  PrintRule();

  struct Entry {
    const PlanPredictor* predictor;
    const char* complexity;
    const char* formula;
  };
  const Entry entries[] = {
      {&baseline, "O(|X|)", "|X| * (8r + 16)"},
      {&naive, "O(1) per cell region", "n * b_g * 8"},
      {&lsh, "O(t) cell regions", "t * n * b_g * 8"},
      {&histograms, "O(t * n * b_h)", "t * n * b_h * 12"},
  };
  std::string json_rows;
  for (const Entry& entry : entries) {
    const std::string name = entry.predictor->Name();
    const uint64_t bytes = entry.predictor->SpaceBytes();
    std::printf("%-28s %-26s %-22s %12llu\n", name.c_str(),
                entry.complexity, entry.formula,
                static_cast<unsigned long long>(bytes));
    if (!json_rows.empty()) json_rows += ",\n";
    json_rows += "    {\"algorithm\": ";
    AppendJsonString(name, &json_rows);
    json_rows += ", \"bytes\": " + std::to_string(bytes);
    json_rows += ", \"us_per_predict\": " +
                 JsonNumber(MedianPredictMicros(*entry.predictor, test));
    json_rows += "}";
  }

  // Scalability claim: BASELINE's latency grows with |X|; the
  // approximations' does not.
  std::string scaling_rows;
  for (size_t n : {400u, 1600u, 6400u}) {
    Rng sub_rng(99);
    auto sub = exp.LabeledSample(n, &sub_rng);
    DensityPredictor base_n(bc, sub);
    LshHistogramsPredictor hist_n(hc, sub);
    if (!scaling_rows.empty()) scaling_rows += ",\n";
    scaling_rows += "    {\"sample_size\": " + std::to_string(n);
    scaling_rows += ", \"baseline_us_per_predict\": " +
                    JsonNumber(MedianPredictMicros(base_n, test));
    scaling_rows += ", \"lsh_histograms_us_per_predict\": " +
                    JsonNumber(MedianPredictMicros(hist_n, test));
    scaling_rows += "}";
  }
  WriteBenchJson("table1_space_complexity",
                 "  \"sample_size\": " + std::to_string(kSampleSize) +
                     ",\n  \"test_points\": " + std::to_string(test.size()) +
                     ",\n  \"runs\": " + std::to_string(kRuns) +
                     ",\n  \"rows\": [\n" + json_rows +
                     "\n  ],\n  \"latency_vs_sample_size\": [\n" +
                     scaling_rows + "\n  ]");
  std::printf(
      "\nPer-prediction latency (median of %d runs over %zu test points), "
      "also\nagainst |X| = 400, 1600, 6400 for BASELINE and LSH-HISTOGRAMS, "
      "is in\nBENCH_table1_space_complexity.json.\n",
      kRuns, test.size());
  std::printf(
      "\nExpected shape (paper): BASELINE cost scales with |X|; the three\n"
      "approximations are constant in |X|, with LSH variants paying t-fold\n"
      "space/time over NAIVE for better precision.\n");
}

}  // namespace
}  // namespace bench
}  // namespace ppc

int main() {
  ppc::bench::Run();
  return 0;
}
