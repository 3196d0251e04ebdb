// Operation-level microbenchmarks (google-benchmark) backing Table I's
// complexity column: optimizer calls per template, predictor insert and
// predict latency, histogram range queries, LSH transform application,
// and Z-order interleaving; and two layers of a served PREDICT: the
// in-place frame decode and the framework's batch predict into caller
// storage.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "clustering/density_predictor.h"
#include "lsh/zorder.h"
#include "ppc/lsh_histograms_predictor.h"
#include "ppc/ppc_framework.h"
#include "server/server.h"
#include "server/wire_protocol.h"
#include "stats/streaming_histogram.h"

namespace ppc {
namespace bench {
namespace {

void BM_Optimize(benchmark::State& state, const char* name) {
  Experiment exp(name);
  Rng rng(1);
  std::vector<std::vector<double>> points =
      UniformPlanSpaceSample(exp.dims(), 64, &rng);
  size_t i = 0;
  for (auto _ : state) {
    auto result =
        exp.optimizer().Optimize(exp.prepared(), points[i++ % points.size()]);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK_CAPTURE(BM_Optimize, Q1, "Q1");
BENCHMARK_CAPTURE(BM_Optimize, Q5, "Q5");
BENCHMARK_CAPTURE(BM_Optimize, Q8, "Q8");

void BM_BaselinePredict(benchmark::State& state) {
  Experiment exp("Q5");
  Rng rng(2);
  auto sample = exp.LabeledSample(static_cast<size_t>(state.range(0)), &rng);
  DensityPredictor::Config cfg;
  cfg.radius = 0.1;
  cfg.confidence_threshold = 0.7;
  DensityPredictor predictor(cfg, sample);
  auto test = UniformPlanSpaceSample(exp.dims(), 64, &rng);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.Predict(test[i++ % test.size()]));
  }
}
BENCHMARK(BM_BaselinePredict)->Arg(400)->Arg(1600)->Arg(6400);

/// One-point predict on `name`'s plan space after |X| = state.range(0)
/// uniform samples: t = 5, b_h = 40, d = 0.1, at the given noise floor.
void LshHistogramsPredict(benchmark::State& state, const char* name,
                          double noise_fraction) {
  Experiment exp(name);
  Rng rng(3);
  auto sample = exp.LabeledSample(static_cast<size_t>(state.range(0)), &rng);
  LshHistogramsPredictor::Config cfg;
  cfg.dimensions = exp.dims();
  cfg.transform_count = 5;
  cfg.histogram_buckets = 40;
  cfg.radius = 0.1;
  cfg.confidence_threshold = 0.7;
  cfg.noise_fraction = noise_fraction;
  LshHistogramsPredictor predictor(cfg, sample);
  auto test = UniformPlanSpaceSample(exp.dims(), 64, &rng);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.Predict(test[i++ % test.size()]));
  }
}

void BM_LshHistogramsPredict(benchmark::State& state) {
  LshHistogramsPredict(state, "Q5", 0.0);
}
BENCHMARK(BM_LshHistogramsPredict)->Arg(400)->Arg(1600)->Arg(6400);

// Q8 at the serving noise floor (0.002): its distinct plans keep growing
// with |X| (191 / 300 / 454 at these sizes), most of them at or below the
// floor, so this pins what the plan tail costs a prediction.
[[maybe_unused]] benchmark::internal::Benchmark* const kPredictQ8Noise =
    benchmark::RegisterBenchmark(
        "BM_LshHistogramsPredict/Q8_noise",
        [](benchmark::State& state) {
          LshHistogramsPredict(state, "Q8", 0.002);
        })
        ->Arg(1600)
        ->Arg(6400)
        ->Arg(25600);

void BM_LshHistogramsInsert(benchmark::State& state) {
  LshHistogramsPredictor::Config cfg;
  cfg.dimensions = 4;
  cfg.transform_count = 5;
  cfg.histogram_buckets = 40;
  LshHistogramsPredictor predictor(cfg);
  Rng rng(4);
  for (auto _ : state) {
    LabeledPoint p;
    p.coords = {rng.Uniform(), rng.Uniform(), rng.Uniform(), rng.Uniform()};
    p.plan = 1 + rng.UniformInt(uint64_t{8});
    p.cost = rng.Uniform(1.0, 100.0);
    predictor.Insert(p);
  }
}
BENCHMARK(BM_LshHistogramsInsert);

void BM_StreamingHistogramRangeQuery(benchmark::State& state) {
  StreamingHistogram histogram(static_cast<size_t>(state.range(0)));
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    histogram.Insert(rng.Uniform(), rng.Uniform(1.0, 100.0));
  }
  for (auto _ : state) {
    const double lo = rng.Uniform() * 0.9;
    benchmark::DoNotOptimize(histogram.EstimateCount(lo, lo + 0.1));
  }
}
BENCHMARK(BM_StreamingHistogramRangeQuery)->Arg(40)->Arg(160);

void BM_TransformApply(benchmark::State& state) {
  TransformConfig cfg;
  cfg.input_dims = static_cast<int>(state.range(0));
  cfg.output_dims = DefaultOutputDims(cfg.input_dims);
  Rng rng(6);
  RandomizedTransform transform(cfg, &rng);
  std::vector<double> point(static_cast<size_t>(cfg.input_dims), 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(transform.LinearizedPosition(point));
  }
}
BENCHMARK(BM_TransformApply)->Arg(2)->Arg(6);

void BM_ZOrderInterleave(benchmark::State& state) {
  ZOrderCurve curve(3, 10);
  std::vector<uint32_t> cells = {511, 277, 800};
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.Interleave(cells));
  }
}
BENCHMARK(BM_ZOrderInterleave);

/// The server's decode of one Q5 PREDICT frame payload, in place into a
/// request it reuses.
void BM_DecodePredictFrame(benchmark::State& state) {
  wire::Request request;
  request.type = wire::MessageType::kPredict;
  request.id = 7;
  request.template_name = "Q5";
  request.point = {0.31, 0.52, 0.47, 0.66};
  std::string frame;
  wire::EncodeRequest(request, &frame);
  const std::string_view payload =
      std::string_view(frame).substr(sizeof(uint32_t));
  wire::Request decoded;
  for (auto _ : state) {
    const Status status = wire::DecodeRequest(payload, &decoded);
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(decoded.point.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DecodePredictFrame);

/// One template group of a served run: PredictBatchInto on Q5 with
/// state.range(0) points, against the serving config warmed by 2,000
/// executions at uniform points. Items are points, so items_per_second
/// gives the per-point rate.
void BM_FrameworkPredictBatchInto(benchmark::State& state) {
  PpcFramework framework(&BenchCatalog(), ServingConfig());
  PPC_CHECK(framework.RegisterTemplate(EvaluationTemplate("Q5")).ok());
  Rng rng(9);
  for (const std::vector<double>& x : UniformPlanSpaceSample(4, 2000, &rng)) {
    PPC_CHECK(framework.ExecuteAtPoint("Q5", x).ok());
  }
  const size_t batch = static_cast<size_t>(state.range(0));
  std::vector<double> points;
  for (const std::vector<double>& x : UniformPlanSpaceSample(4, 64, &rng)) {
    points.insert(points.end(), x.begin(), x.end());
  }
  std::vector<PredictReport> reports(batch);
  size_t offset = 0;
  for (auto _ : state) {
    const Status status = framework.PredictBatchInto(
        "Q5", points.data() + offset * 4, batch, 4, reports.data());
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(reports.data());
    benchmark::ClobberMemory();
    offset = (offset + batch) % (64 - batch + 1);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_FrameworkPredictBatchInto)->Arg(1)->Arg(2)->Arg(4)->Arg(16);

}  // namespace
}  // namespace bench
}  // namespace ppc

BENCHMARK_MAIN();
