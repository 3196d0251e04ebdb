// Benchmark harness for the plan-prediction server.
//
//   perfbench_harness --workload predict_hot|execute_churn --seed N
//                    --seconds S --trace 0|1
//                    [--commit C] [--build-type B] [--spans-out PATH]
//
// One load thread drives an in-process PlanServer (2 workers + its IO
// thread) over one TCP connection at pipeline depth 16 with the
// zipf_tenants stream over Q0..Q8:
//
//   predict_hot    PREDICT only, against a predictor warmed in-process on
//                  the stream's first 100k events and then frozen (plan
//                  cache 64, so the working set fits). Exercises the
//                  server and the predictor read path; bypasses the
//                  optimizer, cache writes and feedback.
//   execute_churn  EXECUTE only, plan cache 8 (below the stream's plan
//                  count), after an untimed warm-up prefix. Exercises the
//                  optimizer, cache evictions, feedback inserts and the
//                  execution simulator; the server is a small share.
//
// An untraced run serves its timed window in ten segments, each from a
// rig set up for it, so set-up time and memory are medians over ten
// set-ups spread across the run (see RunUntraced).
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of the traced run (see
// NOTES.md). Every answer is checked against an in-process oracle:
// PREDICT answers must be bit-identical to PredictAtPoint on the frozen
// state, and every EXECUTE that invoked the optimizer must carry the
// oracle optimizer's plan. The oracle's work runs outside the timed
// window and outside setup_s.

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "loadgen.h"
#include "lsh/simd.h"
#include "lsh/transform.h"
#include "optimizer/optimizer.h"
#include "ppc/lsh_histograms_predictor.h"
#include "ppc/ppc_framework.h"
#include "ppc/predictor_state.h"
#include "server/client.h"
#include "server/net_util.h"
#include "server/router.h"
#include "server/server.h"
#include "stats/streaming_histogram.h"
#include "storage/tpch_generator.h"
#include "stream.h"
#include "workload/templates.h"

namespace perfbench {
namespace {

namespace wire = ppc::wire;

constexpr int kWorkers = 2;
constexpr size_t kDepth = 16;
/// Distinct events the timed loop cycles through. Answers are checked per
/// event, so the oracle labels this many points, not every request.
constexpr size_t kRingEvents = 131072;
/// An untraced run serves this many segments of the timed window one
/// after another, each from a rig set up for it; setup_s and peak_rss_mb
/// are medians over the segments.
constexpr size_t kSegments = 10;
/// Depth-1 round trips (each followed by layer replays) in a traced run.
constexpr size_t kTraceSamples = 1500;
/// Pipelined requests per recorded span in the traced closed loop.
constexpr size_t kSpanEvery = 64;
constexpr size_t kRouterSamples = 800;
constexpr size_t kBatchGroup = 16;
/// Length of one sub-window of the timed loop. The host steals CPU in
/// spells; windows this short let the clean stretches between them count
/// (a run that lost 17.5% of its CPU still had 50 of 250 windows without
/// a stolen tick).
constexpr double kWindowSeconds = 0.1;
/// A window counts as clean when the hypervisor stole at most this share
/// of the machine's CPU time in it (see LoopResult::CleanWindows). With
/// 0.1-s windows on 4 CPUs that is no stolen 10-ms tick at all.
constexpr double kMaxStealShare = 0.02;

struct WorkloadSpec {
  const char* name;
  wire::MessageType type;
  size_t cache_capacity;
  /// Events executed in-process before serving. For predict_hot the
  /// distinct-plan count has plateaued by 100k events; for execute_churn
  /// the prefix only has to reach steady churn.
  size_t warmup_events;
  /// Fixes the tenant population (template and cluster center per
  /// tenant). It is part of the workload's definition, not of a run:
  /// --seed only picks which requests are drawn from that population, so
  /// runs with different seeds measure the same workload and their spread
  /// is sampling and machine noise, not a different tenant layout.
  uint64_t population_seed;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"predict_hot", wire::MessageType::kPredict, 64, 100000, 7},
    {"execute_churn", wire::MessageType::kExecute, 8, 60000, 8},
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message.c_str());
  std::exit(1);
}

template <typename T>
T Check(ppc::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void Check(const ppc::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

/// Results of timed calls land here so the compiler cannot drop them.
volatile double g_sink = 0.0;

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// A memory field of /proc/self/status ("VmRSS:", "VmHWM:") in MB; 0 when
/// it is absent.
double StatusMb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Returns the heap's free pages to the kernel, then lowers the process's
/// peak resident set (VmHWM) to its current resident set. Without the
/// trim, memory the harness freed would stay resident, and the program's
/// later allocations would reuse it without raising the peak.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) Die("cannot reset the peak resident set via /proc/self/clear_refs");
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

ppc::PpcFramework::Config FrameworkConfig(size_t cache_capacity) {
  ppc::PpcFramework::Config cfg;
  cfg.online.predictor.transform_count = 5;
  cfg.online.predictor.histogram_buckets = 40;
  cfg.online.predictor.radius = 0.05;
  cfg.online.predictor.confidence_threshold = 0.8;
  cfg.online.predictor.noise_fraction = 0.002;
  cfg.online.estimator_window = 100;
  cfg.plan_cache_capacity = cache_capacity;
  return cfg;
}

ppc::TpchConfig CatalogConfig() {
  ppc::TpchConfig cfg;
  cfg.scale_factor = 0.002;
  cfg.seed = 42;
  return cfg;
}

/// Ground truth: the benchmark's own optimizer and execution simulator
/// over an identical catalog.
class Oracle {
 public:
  struct Label {
    ppc::PlanId plan = ppc::kNullPlanId;
    double cost = 0.0;
  };

  Oracle()
      : catalog_(ppc::BuildTpchCatalog(CatalogConfig())),
        optimizer_(catalog_.get()),
        templates_(ppc::EvaluationTemplates()),
        simulator_(&optimizer_.cost_model()) {
    for (const ppc::QueryTemplate& t : templates_) {
      prepared_.push_back(Check(optimizer_.Prepare(t), "oracle prepare"));
    }
  }

  /// Labels stream events [first, first + count) on `threads` threads.
  void LabelRange(const Stream& stream, size_t first, size_t count,
                  size_t threads) {
    first_ = first;
    labels_.assign(count, Label{});
    std::mutex mu;
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        std::map<ppc::PlanId, std::shared_ptr<const ppc::PlanNode>> local;
        for (size_t i = t; i < count; i += threads) {
          const size_t e = first + i;
          const std::vector<double> x = stream.Point(e);
          ppc::OptimizationResult opt =
              Check(Optimize(stream.tmpl[e], x), "oracle optimize");
          labels_[i].plan = opt.plan_id;
          labels_[i].cost = Cost(stream.tmpl[e], *opt.plan, x);
          local.try_emplace(opt.plan_id, std::move(opt.plan));
        }
        std::lock_guard<std::mutex> lock(mu);
        plans_.insert(local.begin(), local.end());
      });
    }
    for (std::thread& t : pool) t.join();
  }

  const Label& label(size_t event) const { return labels_[event - first_]; }

  ppc::Result<ppc::OptimizationResult> Optimize(
      size_t tmpl, const std::vector<double>& x) const {
    return optimizer_.Optimize(prepared_[tmpl], x);
  }

  double Cost(size_t tmpl, const ppc::PlanNode& plan,
              const std::vector<double>& x) {
    return Check(simulator_.Execute(prepared_[tmpl], plan, x),
                 "oracle execute");
  }

  const ppc::PlanNode* plan(ppc::PlanId id) const {
    auto it = plans_.find(id);
    return it == plans_.end() ? nullptr : it->second.get();
  }

 private:
  std::unique_ptr<ppc::Catalog> catalog_;
  ppc::Optimizer optimizer_;
  /// Prepared templates borrow these; the vector is never resized.
  const std::vector<ppc::QueryTemplate> templates_;
  std::vector<ppc::PreparedTemplate> prepared_;
  ppc::ExecutionSimulator simulator_;
  size_t first_ = 0;
  std::vector<Label> labels_;
  std::map<ppc::PlanId, std::shared_ptr<const ppc::PlanNode>> plans_;
};

/// Worker-side stamp for depth-1 traced requests: the server's
/// pre-dispatch hook records when a worker picked the request up.
struct DispatchProbe {
  std::atomic<bool> armed{false};
  std::atomic<int64_t> at_ns{0};
};

/// A framework warmed on the stream's prefix, optionally behind a server
/// with one client connection.
struct Rig {
  std::unique_ptr<ppc::Catalog> catalog;
  std::unique_ptr<ppc::PpcFramework> framework;
  std::unique_ptr<ppc::PlanServer> server;
  int fd = -1;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    if (fd >= 0) ::close(fd);
    if (server != nullptr) server->Stop();
  }
};

std::unique_ptr<Rig> BuildWarmFramework(const WorkloadSpec& spec,
                                        const Stream& stream) {
  auto rig = std::make_unique<Rig>();
  rig->catalog = ppc::BuildTpchCatalog(CatalogConfig());
  rig->framework = std::make_unique<ppc::PpcFramework>(
      rig->catalog.get(), FrameworkConfig(spec.cache_capacity));
  for (const ppc::QueryTemplate& t : ppc::EvaluationTemplates()) {
    Check(rig->framework->RegisterTemplate(t), "register template");
  }
  std::vector<double> x;
  for (size_t e = 0; e < spec.warmup_events; ++e) {
    x.assign(stream.point(e), stream.point(e) + stream.dims[stream.tmpl[e]]);
    Check(rig->framework->ExecuteAtPoint(stream.name(e), x), "warm-up");
  }
  return rig;
}

/// The timed set-up: catalog, registration, warm-up, server start and
/// connect.
std::unique_ptr<Rig> SetUp(const WorkloadSpec& spec, const Stream& stream,
                           DispatchProbe* probe) {
  std::unique_ptr<Rig> rig = BuildWarmFramework(spec, stream);
  ppc::PlanServer::Config config;
  config.worker_threads = kWorkers;
  if (probe != nullptr) {
    config.pre_dispatch_hook = [probe](wire::MessageType) {
      if (probe->armed.load(std::memory_order_relaxed)) {
        probe->at_ns.store(NowNs(), std::memory_order_relaxed);
      }
    };
  }
  rig->server = std::make_unique<ppc::PlanServer>(rig->framework.get(), config);
  Check(rig->server->Start(), "server start");
  rig->fd = Check(ppc::net::Connect("127.0.0.1", rig->server->port()),
                  "connect");
  return rig;
}

/// Plan-quality tally over every checked answer.
struct Quality {
  uint64_t answers = 0;
  uint64_t hits = 0;
  uint64_t used = 0;
  uint64_t used_correct = 0;
  double cost_run = 0.0;
  double cost_optimal = 0.0;

  double hit_rate() const {
    return answers == 0 ? 0.0 : static_cast<double>(hits) / answers;
  }
  double precision() const {
    return used == 0 ? 0.0 : static_cast<double>(used_correct) / used;
  }
  double plan_cost_ratio() const {
    return cost_optimal == 0.0 ? 0.0 : cost_run / cost_optimal;
  }
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Answer checking and quality accounting for one workload.
class Checker {
 public:
  /// For PREDICT workloads the per-entry expectation tables are allocated
  /// here, so a checker built before the memory baseline keeps them out
  /// of peak_rss_mb.
  Checker(const WorkloadSpec& spec, const Stream& stream, const FrameRing& ring,
          Oracle* oracle)
      : spec_(spec), stream_(stream), ring_(ring), oracle_(oracle) {
    if (spec_.type == wire::MessageType::kPredict) {
      expected_.resize(ring_.size());
      run_cost_.resize(ring_.size());
    }
  }

  /// predict_hot only: the frozen state's answer and the cost of the plan
  /// that answer leads to (the cached plan on a hit, the optimizer's plan
  /// otherwise), per ring entry.
  void PrepareExpected(ppc::PpcFramework* framework) {
    std::map<ppc::PlanId, std::shared_ptr<const ppc::PlanNode>> cached;
    for (size_t i = 0; i < ring_.size(); ++i) {
      const size_t e = ring_.event(i);
      const std::vector<double> x = stream_.Point(e);
      expected_[i] = Check(framework->PredictAtPoint(stream_.name(e), x),
                           "expected answer");
      const Oracle::Label& label = oracle_->label(e);
      run_cost_[i] = label.cost;
      if (expected_[i].plan != ppc::kNullPlanId && expected_[i].cache_hit) {
        auto it = cached.find(expected_[i].plan);
        if (it == cached.end()) {
          it = cached
                   .emplace(expected_[i].plan,
                            framework->plan_cache().Get(expected_[i].plan))
                   .first;
        }
        if (it->second == nullptr) Die("cache-resident plan disappeared");
        run_cost_[i] = oracle_->Cost(stream_.tmpl[e], *it->second, x);
      }
    }
  }

  /// Returns false when the answer is wrong.
  bool operator()(const wire::Response& r, size_t i) {
    const size_t e = ring_.event(i);
    const Oracle::Label& label = oracle_->label(e);
    if (!r.ok() || r.type != spec_.type) return Miss(i, false);
    ++quality_.answers;
    quality_.cost_optimal += label.cost;
    if (spec_.type == wire::MessageType::kPredict) {
      const ppc::PpcFramework::PredictReport& want = expected_[i];
      const bool same = r.predict.plan == want.plan &&
                        SameBits(r.predict.confidence, want.confidence) &&
                        r.predict.cache_hit == want.cache_hit;
      const bool hit =
          r.predict.plan != ppc::kNullPlanId && r.predict.cache_hit;
      quality_.cost_run += run_cost_[i];
      if (hit) {
        ++quality_.hits;
        ++quality_.used;
        if (r.predict.plan == label.plan) ++quality_.used_correct;
      }
      return hit ? same : Miss(i, same);
    }
    const wire::Response::Execute& x = r.execute;
    bool ok = true;
    if (x.optimizer_invoked && x.optimal_plan != label.plan) ok = false;
    if (x.optimizer_invoked && !x.used_prediction &&
        (x.executed_plan != label.plan ||
         !SameBits(x.execution_cost, label.cost))) {
      ok = false;
    }
    quality_.cost_run += x.execution_cost;
    if (x.used_prediction) {
      ++quality_.used;
      if (x.executed_plan == label.plan) ++quality_.used_correct;
    }
    if (x.used_prediction && !x.optimizer_invoked) {
      ++quality_.hits;
      return ok;
    }
    return Miss(i, ok);
  }

  const Quality& quality() const { return quality_; }
  /// Ring entries that missed the cache, in the order seen (bounded).
  const std::vector<size_t>& misses() const { return misses_; }

 private:
  bool Miss(size_t i, bool ok) {
    if (misses_.size() < kMaxMisses) misses_.push_back(i);
    return ok;
  }

  static constexpr size_t kMaxMisses = 2000;
  const WorkloadSpec& spec_;
  const Stream& stream_;
  const FrameRing& ring_;
  Oracle* oracle_;
  std::vector<ppc::PpcFramework::PredictReport> expected_;
  std::vector<double> run_cost_;
  Quality quality_;
  std::vector<size_t> misses_;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
  std::string build_type = "unknown";
  std::string spans_out;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Die("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (key == "--commit") {
      args.commit = value;
    } else if (key == "--build-type") {
      args.build_type = value;
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else {
      Die("unknown argument " + key);
    }
  }
  if (!(args.seconds > 0.0)) Die("--seconds must be positive");
  return args;
}

/// Server and cache counters read from the framework's registry (the same
/// instruments METRICS reports).
struct Counters {
  uint64_t predicts = 0, executes = 0, microbatched = 0, busy = 0;
  uint64_t shed_abstained = 0, optimizer_calls = 0, queries = 0;
  uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;

  static Counters Read(ppc::PpcFramework* f) {
    ppc::MetricsRegistry& m = f->metrics();
    Counters c;
    c.predicts = m.counter("server.requests.predict").value();
    c.executes = m.counter("server.requests.execute").value();
    c.microbatched = m.counter("server.microbatched_predicts").value();
    c.busy = m.counter("server.responses.busy").value();
    c.shed_abstained = m.counter("server.shed.abstained_predicts").value();
    c.optimizer_calls = m.counter("framework.optimizer.calls").value();
    c.queries = m.counter("framework.queries").value();
    c.cache_hits = f->plan_cache().hits();
    c.cache_misses = f->plan_cache().misses();
    c.cache_evictions = f->plan_cache().evictions();
    return c;
  }
};

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Mean nanoseconds per call of `fn` over `n` calls, timed as one block
/// so the clock read does not dominate ns-scale calls.
template <typename Fn>
double MeanNs(size_t n, Fn fn) {
  if (n == 0) return 0.0;
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < n; ++i) fn(i);
  return static_cast<double>(NowNs() - t0) / static_cast<double>(n);
}

void PrintProvenance(const Args& args, size_t cpus) {
  std::printf(
      "{\"provenance\": {\"commit\": \"%s\", \"build_type\": \"%s\", "
      "\"cpu\": \"%s\", \"nproc\": %zu, \"simd_tier\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
      "\"trace\": %d, \"pipeline_depth\": %zu, \"workers\": %d, "
      "\"ring_events\": %zu, \"segments\": %zu}}\n",
      JsonEscape(args.commit).c_str(), JsonEscape(args.build_type).c_str(),
      JsonEscape(CpuModel()).c_str(), cpus,
      ppc::simd::TierName(ppc::simd::ActiveTier()), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace,
      kDepth, kWorkers, kRingEvents, kSegments);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"request\": %llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fclose(f);
}

/// Everything one run needs, built before any timing starts.
struct Inputs {
  const WorkloadSpec* spec = nullptr;
  Stream stream;
  std::unique_ptr<FrameRing> ring;
  std::unique_ptr<Oracle> oracle;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, size_t cpus) {
  Inputs in;
  in.spec = &spec;
  in.stream = MakeStream(spec.population_seed, seed, spec.warmup_events,
                         spec.warmup_events + kRingEvents);
  in.ring = std::make_unique<FrameRing>(in.stream, spec.warmup_events,
                                        kRingEvents, spec.type);
  in.oracle = std::make_unique<Oracle>();
  in.oracle->LabelRange(in.stream, spec.warmup_events, kRingEvents,
                        std::min<size_t>(cpus, 4));
  return in;
}

LoopConfig MakeLoopConfig(double seconds) {
  LoopConfig config;
  config.depth = kDepth;
  config.seconds = seconds;
  config.windows = std::max<size_t>(
      4, static_cast<size_t>(std::lround(seconds / kWindowSeconds)));
  return config;
}

int RunUntraced(const Args& args, Inputs& in) {
  const WorkloadSpec& spec = *in.spec;
  Checker checker(spec, in.stream, *in.ring, in.oracle.get());
  // The timed window is served in kSegments segments, each from a rig set
  // up for it, so the set-ups are spread over the run as the loop's
  // windows are, and a slow spell of the host lengthens one set-up, not
  // all of them. Every rig is warmed on the same prefix: predict_hot
  // serves the same frozen state in every segment, and execute_churn
  // restarts its churn from the same warm state.
  const LoopConfig segment = MakeLoopConfig(args.seconds / kSegments);
  LoopResult loop(segment, kSegments);
  // Inputs, oracle labels, checker tables and the loop's histograms are
  // built before the first segment, so each segment's peak above its
  // baseline counts only what the program adds: its set-up and serving.
  std::vector<double> setup_s;
  std::vector<double> peak_rss_mb;
  size_t cursor = 0;
  bool correct = true;
  for (size_t k = 0; k < kSegments && loop.error.empty(); ++k) {
    ResetPeakRss();
    const double baseline_rss_mb = StatusMb("VmRSS:");
    const int64_t t0 = NowNs();
    std::unique_ptr<Rig> rig = SetUp(spec, in.stream, nullptr);
    setup_s.push_back(SecondsSince(t0));
    // Later segments' answers must match these to the bit as well, so
    // every set-up must rebuild the same state.
    if (k == 0 && spec.type == wire::MessageType::kPredict) {
      checker.PrepareExpected(rig->framework.get());
    }
    const Counters before = Counters::Read(rig->framework.get());
    RunClosedLoop(
        rig->fd, *in.ring, &cursor, segment,
        [&checker](const wire::Response& r, size_t i) { return checker(r, i); },
        &loop);
    const Counters after = Counters::Read(rig->framework.get());
    peak_rss_mb.push_back(StatusMb("VmHWM:") - baseline_rss_mb);
    if (after.busy != before.busy) {
      std::fprintf(stderr, "server answered BUSY %llu times\n",
                   static_cast<unsigned long long>(after.busy - before.busy));
      correct = false;
    }
    if (spec.type == wire::MessageType::kPredict &&
        after.queries != before.queries) {
      std::fprintf(stderr, "PREDICT traffic changed the learned state\n");
      correct = false;
    }
  }
  if (!loop.error.empty()) {
    std::fprintf(stderr, "loop: %s\n", loop.error.c_str());
  }
  correct = correct && loop.error.empty() && loop.failed == 0;
  const Quality& q = checker.quality();
  const double busy_ratio = loop.thread_cpu_seconds / loop.wall_seconds;
  const std::vector<size_t> clean = loop.CleanWindows(kMaxStealShare);
  std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"closed_loop_qps", loop.MedianQps(clean), "1/s"},
      {"latency_p50_us", loop.MedianLatencyUs(clean, 0.50), "us"},
      {"latency_p90_us", loop.MedianLatencyUs(clean, 0.90), "us"},
      {"hit_rate", q.hit_rate(), "ratio"},
      {"precision", q.precision(), "ratio"},
      {"plan_cost_ratio", q.plan_cost_ratio(), "ratio"},
      {"peak_rss_mb", Median(peak_rss_mb), "MB"},
  };
  std::fprintf(stderr,
               "%s seed=%llu: %llu requests in %.2f s, %llu failed, "
               "loadgen busy %.2f, setups", spec.name,
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(loop.attempted),
               loop.wall_seconds,
               static_cast<unsigned long long>(loop.failed), busy_ratio);
  for (double t : setup_s) std::fprintf(stderr, " %.3f", t);
  std::fprintf(stderr, "\n  peak MB above baseline per segment:");
  for (double mb : peak_rss_mb) std::fprintf(stderr, " %.2f", mb);
  std::vector<double> clean_qps;
  for (size_t w : clean) {
    clean_qps.push_back(static_cast<double>(loop.completions[w]) /
                        loop.window_seconds);
  }
  std::fprintf(stderr,
               "\n  steal %.4f of CPU, %zu of %zu windows clean, "
               "clean-window qps spread %.3f",
               loop.StealShare(), clean.size(), loop.completions.size(),
               RelativeIqr(clean_qps));
  std::fprintf(stderr, "\n  per window (qps p50 p90 p99 steal):");
  for (size_t w = 0; w < loop.completions.size(); ++w) {
    std::fprintf(stderr, " [%.0f %.0f %.0f %.0f st%llu]",
                 static_cast<double>(loop.completions[w]) / loop.window_seconds,
                 loop.latency_us[w].Quantile(0.5),
                 loop.latency_us[w].Quantile(0.9),
                 loop.latency_us[w].Quantile(0.99),
                 static_cast<unsigned long long>(loop.steal_ticks[w]));
  }
  std::fprintf(stderr, "\n");
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-18s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit);
  }
  PrintResult(correct, loop.attempted, loop.failed, metrics);
  return 0;
}

/// Durations (or other per-sample values) gathered per layer name.
using Samples = std::map<std::string, std::vector<double>>;

/// What the phases of a traced run share: the inputs, the served rig, a
/// shadow framework and the running request tally.
struct TraceContext {
  const WorkloadSpec& spec;
  const Stream& stream;
  const FrameRing& ring;
  Oracle& oracle;
  Rig& rig;
  /// Fed the same prefix in-process, so replays of state-changing calls
  /// (EXECUTE, feedback inserts, cache lookups) never touch the served
  /// state.
  Rig& shadow;
  Checker& checker;
  size_t cursor = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  bool is_predict() const { return spec.type == wire::MessageType::kPredict; }
  size_t NextRingEntry() {
    const size_t i = cursor;
    cursor = (cursor + 1) % ring.size();
    return i;
  }
  void Count(const LoopResult& loop) {
    attempted += loop.attempted;
    failed += loop.failed;
    if (!loop.error.empty()) {
      std::fprintf(stderr, "loop: %s\n", loop.error.c_str());
      correct = false;
    }
  }
};

/// Depth-1 round trips, each followed by in-process replays of the same
/// input through each layer's public entry point (see NOTES.md for the
/// span tree). Appends the spans and, per request, the round trip minus
/// the framework span.
void TraceDepth1(TraceContext& ctx, DispatchProbe& probe,
                 std::vector<Span>* spans,
                 std::vector<double>* unaccounted_us) {
  const bool is_predict = ctx.is_predict();
  const ppc::PpcFramework& live = *ctx.rig.framework;
  probe.armed.store(true);
  for (size_t k = 0; k < kTraceSamples; ++k) {
    const size_t i = ctx.NextRingEntry();
    const size_t e = ctx.ring.event(i);
    const std::string& name = ctx.stream.name(e);
    const std::vector<double> x = ctx.stream.Point(e);
    const uint64_t id = k + 1;
    probe.at_ns.store(0);
    wire::Response response;
    int64_t sent = 0, decoded = 0;
    std::string error;
    ++ctx.attempted;
    if (!RoundTrip(ctx.rig.fd, ctx.ring, i, id, &response, &sent, &decoded,
                   &error)) {
      std::fprintf(stderr, "depth-1: %s\n", error.c_str());
      ++ctx.failed;
      ctx.correct = false;
      break;
    }
    if (!ctx.checker(response, i)) ++ctx.failed;
    const int64_t hook = probe.at_ns.load();
    const int root = static_cast<int>(spans->size());
    spans->push_back({"client.rtt", sent, decoded, -1, id});
    spans->push_back({"server.dispatch_wait", sent, hook, root, id});
    const int after = static_cast<int>(spans->size());
    spans->push_back({"server.after_dispatch", hook, decoded, root, id});

    auto span = [&](const char* layer, int parent, auto&& fn) {
      const int at = static_cast<int>(spans->size());
      const int64_t t0 = NowNs();
      fn();
      spans->push_back({layer, t0, NowNs(), parent, id});
      return at;
    };
    const int fw_predict =
        span("framework.predict", is_predict ? after : -1,
             [&] { Check(live.PredictAtPoint(name, x), "replay predict"); });
    ppc::PpcFramework::QueryReport report;
    const int fw_execute =
        span("framework.execute", is_predict ? -1 : after, [&] {
          report = Check(ctx.shadow.framework->ExecuteAtPoint(name, x),
                         "replay execute");
        });
    const int fw = is_predict ? fw_predict : fw_execute;
    const std::shared_ptr<const ppc::OnlinePpcPredictor> online =
        is_predict ? live.online_predictor(name)
                   : ctx.shadow.framework->online_predictor(name);
    const int pp = span("predictor.predict", fw,
                        [&] { online->predictor().Predict(x); });
    span("lsh.query_ranges", pp, [&] { online->predictor().QueryRanges(x); });
    const size_t tmpl = ctx.stream.tmpl[e];
    if (!is_predict && report.optimizer_invoked) {
      span("optimizer.optimize", fw, [&] {
        Check(ctx.oracle.Optimize(tmpl, x), "replay optimize");
      });
    }
    const ppc::PlanNode* plan = ctx.oracle.plan(ctx.oracle.label(e).plan);
    span("exec.execute", is_predict ? -1 : fw,
         [&] { ctx.oracle.Cost(tmpl, *plan, x); });
    unaccounted_us->push_back(
        static_cast<double>((decoded - sent) - (*spans)[fw].duration_ns()) *
        1e-3);
  }
  probe.armed.store(false);
}

/// Single-layer timings on the run's inputs.
struct LayerTimings {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double batch_us_per_point = 0.0;
  double abstain_ratio = 0.0;
  double snapshot_bytes = 0.0;
  double transform_ns = 0.0;
  double range_count_ns = 0.0;
  double cache_get_ns = 0.0;
  double optimize_us = 0.0;
  double observe_us = 0.0;
};

/// `PredictBatch` on 16-point same-template groups of the first `n` ring
/// entries: median microseconds per point.
double PredictBatchUsPerPoint(const TraceContext& ctx, size_t n) {
  std::map<uint32_t, std::vector<size_t>> by_template;
  for (size_t i = 0; i < n; ++i) {
    by_template[ctx.stream.tmpl[ctx.ring.event(i)]].push_back(i);
  }
  std::vector<double> us_per_point;
  std::vector<double> flat;
  for (auto& [t, members] : by_template) {
    for (size_t g = 0; g + kBatchGroup <= members.size(); g += kBatchGroup) {
      flat.clear();
      for (size_t j = g; j < g + kBatchGroup; ++j) {
        const double* p = ctx.stream.point(ctx.ring.event(members[j]));
        flat.insert(flat.end(), p, p + ctx.stream.dims[t]);
      }
      const int64_t t0 = NowNs();
      Check(ctx.rig.framework->PredictBatch(ctx.stream.names[t], flat.data(),
                                            kBatchGroup, ctx.stream.dims[t]),
            "replay batch");
      us_per_point.push_back(static_cast<double>(NowNs() - t0) * 1e-3 /
                             kBatchGroup);
    }
  }
  return Median(us_per_point);
}

/// LSH transforms and histogram range counts, built with the workload's
/// predictor config and fed the first `points.size()` ring entries.
void TimeLshAndStats(const TraceContext& ctx,
                     const std::vector<std::vector<double>>& points,
                     LayerTimings* out) {
  const ppc::LshHistogramsPredictor::Config predictor =
      FrameworkConfig(ctx.spec.cache_capacity).online.predictor;
  std::vector<std::unique_ptr<ppc::TransformEnsemble>> ensembles;
  std::vector<ppc::StreamingHistogram> histograms;
  std::vector<double> half_width;
  for (size_t t = 0; t < ctx.stream.names.size(); ++t) {
    ppc::TransformConfig tc;
    tc.input_dims = ctx.stream.dims[t];
    tc.output_dims = ppc::DefaultOutputDims(ctx.stream.dims[t]);
    tc.bits_per_dim = predictor.bits_per_dim;
    ensembles.push_back(std::make_unique<ppc::TransformEnsemble>(
        tc, predictor.transform_count, 23 + t));
    histograms.emplace_back(predictor.histogram_buckets);
    half_width.push_back((*ensembles.back())[0].RangeHalfWidth(
        predictor.radius));
  }
  const size_t n = points.size();
  std::vector<double> positions(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t e = ctx.ring.event(i);
    const size_t t = ctx.stream.tmpl[e];
    positions[i] = (*ensembles[t])[0].LinearizedPosition(points[i]);
    histograms[t].Insert(positions[i], ctx.oracle.label(e).cost);
  }
  double sink = 0.0;
  out->transform_ns = MeanNs(n, [&](size_t i) {
    for (const ppc::RandomizedTransform& tr :
         ensembles[ctx.stream.tmpl[ctx.ring.event(i)]]->transforms()) {
      sink += tr.Apply(points[i])[0];
    }
  });
  out->range_count_ns = MeanNs(n, [&](size_t i) {
    const size_t t = ctx.stream.tmpl[ctx.ring.event(i)];
    sink += histograms[t].EstimateCount(positions[i] - half_width[t],
                                        positions[i] + half_width[t]);
  });
  g_sink = sink;
}

LayerTimings TimeLayers(TraceContext& ctx,
                        const std::vector<std::string>& payloads,
                        const std::vector<size_t>& misses) {
  LayerTimings out;
  const size_t n = std::min<size_t>(ctx.ring.size(), 4096);
  std::vector<wire::Request> requests(n);
  std::vector<std::vector<double>> points(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t e = ctx.ring.event(i);
    points[i] = ctx.stream.Point(e);
    requests[i].type = ctx.spec.type;
    requests[i].id = i + 1;
    requests[i].template_name = ctx.stream.name(e);
    requests[i].point = points[i];
  }
  std::string scratch;
  out.encode_ns = MeanNs(n, [&](size_t i) {
    scratch.clear();
    wire::EncodeRequest(requests[i], &scratch);
  });
  out.decode_ns = MeanNs(payloads.size(), [&](size_t i) {
    if (!wire::DecodeResponse(payloads[i]).ok()) Die("decode replay");
  });
  out.batch_us_per_point = PredictBatchUsPerPoint(ctx, n);

  size_t abstains = 0;
  for (size_t i = 0; i < ctx.ring.size(); ++i) {
    const size_t e = ctx.ring.event(i);
    const ppc::PpcFramework::PredictReport r = Check(
        ctx.rig.framework->PredictAtPoint(ctx.stream.name(e),
                                          ctx.stream.Point(e)),
        "abstain probe");
    if (r.plan == ppc::kNullPlanId) ++abstains;
  }
  out.abstain_ratio = Ratio(static_cast<double>(abstains),
                            static_cast<double>(ctx.ring.size()));
  out.snapshot_bytes = static_cast<double>(
      ppc::PredictorState::Capture(*ctx.rig.framework).Serialize().size());
  TimeLshAndStats(ctx, points, &out);

  double sink = 0.0;
  out.cache_get_ns = MeanNs(n, [&](size_t i) {
    const ppc::PlanId id = ctx.oracle.label(ctx.ring.event(i)).plan;
    sink += ctx.shadow.framework->plan_cache().Get(id) != nullptr;
  });
  g_sink = sink;

  // The optimizer on the points this run actually missed on.
  std::vector<double> optimize_us;
  for (size_t m = 0; m < std::min<size_t>(misses.size(), 1000); ++m) {
    const size_t e = ctx.ring.event(misses[m]);
    const std::vector<double> x = ctx.stream.Point(e);
    const int64_t t0 = NowNs();
    Check(ctx.oracle.Optimize(ctx.stream.tmpl[e], x), "replay optimize");
    optimize_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  out.optimize_us = Median(optimize_us);

  // Feedback inserts on the shadow (last: they change its state).
  std::vector<double> observe_us;
  for (size_t i = 0; i < std::min<size_t>(n, 2000); ++i) {
    const size_t e = ctx.ring.event(i);
    const Oracle::Label& label = ctx.oracle.label(e);
    const std::shared_ptr<ppc::OnlinePpcPredictor> online =
        ctx.shadow.framework->mutable_online_predictor(ctx.stream.name(e));
    const ppc::LabeledPoint point{points[i], label.plan, label.cost};
    const int64_t t0 = NowNs();
    online->ObserveOptimized(point);
    observe_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  out.observe_us = Median(observe_us);
  return out;
}

/// The router hop: depth-1 requests through an in-process PlanRouter in
/// front of the served server, against depth-1 direct (p50 difference).
double RouterHopUs(TraceContext& ctx) {
  ppc::PlanRouter::Config config;
  config.backends.push_back({"127.0.0.1", ctx.rig.server->port()});
  ppc::PlanRouter router(config);
  Check(router.Start(), "router start");
  ppc::PpcClient direct, routed;
  Check(direct.Connect("127.0.0.1", ctx.rig.server->port()), "direct connect");
  Check(routed.Connect("127.0.0.1", router.port()), "router connect");
  std::vector<double> direct_us, routed_us;
  for (size_t k = 0; k < kRouterSamples; ++k) {
    const size_t e = ctx.ring.event(ctx.NextRingEntry());
    const std::vector<double> x = ctx.stream.Point(e);
    for (ppc::PpcClient* client : {&direct, &routed}) {
      const int64_t t0 = NowNs();
      const bool ok = ctx.is_predict()
                          ? client->Predict(ctx.stream.name(e), x).ok()
                          : client->Execute(ctx.stream.name(e), x).ok();
      (client == &direct ? direct_us : routed_us)
          .push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      ++ctx.attempted;
      if (!ok) ++ctx.failed;
    }
  }
  direct.Close();
  routed.Close();
  router.Stop();
  return Median(routed_us) - Median(direct_us);
}

int RunTraced(const Args& args, Inputs& in) {
  const WorkloadSpec& spec = *in.spec;
  DispatchProbe probe;
  std::unique_ptr<Rig> rig = SetUp(spec, in.stream, &probe);
  std::unique_ptr<Rig> shadow = BuildWarmFramework(spec, in.stream);
  Checker checker(spec, in.stream, *in.ring, in.oracle.get());
  if (spec.type == wire::MessageType::kPredict) {
    checker.PrepareExpected(rig->framework.get());
  }
  TraceContext ctx{spec, in.stream, *in.ring, *in.oracle, *rig, *shadow,
                   checker};
  auto check = [&checker](const wire::Response& r, size_t i) {
    return checker(r, i);
  };

  // Untraced, then traced closed loop: the difference is the tracing
  // overhead. Server counters are taken over the untraced half.
  const LoopConfig untraced = MakeLoopConfig(args.seconds / 2.0);
  const Counters c0 = Counters::Read(rig->framework.get());
  LoopResult plain(untraced);
  RunClosedLoop(rig->fd, ctx.ring, &ctx.cursor, untraced, check, &plain);
  const Counters c1 = Counters::Read(rig->framework.get());
  LoopConfig traced = untraced;
  traced.span_every = kSpanEvery;
  traced.keep_payloads = 2048;
  LoopResult spanned(traced);
  RunClosedLoop(rig->fd, ctx.ring, &ctx.cursor, traced, check, &spanned);
  ctx.Count(plain);
  ctx.Count(spanned);
  const std::vector<size_t> misses = checker.misses();

  std::vector<Span> spans = std::move(spanned.spans);
  std::vector<double> unaccounted_us;
  TraceDepth1(ctx, probe, &spans, &unaccounted_us);

  // Per-layer p50 of durations and self times.
  const std::vector<int64_t> self = SelfTimes(spans);
  Samples samples, self_us;
  for (size_t s = 0; s < spans.size(); ++s) {
    samples[spans[s].name].push_back(
        static_cast<double>(spans[s].duration_ns()) * 1e-3);
    self_us[spans[s].name].push_back(static_cast<double>(self[s]) * 1e-3);
  }
  std::fprintf(stderr, "%-24s %8s %12s %12s\n", "span", "count", "p50_us",
               "self_p50_us");
  for (auto& [name, values] : samples) {
    std::fprintf(stderr, "%-24s %8zu %12.3f %12.3f\n", name.c_str(),
                 values.size(), Median(values), Median(self_us[name]));
  }
  auto p50 = [&samples](const char* name) { return Median(samples[name]); };

  const LayerTimings layers = TimeLayers(ctx, spanned.payloads, misses);
  const double router_hop_us = RouterHopUs(ctx);

  const double plain_qps =
      plain.MedianQps(plain.CleanWindows(kMaxStealShare));
  const double traced_qps =
      spanned.MedianQps(spanned.CleanWindows(kMaxStealShare));
  const double rtt_p50 = p50("client.rtt");
  const double wait_p50 = p50("server.dispatch_wait");
  const double fw_p50 =
      p50(ctx.is_predict() ? "framework.predict" : "framework.execute");
  const double requests =
      static_cast<double>((c1.predicts - c0.predicts) +
                          (c1.executes - c0.executes));
  auto delta = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  const std::vector<Metric> metrics = {
      {"server.rtt_depth1_p50_us", rtt_p50, "us"},
      {"server.dispatch_wait_p50_us", wait_p50, "us"},
      {"server.unaccounted_p50_us", Median(unaccounted_us), "us"},
      {"wire.encode_request_ns", layers.encode_ns, "ns"},
      {"wire.decode_response_ns", layers.decode_ns, "ns"},
      {"server.microbatch_share",
       Ratio(delta(c1.microbatched, c0.microbatched),
             delta(c1.predicts, c0.predicts)),
       "ratio"},
      {"server.busy_ratio", Ratio(delta(c1.busy, c0.busy), requests),
       "ratio"},
      {"server.shed_abstain_ratio",
       Ratio(delta(c1.shed_abstained, c0.shed_abstained), requests), "ratio"},
      {"router.hop_p50_us", router_hop_us, "us"},
      {"framework.predict_us", p50("framework.predict"), "us"},
      {"framework.predict_batch_us_per_point", layers.batch_us_per_point,
       "us"},
      {"framework.execute_us", p50("framework.execute"), "us"},
      {"predictor.abstain_ratio", layers.abstain_ratio, "ratio"},
      {"predictor.observe_us", layers.observe_us, "us"},
      {"predictor.snapshot_bytes", layers.snapshot_bytes, "bytes"},
      {"lsh.transform_apply_ns", layers.transform_ns, "ns"},
      {"lsh.query_ranges_ns", p50("lsh.query_ranges") * 1e3, "ns"},
      {"stats.range_count_ns", layers.range_count_ns, "ns"},
      {"optimizer.optimize_us", layers.optimize_us, "us"},
      {"optimizer.calls_per_query",
       Ratio(delta(c1.optimizer_calls, c0.optimizer_calls), requests),
       "ratio"},
      {"cache.hit_ratio",
       Ratio(delta(c1.cache_hits, c0.cache_hits),
             delta(c1.cache_hits, c0.cache_hits) +
                 delta(c1.cache_misses, c0.cache_misses)),
       "ratio"},
      {"cache.evictions_per_kq",
       Ratio(1000.0 * delta(c1.cache_evictions, c0.cache_evictions),
             requests),
       "1/kq"},
      {"cache.get_ns", layers.cache_get_ns, "ns"},
      {"exec.execute_us", p50("exec.execute"), "us"},
      {"loadgen.busy_ratio", plain.thread_cpu_seconds / plain.wall_seconds,
       "ratio"},
      {"trace.accounted_share", Ratio(wait_p50 + fw_p50, rtt_p50), "ratio"},
      {"trace.overhead_qps", traced_qps - plain_qps, "1/s"},
  };
  std::fprintf(stderr,
               "%s seed=%llu traced: untraced %.0f qps, traced %.0f qps\n",
               spec.name, static_cast<unsigned long long>(args.seed),
               plain_qps, traced_qps);
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-38s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit);
  }
  shadow.reset();
  rig.reset();
  WriteSpans(args.spans_out, spans);
  PrintResult(ctx.correct && ctx.failed == 0, ctx.attempted, ctx.failed,
              metrics);
  return 0;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) Die("unknown workload '" + args.workload + "'");
  // The load thread, the server's IO thread and its workers each need a
  // core, or the run measures the scheduler instead of the program.
  const size_t cpus = UsableCpus();
  const size_t threads = 2 + static_cast<size_t>(kWorkers);
  if (threads > cpus) {
    Die("needs " + std::to_string(threads) + " CPUs (load thread, IO thread, " +
        std::to_string(kWorkers) + " workers); only " + std::to_string(cpus) +
        " usable");
  }
  PrintProvenance(args, cpus);
  Inputs inputs = MakeInputs(*spec, args.seed, cpus);
  return args.trace != 0 ? RunTraced(args, inputs) : RunUntraced(args, inputs);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
