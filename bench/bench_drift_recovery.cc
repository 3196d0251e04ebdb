// Adversarial-drift recovery: retuning on vs. off (DESIGN.md §17).
//
// The workload is a concentration drift the fixed-transform predictor is
// resolution-bound against. Phase 1a spreads queries over the whole plan
// space, seeding every region's histograms with multi-plan density — the
// hostile background. Phase 1b settles into a "home" cluster where the
// predictor reaches a high steady hit rate: the pre-drift baseline. Then
// the drift: the workload jumps into a ~0.1-wide box (found by probing
// the optimizer) that is single-plan *internally* but whose generation-0
// query radius lands mostly in other plans' territory, so the phase-1a
// background drowns the box — mixed per-bucket densities, low
// confidence, NULLs, and a windowed-recall collapse the fixed predictor
// can only crawl out of as box observations slowly outvote the stale
// background. The adaptive retuner instead notices the recall collapse,
// re-fits the transform ranges to the retained recent points, back-fills
// the new generation from the reservoir — which by then holds the recent
// workload, not the stale background — and installs it via the warm
// handoff, recovering the hit rate almost immediately. The retune
// cooldown spans the warm-up phases, so both arms enter the drift at
// generation 0 and the comparison isolates the post-drift response.
//
// A prober thread hammers the read-only PREDICT path throughout the
// retuning-on arm: the zero-served-traffic-gap claim is that not one
// probe fails or observes a missing predictor across all generation
// handoffs. Reported in BENCH_drift_recovery.json.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/math_utils.h"
#include "ppc/ppc_framework.h"

namespace ppc {
namespace bench {
namespace {

constexpr size_t kPhase1Uniform = 600;
constexpr size_t kPhase1 = 1400;  // uniform warm-up + home cluster
constexpr size_t kPhase2 = 1600;
constexpr size_t kWindow = 100;
constexpr double kBoxHalfWidth = 0.05;

struct WindowPoint {
  double hit_rate = 0.0;
  uint32_t generation = 0;
};

struct ArmOutcome {
  std::vector<WindowPoint> windows;
  double pre_drift_hit_rate = 0.0;
  double post_drift_floor = 1.0;
  double final_hit_rate = 0.0;
  /// Queries after the drift until the windowed hit rate first returned
  /// to 90% of the pre-drift level; -1 = never within the workload.
  long recovery_queries = -1;
  uint64_t refits = 0;
  uint64_t generations = 0;
  uint64_t probe_count = 0;
  uint64_t probe_failures = 0;
};

ArmOutcome RunArm(const std::string& tmpl_name, double home_center,
                  double box_center, bool retune) {
  PpcFramework framework(&BenchCatalog(), DriftArmConfig(retune, kPhase1));
  RegisterAndSeal(&framework, std::vector<std::string>{tmpl_name});
  const size_t dims =
      static_cast<size_t>(EvaluationTemplate(tmpl_name).ParameterDegree());

  ArmOutcome outcome;

  // The zero-gap prober: a reader that must never see a failure or a
  // missing predictor, no matter how many handoffs land under it.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> probe_count{0};
  std::atomic<uint64_t> probe_failures{0};
  std::thread prober([&] {
    Rng rng(4242);
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<double> x(dims);
      for (double& v : x)
        v = box_center + rng.Uniform(-kBoxHalfWidth, kBoxHalfWidth);
      if (!framework.PredictAtPoint(tmpl_name, x).ok() ||
          framework.online_predictor(tmpl_name) == nullptr) {
        probe_failures.fetch_add(1, std::memory_order_relaxed);
      }
      probe_count.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  Rng rng(1891);
  size_t hits_in_window = 0, in_window = 0;
  auto close_window = [&] {
    WindowPoint point;
    point.hit_rate =
        in_window == 0 ? 0.0
                       : static_cast<double>(hits_in_window) /
                             static_cast<double>(in_window);
    const auto online = framework.online_predictor(tmpl_name);
    point.generation =
        online == nullptr ? 0 : online->predictor().transform_generation();
    outcome.windows.push_back(point);
    hits_in_window = 0;
    in_window = 0;
  };

  for (size_t i = 0; i < kPhase1 + kPhase2; ++i) {
    std::vector<double> x(dims);
    if (i < kPhase1Uniform) {
      for (double& v : x) v = rng.Uniform(0.02, 0.98);
    } else {
      const double center = i < kPhase1 ? home_center : box_center;
      for (double& v : x)
        v = center + rng.Uniform(-kBoxHalfWidth, kBoxHalfWidth);
    }
    auto report = framework.ExecuteAtPoint(tmpl_name, x);
    PPC_CHECK_MSG(report.ok(), report.status().ToString().c_str());
    // A "hit" is a served prediction that stuck: the plan cache answered
    // and negative feedback did not overturn it.
    const bool hit = report.value().used_prediction &&
                     !report.value().negative_feedback_triggered;
    hits_in_window += hit ? 1 : 0;
    ++in_window;
    if ((i + 1) % kWindow == 0) close_window();
  }
  if (in_window > 0) close_window();

  if (retune && framework.retune_controller() != nullptr) {
    framework.retune_controller()->WaitIdle();
  }
  stop.store(true, std::memory_order_release);
  prober.join();
  outcome.probe_count = probe_count.load();
  outcome.probe_failures = probe_failures.load();

  // Pre-drift baseline: the last 3 windows before the collapse.
  const size_t drift_window = kPhase1 / kWindow;
  double pre = 0.0;
  for (size_t w = drift_window - 3; w < drift_window; ++w)
    pre += outcome.windows[w].hit_rate;
  outcome.pre_drift_hit_rate = pre / 3.0;

  for (size_t w = drift_window; w < outcome.windows.size(); ++w) {
    outcome.post_drift_floor =
        std::min(outcome.post_drift_floor, outcome.windows[w].hit_rate);
  }
  // Recovery: first post-drift window back at 90% of the pre-drift rate,
  // skipping the drift window itself (it mixes both phases' behavior).
  for (size_t w = drift_window + 1; w < outcome.windows.size(); ++w) {
    if (outcome.windows[w].hit_rate >= 0.9 * outcome.pre_drift_hit_rate) {
      outcome.recovery_queries = static_cast<long>((w - drift_window) * kWindow);
      break;
    }
  }
  double fin = 0.0;
  for (size_t w = outcome.windows.size() - 3; w < outcome.windows.size(); ++w)
    fin += outcome.windows[w].hit_rate;
  outcome.final_hit_rate = fin / 3.0;

  const auto snap = framework.MetricsSnapshot();
  outcome.refits = CounterValue(snap.registry, "server.retune.refits");
  outcome.generations =
      CounterValue(snap.registry, "server.retune.generations");
  return outcome;
}

std::string ArmJson(const ArmOutcome& arm) {
  std::string out = "{\"pre_drift_hit_rate\": " +
                    JsonNumber(arm.pre_drift_hit_rate);
  out += ", \"post_drift_floor\": " + JsonNumber(arm.post_drift_floor);
  out += ", \"final_hit_rate\": " + JsonNumber(arm.final_hit_rate);
  out += ", \"recovery_queries\": " + std::to_string(arm.recovery_queries);
  out += ", \"refits\": " + std::to_string(arm.refits);
  out += ", \"generations\": " + std::to_string(arm.generations);
  out += ", \"probe_count\": " + std::to_string(arm.probe_count);
  out += ", \"probe_failures\": " + std::to_string(arm.probe_failures);
  out += ", \"hit_rate_trajectory\": [";
  for (size_t w = 0; w < arm.windows.size(); ++w) {
    if (w > 0) out += ", ";
    out += "{\"hit_rate\": " + JsonNumber(arm.windows[w].hit_rate);
    out += ", \"generation\": " + std::to_string(arm.windows[w].generation);
    out += "}";
  }
  out += "]}";
  return out;
}

void Run() {
  PrintHeader("Adaptive retuning: adversarial-drift recovery (Q5)");
  Experiment probe("Q5");
  const double box_center = FindDriftBoxCenter(probe, kBoxHalfWidth);
  const double home_center = FindHomeCenter(probe, box_center, kBoxHalfWidth);
  std::printf("drift box: center %.3f, half-width %.2f (single-plan "
              "inside; the generation-0 radius around it is majority "
              "other-plan territory); home cluster at %.3f\n",
              box_center, kBoxHalfWidth, home_center);

  const ArmOutcome off = RunArm("Q5", home_center, box_center,
                                /*retune=*/false);
  const ArmOutcome on = RunArm("Q5", home_center, box_center,
                               /*retune=*/true);

  std::printf("\n%-8s %14s %14s %10s %10s\n", "window", "hit(off)",
              "hit(on)", "gen(off)", "gen(on)");
  PrintRule();
  const size_t rows = std::max(off.windows.size(), on.windows.size());
  for (size_t w = 0; w < rows; ++w) {
    const char* marker = (w == kPhase1 / kWindow) ? "  <-- drift" : "";
    std::printf("%-8zu %14.3f %14.3f %10u %10u%s\n", w,
                w < off.windows.size() ? off.windows[w].hit_rate : 0.0,
                w < on.windows.size() ? on.windows[w].hit_rate : 0.0,
                w < off.windows.size() ? off.windows[w].generation : 0,
                w < on.windows.size() ? on.windows[w].generation : 0, marker);
  }
  std::printf("\npre-drift hit rate:  off %.3f   on %.3f\n",
              off.pre_drift_hit_rate, on.pre_drift_hit_rate);
  std::printf("post-drift floor:    off %.3f   on %.3f\n",
              off.post_drift_floor, on.post_drift_floor);
  std::printf("final hit rate:      off %.3f   on %.3f\n",
              off.final_hit_rate, on.final_hit_rate);
  std::printf("recovery (queries):  off %ld   on %ld   (-1 = never)\n",
              off.recovery_queries, on.recovery_queries);
  std::printf("refits: off %llu, on %llu; probe failures during handoffs: "
              "%llu of %llu probes\n",
              static_cast<unsigned long long>(off.refits),
              static_cast<unsigned long long>(on.refits),
              static_cast<unsigned long long>(on.probe_failures),
              static_cast<unsigned long long>(on.probe_count));

  std::string body = "  \"queries_phase1\": " + std::to_string(kPhase1);
  body += ",\n  \"queries_phase1_uniform\": " + std::to_string(kPhase1Uniform);
  body += ",\n  \"queries_phase2\": " + std::to_string(kPhase2);
  body += ",\n  \"window\": " + std::to_string(kWindow);
  body += ",\n  \"home_center\": " + JsonNumber(home_center);
  body += ",\n  \"box_center\": " + JsonNumber(box_center);
  body += ",\n  \"box_half_width\": " + JsonNumber(kBoxHalfWidth);
  body += ",\n  \"retune_off\": " + ArmJson(off);
  body += ",\n  \"retune_on\": " + ArmJson(on);
  body += ",\n  \"zero_serving_gap\": ";
  body += (on.probe_failures == 0 ? "true" : "false");
  WriteBenchJson("drift_recovery", body);
}

}  // namespace
}  // namespace bench
}  // namespace ppc

int main() {
  ppc::bench::Run();
  return 0;
}
