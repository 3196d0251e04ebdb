#ifndef PPC_TESTS_TEST_UTIL_H_
#define PPC_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cctype>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "clustering/predictor.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "ppc/metrics.h"
#include "ppc/online_predictor.h"
#include "ppc/plan_synopsis.h"
#include "storage/tpch_generator.h"

namespace ppc {
namespace testutil {

/// Synthetic plan spaces with known ground truth, used to test predictors
/// independently of the optimizer substrate.

/// Ground-truth labeler: plan 1 where x0 + x1 < 1, plan 2 elsewhere
/// (a diagonal half-space boundary).
inline PlanId HalfSpacePlan(const std::vector<double>& x) {
  return (x[0] + x[1] < 1.0) ? 1 : 2;
}

/// Ground-truth labeler: four quadrant plans (ids 1..4).
inline PlanId QuadrantPlan(const std::vector<double>& x) {
  const int qx = x[0] < 0.5 ? 0 : 1;
  const int qy = x[1] < 0.5 ? 0 : 1;
  return static_cast<PlanId>(1 + qx + 2 * qy);
}

/// Cost surface: smooth per-plan cost, distinct scales per plan so cost
/// mispredictions are detectable.
inline double SyntheticCost(const std::vector<double>& x, PlanId plan) {
  double base = 100.0 * static_cast<double>(plan);
  for (double v : x) base += 10.0 * v;
  return base;
}

/// Uniformly samples `count` labeled points over [0,1]^dims with the given
/// labeler.
template <typename Labeler>
std::vector<LabeledPoint> SamplePoints(int dims, size_t count, Labeler label,
                                       Rng* rng) {
  std::vector<LabeledPoint> points;
  points.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    LabeledPoint p;
    p.coords.resize(static_cast<size_t>(dims));
    for (double& v : p.coords) v = rng->Uniform();
    p.plan = label(p.coords);
    p.cost = SyntheticCost(p.coords, p.plan);
    points.push_back(std::move(p));
  }
  return points;
}

/// Drives `online` over `workload` with the half-space plan space as
/// ground truth: a NULL or overridden prediction observes the truth point;
/// an executed prediction reports the truth plan's cost, and observes the
/// truth point when negative feedback suspects it. Returns the true
/// precision/recall of every decision (NULL counts as a miss).
inline MetricsAccumulator DriveWorkload(
    OnlinePpcPredictor* online,
    const std::vector<std::vector<double>>& workload) {
  MetricsAccumulator metrics;
  for (const auto& x : workload) {
    auto decision = online->Decide(x);
    const PlanId truth = HalfSpacePlan(x);
    const double cost = SyntheticCost(x, truth);
    if (decision.use_prediction) {
      metrics.Record(decision.prediction.plan, truth);
      if (online->ReportPredictionExecuted(x, decision.prediction, cost)) {
        online->ObserveOptimized({x, truth, cost});
      }
    } else {
      metrics.Record(kNullPlanId, truth);
      online->ObserveOptimized({x, truth, cost});
    }
  }
  return metrics;
}

/// Distance of `x` to the half-space boundary x0 + x1 = 1.
inline double HalfSpaceBoundaryDistance(const std::vector<double>& x) {
  return std::abs(x[0] + x[1] - 1.0) / std::sqrt(2.0);
}

/// A synopsis's density estimate for one point: the median over
/// transforms of the count in [centers[i] - delta, centers[i] + delta].
inline double MedianDensity(const PlanSynopsis& synopsis,
                            const std::vector<double>& centers,
                            double delta) {
  std::vector<ZInterval> intervals;
  for (double c : centers) intervals.push_back({c - delta, c + delta});
  const FlatQueryRanges ranges{intervals.data(), intervals.size(), 1};
  std::vector<double> counts(centers.size());
  std::vector<double> cost_sums(centers.size());
  synopsis.SweepRanges(ranges, counts.data(), cost_sums.data());
  return Median(counts);
}

/// Shared tiny TPC-H catalog (built once per process; tests treat it as
/// immutable).
inline const Catalog& SmallTpch() {
  static const Catalog* catalog = [] {
    TpchConfig cfg;
    cfg.scale_factor = 0.002;
    cfg.seed = 42;
    return BuildTpchCatalog(cfg).release();
  }();
  return *catalog;
}

/// Minimal recursive-descent JSON syntax checker, enough to prove a
/// snapshot round-trips as valid JSON (scripts/check.sh re-validates the
/// bench-emitted files with a real parser). Shared by the metrics and
/// server tests.
class JsonValidator {
 public:
  static bool Valid(const std::string& text) {
    JsonValidator v(text);
    v.SkipWs();
    if (!v.Value()) return false;
    v.SkipWs();
    return v.pos_ == v.text_.size();
  }

 private:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Value() {
    switch (Peek()) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    if (!Consume('{')) return false;
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Consume(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool Array() {
    if (!Consume('[')) return false;
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool String() {
    if (!Consume('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_++]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      }
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Consume('.')) {
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(
                               text_[pos_ - 1]));
  }

  bool Literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (!Consume(*p)) return false;
    }
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace testutil
}  // namespace ppc

#endif  // PPC_TESTS_TEST_UTIL_H_
