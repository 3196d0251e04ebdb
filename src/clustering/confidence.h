#ifndef PPC_CLUSTERING_CONFIDENCE_H_
#define PPC_CLUSTERING_CONFIDENCE_H_

namespace ppc {

/// The paper's confidence model (Sec. IV-A, Fig. 4b).
///
/// Within the radius-d circle around a query point, the plan boundary
/// separating the majority plan P_max from all others is modeled as a chord.
/// The relative sample frequencies determine where that chord lies: if
/// c_max of the samples belong to P_max and c_other to other plans, the
/// minority area fraction is c_other / (c_max + c_other), which fixes the
/// chord's signed distance h = d*sin(theta) from the centre. The prediction
/// confidence is sin(theta) = h/d in [0, 1]; predictions require
/// sin(theta) > gamma *and* c_max >= c_other (ratio >= 1, i.e. the centre
/// lies inside P_max's side of the chord).

/// Confidence sin(theta) given majority and minority sample counts within
/// the query circle. Returns:
///  - 1.0 when other_count == 0 (pure region),
///  - 0.0 when max_count < other_count (centre likely outside P_max) or
///    when max_count == 0.
double ConfidenceFromCounts(double max_count, double other_count);

/// The gate `ConfidenceFromCounts(max, other) > gamma`, decided from the
/// counts without the chord bisection. The bisection's answer falls as the
/// minority fraction other / (max + other) grows (the target area grows,
/// and each halving step's comparison flips one way only), so the
/// fractions that pass form a prefix of the doubles. The constructor finds
/// the first fraction that fails, once per gamma, and Passes compares
/// against it: the same answer as the bisection for every pair of counts,
/// at the cost of one division. An abstaining point then needs no
/// bisection, and only an answered one computes its confidence.
class ConfidenceGate {
 public:
  explicit ConfidenceGate(double gamma);

  bool Passes(double max_count, double other_count) const {
    // The branches of ConfidenceFromCounts, in its order.
    if (max_count <= 0.0) return 0.0 > gamma_;
    if (other_count <= 0.0) return 1.0 > gamma_;
    if (max_count < other_count) return 0.0 > gamma_;
    return other_count / (max_count + other_count) < fraction_limit_;
  }

  /// The smallest minority fraction that fails (+inf when none in
  /// [0, 0.5] does).
  double fraction_limit() const { return fraction_limit_; }

 private:
  double gamma_;
  double fraction_limit_;
};

/// The angle-from-ratio form used in Algorithm 1: given
/// ratio = total/density[max] (so ratio >= 1, ratio == 1 for a pure
/// region), returns sin(getConfidenceAngle(ratio)).
double ConfidenceFromTotalRatio(double total_over_max);

}  // namespace ppc

#endif  // PPC_CLUSTERING_CONFIDENCE_H_
