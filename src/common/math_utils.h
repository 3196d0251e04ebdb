#ifndef PPC_COMMON_MATH_UTILS_H_
#define PPC_COMMON_MATH_UTILS_H_

#include <cstddef>
#include <vector>

namespace ppc {

/// Numeric constants and small geometric / statistical helpers shared by the
/// clustering and LSH modules.

/// Clamps x to [lo, hi].
double Clamp(double x, double lo, double hi);

/// Volume of an r-dimensional hypersphere with radius `radius`:
///   V_r(R) = pi^(r/2) / Gamma(r/2 + 1) * R^r.
double HypersphereVolume(int r, double radius);

/// Radius of the r-dimensional hypersphere whose volume equals `volume`.
double HypersphereRadiusForVolume(int r, double volume);

/// Area of the circular segment cut from a unit circle by a chord at signed
/// distance h from the centre (h in [-1, 1]); the segment is the side *away*
/// from the centre direction of h. For h = -1 the area is the full circle
/// (pi), for h = 0 it is pi/2, for h = 1 it is 0.
double UnitCircleSegmentArea(double h);

/// Inverts UnitCircleSegmentArea: returns the signed chord distance h in
/// [-1, 1] such that the segment beyond h covers `fraction` of the unit
/// circle's area. `fraction` is clamped to [0, 1]. Monotone decreasing.
double ChordDistanceForAreaFraction(double fraction);

/// Squared Euclidean distance between equally-sized vectors.
double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b);

/// Euclidean distance between equally-sized vectors.
double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b);

/// Arithmetic mean; returns 0 for an empty input.
double Mean(const std::vector<double>& xs);

/// Sample standard deviation (n-1 denominator); returns 0 for n < 2.
double SampleStdDev(const std::vector<double>& xs);

/// Median (averages the middle pair for even sizes); returns 0 for empty.
/// Copies the input (callers pass small vectors of density estimates).
double Median(std::vector<double> xs);

/// Median over xs[0..n), reordering xs in place (no allocation). Same
/// algorithm as Median, so the two agree bit for bit — the histogram
/// predict path uses this over arena scratch.
double MedianInPlace(double* xs, size_t n);

/// Lower bound of the one-sided 95% confidence interval for a proportion
/// with `successes` out of `trials`, using the normal approximation
/// p - 1.645 * sqrt(p(1-p)/n), clamped to [0, 1]. Returns 0 if trials == 0.
double ProportionLowerBound95(size_t successes, size_t trials);

}  // namespace ppc

#endif  // PPC_COMMON_MATH_UTILS_H_
