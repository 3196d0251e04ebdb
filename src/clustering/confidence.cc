#include "clustering/confidence.h"

#include <bit>
#include <cstdint>
#include <limits>

#include "common/math_utils.h"

namespace ppc {

double ConfidenceFromCounts(double max_count, double other_count) {
  if (max_count <= 0.0) return 0.0;
  if (other_count <= 0.0) return 1.0;
  if (max_count < other_count) return 0.0;
  const double minority_fraction = other_count / (max_count + other_count);
  // Chord distance for the minority segment; with minority_fraction <= 0.5
  // the distance is >= 0 and equals d*sin(theta) on the unit circle.
  const double h = ChordDistanceForAreaFraction(minority_fraction);
  return Clamp(h, 0.0, 1.0);
}

namespace {

/// Whether the bisection's confidence at minority fraction `fraction`
/// (0 <= fraction <= 0.5, so the centre is on the majority's side) passes
/// the gate, computed as ConfidenceFromCounts does.
bool FractionPasses(double fraction, double gamma) {
  return Clamp(ChordDistanceForAreaFraction(fraction), 0.0, 1.0) > gamma;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

}  // namespace

ConfidenceGate::ConfidenceGate(double gamma) : gamma_(gamma) {
  // Non-negative doubles order as their bit patterns, so a binary search
  // over the patterns in [0, 0.5] finds the first failing fraction exactly.
  if (FractionPasses(0.5, gamma)) {
    fraction_limit_ = std::numeric_limits<double>::infinity();
    return;
  }
  if (!FractionPasses(0.0, gamma)) {
    fraction_limit_ = 0.0;
    return;
  }
  uint64_t pass = Bits(0.0);  // FractionPasses holds here...
  uint64_t fail = Bits(0.5);  // ...and not here.
  while (fail - pass > 1) {
    const uint64_t mid = pass + (fail - pass) / 2;
    if (FractionPasses(std::bit_cast<double>(mid), gamma)) {
      pass = mid;
    } else {
      fail = mid;
    }
  }
  fraction_limit_ = std::bit_cast<double>(fail);
}

double ConfidenceFromTotalRatio(double total_over_max) {
  if (total_over_max < 1.0) return 0.0;
  // total = max + other => other/max = ratio - 1.
  const double max_count = 1.0;
  const double other_count = total_over_max - 1.0;
  return ConfidenceFromCounts(max_count, other_count);
}

}  // namespace ppc
