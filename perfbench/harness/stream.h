#ifndef PERFBENCH_HARNESS_STREAM_H_
#define PERFBENCH_HARNESS_STREAM_H_

// The benchmark's inputs: a seeded zipf_tenants event stream over the
// nine evaluation templates, stored flat so the load generator's memory
// is fixed and small.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Stream {
  /// Template names Q0..Q8, indexed by event template index.
  std::vector<std::string> names;
  std::vector<int> dims;
  /// Per event: template index and the offset of its point in `coords`.
  std::vector<uint32_t> tmpl;
  std::vector<uint32_t> offset;
  std::vector<double> coords;

  size_t size() const { return tmpl.size(); }
  const double* point(size_t i) const { return coords.data() + offset[i]; }
  std::vector<double> Point(size_t i) const {
    const double* p = point(i);
    return std::vector<double>(p, p + dims[tmpl[i]]);
  }
  const std::string& name(size_t i) const { return names[tmpl[i]]; }
};

/// Draws `count` events from the zipf_tenants stream whose tenant
/// population (each tenant's template and cluster center) is fixed by
/// `population_seed`. A seed picks which of that stream's events are
/// kept: before each kept event a seeded 0..15 events are skipped, so two
/// sample seeds share about one event in eight and every kept event is
/// still an independent draw from the same tenant mixture. The first
/// `fixed_prefix` events are picked with seed 0, the rest with
/// `sample_seed`, so a workload's warm-up prefix (and with it the set-up
/// work) is the same in every run. Aborts if the scenario cannot be built
/// (the configuration is fixed, so that is a program bug).
Stream MakeStream(uint64_t population_seed, uint64_t sample_seed,
                  size_t fixed_prefix, size_t count);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STREAM_H_
