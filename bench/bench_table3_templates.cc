// Reproduces paper Table III (Appendix A): the evaluation query templates,
// their parameter degrees, and estimated plan counts — obtained, like the
// paper, "by probing the optimizer at a finite number of plan space
// points; hence, these numbers show a lower bound on the number of plans".
//
// Stdout carries only the deterministic columns, so it is golden-locked.
// The per-probe optimizer time goes to BENCH_table3_templates.json as the
// median over kRuns repetitions of the probe loop.

#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/math_utils.h"

namespace ppc {
namespace bench {
namespace {

constexpr size_t kRandomProbes = 4000;
// Repetitions of the probe loop; the JSON's optimizer time is their
// median.
constexpr int kRuns = 5;

void Run() {
  PrintHeader("Table III: query templates and estimated plan counts");
  std::printf("%zu random probes per template (plan counts are lower "
              "bounds)\n\n",
              kRandomProbes);
  std::printf("%-6s %-7s %-7s %-7s %-12s\n", "query", "tables", "degree",
              "plans", "SQL");
  PrintRule();

  std::string json_rows;
  for (const char* name :
       {"Q0", "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8"}) {
    Experiment exp(name);
    std::set<PlanId> plans;
    std::vector<double> micros;
    for (int run = 0; run < kRuns; ++run) {
      // Every run probes the same points, so the plan set is the same.
      Rng rng(1234);
      const auto start = std::chrono::steady_clock::now();
      for (size_t i = 0; i < kRandomProbes; ++i) {
        std::vector<double> point(static_cast<size_t>(exp.dims()));
        for (double& v : point) v = rng.Uniform();
        plans.insert(exp.Label(point).plan);
      }
      micros.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count() /
                       kRandomProbes);
    }
    std::printf("%-6s %-7zu %-7d %-7zu %s\n", name,
                exp.tmpl().tables.size(), exp.dims(), plans.size(),
                exp.tmpl().ToSql().c_str());
    if (!json_rows.empty()) json_rows += ",\n";
    json_rows += "    {\"query\": ";
    AppendJsonString(name, &json_rows);
    json_rows += ", \"tables\": " + std::to_string(exp.tmpl().tables.size());
    json_rows += ", \"degree\": " + std::to_string(exp.dims());
    json_rows += ", \"plans\": " + std::to_string(plans.size());
    json_rows += ", \"optimize_us\": " + JsonNumber(Median(micros));
    json_rows += "}";
  }
  WriteBenchJson("table3_templates",
                 "  \"probes\": " + std::to_string(kRandomProbes) +
                     ",\n  \"runs\": " + std::to_string(kRuns) +
                     ",\n  \"rows\": [\n" + json_rows + "\n  ]");
  std::printf("\nOptimizer time per probe (median of %d runs) is in "
              "BENCH_table3_templates.json.\n",
              kRuns);
  std::printf(
      "\nExpected shape (paper Table III): parameter degrees 2..6; plan\n"
      "counts grow with dimensionality and join count.\n");
}

}  // namespace
}  // namespace bench
}  // namespace ppc

int main() {
  ppc::bench::Run();
  return 0;
}
