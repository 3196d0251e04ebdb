// Extension bench: statistics refresh as plan-space drift.
//
// The paper's Sec. V-D manipulates the plan space synthetically. In a live
// system the most common cause of exactly that event is mundane: data
// grows, ANALYZE runs, selectivity estimates shift, and the optimizer's
// plan choices move — under a predictor keyed to the *old* estimates.
//
// This bench grows every TPC-H table by ~2x mid-workload (new rows with a
// shifted date distribution, like a live system ingesting recent data),
// re-analyzes, and watches the online framework detect and absorb the
// shift via negative feedback and the precision estimator.

#include <cstdio>

#include "bench_util.h"
#include "common/math_utils.h"
#include "storage/tpch_generator.h"

namespace ppc {
namespace bench {
namespace {

constexpr size_t kQueries = 2000;
constexpr size_t kSwitchAt = 1000;
constexpr size_t kWindow = 100;

/// Appends `fraction` more rows to `table`, dates drawn from a shifted
/// Gaussian (recent data), other columns re-drawn like the generator's.
void GrowTable(Catalog* catalog, const std::string& table_name,
               int date_column, double fraction, Rng* rng) {
  auto table = catalog->GetMutableTable(table_name);
  PPC_CHECK(table.ok());
  Table* t = table.value();
  const size_t original_rows = t->row_count();
  const size_t new_rows =
      static_cast<size_t>(static_cast<double>(original_rows) * fraction);
  for (size_t i = 0; i < new_rows; ++i) {
    // Clone a random existing row, bump its key-ish first column past the
    // current maximum, and shift its date column toward "recent".
    const size_t src = rng->UniformInt(original_rows);
    std::vector<double> row(t->column_count());
    for (size_t c = 0; c < t->column_count(); ++c) {
      row[c] = t->column(c).AsDouble(src);
    }
    row[0] = static_cast<double>(original_rows + i + 1);
    if (date_column >= 0) {
      row[static_cast<size_t>(date_column)] =
          Clamp(rng->Gaussian(2100.0, 250.0), 0.0, 2557.0);
    }
    PPC_CHECK(t->AppendRow(row).ok());
  }
}

void Run() {
  PrintHeader("Extension: ANALYZE-induced plan-space drift (Q5)");
  std::printf("data grows ~2x with recent-shifted dates at query %zu, then "
              "ANALYZE;\nselectivity estimates and plan boundaries move "
              "under the predictor\n\n",
              kSwitchAt);

  // A private catalog (the shared bench catalog must stay immutable).
  TpchConfig cfg;
  cfg.scale_factor = 0.002;
  cfg.seed = 42;
  auto catalog = BuildTpchCatalog(cfg);

  Experiment exp("Q5", CostModelParams(), catalog.get());

  OnlinePpcPredictor::Config online_cfg = OnlineBenchConfig(exp.dims());
  online_cfg.estimator_window = 100;
  online_cfg.reset_precision_threshold = 0.70;
  OnlinePpcPredictor online(online_cfg);

  auto workload = TrajectoryWorkload(exp.dims(), kQueries, 0.01, 333);

  const OnlineOutcome outcome = RunOnlineWorkload(
      &online, workload, kWindow, [&](size_t i) -> const Experiment& {
        if (i == kSwitchAt) {
          Rng grow_rng(999);
          GrowTable(catalog.get(), "orders", 3, 1.0, &grow_rng);
          GrowTable(catalog.get(), "lineitem", 7, 1.0, &grow_rng);
          GrowTable(catalog.get(), "customer", 3, 1.0, &grow_rng);
          catalog->AnalyzeAll(64);
          // Statistics changed: row counts, NDVs, histograms. Re-prepare
          // so the optimizer sees them (a live system does this
          // implicitly).
          exp.Reprepare();
        }
        return exp;
      });
  const std::vector<MetricsAccumulator>& windows = outcome.windows;

  std::printf("%-8s %12s %10s\n", "window", "true prec", "recall");
  PrintRule();
  for (size_t w = 0; w < windows.size(); ++w) {
    std::printf("%-8zu %12.3f %10.3f%s\n", w, windows[w].Precision(),
                windows[w].Recall(),
                w == kSwitchAt / kWindow ? "  <-- data grown + ANALYZE"
                                         : "");
  }
  std::printf("\nnegative-feedback re-optimizations: %zu\n",
              outcome.negative_feedback_events);
  std::printf("histogram resets: %zu\n", online.reset_count());
  std::printf(
      "\nExpected: a precision/recall dent at the ANALYZE point, absorbed\n"
      "by negative feedback (and a reset if the shift is severe) — the\n"
      "operational face of the paper's Sec. V-D drift scenario.\n");
}

}  // namespace
}  // namespace bench
}  // namespace ppc

int main() {
  ppc::bench::Run();
  return 0;
}
