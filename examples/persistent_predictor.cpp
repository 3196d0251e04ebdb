// Persistent predictor: train the histogram predictor online on Q3,
// snapshot it to a file, restore it in a "second process", and verify
// the restored predictor serves the same predictions — a plan cache
// whose learned plan-space knowledge survives server restarts.
//
//   ./build/examples/persistent_predictor [snapshot_path]

#include <cstdio>
#include <fstream>
#include <sstream>

#include "optimizer/optimizer.h"
#include "ppc/lsh_histograms_predictor.h"
#include "storage/tpch_generator.h"
#include "workload/templates.h"
#include "workload/workload_generator.h"

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : "/tmp/ppc_predictor.snapshot";

  ppc::TpchConfig db_config;
  db_config.scale_factor = 0.002;
  auto catalog = ppc::BuildTpchCatalog(db_config);

  const ppc::QueryTemplate tmpl = ppc::EvaluationTemplate("Q3");
  std::printf("template: %s\n\n", tmpl.ToSql().c_str());

  ppc::Optimizer optimizer(catalog.get());
  auto prep = optimizer.Prepare(tmpl);
  PPC_CHECK(prep.ok());

  // --- "First server process": train from optimizer feedback. ---
  ppc::LshHistogramsPredictor::Config cfg;
  cfg.dimensions = tmpl.ParameterDegree();
  cfg.transform_count = 5;
  cfg.histogram_buckets = 40;
  cfg.radius = 0.15;
  cfg.confidence_threshold = 0.8;
  ppc::LshHistogramsPredictor trained(cfg);

  ppc::TrajectoryConfig traj;
  traj.dimensions = cfg.dimensions;
  traj.total_points = 800;
  traj.scatter = 0.02;
  ppc::Rng rng(2718);
  for (const auto& point : RandomTrajectoriesWorkload(traj, &rng)) {
    auto opt = optimizer.Optimize(prep.value(), point);
    PPC_CHECK(opt.ok());
    trained.Insert({point, opt.value().plan_id, opt.value().estimated_cost});
  }
  std::printf("trained: %zu samples, %zu plans, %llu synopsis bytes\n",
              trained.TotalSamples(), trained.DistinctPlans(),
              static_cast<unsigned long long>(trained.SpaceBytes()));

  // Snapshot to disk.
  const std::string snapshot = trained.Serialize();
  {
    std::ofstream out(path, std::ios::binary);
    out.write(snapshot.data(),
              static_cast<std::streamsize>(snapshot.size()));
  }
  std::printf("snapshot written: %s (%zu bytes)\n\n", path.c_str(),
              snapshot.size());

  // --- "Second server process": restore and compare. ---
  std::string loaded;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    loaded = buffer.str();
  }
  auto restored = ppc::LshHistogramsPredictor::Restore(loaded);
  PPC_CHECK_MSG(restored.ok(), restored.status().ToString().c_str());

  size_t agreements = 0, predictions = 0;
  ppc::Rng probe(31415);
  for (int i = 0; i < 500; ++i) {
    std::vector<double> x(static_cast<size_t>(cfg.dimensions));
    for (double& v : x) v = probe.Uniform();
    const ppc::Prediction a = trained.Predict(x);
    const ppc::Prediction b = restored.value().Predict(x);
    if (a.plan == b.plan && a.confidence == b.confidence) ++agreements;
    if (b.has_value()) ++predictions;
  }
  std::printf("restored predictor: %zu samples, %zu plans\n",
              restored.value().TotalSamples(),
              restored.value().DistinctPlans());
  std::printf("500 probe points: %zu/500 identical answers, %zu non-NULL "
              "predictions\n",
              agreements, predictions);
  std::printf("\nthe restored predictor picks up exactly where the first "
              "process left off —\nno cold-start re-learning after a "
              "restart.\n");
  return agreements == 500 ? 0 : 1;
}
