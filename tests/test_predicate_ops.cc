// Tests for the >= predicate direction through the whole stack:
// SQL rendering, selectivity normalization and its inverse,
// optimization, row-level execution, and the PPC framework.

#include <gtest/gtest.h>

#include "exec/row_executor.h"
#include "optimizer/optimizer.h"
#include "ppc/ppc_framework.h"
#include "test_util.h"
#include "workload/selectivity_mapper.h"
#include "workload/templates.h"

namespace ppc {
namespace {

using testutil::SmallTpch;

TEST(PredicateOpsTest, SymbolNames) {
  EXPECT_STREQ(PredicateOpSymbol(PredicateOp::kLeq), "<=");
  EXPECT_STREQ(PredicateOpSymbol(PredicateOp::kGeq), ">=");
}

TEST(PredicateOpsTest, ToSqlRendersDirection) {
  const QueryTemplate tmpl = MixedPredicateTemplate();
  const std::string sql = tmpl.ToSql();
  EXPECT_NE(sql.find("orders.o_date >= $0"), std::string::npos);
  EXPECT_NE(sql.find("lineitem.l_quantity <= $1"), std::string::npos);
}

TEST(PredicateOpsTest, GeqSelectivityInvertsDirection) {
  const QueryTemplate tmpl = MixedPredicateTemplate();
  SelectivityMapper mapper(&SmallTpch(), &tmpl);
  // For `o_date >= v`, a LARGER v means FEWER rows: selectivity falls as
  // the parameter value rises.
  const double low_value =
      mapper.ToInstance({0.9, 0.5}).value().param_values[0];
  const double high_value =
      mapper.ToInstance({0.1, 0.5}).value().param_values[0];
  EXPECT_LT(low_value, high_value);
}

TEST(PredicateOpsTest, GeqRoundTripThroughInstances) {
  const QueryTemplate tmpl = MixedPredicateTemplate();
  SelectivityMapper mapper(&SmallTpch(), &tmpl);
  for (double s : {0.1, 0.4, 0.7, 0.95}) {
    auto instance = mapper.ToInstance({s, 0.5}).value();
    auto back = mapper.ToPlanSpacePoint(instance).value();
    EXPECT_NEAR(back[0], s, 0.05) << "s=" << s;
  }
}

TEST(PredicateOpsTest, OptimizesAndExecutes) {
  const QueryTemplate tmpl = MixedPredicateTemplate();
  Optimizer optimizer(&SmallTpch());
  auto prep = optimizer.Prepare(tmpl);
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  auto opt = optimizer.Optimize(prep.value(), {0.3, 0.6});
  ASSERT_TRUE(opt.ok());

  SelectivityMapper mapper(&SmallTpch(), &tmpl);
  auto instance = mapper.ToInstance({0.3, 0.6}).value();
  RowExecutor executor(&SmallTpch());
  auto stats = executor.Execute(tmpl, *opt.value().plan,
                                instance.param_values);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats.value().output_rows, 0u);
}

TEST(PredicateOpsTest, GeqExecutionMatchesBruteForce) {
  const QueryTemplate tmpl = MixedPredicateTemplate();
  SelectivityMapper mapper(&SmallTpch(), &tmpl);
  auto instance = mapper.ToInstance({0.4, 0.7}).value();
  const double o_date_min = instance.param_values[0];
  const double l_quantity_max = instance.param_values[1];

  const Table& orders = *SmallTpch().GetTable("orders").value();
  const Table& lineitem = *SmallTpch().GetTable("lineitem").value();
  const Column& o_key = *orders.FindColumn("o_orderkey").value();
  const Column& o_date = *orders.FindColumn("o_date").value();
  const Column& l_key = *lineitem.FindColumn("l_orderkey").value();
  const Column& l_qty = *lineitem.FindColumn("l_quantity").value();
  std::map<double, int> order_rows;
  for (size_t o = 0; o < orders.row_count(); ++o) {
    if (o_date.AsDouble(o) >= o_date_min) ++order_rows[o_key.AsDouble(o)];
  }
  uint64_t expected = 0;
  for (size_t l = 0; l < lineitem.row_count(); ++l) {
    if (l_qty.AsDouble(l) > l_quantity_max) continue;
    auto it = order_rows.find(l_key.AsDouble(l));
    if (it != order_rows.end()) expected += it->second;
  }

  auto plan = MakeAggregate(MakeJoin(JoinMethod::kHashJoin, 0,
                                     MakeSeqScan("orders", {0}),
                                     MakeSeqScan("lineitem", {1})));
  RowExecutor executor(&SmallTpch());
  auto stats = executor.Execute(tmpl, *plan, instance.param_values);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().output_rows, expected);
}

TEST(PredicateOpsTest, FrameworkServesMixedTemplate) {
  PpcFramework::Config config;
  config.online.predictor.transform_count = 5;
  config.online.predictor.histogram_buckets = 40;
  config.online.predictor.radius = 0.1;
  config.online.predictor.confidence_threshold = 0.8;
  PpcFramework framework(&SmallTpch(), config);
  ASSERT_TRUE(framework.RegisterTemplate(MixedPredicateTemplate()).ok());
  Rng rng(3);
  size_t predictions = 0;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x = {0.4 + rng.Uniform(-0.02, 0.02),
                             0.6 + rng.Uniform(-0.02, 0.02)};
    auto report = framework.ExecuteAtPoint("QMixed", x);
    ASSERT_TRUE(report.ok());
    if (report.value().used_prediction) ++predictions;
  }
  EXPECT_GT(predictions, 100u);
}

}  // namespace
}  // namespace ppc
