#include "ppc/predictor_state.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "ppc/ppc_framework.h"
#include "test_util.h"
#include "workload/templates.h"

namespace ppc {
namespace {

using testutil::SmallTpch;

PpcFramework::Config BaseConfig() {
  PpcFramework::Config cfg;
  cfg.online.predictor.transform_count = 5;
  cfg.online.predictor.histogram_buckets = 40;
  cfg.online.predictor.radius = 0.05;
  cfg.online.predictor.confidence_threshold = 0.8;
  cfg.online.predictor.noise_fraction = 0.002;
  cfg.online.estimator_window = 100;
  cfg.plan_cache_capacity = 64;
  return cfg;
}

// Drives clustered EXECUTE traffic so the template's predictor learns a
// confident region around (0.5, ..., 0.5).
void Train(PpcFramework* framework, const std::string& tmpl, size_t dims,
           int queries, uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < queries; ++i) {
    std::vector<double> x(dims);
    for (double& v : x) v = 0.5 + rng.Uniform(-0.02, 0.02);
    ASSERT_TRUE(framework->ExecuteAtPoint(tmpl, x).ok());
  }
}

class PredictorStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    framework_ = std::make_unique<PpcFramework>(&SmallTpch(), BaseConfig());
    ASSERT_TRUE(framework_->RegisterTemplate(EvaluationTemplate("Q1")).ok());
    ASSERT_TRUE(framework_->RegisterTemplate(EvaluationTemplate("Q3")).ok());
    Train(framework_.get(), "Q1", 2, 200, 1);
    Train(framework_.get(), "Q3", 3, 200, 2);
  }

  std::unique_ptr<PpcFramework> framework_;
};

TEST_F(PredictorStateTest, CaptureSerializeRestoreIsBitStable) {
  const PredictorState state = PredictorState::Capture(*framework_);
  ASSERT_EQ(state.entries().size(), 2u);
  EXPECT_EQ(state.entries()[0].name, "Q1");
  EXPECT_EQ(state.entries()[1].name, "Q3");
  EXPECT_EQ(state.entries()[0].generation, 0u);
  EXPECT_EQ(state.entries()[1].generation, 0u);
  EXPECT_GT(state.sequence(), 0u);

  const std::string bytes = state.Serialize();
  auto restored = PredictorState::Restore(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().sequence(), state.sequence());
  ASSERT_EQ(restored.value().entries().size(), state.entries().size());
  for (size_t i = 0; i < state.entries().size(); ++i) {
    const PredictorState::TemplateEntry& got = restored.value().entries()[i];
    const PredictorState::TemplateEntry& want = state.entries()[i];
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.generation, want.generation);
    EXPECT_EQ(got.content_hash, want.content_hash);
    EXPECT_EQ(got.blob, want.blob);
  }
  EXPECT_EQ(restored.value().Serialize(), bytes);
}

TEST_F(PredictorStateTest, SequenceIncreasesPerCapture) {
  const PredictorState a = PredictorState::Capture(*framework_);
  const PredictorState b = PredictorState::Capture(*framework_);
  EXPECT_GT(b.sequence(), a.sequence());
}

TEST_F(PredictorStateTest, ApplyWarmStartsAnotherFramework) {
  PpcFramework replica(&SmallTpch(), BaseConfig());
  ASSERT_TRUE(replica.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  ASSERT_TRUE(replica.RegisterTemplate(EvaluationTemplate("Q3")).ok());

  const PredictorState state = PredictorState::Capture(*framework_);
  auto report = state.ApplyTo(&replica);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().templates_applied, 2u);
  EXPECT_EQ(report.value().templates_skipped, 0u);

  // The replica answers every prediction exactly as the leader does,
  // without having executed a single query itself.
  Rng probe(7);
  int nonnull = 0;
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> x = {0.5 + probe.Uniform(-0.02, 0.02),
                                   0.5 + probe.Uniform(-0.02, 0.02)};
    auto leader = framework_->PredictAtPoint("Q1", x);
    auto follower = replica.PredictAtPoint("Q1", x);
    ASSERT_TRUE(leader.ok());
    ASSERT_TRUE(follower.ok());
    EXPECT_EQ(follower.value().plan, leader.value().plan);
    EXPECT_EQ(follower.value().confidence, leader.value().confidence);
    if (follower.value().plan != kNullPlanId) ++nonnull;
  }
  EXPECT_GT(nonnull, 50);
}

TEST_F(PredictorStateTest, ApplySkipsTemplatesUnknownToTarget) {
  PpcFramework replica(&SmallTpch(), BaseConfig());
  ASSERT_TRUE(replica.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  const PredictorState state = PredictorState::Capture(*framework_);
  auto report = state.ApplyTo(&replica);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().templates_applied, 1u);
  EXPECT_EQ(report.value().templates_skipped, 1u);
}

TEST_F(PredictorStateTest, ApplyRejectsConfigMismatch) {
  PpcFramework::Config other = BaseConfig();
  other.online.predictor.histogram_buckets = 16;
  PpcFramework replica(&SmallTpch(), other);
  ASSERT_TRUE(replica.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  const PredictorState state = PredictorState::Capture(*framework_);
  auto report = state.ApplyTo(&replica);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// PPCR v2 keeps a flag byte after the version, and every writer sets it
// to 0. A blob with the byte set is refused even when its checksum is
// consistent, so no reader takes a partial snapshot for a full one.
TEST_F(PredictorStateTest, RestoreRejectsNonZeroFlagByte) {
  std::string bytes = PredictorState::Capture(*framework_).Serialize();
  constexpr size_t kFlagOffset = 4 /* magic */ + 4 /* version */;
  ASSERT_EQ(bytes[kFlagOffset], 0);
  bytes[kFlagOffset] = 1;
  const size_t body = bytes.size() - sizeof(uint64_t);
  const uint64_t checksum = Fnv1a64(std::string_view(bytes).substr(0, body));
  std::memcpy(bytes.data() + body, &checksum, sizeof(checksum));
  auto restored = PredictorState::Restore(bytes);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find("flag byte"), std::string::npos);
}

// Generation threading across the replication path (DESIGN.md §17): a
// leader that refit past generation 0 ships entries stamped with the new
// generation; a generation-0 replica follows it through the warm handoff,
// and a stale (older-generation) snapshot can never roll a replica back.
TEST_F(PredictorStateTest, ApplyFollowsLeaderAcrossGenerations) {
  PpcFramework::Config leader_cfg = BaseConfig();
  leader_cfg.retune.enabled = true;
  leader_cfg.retune.min_reservoir_points = 16;
  leader_cfg.retune.reservoir_capacity = 256;
  PpcFramework leader(&SmallTpch(), leader_cfg);
  ASSERT_TRUE(leader.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  ASSERT_TRUE(leader.RegisterTemplate(EvaluationTemplate("Q3")).ok());
  Train(&leader, "Q1", 2, 200, 1);
  Train(&leader, "Q3", 3, 200, 2);

  const PredictorState before = PredictorState::Capture(leader);
  ASSERT_EQ(before.entries()[0].generation, 0u);

  // Force the leader to refit Q1 (Q3 stays at generation 0).
  ASSERT_TRUE(leader.retune_controller()->ForceRetune("Q1"));
  leader.retune_controller()->WaitIdle();
  ASSERT_EQ(leader.online_predictor("Q1")->predictor().transform_generation(),
            1u);

  const PredictorState after = PredictorState::Capture(leader);
  ASSERT_EQ(after.entries()[0].name, "Q1");
  EXPECT_EQ(after.entries()[0].generation, 1u);
  EXPECT_EQ(after.entries()[1].generation, 0u);

  // A generation-0 replica applying the refit snapshot installs Q1's new
  // generation via the warm handoff and adopts Q3 in place.
  PpcFramework replica(&SmallTpch(), BaseConfig());
  ASSERT_TRUE(replica.RegisterTemplate(EvaluationTemplate("Q1")).ok());
  ASSERT_TRUE(replica.RegisterTemplate(EvaluationTemplate("Q3")).ok());
  auto report = after.ApplyTo(&replica);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().templates_applied, 2u);
  EXPECT_EQ(report.value().generations_installed, 1u);
  EXPECT_EQ(
      replica.online_predictor("Q1")->predictor().transform_generation(), 1u);

  // The replica now serves Q1 bit-identically to the refit leader.
  Rng probe(7);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x = {0.5 + probe.Uniform(-0.02, 0.02),
                                   0.5 + probe.Uniform(-0.02, 0.02)};
    auto l = leader.PredictAtPoint("Q1", x);
    auto r = replica.PredictAtPoint("Q1", x);
    ASSERT_TRUE(l.ok());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().plan, l.value().plan);
    EXPECT_EQ(r.value().confidence, l.value().confidence);
  }

  // The pre-refit capture is now stale for Q1: applying it must fail
  // rather than silently rolling the replica back a generation.
  auto stale = before.ApplyTo(&replica);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stale.status().message().find("stale"), std::string::npos);
}

TEST_F(PredictorStateTest, RestoreRejectsCorruption) {
  const std::string bytes = PredictorState::Capture(*framework_).Serialize();
  EXPECT_EQ(PredictorState::Restore("").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PredictorState::Restore("garbage").status().code(),
            StatusCode::kInvalidArgument);
  // Truncation sweep over structural prefixes plus a byte-level tail.
  for (size_t cut : {size_t{0}, size_t{4}, size_t{12}, bytes.size() / 2,
                     bytes.size() - 1}) {
    auto restored = PredictorState::Restore(bytes.substr(0, cut));
    ASSERT_FALSE(restored.ok()) << "cut at " << cut;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  }
  // Bit flips anywhere fail the envelope checksum (or a field check).
  for (size_t byte = 0; byte < bytes.size(); byte += 13) {
    std::string mutated = bytes;
    mutated[byte] = static_cast<char>(mutated[byte] ^ 0x40);
    auto restored = PredictorState::Restore(mutated);
    ASSERT_FALSE(restored.ok()) << "byte " << byte;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << "byte " << byte;
  }
}

}  // namespace
}  // namespace ppc
