#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/hash.h"
#include "ppc/lsh_histograms_predictor.h"
#include "ppc/plan_synopsis.h"
#include "server/server.h"
#include "stats/streaming_histogram.h"
#include "test_util.h"

namespace ppc {
namespace {

using testutil::HalfSpacePlan;
using testutil::SamplePoints;

TEST(BytesTest, WriterReaderRoundTrip) {
  ByteWriter writer;
  writer.PutU8(7);
  writer.PutU32(123456);
  writer.PutU64(0xdeadbeefcafebabeULL);
  writer.PutDouble(3.14159);
  writer.PutString("hello");
  ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.GetU8().value(), 7);
  EXPECT_EQ(reader.GetU32().value(), 123456u);
  EXPECT_EQ(reader.GetU64().value(), 0xdeadbeefcafebabeULL);
  EXPECT_EQ(reader.GetDouble().value(), 3.14159);
  EXPECT_EQ(reader.GetString().value(), "hello");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BytesTest, TruncatedReadsFail) {
  ByteWriter writer;
  writer.PutU32(1);
  ByteReader reader(writer.buffer());
  EXPECT_TRUE(reader.GetU32().ok());
  EXPECT_EQ(reader.GetU32().status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(reader.GetU8().status().code(), StatusCode::kOutOfRange);
}

TEST(BytesTest, TruncatedStringFails) {
  ByteWriter writer;
  writer.PutU32(100);  // claims 100 bytes, provides none
  ByteReader reader(writer.buffer());
  EXPECT_FALSE(reader.GetString().ok());
}

TEST(StreamingHistogramSerdeTest, RoundTripPreservesEstimates) {
  StreamingHistogram original(16);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    original.Insert(rng.Uniform(), rng.Uniform(1.0, 100.0));
  }
  ByteWriter writer;
  original.SerializeTo(&writer);
  ByteReader reader(writer.buffer());
  auto restored = StreamingHistogram::Deserialize(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().TotalCount(), original.TotalCount());
  EXPECT_EQ(restored.value().bucket_count(), original.bucket_count());
  for (double lo = 0.0; lo < 1.0; lo += 0.13) {
    EXPECT_EQ(restored.value().EstimateCount(lo, lo + 0.1),
              original.EstimateCount(lo, lo + 0.1));
    EXPECT_EQ(restored.value().EstimateAverageCost(lo, lo + 0.1),
              original.EstimateAverageCost(lo, lo + 0.1));
  }
}

TEST(StreamingHistogramSerdeTest, RestoredHistogramAcceptsInserts) {
  StreamingHistogram original(8);
  original.Insert(0.5, 10.0);
  ByteWriter writer;
  original.SerializeTo(&writer);
  ByteReader reader(writer.buffer());
  auto restored = StreamingHistogram::Deserialize(&reader);
  ASSERT_TRUE(restored.ok());
  for (int i = 0; i < 100; ++i) restored.value().Insert(0.1 + i * 0.001, 1.0);
  EXPECT_LE(restored.value().bucket_count(), 8u);
  EXPECT_EQ(restored.value().TotalCount(), 101u);
}

TEST(StreamingHistogramSerdeTest, RejectsMalformedContent) {
  ByteWriter writer;
  writer.PutU32(1);  // max_buckets < 2
  writer.PutU8(0);
  writer.PutU64(0);
  writer.PutU32(0);
  ByteReader reader(writer.buffer());
  EXPECT_EQ(StreamingHistogram::Deserialize(&reader).status().code(),
            StatusCode::kInvalidArgument);
}

// Appends the header of a serialized histogram: max_buckets | policy |
// total | bucket_count.
void PutHistogramHeader(ByteWriter* writer, uint32_t max_buckets,
                        uint32_t bucket_count) {
  writer->PutU32(max_buckets);
  writer->PutU8(0);
  writer->PutU64(bucket_count);
  writer->PutU32(bucket_count);
}

TEST(StreamingHistogramSerdeTest, RejectsBucketCountBeyondSnapshotSize) {
  // A count the bytes cannot hold must fail before it sizes an
  // allocation: 0xFFFFFFFF buckets would otherwise throw bad_alloc.
  ByteWriter huge;
  PutHistogramHeader(&huge, 0xFFFFFFFFu, 0xFFFFFFFFu);
  ByteReader huge_reader(huge.buffer());
  EXPECT_EQ(StreamingHistogram::Deserialize(&huge_reader).status().code(),
            StatusCode::kInvalidArgument);
  // Two buckets claimed, one present.
  ByteWriter short_list;
  PutHistogramHeader(&short_list, 8, 2);
  short_list.PutDouble(0.5);
  short_list.PutDouble(1.0);
  short_list.PutDouble(10.0);
  ByteReader short_reader(short_list.buffer());
  EXPECT_EQ(StreamingHistogram::Deserialize(&short_reader).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StreamingHistogramSerdeTest, RejectsNonFiniteAndOutOfDomainBuckets) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* what;
    double centroid, count, cost_sum;
  };
  const Case cases[] = {
      {"NaN centroid", nan, 1.0, 1.0},
      {"NaN count", 0.5, nan, 1.0},
      {"NaN cost", 0.5, 1.0, nan},
      {"infinite count", 0.5, inf, 1.0},
      {"infinite cost", 0.5, 1.0, -inf},
      {"negative count", 0.5, -1.0, 1.0},
      {"centroid below 0", -0.25, 1.0, 1.0},
      {"centroid above 1", 1.25, 1.0, 1.0},
  };
  for (const Case& c : cases) {
    // The bad bucket follows a good one, so it is also checked against
    // the sortedness test.
    ByteWriter writer;
    PutHistogramHeader(&writer, 8, 2);
    for (const double v : {0.1, 1.0, 5.0, c.centroid, c.count, c.cost_sum}) {
      writer.PutDouble(v);
    }
    ByteReader reader(writer.buffer());
    EXPECT_EQ(StreamingHistogram::Deserialize(&reader).status().code(),
              StatusCode::kInvalidArgument)
        << c.what;
  }
  // The domain's end points themselves are valid centroids.
  ByteWriter writer;
  PutHistogramHeader(&writer, 8, 2);
  for (const double v : {0.0, 1.0, 5.0, 1.0, 2.0, 7.0}) writer.PutDouble(v);
  ByteReader reader(writer.buffer());
  EXPECT_TRUE(StreamingHistogram::Deserialize(&reader).ok());
}

TEST(PlanSynopsisSerdeTest, RoundTrip) {
  PlanSynopsis original(3, 16,
                        StreamingHistogram::MergePolicy::kMinVarianceIncrease);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    for (size_t t = 0; t < 3; ++t) {
      original.Insert(t, rng.Uniform(), rng.Uniform(1.0, 50.0));
    }
  }
  ByteWriter writer;
  original.SerializeTo(&writer);
  ByteReader reader(writer.buffer());
  auto restored = PlanSynopsis::Deserialize(&reader);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().transform_count(), 3u);
  EXPECT_EQ(restored.value().SampleCount(), original.SampleCount());
  EXPECT_EQ(testutil::MedianDensity(restored.value(), {0.3, 0.5, 0.7}, 0.1),
            testutil::MedianDensity(original, {0.3, 0.5, 0.7}, 0.1));
}

class PredictorSerdeTest : public ::testing::Test {
 protected:
  static LshHistogramsPredictor::Config Config() {
    LshHistogramsPredictor::Config cfg;
    cfg.dimensions = 2;
    cfg.transform_count = 5;
    cfg.histogram_buckets = 40;
    cfg.radius = 0.1;
    cfg.confidence_threshold = 0.6;
    cfg.noise_fraction = 0.001;
    cfg.seed = 77;
    return cfg;
  }
};

TEST_F(PredictorSerdeTest, RestoredPredictorAnswersIdentically) {
  Rng rng(7);
  LshHistogramsPredictor original(Config(),
                                  SamplePoints(2, 1000, HalfSpacePlan, &rng));
  auto restored = LshHistogramsPredictor::Restore(original.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().TotalSamples(), original.TotalSamples());
  EXPECT_EQ(restored.value().DistinctPlans(), original.DistinctPlans());
  EXPECT_EQ(restored.value().SpaceBytes(), original.SpaceBytes());
  Rng test_rng(9);
  for (int i = 0; i < 300; ++i) {
    const std::vector<double> x = {test_rng.Uniform(), test_rng.Uniform()};
    const Prediction a = original.Predict(x);
    const Prediction b = restored.value().Predict(x);
    EXPECT_EQ(a.plan, b.plan);
    EXPECT_EQ(a.confidence, b.confidence);
    EXPECT_EQ(a.estimated_cost, b.estimated_cost);
  }
}

TEST_F(PredictorSerdeTest, RestoredPredictorContinuesLearning) {
  Rng rng(11);
  LshHistogramsPredictor original(Config(),
                                  SamplePoints(2, 300, HalfSpacePlan, &rng));
  auto restored = LshHistogramsPredictor::Restore(original.Serialize());
  ASSERT_TRUE(restored.ok());
  for (const LabeledPoint& p : SamplePoints(2, 300, HalfSpacePlan, &rng)) {
    restored.value().Insert(p);
  }
  EXPECT_EQ(restored.value().TotalSamples(), 600u);
}

TEST_F(PredictorSerdeTest, RejectsWrongMagic) {
  EXPECT_FALSE(LshHistogramsPredictor::Restore("garbage").ok());
  std::string empty;
  EXPECT_FALSE(LshHistogramsPredictor::Restore(empty).ok());
}

TEST_F(PredictorSerdeTest, RejectsTruncatedSnapshot) {
  Rng rng(13);
  LshHistogramsPredictor original(Config(),
                                  SamplePoints(2, 100, HalfSpacePlan, &rng));
  const std::string bytes = original.Serialize();
  for (size_t cut : {bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_FALSE(
        LshHistogramsPredictor::Restore(bytes.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST_F(PredictorSerdeTest, RejectsTrailingGarbage) {
  Rng rng(17);
  LshHistogramsPredictor original(Config(),
                                  SamplePoints(2, 100, HalfSpacePlan, &rng));
  EXPECT_FALSE(
      LshHistogramsPredictor::Restore(original.Serialize() + "x").ok());
}

constexpr uint32_t kSnapshotMagic = 0x50504353;  // "PPCS"
constexpr uint32_t kSnapshotVersion = 3;
// The pre-retuning format: no transform generation, no fitted input
// ranges. Must be rejected, never silently adopted as generation 0.
constexpr uint32_t kSnapshotVersionV2 = 2;

// Assembles a versioned envelope (magic | version | length-prefixed
// sections | FNV-1a checksum) around the given section payloads.
std::string SnapshotEnvelope(uint32_t magic, uint32_t version,
                             const std::string& config_section,
                             const std::string& data_section) {
  ByteWriter writer;
  writer.PutU32(magic);
  writer.PutU32(version);
  writer.PutString(config_section);
  writer.PutString(data_section);
  writer.PutU64(Fnv1a64(writer.buffer()));
  return writer.Take();
}

struct RangeSpec {
  uint32_t count = 0;
  double lo = 0.0;
  double hi = 1.0;
};

// Hand-builds a syntactically complete zero-plan v3 snapshot with the
// given configuration fields, for probing Restore's validation (a
// corrupted or adversarial snapshot must fail with InvalidArgument,
// never abort).
std::string SnapshotWithConfig(uint32_t dims, uint32_t transform_count,
                               uint32_t output_dims, uint32_t bits_per_dim,
                               uint64_t buckets, uint8_t decomposition,
                               uint64_t max_z,
                               uint32_t generation = 0,
                               RangeSpec ranges = RangeSpec()) {
  ByteWriter config_section;
  config_section.PutU32(dims);
  config_section.PutU32(transform_count);
  config_section.PutU32(output_dims);
  config_section.PutU32(bits_per_dim);
  config_section.PutU64(buckets);
  config_section.PutDouble(0.1);   // radius
  config_section.PutDouble(0.7);   // confidence_threshold
  config_section.PutDouble(0.0);   // noise_fraction
  config_section.PutU8(0);         // merge policy
  config_section.PutU64(23);       // seed
  config_section.PutU8(decomposition);
  config_section.PutU64(max_z);
  config_section.PutU32(generation);
  config_section.PutU32(ranges.count);
  for (uint32_t i = 0; i < ranges.count; ++i) {
    config_section.PutDouble(ranges.lo);
    config_section.PutDouble(ranges.hi);
  }
  ByteWriter data_section;
  data_section.PutU64(0);  // total_samples
  data_section.PutU32(0);  // plan_count
  return SnapshotEnvelope(kSnapshotMagic, kSnapshotVersion,
                          config_section.buffer(), data_section.buffer());
}

TEST_F(PredictorSerdeTest, RejectsOutOfRangeConfig) {
  // The well-formed baselines restore fine — both the identity-range
  // generation 0 and a refit generation with fitted ranges. The retired
  // Z-interval budget is range-checked and otherwise ignored.
  EXPECT_TRUE(LshHistogramsPredictor::Restore(
                  SnapshotWithConfig(2, 5, 0, 5, 40, 0, 8))
                  .ok());
  EXPECT_TRUE(LshHistogramsPredictor::Restore(
                  SnapshotWithConfig(2, 5, 0, 5, 40, 0, 13))
                  .ok());
  EXPECT_TRUE(
      LshHistogramsPredictor::Restore(
          SnapshotWithConfig(2, 5, 0, 5, 40, 0, 8, 3, {2, 0.25, 0.75}))
          .ok());
  struct Case {
    const char* what;
    std::string bytes;
  };
  const Case cases[] = {
      {"zero dimensions", SnapshotWithConfig(0, 5, 0, 5, 40, 0, 8)},
      {"huge dimensions", SnapshotWithConfig(1u << 30, 5, 0, 5, 40, 0, 8)},
      {"zero transforms", SnapshotWithConfig(2, 0, 0, 5, 40, 0, 8)},
      {"huge transforms", SnapshotWithConfig(2, 1u << 31, 0, 5, 40, 0, 8)},
      {"huge output dims", SnapshotWithConfig(2, 5, 63, 5, 40, 0, 8)},
      {"zero bits per dim", SnapshotWithConfig(2, 5, 0, 0, 40, 0, 8)},
      // 2 effective output dims * 40 bits = 80 > the curve's 62-bit cap.
      {"z-order overflow", SnapshotWithConfig(2, 5, 0, 40, 40, 0, 8)},
      {"zero buckets", SnapshotWithConfig(2, 5, 0, 5, 0, 0, 8)},
      {"one bucket", SnapshotWithConfig(2, 5, 0, 5, 1, 0, 8)},
      {"huge buckets",
       SnapshotWithConfig(2, 5, 0, 5, uint64_t{1} << 40, 0, 8)},
      {"zero z intervals", SnapshotWithConfig(2, 5, 0, 5, 40, 0, 0)},
      {"huge z intervals",
       SnapshotWithConfig(2, 5, 0, 5, 40, 0, uint64_t{1} << 40)},
      // The Z-order decomposition mode is retired.
      {"decomposition mode", SnapshotWithConfig(2, 5, 0, 5, 40, 1, 8)},
      {"range count mismatches dims",
       SnapshotWithConfig(2, 5, 0, 5, 40, 0, 8, 1, {1, 0.0, 1.0})},
      {"inverted input range",
       SnapshotWithConfig(2, 5, 0, 5, 40, 0, 8, 1, {2, 0.8, 0.2})},
      {"empty input range",
       SnapshotWithConfig(2, 5, 0, 5, 40, 0, 8, 1, {2, 0.5, 0.5})},
      {"non-finite input range",
       SnapshotWithConfig(2, 5, 0, 5, 40, 0, 8, 1,
                          {2, 0.0, std::numeric_limits<double>::infinity()})},
  };
  for (const Case& c : cases) {
    auto restored = LshHistogramsPredictor::Restore(c.bytes);
    EXPECT_FALSE(restored.ok()) << c.what;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << c.what;
  }
}

TEST_F(PredictorSerdeTest, SerializedBytesAreBitStable) {
  Rng rng(19);
  LshHistogramsPredictor original(Config(),
                                  SamplePoints(2, 500, HalfSpacePlan, &rng));
  const std::string bytes = original.Serialize();
  auto restored = LshHistogramsPredictor::Restore(bytes);
  ASSERT_TRUE(restored.ok());
  // Re-serializing the restored predictor reproduces the blob bit for bit
  // — the replication path can compare content hashes across shards.
  EXPECT_EQ(restored.value().Serialize(), bytes);
}

// The snapshot bytes of a trained serving-config predictor, pinned by
// length and FNV-1a. A change that keeps the v3 format and what Insert
// learns keeps these bytes; retired config fields keep the values every
// v3 snapshot carries.
TEST_F(PredictorSerdeTest, ServingConfigSnapshotBytesArePinned) {
  LshHistogramsPredictor::Config cfg = ServingConfig().online.predictor;
  cfg.dimensions = 2;
  Rng rng(53);
  const LshHistogramsPredictor predictor(
      cfg, SamplePoints(2, 800, HalfSpacePlan, &rng));
  const std::string bytes = predictor.Serialize();
  EXPECT_EQ(bytes.size(), 9904u);
  EXPECT_EQ(Fnv1a64(bytes), 0x660feaa161211dcfull);
  auto restored = LshHistogramsPredictor::Restore(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().Serialize(), bytes);
}

// Regression: the pre-versioning layout (magic "PPC1" followed directly
// by raw config fields, no version, no lengths, no checksum) must be
// rejected with InvalidArgument, never misparsed as the current format.
TEST_F(PredictorSerdeTest, RejectsStaleV1Snapshot) {
  ByteWriter writer;
  writer.PutU32(0x50504331);  // v1 magic "PPC1"
  writer.PutU32(2);           // dimensions
  writer.PutU32(5);           // transform_count
  writer.PutU32(0);           // output_dims
  writer.PutU32(5);           // bits_per_dim
  writer.PutU64(40);          // histogram_buckets
  writer.PutDouble(0.1);
  writer.PutDouble(0.7);
  writer.PutDouble(0.0);
  writer.PutU8(0);
  writer.PutU64(23);
  writer.PutU8(0);
  writer.PutU64(8);
  writer.PutU64(0);  // total_samples
  writer.PutU32(0);  // plan_count
  auto restored = LshHistogramsPredictor::Restore(writer.Take());
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find("v1"), std::string::npos);
}

TEST_F(PredictorSerdeTest, RejectsUnknownFormatVersion) {
  LshHistogramsPredictor original(Config());
  const std::string bytes = original.Serialize();
  // Reuse the valid blob's sections under a future version number.
  ByteReader reader(bytes);
  ASSERT_TRUE(reader.GetU32().ok());  // magic
  ASSERT_TRUE(reader.GetU32().ok());  // version
  const std::string config_section = reader.GetString().value();
  const std::string data_section = reader.GetString().value();
  auto restored = LshHistogramsPredictor::Restore(SnapshotEnvelope(
      kSnapshotMagic, kSnapshotVersion + 1, config_section, data_section));
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

// Regression: a v2 blob (pre-generation format, no transform generation
// and no input ranges in the config section) must be rejected as an
// unsupported version — adopting it as "generation 0" would be a guess.
TEST_F(PredictorSerdeTest, RejectsPreGenerationV2Snapshot) {
  ByteWriter config_section;
  config_section.PutU32(2);       // dimensions
  config_section.PutU32(5);       // transform_count
  config_section.PutU32(0);       // output_dims
  config_section.PutU32(5);       // bits_per_dim
  config_section.PutU64(40);      // histogram_buckets
  config_section.PutDouble(0.1);  // radius
  config_section.PutDouble(0.7);  // confidence_threshold
  config_section.PutDouble(0.0);  // noise_fraction
  config_section.PutU8(0);        // merge policy
  config_section.PutU64(23);      // seed
  config_section.PutU8(0);        // Z-order decomposition (retired)
  config_section.PutU64(8);       // its interval budget
  ByteWriter data_section;
  data_section.PutU64(0);  // total_samples
  data_section.PutU32(0);  // plan_count
  auto restored = LshHistogramsPredictor::Restore(
      SnapshotEnvelope(kSnapshotMagic, kSnapshotVersionV2,
                       config_section.buffer(), data_section.buffer()));
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find("version 2"), std::string::npos);
}

// Overwrites the trailing checksum with the correct FNV-1a of the bytes
// before it, so structural corruption survives envelope validation and
// must be caught by the section parsers themselves.
std::string WithRecomputedChecksum(std::string blob) {
  const uint64_t checksum = Fnv1a64(
      std::string_view(blob).substr(0, blob.size() - sizeof(uint64_t)));
  std::memcpy(blob.data() + blob.size() - sizeof(uint64_t), &checksum,
              sizeof(uint64_t));
  return blob;
}

class SnapshotFuzzTest : public PredictorSerdeTest {
 protected:
  // A small trained predictor keeps the per-mutation Restore cost low
  // enough to sweep every bit under ASan.
  static std::string SmallSnapshot() {
    LshHistogramsPredictor::Config cfg = Config();
    cfg.transform_count = 3;
    cfg.histogram_buckets = 8;
    Rng rng(23);
    return LshHistogramsPredictor(cfg,
                                  SamplePoints(2, 60, HalfSpacePlan, &rng))
        .Serialize();
  }
};

TEST_F(SnapshotFuzzTest, EveryTruncationFailsWithInvalidArgument) {
  const std::string bytes = SmallSnapshot();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto restored = LshHistogramsPredictor::Restore(bytes.substr(0, cut));
    ASSERT_FALSE(restored.ok()) << "cut at " << cut;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << "cut at " << cut << ": " << restored.status().ToString();
  }
}

TEST_F(SnapshotFuzzTest, EveryBitFlipFailsWithInvalidArgument) {
  const std::string bytes = SmallSnapshot();
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      auto restored = LshHistogramsPredictor::Restore(mutated);
      ASSERT_FALSE(restored.ok()) << "byte " << byte << " bit " << bit;
      EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST_F(SnapshotFuzzTest, SectionLengthCorruptionFailsWithInvalidArgument) {
  const std::string bytes = SmallSnapshot();
  // The config-section length prefix sits right after magic + version.
  constexpr size_t kConfigLenOffset = 8;
  uint32_t config_len;
  std::memcpy(&config_len, bytes.data() + kConfigLenOffset,
              sizeof(config_len));
  const size_t data_len_offset = kConfigLenOffset + 4 + config_len;
  const struct {
    size_t offset;
    int32_t delta_or_huge;  // INT32_MAX means "set to a huge length"
  } mutations[] = {
      {kConfigLenOffset, +1},     {kConfigLenOffset, -1},
      {kConfigLenOffset, INT32_MAX}, {data_len_offset, +1},
      {data_len_offset, -1},      {data_len_offset, INT32_MAX},
  };
  for (const auto& m : mutations) {
    std::string mutated = bytes;
    uint32_t len;
    std::memcpy(&len, mutated.data() + m.offset, sizeof(len));
    len = m.delta_or_huge == INT32_MAX
              ? 0x7fffffffu
              : len + static_cast<uint32_t>(m.delta_or_huge);
    std::memcpy(mutated.data() + m.offset, &len, sizeof(len));
    // With the checksum recomputed, the corrupt length itself must be
    // caught; without, the checksum must catch it. Both are
    // InvalidArgument, never a crash.
    for (const std::string& blob : {mutated, WithRecomputedChecksum(mutated)}) {
      auto restored = LshHistogramsPredictor::Restore(blob);
      ASSERT_FALSE(restored.ok()) << "offset " << m.offset;
      EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
          << "offset " << m.offset << ": " << restored.status().ToString();
    }
  }
}

// The config and data sections of a serialized predictor.
std::pair<std::string, std::string> SnapshotSections(const std::string& blob) {
  ByteReader reader(blob);
  EXPECT_TRUE(reader.GetU32().ok());  // magic
  EXPECT_TRUE(reader.GetU32().ok());  // version
  return {reader.GetString().value(), reader.GetString().value()};
}

TEST_F(PredictorSerdeTest, RejectsDataStitchedToAnotherBucketBudget) {
  // A 40-bucket config section over the data section of a 1000-bucket
  // predictor, with a valid checksum: every histogram exceeds the budget
  // the predict scratch is sized from, so Restore must refuse it.
  Rng rng(41);
  const std::vector<LabeledPoint> sample =
      SamplePoints(2, 300, HalfSpacePlan, &rng);
  LshHistogramsPredictor::Config wide = Config();
  wide.histogram_buckets = 1000;
  const std::string config_section =
      SnapshotSections(LshHistogramsPredictor(Config()).Serialize()).first;
  const std::string data_section =
      SnapshotSections(LshHistogramsPredictor(wide, sample).Serialize())
          .second;
  auto restored = LshHistogramsPredictor::Restore(SnapshotEnvelope(
      kSnapshotMagic, kSnapshotVersion, config_section, data_section));
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PredictorSerdeTest, RejectsHistogramClaimingMoreBucketsThanBytes) {
  // A checksum-valid snapshot whose one histogram is a 17-byte header
  // claiming 0xFFFFFFFF buckets: InvalidArgument, not a bad_alloc abort.
  LshHistogramsPredictor::Config cfg = Config();
  cfg.transform_count = 1;
  const std::string config_section =
      SnapshotSections(LshHistogramsPredictor(cfg).Serialize()).first;
  ByteWriter data_section;
  data_section.PutU64(1);  // total_samples
  data_section.PutU32(1);  // plan_count
  data_section.PutU64(7);  // plan id
  data_section.PutU32(1);  // histograms in the synopsis
  PutHistogramHeader(&data_section, 0xFFFFFFFFu, 0xFFFFFFFFu);
  auto restored = LshHistogramsPredictor::Restore(
      SnapshotEnvelope(kSnapshotMagic, kSnapshotVersion, config_section,
                       data_section.buffer()));
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PredictorSerdeTest, AdoptStateTransplantsLearnedState) {
  Rng rng(29);
  LshHistogramsPredictor source(Config(),
                                SamplePoints(2, 400, HalfSpacePlan, &rng));
  LshHistogramsPredictor target(Config());
  ASSERT_TRUE(target.AdoptState(source).ok());
  EXPECT_EQ(target.TotalSamples(), source.TotalSamples());
  Rng probe(31);
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> x = {probe.Uniform(), probe.Uniform()};
    EXPECT_EQ(target.Predict(x).plan, source.Predict(x).plan);
  }
}

TEST_F(PredictorSerdeTest, AdoptStateRejectsConfigMismatch) {
  LshHistogramsPredictor source(Config());
  LshHistogramsPredictor::Config other = Config();
  other.seed = Config().seed + 1;
  LshHistogramsPredictor target(other);
  const Status status = target.AdoptState(source);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// The exact-config gate must reject a blob from a different transform
// generation with a dedicated error, even when every other config field
// matches: a refit draws new random transforms, so histograms from
// another generation index a different projected space.
TEST_F(PredictorSerdeTest, AdoptStateRejectsCrossGenerationSnapshot) {
  Rng rng(37);
  LshHistogramsPredictor::Config refit = Config();
  refit.transform_generation = 1;
  refit.input_lo = {0.2, 0.3};
  refit.input_hi = {0.7, 0.8};
  LshHistogramsPredictor source(refit,
                                SamplePoints(2, 200, HalfSpacePlan, &rng));
  LshHistogramsPredictor target(Config());  // generation 0
  const Status status = target.AdoptState(source);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("generation"), std::string::npos);
  // And the same gate holds through the wire: serialize + restore + adopt.
  auto restored = LshHistogramsPredictor::Restore(source.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().transform_generation(), 1u);
  const Status via_wire = target.AdoptState(restored.value());
  ASSERT_FALSE(via_wire.ok());
  EXPECT_NE(via_wire.message().find("generation"), std::string::npos);
}

// Same transform generation but differently fitted input ranges is also
// a different projected space — the general config gate must catch it.
TEST_F(PredictorSerdeTest, AdoptStateRejectsInputRangeMismatch) {
  LshHistogramsPredictor::Config fitted = Config();
  fitted.transform_generation = 2;
  fitted.input_lo = {0.1, 0.1};
  fitted.input_hi = {0.9, 0.9};
  LshHistogramsPredictor source(fitted);
  LshHistogramsPredictor::Config other = fitted;
  other.input_hi = {0.9, 0.95};
  LshHistogramsPredictor target(other);
  const Status status = target.AdoptState(source);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// A fitted-range generation round-trips bit-stably like generation 0.
TEST_F(PredictorSerdeTest, FittedGenerationRoundTripsBitStably) {
  Rng rng(41);
  LshHistogramsPredictor::Config refit = Config();
  refit.transform_generation = 4;
  refit.input_lo = {0.05, 0.40};
  refit.input_hi = {0.35, 0.90};
  LshHistogramsPredictor original(refit,
                                  SamplePoints(2, 400, HalfSpacePlan, &rng));
  const std::string bytes = original.Serialize();
  auto restored = LshHistogramsPredictor::Restore(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().Serialize(), bytes);
  Rng probe(43);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> x = {probe.Uniform(), probe.Uniform()};
    const Prediction a = original.Predict(x);
    const Prediction b = restored.value().Predict(x);
    EXPECT_EQ(a.plan, b.plan);
    EXPECT_EQ(a.confidence, b.confidence);
  }
}

TEST_F(PredictorSerdeTest, EmptyPredictorRoundTrips) {
  LshHistogramsPredictor original(Config());
  auto restored = LshHistogramsPredictor::Restore(original.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().TotalSamples(), 0u);
  EXPECT_FALSE(restored.value().Predict({0.5, 0.5}).has_value());
}

}  // namespace
}  // namespace ppc
