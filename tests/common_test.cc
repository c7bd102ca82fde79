// Unit tests for src/common: Status/Result, RNG determinism, statistics.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"

namespace millipage {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status e = Status::Invalid("bad");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(e.ToString(), "INVALID_ARGUMENT: bad");
  EXPECT_EQ(Status::Ok().ToString(), "OK");
}

TEST(StatusTest, ErrnoCapturesStrerror) {
  errno = ENOENT;
  const Status e = Status::Errno("open");
  EXPECT_FALSE(e.ok());
  EXPECT_NE(e.message().find("open"), std::string::npos);
}

Result<int> ParsePositive(int v) {
  if (v <= 0) {
    return Status::Invalid("not positive");
  }
  return v;
}

Status UseValue(int v, int* out) {
  MP_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  *out = parsed * 2;
  return Status::Ok();
}

TEST(ResultTest, ValueAndErrorPaths) {
  auto ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 21);
  auto err = ParsePositive(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);

  int out = 0;
  EXPECT_TRUE(UseValue(5, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(UseValue(-5, &out).ok());
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Rng c(124);
  EXPECT_NE(Rng(123).Next(), c.Next());
}

TEST(RngTest, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
    const int64_t v = rng.Range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// Latency histogram coverage lives in metrics_test.cc (Histogram /
// HistogramSnapshot superseded the old stats.h LatencyHistogram).

TEST(SampleStatsTest, Describes) {
  const SampleStats s = SampleStats::FromSamples({1, 2, 3, 4, 100});
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 100);
  EXPECT_DOUBLE_EQ(s.median, 3);
  EXPECT_DOUBLE_EQ(s.mean, 22);
  EXPECT_GT(s.stddev, 0);
  const SampleStats empty = SampleStats::FromSamples({});
  EXPECT_DOUBLE_EQ(empty.mean, 0);
}

}  // namespace
}  // namespace millipage
