#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/common/virtual_clock.h"

namespace flashps {
namespace {

TEST(ByteReaderTest, BulkReadCopiesExactlyOrNothing) {
  const uint8_t bytes[] = {1, 2, 3, 4, 5};
  ByteReader reader(bytes, sizeof(bytes));
  uint8_t out[4] = {9, 9, 9, 9};
  reader.Bytes(out, 2);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.offset(), 2u);
  // Three bytes remain: a four-byte read latches the failure and leaves
  // `out` and the cursor untouched.
  reader.Bytes(out, 4);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.offset(), 2u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
  EXPECT_EQ(out[2], 9);
  EXPECT_EQ(out[3], 9);
  // Once failed, even a read that would fit copies nothing.
  reader.Bytes(out + 2, 1);
  EXPECT_EQ(out[2], 9);
  EXPECT_EQ(reader.U8(), 0);
}

TEST(DurationTest, ArithmeticAndConversions) {
  const Duration d = Duration::Millis(1500);
  EXPECT_EQ(d.micros(), 1'500'000);
  EXPECT_DOUBLE_EQ(d.seconds(), 1.5);
  EXPECT_EQ((d + Duration::Millis(500)).seconds(), 2.0);
  EXPECT_EQ((d - Duration::Millis(500)).seconds(), 1.0);
  EXPECT_EQ((d * 2).seconds(), 3.0);
  EXPECT_EQ((d / 3).micros(), 500'000);
  EXPECT_DOUBLE_EQ(Duration::Seconds(3.0) / d, 2.0);
}

TEST(DurationTest, SecondsRoundsToMicros) {
  EXPECT_EQ(Duration::Seconds(1e-7).micros(), 0);
  EXPECT_EQ(Duration::Seconds(1.4999999e-6).micros(), 1);
  EXPECT_EQ(Duration::Seconds(-1.0).micros(), -1'000'000);
}

TEST(TimePointTest, Ordering) {
  const TimePoint a = TimePoint::FromSeconds(1.0);
  const TimePoint b = a + Duration::Seconds(0.5);
  EXPECT_LT(a, b);
  EXPECT_EQ((b - a).millis(), 500.0);
  EXPECT_EQ(Later(a, b), b);
  EXPECT_EQ(Later(b, a), b);
}

TEST(VirtualClockTest, MonotoneAdvance) {
  VirtualClock clock;
  EXPECT_EQ(clock.now().micros(), 0);
  clock.AdvanceTo(TimePoint::FromSeconds(2.0));
  EXPECT_DOUBLE_EQ(clock.now().seconds(), 2.0);
  // Backwards moves are ignored.
  clock.AdvanceTo(TimePoint::FromSeconds(1.0));
  EXPECT_DOUBLE_EQ(clock.now().seconds(), 2.0);
  clock.AdvanceBy(Duration::Seconds(1.0));
  EXPECT_DOUBLE_EQ(clock.now().seconds(), 3.0);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, SplitStreamsDiffer) {
  Rng a(7);
  Rng split = a.Split();
  bool any_diff = false;
  for (int i = 0; i < 32; ++i) {
    any_diff |= a.NextU64() != split.NextU64();
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformBounds) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBelowUnbiasedSupport) {
  Rng rng(13);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i) {
    ++counts[rng.NextBelow(7)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, 10000, 600);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  StatAccumulator acc;
  for (int i = 0; i < 50000; ++i) {
    acc.Add(rng.Normal(3.0, 2.0));
  }
  EXPECT_NEAR(acc.Mean(), 3.0, 0.05);
  EXPECT_NEAR(acc.Stddev(), 2.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  StatAccumulator acc;
  for (int i = 0; i < 50000; ++i) {
    acc.Add(rng.Exponential(4.0));
  }
  EXPECT_NEAR(acc.Mean(), 0.25, 0.01);
}

TEST(RngTest, PoissonMean) {
  Rng rng(23);
  StatAccumulator small;
  StatAccumulator large;
  for (int i = 0; i < 20000; ++i) {
    small.Add(rng.Poisson(3.5));
    large.Add(rng.Poisson(100.0));
  }
  EXPECT_NEAR(small.Mean(), 3.5, 0.1);
  EXPECT_NEAR(large.Mean(), 100.0, 0.5);
}

TEST(RngTest, BetaMeanMatchesParameters) {
  Rng rng(29);
  StatAccumulator acc;
  for (int i = 0; i < 30000; ++i) {
    const double v = rng.Beta(0.8, 6.47);
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 1.0);
    acc.Add(v);
  }
  EXPECT_NEAR(acc.Mean(), 0.8 / (0.8 + 6.47), 0.01);
}

TEST(ZipfSamplerTest, SkewsTowardHead) {
  Rng rng(31);
  ZipfSampler zipf(100, 1.1);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
}

TEST(StatAccumulatorTest, SummaryStats) {
  StatAccumulator acc;
  for (int i = 1; i <= 100; ++i) {
    acc.Add(static_cast<double>(i));
  }
  EXPECT_EQ(acc.count(), 100u);
  EXPECT_DOUBLE_EQ(acc.Mean(), 50.5);
  EXPECT_DOUBLE_EQ(acc.Min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.Max(), 100.0);
  EXPECT_NEAR(acc.P50(), 50.5, 1e-9);
  EXPECT_NEAR(acc.P95(), 95.05, 1e-9);
  EXPECT_NEAR(acc.Percentile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(acc.Percentile(0.0), 1.0, 1e-9);
}

TEST(StatAccumulatorTest, PercentileAfterAppend) {
  StatAccumulator acc;
  acc.Add(1.0);
  EXPECT_DOUBLE_EQ(acc.P95(), 1.0);
  acc.Add(100.0);  // Invalidates the cached sort.
  EXPECT_GT(acc.P95(), 90.0);
}

TEST(HistogramTest, BucketsAndClamping) {
  Histogram h(0.0, 1.0, 10);
  h.Add(0.05);
  h.Add(0.05);
  h.Add(0.95);
  h.Add(2.0);   // Clamps to last bucket.
  h.Add(-1.0);  // Clamps to first bucket.
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bucket(0), 3u);
  EXPECT_EQ(h.bucket(9), 2u);
  EXPECT_DOUBLE_EQ(h.Fraction(0), 0.6);
  EXPECT_FALSE(h.Render().empty());
}

TEST(FitLinearTest, ExactLine) {
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + 7.0);
  }
  const LinearFit fit = FitLinear(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 7.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(FitLinearTest, NoisyLineHighR2) {
  Rng rng(37);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    const double xv = rng.Uniform(0.0, 10.0);
    x.push_back(xv);
    y.push_back(2.0 * xv + 1.0 + rng.Normal(0.0, 0.1));
  }
  const LinearFit fit = FitLinear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 0.05);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(FitLinearTest, DegenerateInput) {
  const LinearFit empty = FitLinear({}, {});
  EXPECT_EQ(empty.slope, 0.0);
  const LinearFit constant_x = FitLinear({2.0, 2.0, 2.0}, {1.0, 2.0, 3.0});
  EXPECT_EQ(constant_x.slope, 0.0);
  EXPECT_NEAR(constant_x.intercept, 2.0, 1e-9);
}

}  // namespace
}  // namespace flashps
